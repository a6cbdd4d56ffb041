//! The one per-session store both engines run on.
//!
//! A [`SlotStore`] is one shard's worth of smoothing sessions. Each slot
//! keeps its per-session scalars in a one-cache-line [`SlotHot`]
//! header, its session id in a cold side array, and its arrival history
//! in a fixed `ring_cap`-word `u32` slice of one flat ring (slot `j`'s
//! history starts at `j * ring_cap`) — the [`SlotShape`]. A slot keeps
//! nothing it can recompute: each decision resolves its lookahead
//! `S_i .. S_{i+H−1}` straight from the ring into one `f64` scratch of
//! the store ([`SizeEstimator::resolve_ahead`]; for the paper's
//! estimator, two contiguous runs of the ring). That scratch and the
//! decision scratch ([`BlockLanes`]) are shared by every slot of the
//! store.
//!
//! A fused dynamic run also keeps each session's `LiveMux` lane in its
//! slot: the store's [`LaneTable`] holds one lane per slot beside the
//! slot's own arrays, with the events the lanes posted, bucketed by mux
//! shard. A [`Sink`] tells the step body where decisions go — a closure
//! (the lockstep engine and its oracle hooks), [`Discard`], or
//! [`ToLane`], which feeds the slot's lane inline and refreshes the
//! lane's frontier when the visit ends. Snapshots carry the lane, so a
//! session moves with it.
//!
//! [`step_slot`](SlotStore::step_slot) is the one per-session step body:
//! push a run of arrivals, make every decision the paper's
//! preconditions allow, prune the history in whole GOP periods as soon
//! as a period falls out of use, so a slot never holds more than
//! Theorem 1's live bound. Decisions read the slot's `u32` history
//! words in place: the resolver widens each read, which is exact. The
//! header keeps the next decision's `need` (what [`live_ready`]
//! derives, and only it), so a push that completes no decision costs
//! one integer compare and `t_i` is derived only for a decision that is
//! made; the inlined [`decide_ready`] makes it, as it does every
//! decision of the end-of-stream drain. Both engines drive the step
//! body through slot-order walks — the lockstep [`SessionEngine`](crate::SessionEngine) through
//! [`sweep`](SlotStore::sweep), the
//! [`DynamicEngine`](crate::DynamicEngine) through its flush, feeding
//! each slot what arrived since its last visit. Sessions are independent
//! state machines, so a session's schedule depends only on its stream
//! and class, never on which engine or visit pattern ran it.
//!
//! Every narrowed word widens *exactly* (`u32 → u64`/`usize`/`f64` are
//! all value-preserving), so the compact layout changes no decision bit
//! — pinned by the engine-vs-[`smooth_core::OnlineSmoother`] proptests.

use smooth_core::{
    decide_ready, live_ready, prunable_prefix, Arrived, BlockLanes, LiveCursor, LiveParams,
    PatternEstimator, PictureSchedule, Ready, SizeEstimator, SizeHistory,
};

use std::cell::RefCell;

use smooth_netsim::livemux::{LaneTable, SessionLane};

use crate::dynamic::SessionSnapshot;
use crate::{fnv, ClassInfo, SizeSource, FNV_OFFSET};

/// Where [`SlotStore::step_slot`] sends each decision it makes.
pub(crate) trait Sink {
    /// Takes one decision of session `sid`, whose slot is `j`; `link`
    /// is the store's lane table.
    fn decision(&mut self, link: &mut LaneTable, j: usize, sid: u64, d: &PictureSchedule);

    /// Slot `j`'s visit is over.
    #[inline(always)]
    fn visited(&mut self, _link: &mut LaneTable, _j: usize) {}
}

/// A closure sink: `f(sid, decision)`.
impl<F: FnMut(u64, &PictureSchedule)> Sink for F {
    #[inline(always)]
    fn decision(&mut self, _link: &mut LaneTable, _j: usize, sid: u64, d: &PictureSchedule) {
        self(sid, d)
    }
}

/// The sink of a pass nothing listens to.
pub(crate) struct Discard;

impl Sink for Discard {
    #[inline(always)]
    fn decision(&mut self, _link: &mut LaneTable, _j: usize, _sid: u64, _d: &PictureSchedule) {}
}

/// The fused sink: every decision goes to the mux lane in the session's
/// own slot, and a visit ends by refreshing that lane's frontier.
pub(crate) struct ToLane;

impl Sink for ToLane {
    #[inline(always)]
    fn decision(&mut self, link: &mut LaneTable, j: usize, sid: u64, d: &PictureSchedule) {
        link.decision(j, sid, d);
    }

    #[inline(always)]
    fn visited(&mut self, link: &mut LaneTable, j: usize) {
        link.visited(j);
    }
}

/// Free-slot sentinel in [`SlotHot::class_of`].
pub(crate) const FREE: u16 = u16::MAX;

/// One slot's complete per-event scalar state, packed into exactly one
/// cache line: a visit reads one line before any smoothing work starts,
/// where parallel per-field arrays cost ~9 demand misses on a slot out
/// of cache (a leave's catch-up visit), and the slot-order walks stream
/// the headers.
#[repr(C, align(64))]
pub(crate) struct SlotHot {
    /// Decisions already emitted (the next undecided picture index).
    pub(crate) decided: u32,
    /// High-water mark of the visible prefix length consulted so far.
    pub(crate) watermark: u32,
    /// Logical index of the first retained size.
    pub(crate) base: u32,
    /// Arrivals the next decision needs in hand: [`live_ready`]'s
    /// `need` for the state above, derived when the state is installed
    /// and after each decision, and checked against `live_ready` on
    /// every visit in debug builds.
    pub(crate) need: u32,
    /// Retained history length; bounded by the class `ring_cap`, which
    /// [`ClassInfo::try_new`] checks fits `u16`.
    pub(crate) len: u16,
    /// Class id, or [`FREE`] for a recycled slot.
    pub(crate) class_of: u16,
    /// Departure time of the last decided picture (authoritative `f64`).
    pub(crate) depart: f64,
    /// Rate of the last decided picture (meaningful when `decided > 0`).
    pub(crate) prev_rate: f64,
    /// FNV-1a fingerprint of every decision emitted by the occupant
    /// (index, start, rate, depart bits) — the determinism witness.
    pub(crate) digest: u64,
    /// Size-source stream id fed to [`SizeSource::size`].
    pub(crate) stream: u64,
    /// Next picture arrival of the occupant, in scheduler ticks (the
    /// lockstep engine has no scheduler clock and leaves it at 0).
    pub(crate) next_arrival: u64,
}

/// The header must stay exactly one cache line — adding a field here
/// silently doubles the stride via the alignment, so fail loudly.
const _: () = assert!(std::mem::size_of::<SlotHot>() == 64);

impl SlotHot {
    fn fresh() -> Self {
        SlotHot {
            decided: 0,
            watermark: 0,
            base: 0,
            need: 0,
            len: 0,
            class_of: FREE,
            depart: 0.0,
            prev_rate: 0.0,
            digest: FNV_OFFSET,
            stream: 0,
            next_arrival: 0,
        }
    }
}

/// The fixed per-slot storage of an engine's stores: every slot is as
/// wide as the fleet's widest class needs, so a freed slot can be
/// recycled by *any* class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SlotShape {
    /// History words a slot holds: the largest class `ring_cap`.
    pub(crate) ring_cap: usize,
    /// The largest class `H`: the length of the store's lookahead
    /// scratch, which every slot shares.
    pub(crate) look: usize,
}

impl SlotShape {
    /// The shape that fits every class of `classes` (non-empty).
    pub(crate) fn of(classes: &[ClassInfo]) -> Self {
        let max = |f: fn(&ClassInfo) -> usize| classes.iter().map(f).max().expect("non-empty");
        SlotShape {
            ring_cap: max(|c| c.ring_cap),
            look: max(|c| c.class.params.h),
        }
    }

    /// Resident bytes per slot: the one-line header, the cold session
    /// id and the `u32` history slice. Every part lives in one of the
    /// store's flat arrays, so there is no per-session heap block or
    /// allocator header besides.
    pub(crate) fn bytes(self) -> usize {
        use std::mem::size_of;
        size_of::<SlotHot>() + size_of::<u64>() + size_of::<u32>() * self.ring_cap
    }
}

/// One shard's session store: slots of one [`SlotShape`] with recycling
/// through a LIFO free list.
pub(crate) struct SlotStore {
    /// Per-slot scalar headers, one cache line each.
    pub(crate) hot: Vec<SlotHot>,
    /// Engine session id of the slot's occupant (slots are recycled, so
    /// the id cannot be derived from the slot). Cold: only the decision
    /// sink, snapshots and digests read it.
    pub(crate) sid: Vec<u64>,
    /// Flat history ring, one `ring_cap` slice per slot: slot `j`
    /// retains logical pictures `base .. base + len` at
    /// `ring[j * ring_cap ..]`, each size a checked-narrowed `u32`.
    ring: Vec<u32>,
    /// Recycled slots, LIFO.
    free: Vec<u32>,
    /// The lookahead a decision resolves, `shape.look` long: scratch
    /// shared by every slot of the store.
    ahead: Box<[f64]>,
    /// Decision scratch, shared by every slot of the store.
    lanes: BlockLanes,
    /// The mux lane of each slot whose session streams into a
    /// [`LiveMux`](crate::LiveMux) (a fused dynamic run), and the
    /// events they posted; empty otherwise.
    pub(crate) link: LaneTable,
    /// Decisions made by this store's slots.
    pub(crate) decisions: u64,
    /// Occupied slots.
    pub(crate) live: usize,
    shape: SlotShape,
}

/// A store's per-slot arrays, emptied, with their capacity.
#[derive(Default)]
struct Arrays {
    hot: Vec<SlotHot>,
    sid: Vec<u64>,
    ring: Vec<u32>,
}

impl Arrays {
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.hot.capacity() * size_of::<SlotHot>()
            + self.sid.capacity() * size_of::<u64>()
            + self.ring.capacity() * size_of::<u32>()
    }
}

/// Bytes of dropped stores' arrays a thread keeps for the stores it
/// builds next: a few default shards' worth (a paper-class shard is
/// 0.8 MiB).
const RETIRED_BYTES: usize = 8 << 20;

thread_local! {
    /// Arrays of stores dropped on this thread, up to [`RETIRED_BYTES`],
    /// which the next [`SlotStore::new`] calls adopt, largest first. A
    /// fleet that is torn down and rebuilt — a restarted server, or a
    /// batch of fleet jobs — then refills memory it already has. Freed
    /// instead, a shard's arrays are not the large blocks glibc's malloc
    /// sizes its trim threshold by, so the heap is handed back to the OS
    /// and faulted in again on every build (EXPERIMENTS.md, "Lean
    /// session state").
    static RETIRED: RefCell<Vec<Arrays>> = const { RefCell::new(Vec::new()) };
}

impl Drop for SlotStore {
    fn drop(&mut self) {
        let mut mine = Arrays {
            hot: std::mem::take(&mut self.hot),
            sid: std::mem::take(&mut self.sid),
            ring: std::mem::take(&mut self.ring),
        };
        mine.hot.clear();
        mine.sid.clear();
        mine.ring.clear();
        // During thread teardown the list may be gone; the arrays are
        // then simply freed, as are those that do not fit.
        let _ = RETIRED.try_with(|retired| {
            if let Ok(mut retired) = retired.try_borrow_mut() {
                let held: usize = retired.iter().map(Arrays::bytes).sum();
                if held + mine.bytes() <= RETIRED_BYTES {
                    retired.push(mine);
                }
            }
        });
    }
}

impl SlotStore {
    pub(crate) fn new(shape: SlotShape) -> Self {
        let Arrays { hot, sid, ring } = RETIRED
            .with(|retired| {
                let mut retired = retired.borrow_mut();
                let largest = (0..retired.len()).max_by_key(|&i| retired[i].bytes())?;
                Some(retired.swap_remove(largest))
            })
            .unwrap_or_default();
        SlotStore {
            hot,
            sid,
            ring,
            free: Vec::new(),
            ahead: vec![0.0; shape.look].into_boxed_slice(),
            link: LaneTable::new(),
            lanes: BlockLanes::default(),
            decisions: 0,
            live: 0,
            shape,
        }
    }

    /// Slots ever allocated (live + free) — the store's resident
    /// footprint, which recycling keeps bounded by its peak occupancy.
    pub(crate) fn allocated(&self) -> usize {
        self.hot.len()
    }

    /// Makes room for `additional` more slots in one allocation per
    /// array. Filling a fleet slot by slot instead regrows every array
    /// by copying (the 64-byte-aligned header array cannot grow in
    /// place), and a process that builds fleets over and over then ends
    /// up handing that memory back and faulting it in again on every
    /// build.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.hot.reserve(additional);
        self.sid.reserve(additional);
        self.ring.reserve(additional * self.shape.ring_cap);
    }

    /// Grabs a slot: recycles from the free list (zeroing the history
    /// slice, so a recycled slot starts from the same bytes as a fresh
    /// one) or appends a new slot.
    pub(crate) fn alloc(&mut self) -> u32 {
        let cap = self.shape.ring_cap;
        if let Some(slot) = self.free.pop() {
            let off = slot as usize * cap;
            self.ring[off..off + cap].fill(0);
            slot
        } else {
            let j = self.allocated();
            self.hot.push(SlotHot::fresh());
            self.sid.push(0);
            self.ring.resize(self.ring.len() + cap, 0);
            u32::try_from(j).expect("shard slot fits u32")
        }
    }

    /// Installs a fresh session of class `classes[class_id]` into an
    /// allocated slot, its first picture arriving at `first_arrival`.
    pub(crate) fn install(
        &mut self,
        slot: u32,
        sid: u64,
        stream: u64,
        classes: &[ClassInfo],
        class_id: u16,
        first_arrival: u64,
    ) {
        let j = slot as usize;
        let h = &mut self.hot[j];
        debug_assert_eq!(h.class_of, FREE, "installing into an occupied slot");
        *h = SlotHot::fresh();
        h.class_of = class_id;
        h.stream = stream;
        h.next_arrival = first_arrival;
        h.need = next_need(&classes[class_id as usize], &LiveCursor::new());
        self.sid[j] = sid;
        self.live += 1;
    }

    /// Installs a snapshot into an allocated slot: scalars and retained
    /// history are copied back verbatim and the next decision's `need`
    /// is derived afresh, so the continued schedule is bit-identical
    /// (every lookahead is resolved from that history anyway).
    pub(crate) fn install_snapshot(
        &mut self,
        slot: u32,
        snap: &SessionSnapshot,
        classes: &[ClassInfo],
    ) {
        let j = slot as usize;
        let off = j * self.shape.ring_cap;
        let h = &mut self.hot[j];
        debug_assert_eq!(h.class_of, FREE, "installing into an occupied slot");
        h.class_of = snap.class;
        h.stream = snap.stream;
        h.decided = snap.decided;
        h.len = snap.history.len() as u16;
        h.watermark = snap.watermark;
        h.depart = snap.depart;
        h.prev_rate = snap.prev_rate;
        h.digest = snap.digest;
        h.base = snap.base;
        h.next_arrival = snap.next_arrival;
        h.need = next_need(&classes[snap.class as usize], &cursor_of(h));
        self.sid[j] = snap.sid;
        self.ring[off..off + snap.history.len()].copy_from_slice(&snap.history);
        if let Some(lane) = &snap.lane {
            self.link.open(j, lane.clone());
        }
        self.live += 1;
    }

    /// Captures slot `j` as a [`SessionSnapshot`].
    pub(crate) fn snapshot_slot(&self, j: usize) -> SessionSnapshot {
        let h = &self.hot[j];
        debug_assert_ne!(h.class_of, FREE, "snapshot of a free slot");
        let off = j * self.shape.ring_cap;
        let len = h.len as usize;
        SessionSnapshot {
            sid: self.sid[j],
            stream: h.stream,
            class: h.class_of,
            decided: h.decided,
            watermark: h.watermark,
            base: h.base,
            depart: h.depart,
            prev_rate: h.prev_rate,
            digest: h.digest,
            next_arrival: h.next_arrival,
            history: self.ring[off..off + len].to_vec(),
            lane: self.link.lane(j).cloned(),
        }
    }

    /// Frees slot `j`: pushes it onto the free list and returns the mux
    /// lane it held, if any.
    pub(crate) fn free_slot(&mut self, j: usize) -> Option<SessionLane> {
        let h = &mut self.hot[j];
        debug_assert_ne!(h.class_of, FREE, "double free");
        h.class_of = FREE;
        self.live -= 1;
        self.free.push(j as u32);
        self.link.close(j)
    }

    /// Pulls slot `j`'s working set toward cache while an earlier slot
    /// is still being processed: the one-line header and the head of its
    /// history slice. Out-of-range `j` is a no-op.
    #[inline(always)]
    pub(crate) fn prefetch_slot(&self, j: usize) {
        if let Some(h) = self.hot.get(j) {
            std::hint::black_box(h.decided);
            std::hint::black_box(self.ring.get(j * self.shape.ring_cap).copied());
        }
    }

    /// `(sid, digest)` of every occupied slot, in slot order.
    pub(crate) fn live_digests(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.hot
            .iter()
            .zip(&self.sid)
            .filter(|(h, _)| h.class_of != FREE)
            .map(|(h, &sid)| (sid, h.digest))
    }

    /// Peak retained history length across occupied slots.
    pub(crate) fn max_retained(&self) -> usize {
        self.hot
            .iter()
            .filter(|h| h.class_of != FREE)
            .map(|h| h.len as usize)
            .max()
            .unwrap_or(0)
    }

    /// Runs every occupied slot, in slot order, through `pushes` arrivals
    /// plus, when `ended` is set, the end-of-stream drain — the lockstep
    /// access pattern: each slot's header and history slice stream from
    /// memory once per call, and the next slot is prefetched
    /// behind the current one's work. Returns the decisions made.
    pub(crate) fn sweep<S: SizeSource>(
        &mut self,
        classes: &[ClassInfo],
        source: &S,
        pushes: u64,
        ended: bool,
        sink: &mut impl Sink,
    ) -> u64 {
        let mut made = 0;
        for j in 0..self.allocated() {
            self.prefetch_slot(j + 1);
            if self.hot[j].class_of != FREE {
                made += self.step_slot(j, classes, source, pushes, ended, sink);
            }
        }
        made
    }

    /// Runs slot `j` through `pushes` picture arrivals plus, when
    /// `ended` is set, the end-of-stream drain. Every scalar is loaded
    /// into a local once, carried through the whole visit, and stored
    /// back once. A session's schedule is the same for *any* split of
    /// its arrivals into visits: [`live_ready`] caps what a decision
    /// may consult at the decision's own `need`, never at everything
    /// pushed, so feeding a batch of arrivals decides exactly what
    /// feeding them one visit apiece would. Every decision is offered to
    /// `sink` ([`Discard`] when nothing listens; [`ToLane`] to feed the
    /// slot's own mux lane) and counted in
    /// [`decisions`](Self::decisions). Returns the decisions made.
    pub(crate) fn step_slot<S: SizeSource>(
        &mut self,
        j: usize,
        classes: &[ClassInfo],
        source: &S,
        pushes: u64,
        ended: bool,
        sink: &mut impl Sink,
    ) -> u64 {
        let h = &self.hot[j];
        let info = &classes[h.class_of as usize];
        let off = j * self.shape.ring_cap;
        let cap = info.ring_cap;
        let n = info.class.pattern.n();
        let stream = h.stream;
        let sid = self.sid[j];

        let mut cursor = cursor_of(h);
        let mut base = h.base as usize;
        let mut len = h.len as usize;
        let mut need = h.need as usize;
        let mut digest = h.digest;
        let mut made = 0u64;

        let cfg = live_params(info);
        debug_assert_eq!(
            need,
            ready_of(&cfg, &cursor).need,
            "slot {j}: stale cached need"
        );
        // The next decision's full readiness, once this visit has
        // derived it: after each decision (for the next `need`), or when
        // a push reaches the cached `need` (for `t_i`).
        let mut ready: Option<Ready> = None;

        for _ in 0..pushes {
            if len == cap {
                // The push path found the slot full: prune now or die.
                // Theorem 1 bounds the live tail well below `ring_cap`,
                // so an empty prune here means the slot was mis-sized —
                // a bug, not a load condition.
                let cut = prunable_prefix(&cursor, Some(info.hist), n);
                assert!(
                    cut > base,
                    "session {sid} history slot full ({cap} sizes) with nothing prunable"
                );
                self.drop_prefix(j, cut, &mut base, &mut len);
            }
            let size = source.size(stream, (base + len) as u64);
            self.ring[off + len] = u32::try_from(size).unwrap_or_else(|_| {
                panic!("picture size {size} bits exceeds the engine's u32 size word")
            });
            len += 1;

            if base + len < need {
                // Nothing decidable, so nothing newly prunable either:
                // the cursor is unchanged since the last prune.
                continue;
            }
            while base + len >= need {
                let now = ready.unwrap_or_else(|| ready_of(&cfg, &cursor));
                let decision = self.decide_slot(j, &cfg, base, len, now, &mut cursor);
                digest = fold_decision(digest, &decision);
                sink.decision(&mut self.link, j, sid, &decision);
                made += 1;
                let next = ready_of(&cfg, &cursor);
                need = next.need;
                ready = Some(next);
            }
            self.prune(j, &cursor, info.hist, n, &mut base, &mut len);
        }

        if ended {
            made += self.drain(j, &cfg, (base, len), &mut cursor, &mut digest, sink);
            self.prune(j, &cursor, info.hist, n, &mut base, &mut len);
            need = ready_of(&cfg, &cursor).need;
        }

        let h = &mut self.hot[j];
        h.decided = u32::try_from(cursor.decided).expect("picture index fits u32");
        h.watermark = u32::try_from(cursor.watermark).expect("watermark fits u32");
        h.base = u32::try_from(base).expect("history base fits u32");
        h.need = u32::try_from(need).expect("arrival count fits u32");
        // len <= ring_cap, checked to fit u16 at class construction.
        h.len = len as u16;
        h.depart = cursor.depart;
        if let Some(r) = cursor.prev_rate {
            h.prev_rate = r;
        }
        h.digest = digest;
        self.decisions += made;
        sink.visited(&mut self.link, j);
        made
    }

    /// Slot `j`'s end-of-stream drain: `need` and the lookahead are cut
    /// at the last picture, so every remaining decision is ready. Out of
    /// line, as a slot drains once: the step body stays small.
    #[inline(never)]
    fn drain(
        &mut self,
        j: usize,
        cfg: &LiveParams<'_, PatternEstimator>,
        (base, len): (usize, usize),
        cursor: &mut LiveCursor,
        digest: &mut u64,
        sink: &mut impl Sink,
    ) -> u64 {
        let sid = self.sid[j];
        let mut made = 0;
        while let Some(now) = live_ready(cfg, base + len, true, cursor) {
            let decision = self.decide_slot(j, cfg, base, len, now, cursor);
            *digest = fold_decision(*digest, &decision);
            sink.decision(&mut self.link, j, sid, &decision);
            made += 1;
        }
        made
    }

    /// Makes slot `j`'s next decision, `ready` for `cursor`: resolves
    /// its lookahead from the slot's ring into the store's scratch, then
    /// decides over it.
    #[inline(always)]
    fn decide_slot(
        &mut self,
        j: usize,
        cfg: &LiveParams<'_, PatternEstimator>,
        base: usize,
        len: usize,
        ready: Ready,
        cursor: &mut LiveCursor,
    ) -> PictureSchedule {
        let off = j * self.shape.ring_cap;
        let tail = &self.ring[off..off + len];
        let ahead = &mut self.ahead[..ready.look];
        cfg.estimator.resolve_ahead(
            cursor.decided - base,
            Arrived::Narrow(&tail[..ready.need - base]),
            &cfg.pattern,
            ahead,
        );
        let history = SizeHistory { base, tail };
        decide_ready(cfg, history, ready, cursor, ahead, &mut self.lanes)
    }

    /// Prunes slot `j` at every whole-pattern cut: drops the decided
    /// and no longer needed prefix as soon as it is non-empty. The
    /// memmove moves at most the live tail, which Theorem 1 bounds by a
    /// constant, once per GOP period; pruning any later would need a
    /// ring wider than that bound.
    #[inline(always)]
    fn prune(
        &mut self,
        j: usize,
        cursor: &LiveCursor,
        hist: usize,
        n: usize,
        base: &mut usize,
        len: &mut usize,
    ) {
        // `base` is a multiple of N, so the whole-pattern cut
        // [`prunable_prefix`] rounds down to passes it only once its
        // bound reaches `base + N`: the common push, which completes no
        // period, returns here.
        if cursor.decided.min(cursor.watermark.saturating_sub(hist)) < *base + n {
            return;
        }
        let cut = prunable_prefix(cursor, Some(hist), n);
        self.drop_prefix(j, cut, base, len);
    }

    /// Drops slot `j`'s retained sizes below logical index `cut`.
    fn drop_prefix(&mut self, j: usize, cut: usize, base: &mut usize, len: &mut usize) {
        let off = j * self.shape.ring_cap;
        let drop = cut - *base;
        self.ring.copy_within(off + drop..off + *len, off);
        *len -= drop;
        *base = cut;
    }
}

/// The decision configuration of a live session of class `info`.
#[inline(always)]
fn live_params(info: &ClassInfo) -> LiveParams<'_, PatternEstimator> {
    LiveParams {
        params: &info.class.params,
        pattern: info.class.pattern,
        estimator: &info.class.estimator,
        selection: info.class.selection,
        total: None,
    }
}

/// The readiness of a live session's next decision ([`live_ready`]; a
/// live session, `total: None` and not ended, always has one).
#[inline(always)]
fn ready_of(cfg: &LiveParams<'_, PatternEstimator>, cursor: &LiveCursor) -> Ready {
    live_ready(cfg, 0, false, cursor).expect("a live session has a next picture")
}

/// The `need` a header caches for a session of class `info` at `cursor`.
fn next_need(info: &ClassInfo, cursor: &LiveCursor) -> u32 {
    let need = ready_of(&live_params(info), cursor).need;
    u32::try_from(need).expect("arrival count fits u32")
}

/// The decision cursor a header holds.
#[inline(always)]
fn cursor_of(h: &SlotHot) -> LiveCursor {
    LiveCursor {
        decided: h.decided as usize,
        depart: h.depart,
        prev_rate: (h.decided > 0).then_some(h.prev_rate),
        watermark: h.watermark as usize,
    }
}

/// Folds one decision into a session's FNV-1a fingerprint (index,
/// start, rate, depart bits).
#[inline(always)]
fn fold_decision(digest: u64, d: &PictureSchedule) -> u64 {
    let digest = fnv(digest, d.index as u64);
    let digest = fnv(digest, d.start.to_bits());
    let digest = fnv(digest, d.rate.to_bits());
    fnv(digest, d.depart.to_bits())
}
