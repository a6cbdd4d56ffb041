//! Event-driven dynamic session engine: heterogeneous per-class
//! clocks, live churn, and slot-order feeding.
//!
//! The lockstep [`SessionEngine`](crate::SessionEngine) sweeps every
//! session on one shared picture clock over a fleet fixed at start. This
//! module drives the same slot store (one 64-byte scalar header, session
//! id and fixed `u32` history slice per session, one step body) on
//! per-session clocks under churn:
//!
//! * **Per-session clocks.** Time is an integer *scheduler tick* (a
//!   [`ChurnSpec::ticks_per_sec`](crate::synthetic::ChurnSpec) base
//!   clock — 600 ticks/s divides evenly by 24/25/30/60 fps). Each
//!   [`DynamicClass`] carries its picture period τ in ticks; each
//!   session's header carries its next arrival.
//! * **Slot-order feeding.** Sessions are fed only by a flush: each
//!   shard walks its slots in slot order and feeds every live session
//!   all of its arrivals due by the flush tick in one visit — the
//!   lockstep sweep's streaming access pattern. The engine flushes at
//!   every public boundary ([`advance_to`](DynamicEngine::advance_to),
//!   the end of [`run_trace`](DynamicEngine::run_trace) and
//!   [`run_trace_fused`](DynamicEngine::run_trace_fused),
//!   [`finish`](DynamicEngine::finish)) and, in a fused replay, before
//!   each link ingest. Between churn events a replay only moves its
//!   clock: a leave catches its own session up first, and sessions never
//!   interact, so deferring the others changes no digest bit — a
//!   decision consults at most its own `need`-length prefix however
//!   many arrivals are in hand ([`smooth_core::live_ready`]). A flush
//!   costs O(sessions live), not O(sessions due), but at a live
//!   server's slice width about half the fleet is due each step, and
//!   streaming every header beat both a timing wheel and a per-class
//!   calendar of the due slots (DESIGN.md §6).
//! * **Live churn.** [`DynamicEngine::join`] and
//!   [`DynamicEngine::leave`] add and remove sessions mid-run. Each
//!   shard is a slot store that recycles freed slots through a LIFO free
//!   list — the history slice is zeroed on reuse, so a recycled slot is
//!   indistinguishable from a fresh one (pinned by proptests).
//! * **Snapshot / restore.** [`DynamicEngine::snapshot`] captures one
//!   session's hot+cold state as a self-contained [`SessionSnapshot`];
//!   [`DynamicEngine::restore`] installs it into any engine with the
//!   same classes. [`DynamicEngine::rebalance`] migrates sessions
//!   between shards with it, and [`DynamicEngine::checkpoint`] /
//!   [`DynamicEngine::restore_checkpoint`] capture the whole fleet for
//!   crash recovery — all bit-identical to the uninterrupted run
//!   (every lookahead is resolved from the retained history; pinned by
//!   the churn proptests).
//! * **Fused link aggregation.** [`DynamicEngine::run_trace_fused`]
//!   keeps each session's [`LiveMux`] lane in the session's slot (the
//!   shard store's lane table): a decision goes to the lane inline, with
//!   no lock, a join opens the lane, a leave ends it and hands its
//!   descriptor to the mux, and a snapshot carries it. The mux ingests
//!   the shards' lane tables directly — their buffered events and the
//!   dense frontiers of their live lanes — before every fused call
//!   returns, so no session's events are ever split across two shards
//!   when it moves between calls.
//!
//! **Determinism.** Sessions are independent state machines; shards are
//! flushed in slot order and fanned out with index-ordered
//! [`smooth_sweep::par_map`], and the fleet digest folds per-session
//! digests in session-id order — so a churn trace replays
//! bit-identically for any thread count and any cut of the trace into
//! calls, and against the brute-force scan-all reference
//! (`smooth_oracle::scanref`), which is frozen as the proptest oracle.

use std::collections::VecDeque;
use std::sync::Mutex;

use smooth_sweep::par_map;

use crate::livemux::{LiveMux, LiveMuxStats, SessionLane};
use crate::store::{Discard, Sink, SlotShape, SlotStore, ToLane, FREE};
use crate::synthetic::{ChurnEvent, ChurnTrace};
use crate::{fnv, ClassInfo, EngineError, SessionClass, SizeSource, FNV_OFFSET};

/// A session class bound to a picture period on the scheduler clock:
/// the event-driven analogue of handing a [`SessionClass`] to the
/// lockstep engine, plus the class's own τ in integer ticks (e.g. 25
/// ticks at 600 ticks/s for a 24 fps stream).
#[derive(Debug, Clone)]
pub struct DynamicClass {
    /// Smoother configuration shared by the class's sessions.
    pub class: SessionClass,
    /// Picture period τ in scheduler ticks (≥ 1).
    pub period_ticks: u64,
}

/// Scheduler ticks per simulated second used by the standard mixes,
/// `mpeg-smooth fleet` and the benchmark: 600 divides evenly by 24, 25,
/// 30, and 60 fps, so every broadcast picture clock lands on integer
/// ticks.
pub const TICKS_PER_SEC: u64 = 600;

/// The standard class for an `fps` picture clock on the
/// [`TICKS_PER_SEC`] scheduler: the paper-recommended `D = 0.2 s`,
/// `K = 1`, `H = N` at `τ = 1/fps` on the (3, 12) GOP pattern.
///
/// # Panics
///
/// Panics if `fps` does not divide [`TICKS_PER_SEC`] (the mix helpers
/// exist for the broadcast clocks 24/25/30/60), or if it is below
/// 10 fps, where `D = 0.2 s` is shorter than the `(K + 1)τ = 2τ` the
/// smoother needs.
pub fn fps_class(fps: u64) -> DynamicClass {
    assert!(
        fps > 0 && TICKS_PER_SEC % fps == 0,
        "{fps} fps does not land on integer ticks at {TICKS_PER_SEC} ticks/s"
    );
    let pattern = smooth_mpeg::GopPattern::new(3, 12).expect("(3,12) is valid");
    let params = smooth_core::SmootherParams::new(0.2, 1, 12, 1.0 / fps as f64)
        .expect("0.2 s is feasible at every broadcast clock");
    DynamicClass {
        class: SessionClass::new(params, pattern),
        period_ticks: TICKS_PER_SEC / fps,
    }
}

/// How much trace time [`DynamicEngine::run_trace_fused`] lets rate
/// events buffer in the mux lanes between [`LiveMux::ingest`] passes
/// (it flushes the fleet to its clock before each): half a simulated
/// second. Each ingest pays an O(live sessions) fence
/// scan, so ingesting at every event tick would swamp a churny trace;
/// half a second keeps the buffered-event footprint modest while
/// holding the scan cost to a few passes per simulated second. The
/// cadence is driven by trace time, never by wall time or thread
/// count, so fused digests stay deterministic.
pub const MUX_INGEST_SPAN_TICKS: u64 = TICKS_PER_SEC / 2;

/// One session's complete smoother state, self-contained: everything
/// needed to continue its schedule bit-identically in another slot,
/// shard, or engine (same classes). There is no lookahead to capture:
/// a slot resolves each decision's lookahead from its retained history,
/// which the snapshot carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Engine-assigned session id.
    pub sid: u64,
    /// Size-source stream id (decoupled from `sid` so a replay engine
    /// can feed the same stream to a different session id).
    pub stream: u64,
    /// Class id.
    pub class: u16,
    /// Decisions already emitted (next undecided picture index).
    pub decided: u32,
    /// High-water mark of the visible prefix consulted so far.
    pub watermark: u32,
    /// Logical index of the first retained size.
    pub base: u32,
    /// Departure time of the last decided picture.
    pub depart: f64,
    /// Rate of the last decided picture (meaningful when `decided > 0`).
    pub prev_rate: f64,
    /// FNV-1a decision digest so far.
    pub digest: u64,
    /// Next not-yet-fed picture arrival, in scheduler ticks (snapshots
    /// are taken at tick-exact boundaries, so this is always past the
    /// capturing engine's position).
    pub next_arrival: u64,
    /// Retained history sizes (logical pictures `base ..`).
    pub history: Vec<u32>,
    /// The session's [`LiveMux`] lane, when it streams into one (a
    /// fused run): the segment builder and (σ, ρ) state travel with the
    /// session, so its link schedule continues bit-identically too.
    pub lane: Option<SessionLane>,
}

/// A whole-fleet checkpoint: the scheduler position, every live
/// session's [`SessionSnapshot`], and the digests of already-departed
/// sessions — enough to rebuild an engine that continues bit-identically
/// ([`DynamicEngine::restore_checkpoint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Scheduler position (ticks) at capture.
    pub now: u64,
    /// Session ids handed out so far.
    pub joined: u64,
    /// Total decisions made so far (so a recovered engine's
    /// [`decisions`](DynamicEngine::decisions) keeps counting from the
    /// interrupted run's total).
    pub decisions: u64,
    /// Live sessions, in session-id order.
    pub sessions: Vec<SessionSnapshot>,
    /// `(sid, digest)` of departed sessions, in session-id order.
    pub retired: Vec<(u64, u64)>,
}

/// Where a live session sits: shard index and shard-local slot.
/// `shard == u32::MAX` marks a departed (or migrating) session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Locator {
    shard: u32,
    slot: u32,
}

const GONE: Locator = Locator {
    shard: u32::MAX,
    slot: u32::MAX,
};

/// Ends slot `j`'s stream: feeds its not-yet-fed arrivals up to and
/// including tick `until` (a replay defers every session's arrivals to
/// the next flush, so a leave catches its own session up), drains the
/// tail decisions — into the slot's mux lane, which then ends its
/// stream too, when `fused` — records the final digest, and frees the
/// slot. Returns the digest and the slot's lane.
fn retire<S: SizeSource>(
    store: &mut SlotStore,
    j: usize,
    classes: &[ClassInfo],
    periods: &[u64],
    source: &S,
    until: u64,
    fused: bool,
) -> (u64, Option<SessionLane>) {
    let h = &store.hot[j];
    let na = h.next_arrival;
    let period = periods[h.class_of as usize];
    let pushes = if na <= until {
        (until - na) / period + 1
    } else {
        0
    };
    if fused {
        store.step_slot(j, classes, source, pushes, true, &mut ToLane);
        let sid = store.sid[j];
        store.link.finish(j, sid);
    } else {
        store.step_slot(j, classes, source, pushes, true, &mut Discard);
    }
    let digest = store.hot[j].digest;
    (digest, store.free_slot(j))
}

/// Feeds every live slot of `store` its outstanding arrivals up to and
/// including tick `until`, in slot order (streaming — the lockstep
/// access pattern), one visit per slot with an arrival due.
fn flush_until<S: SizeSource>(
    store: &mut SlotStore,
    classes: &[ClassInfo],
    periods: &[u64],
    source: &S,
    until: u64,
    sink: &mut impl Sink,
) {
    for j in 0..store.allocated() {
        store.prefetch_slot(j + 1);
        let h = &store.hot[j];
        if h.class_of == FREE || h.next_arrival > until {
            continue;
        }
        let na = h.next_arrival;
        let period = periods[h.class_of as usize];
        let pushes = (until - na) / period + 1;
        store.step_slot(j, classes, source, pushes, false, sink);
        store.hot[j].next_arrival = na + pushes * period;
    }
}

/// The event-driven session engine: heterogeneous per-class picture
/// clocks, slot-order feeding, and live join/leave with slot recycling.
/// Lives alongside the lockstep [`SessionEngine`](crate::SessionEngine);
/// both drive the same [`smooth_core::decide_live`] core, so a session's
/// schedule depends only on its stream and class, never on which engine
/// ran it.
///
/// ```
/// use smooth_core::SmootherParams;
/// use smooth_engine::{DynamicClass, DynamicEngine, SessionClass, SyntheticFleet};
/// use smooth_mpeg::GopPattern;
///
/// let pattern = GopPattern::new(3, 9).unwrap();
/// let class = DynamicClass {
///     class: SessionClass::new(SmootherParams::recommended(9), pattern),
///     period_ticks: 20, // 30 fps on the 600 ticks/s clock
/// };
/// let fleet = SyntheticFleet { seed: 7, pattern };
/// let mut engine = DynamicEngine::new(vec![class], 100, 16).unwrap();
/// let a = engine.join(0, 42, 0).unwrap(); // stream 42, phase 0
/// engine.advance_to(&fleet, 1200, 1); // two seconds
/// engine.leave(a, &fleet).unwrap(); // final digest recorded
/// assert!(engine.decisions() >= 60);
/// ```
pub struct DynamicEngine {
    classes: Vec<ClassInfo>,
    periods: Vec<u64>,
    shards: Vec<Mutex<SlotStore>>,
    /// `0 .. shards.len()`, the items of every per-shard `par_map`.
    shard_idx: Vec<usize>,
    shard_size: usize,
    capacity: usize,
    shape: SlotShape,
    now: u64,
    live: usize,
    /// Slot of each session ever joined, by sid ([`GONE`] once departed).
    locator: Vec<Locator>,
    /// Final digest of each departed session, by sid (live sessions'
    /// digests are read from their slots).
    digests: Vec<u64>,
    /// Sessions restored with a mux lane since the last fused call,
    /// whose lanes that call checks against the link clock.
    restored: Vec<u64>,
    /// Decisions counted by the engine this one was recovered from.
    recovered_decisions: u64,
    /// Round-robin placement cursor (deterministic).
    rr: usize,
    ended: bool,
}

impl DynamicEngine {
    /// An engine over `classes` with room for `capacity` concurrent
    /// sessions in shards of `shard_size`. Validates every compact-store
    /// width ([`EngineError`]) plus the per-class periods.
    pub fn new(
        classes: Vec<DynamicClass>,
        capacity: usize,
        shard_size: usize,
    ) -> Result<Self, EngineError> {
        if classes.is_empty() {
            return Err(EngineError::NoClasses);
        }
        if shard_size == 0 {
            return Err(EngineError::ZeroShardSize);
        }
        if capacity == 0 {
            return Err(EngineError::ZeroCapacity);
        }
        if classes.len() > 1 << 16 {
            return Err(EngineError::TooManyClasses {
                classes: classes.len(),
            });
        }
        let mut infos = Vec::with_capacity(classes.len());
        let mut periods = Vec::with_capacity(classes.len());
        for (i, c) in classes.into_iter().enumerate() {
            if c.period_ticks == 0 {
                return Err(EngineError::ZeroPeriod { class: i });
            }
            periods.push(c.period_ticks);
            infos.push(ClassInfo::try_new(c.class)?);
        }
        // Every slot fits the widest class so recycling works across
        // classes.
        let shape = SlotShape::of(&infos);
        let shard_count = capacity.div_ceil(shard_size);
        let shards = (0..shard_count)
            .map(|_| Mutex::new(SlotStore::new(shape)))
            .collect();
        Ok(DynamicEngine {
            classes: infos,
            periods,
            shards,
            shard_idx: (0..shard_count).collect(),
            shard_size,
            capacity,
            shape,
            now: 0,
            live: 0,
            locator: Vec::new(),
            digests: Vec::new(),
            restored: Vec::new(),
            recovered_decisions: 0,
            rr: 0,
            ended: false,
        })
    }

    /// Scheduler position, in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Live session count.
    pub fn live_sessions(&self) -> usize {
        self.live
    }

    /// Session ids handed out so far (live + departed).
    pub fn joined(&self) -> u64 {
        self.locator.len() as u64
    }

    /// Concurrent-session capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether [`finish`](Self::finish) has run.
    pub fn is_finished(&self) -> bool {
        self.ended
    }

    /// Total picture decisions made across all sessions ever —
    /// including, after a [`restore_checkpoint`]
    /// (Self::restore_checkpoint), the interrupted run's count.
    pub fn decisions(&self) -> u64 {
        self.recovered_decisions
            + self
                .shards
                .iter()
                .map(|s| s.lock().expect("shard poisoned").decisions)
                .sum::<u64>()
    }

    /// Session slots resident across all shards (live + recycled). The
    /// free list bounds this by each shard's *peak* occupancy — churn
    /// reuses slots instead of growing the arrays, the bounded-memory
    /// property the churn proptests assert.
    pub fn allocated_slots(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").allocated())
            .sum()
    }

    /// Resident bytes per session slot under the dynamic compact
    /// layout: the one-cache-line scalar header, the cold session id,
    /// the uniform `u32` history slot (the widest class's `ring_cap`, so
    /// any class can recycle any slot). A slot keeps no lookahead: each
    /// decision resolves it from the history into shard scratch.
    pub fn state_bytes_per_slot(&self) -> usize {
        self.shape.bytes()
    }

    /// Peak retained history length across live sessions (diagnostics).
    pub fn max_retained(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").max_retained())
            .max()
            .unwrap_or(0)
    }

    /// Live sessions per shard (diagnostics / rebalance tests).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").live)
            .collect()
    }

    /// The slot of live session `sid`.
    fn locate(&self, sid: u64) -> Result<Locator, EngineError> {
        match self.locator.get(sid as usize) {
            Some(&loc) if loc != GONE => Ok(loc),
            _ => Err(EngineError::UnknownSession { sid }),
        }
    }

    /// Deterministic round-robin placement: the next shard (from the
    /// cursor) with a free slot. Placement is a pure function of the
    /// join/leave history, never of thread count.
    fn place(&mut self) -> Result<usize, EngineError> {
        if self.live >= self.capacity {
            return Err(EngineError::CapacityExhausted {
                capacity: self.capacity,
            });
        }
        let n = self.shards.len();
        for k in 0..n {
            let s = (self.rr + k) % n;
            if self.shards[s].get_mut().expect("shard poisoned").live < self.shard_size {
                self.rr = (s + 1) % n;
                return Ok(s);
            }
        }
        unreachable!("live < capacity implies a shard has room");
    }

    /// Joins a new session of `class_id` reading stream `stream`, at the
    /// current scheduler position. Its first picture arrives `1 + phase
    /// mod τ` ticks from now and every τ ticks after. Returns the
    /// engine-assigned session id.
    pub fn join(&mut self, class_id: usize, stream: u64, phase: u64) -> Result<u64, EngineError> {
        self.join_at(self.now, class_id, stream, phase)
    }

    /// Departs session `sid` at the current scheduler position: feeds
    /// its arrivals up to the position (a replay defers arrivals to its
    /// next flush), drains its tail decisions (end-of-stream), records
    /// its final digest, and recycles its slot.
    pub fn leave<S: SizeSource>(&mut self, sid: u64, source: &S) -> Result<(), EngineError> {
        self.leave_mux(sid, source, None)
    }

    /// [`leave`](Self::leave) with an optional fused aggregator: the
    /// departing session's catch-up and tail decisions stream into its
    /// lane, the lane ends its stream, and `mux` keeps its descriptor.
    fn leave_mux<S: SizeSource>(
        &mut self,
        sid: u64,
        source: &S,
        mux: Option<&mut LiveMux>,
    ) -> Result<(), EngineError> {
        assert!(!self.ended, "leave after finish");
        let loc = self.locate(sid)?;
        let (digest, lane) = retire(
            self.shards[loc.shard as usize]
                .get_mut()
                .expect("shard poisoned"),
            loc.slot as usize,
            &self.classes,
            &self.periods,
            source,
            self.now,
            mux.is_some(),
        );
        if let (Some(mux), Some(lane)) = (mux, lane) {
            mux.retire_lane(sid, &lane);
        }
        self.digests[sid as usize] = digest;
        self.locator[sid as usize] = GONE;
        self.live -= 1;
        Ok(())
    }

    /// Advances the fleet to tick `until`: every shard feeds each live
    /// session its arrivals up to and including `until`, in slot order,
    /// fanned over `threads` workers (bit-identical for any thread count
    /// — shards are disjoint and collected in index order). On return
    /// every arrival ≤ `until` is decided.
    pub fn advance_to<S: SizeSource>(&mut self, source: &S, until: u64, threads: usize) {
        self.advance_mux(source, until, threads, false);
    }

    /// [`advance_to`](Self::advance_to), every decision streaming into
    /// its slot's mux lane when `fused`.
    fn advance_mux<S: SizeSource>(&mut self, source: &S, until: u64, threads: usize, fused: bool) {
        assert!(!self.ended, "advance after finish");
        assert!(until >= self.now, "scheduler time runs forward");
        let classes = &self.classes;
        let periods = &self.periods;
        let shards = &self.shards;
        par_map(threads, &self.shard_idx, |_, &s| {
            let store = &mut *shards[s].lock().expect("shard poisoned");
            if fused {
                flush_until(store, classes, periods, source, until, &mut ToLane);
            } else {
                flush_until(store, classes, periods, source, until, &mut Discard);
            }
        });
        self.now = until;
    }

    /// Ends every live session's stream and drains the tail decisions.
    /// Slots are kept (digests stay readable); the engine only reports
    /// afterwards.
    pub fn finish<S: SizeSource>(&mut self, source: &S, threads: usize) {
        self.finish_mux(source, threads, false);
    }

    fn finish_mux<S: SizeSource>(&mut self, source: &S, threads: usize, fused: bool) {
        assert!(!self.ended, "finish twice");
        // Public boundaries leave nothing outstanding, but a replay cut
        // short by an error does: settle it before ending streams.
        self.advance_mux(source, self.now, threads, fused);
        let classes = &self.classes;
        let shards = &self.shards;
        par_map(threads, &self.shard_idx, |_, &s| {
            let store = &mut *shards[s].lock().expect("shard poisoned");
            if fused {
                store.sweep(classes, source, 0, true, &mut ToLane);
            } else {
                store.sweep(classes, source, 0, true, &mut Discard);
            }
        });
        self.ended = true;
    }

    /// Replays a [`ChurnTrace`]: at each event tick, joins and leaves
    /// apply in trace order *before* that tick's arrivals (the scan
    /// reference follows the same rule); between event ticks the engine
    /// only moves its clock, and a closing flush feeds the fleet to the
    /// trace horizon. Returns the decisions made.
    pub fn run_trace<S: SizeSource>(
        &mut self,
        source: &S,
        trace: &ChurnTrace,
        threads: usize,
    ) -> Result<u64, EngineError> {
        let before = self.decisions();
        self.replay(source, trace, threads, None)?;
        Ok(self.decisions() - before)
    }

    /// [`run_trace`](Self::run_trace) fused with a [`LiveMux`]: every
    /// decision streams into its session's mux lane as it is made, a
    /// join opens that lane, in the session's own slot, at the session's
    /// first-arrival time on the scheduler clock, a leave closes it and
    /// hands its descriptor to `mux`, and the rate events the lanes
    /// buffer are ingested into the summation tree every
    /// [`MUX_INGEST_SPAN_TICKS`] of trace time (right after a flush of
    /// the fleet to that tick) and before the call returns — the engine
    /// and the link aggregation advance together, with no materialized
    /// schedules, no lock per decision and no end-of-run mux pass over
    /// the fleet.
    ///
    /// The engine and `mux` must agree on the fleet: a fresh engine
    /// with a [`LiveMux::with_joins`] aggregator sized to every session
    /// id the trace will issue, or an engine/mux pair restored from
    /// matching checkpoints ([`checkpoint`](Self::checkpoint) /
    /// [`LiveMux::checkpoint`]) taken at the same trace position.
    /// Call [`finish_fused`](Self::finish_fused) after the final trace
    /// to end still-live sessions and read the stats. Digests and mux
    /// bits are invariant in `threads` and in how a trace is cut into
    /// calls.
    ///
    /// Returns the decisions made, like [`run_trace`](Self::run_trace).
    ///
    /// # Errors
    ///
    /// [`EngineError::LaneBehindLinkClock`], before anything is fed or
    /// posted, when a session restored since the last fused call brings
    /// a lane whose frontier the link clock has passed (see
    /// [`take`](Self::take)); the errors of
    /// [`run_trace`](Self::run_trace).
    ///
    /// # Panics
    ///
    /// Panics if the trace joins a session id `mux` has no leaf for.
    pub fn run_trace_fused<S: SizeSource>(
        &mut self,
        source: &S,
        trace: &ChurnTrace,
        threads: usize,
        mux: &mut LiveMux,
    ) -> Result<u64, EngineError> {
        self.check_restored(mux)?;
        let before = self.decisions();
        self.attach(mux);
        let replayed = self.replay(source, trace, threads, Some(&mut *mux));
        // Ingest even after an error, so no lane table keeps events
        // past the call: sessions may move between calls.
        self.ingest(mux, threads, self.mux_clock_cap());
        replayed?;
        Ok(self.decisions() - before)
    }

    /// The body of [`run_trace`](Self::run_trace), and of
    /// [`run_trace_fused`](Self::run_trace_fused) short of its closing
    /// ingest when given the `mux`.
    fn replay<S: SizeSource>(
        &mut self,
        source: &S,
        trace: &ChurnTrace,
        threads: usize,
        mut mux: Option<&mut LiveMux>,
    ) -> Result<(), EngineError> {
        let mut last_ingest = self.now;
        let mut i = 0;
        while i < trace.events.len() {
            let t = trace.events[i].0;
            if t > self.now {
                // Churn at `t` comes before that tick's arrivals, which
                // wait for the next flush (a leave catches its own
                // session up).
                self.now = t - 1;
                if let Some(mux) = mux.as_deref_mut() {
                    if self.now - last_ingest >= MUX_INGEST_SPAN_TICKS {
                        self.advance_mux(source, self.now, threads, true);
                        self.ingest(mux, threads, self.mux_clock_cap());
                        last_ingest = self.now;
                    }
                }
            }
            while i < trace.events.len() && trace.events[i].0 == t {
                match trace.events[i].1 {
                    ChurnEvent::Join {
                        class,
                        stream,
                        phase,
                    } => {
                        // Arm relative to the event tick, not the clock
                        // (now may be t - 1).
                        let sid = self.join_at(t, class as usize, stream, phase)?;
                        if let Some(mux) = mux.as_deref_mut() {
                            self.open_lane(mux, sid, t, phase);
                        }
                    }
                    ChurnEvent::Leave { sid } => self.leave_mux(sid, source, mux.as_deref_mut())?,
                }
                i += 1;
            }
        }
        self.advance_mux(source, trace.horizon, threads, mux.is_some());
        Ok(())
    }

    /// Opens the mux lane of session `sid`, joined at event tick `t`
    /// with `phase`, in the session's slot. The lane's local t = 0 is
    /// the session's first picture arrival on the scheduler clock.
    fn open_lane(&mut self, mux: &LiveMux, sid: u64, t: u64, phase: u64) {
        assert!(
            (sid as usize) < mux.session_count(),
            "the mux has {} leaves; the trace joins session {sid}",
            mux.session_count()
        );
        let loc = self.locator[sid as usize];
        let store = self.shards[loc.shard as usize]
            .get_mut()
            .expect("shard poisoned");
        let period = self.periods[store.hot[loc.slot as usize].class_of as usize];
        let first = t + 1 + (phase % period);
        let lane = SessionLane::new(&mux.config(), first as f64 / TICKS_PER_SEC as f64);
        store.link.open(loc.slot as usize, lane);
    }

    /// Ends the fused run: drains every live session's end-of-stream
    /// decisions into its lane, ends the lanes and hands their
    /// descriptors to `mux`, ingests everything, and finalizes the
    /// aggregate — the fused counterpart of [`finish`](Self::finish) +
    /// [`LiveMux::finalize`].
    ///
    /// # Panics
    ///
    /// Panics with [`EngineError::LaneBehindLinkClock`] where
    /// [`try_finish_fused`](Self::try_finish_fused) returns it.
    pub fn finish_fused<S: SizeSource>(
        &mut self,
        source: &S,
        threads: usize,
        mux: &mut LiveMux,
    ) -> LiveMuxStats {
        self.try_finish_fused(source, threads, mux)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`finish_fused`](Self::finish_fused), refusing, before anything
    /// is fed or posted, a session restored since the last fused call
    /// with a lane the link clock has passed
    /// ([`EngineError::LaneBehindLinkClock`]).
    pub fn try_finish_fused<S: SizeSource>(
        &mut self,
        source: &S,
        threads: usize,
        mux: &mut LiveMux,
    ) -> Result<LiveMuxStats, EngineError> {
        self.check_restored(mux)?;
        self.attach(mux);
        self.finish_mux(source, threads, true);
        for (sid, loc) in self.locator.iter().enumerate() {
            if *loc != GONE {
                let link = &mut self.shards[loc.shard as usize]
                    .get_mut()
                    .expect("shard poisoned")
                    .link;
                link.finish(loc.slot as usize, sid as u64);
                let lane = link.close(loc.slot as usize).expect("a finished lane");
                mux.retire_lane(sid as u64, &lane);
            }
        }
        self.ingest(mux, threads, f64::INFINITY);
        Ok(mux.finalize())
    }

    /// Checks the lanes of the sessions restored since the last fused
    /// call against the link clock: a lane taken out across a fused
    /// call bounded none of its ingest fences, so the clock may have
    /// passed its frontier, and its next events would land in the
    /// link's past. Events before the window start only set leaf
    /// values, so nothing is behind until the clock passes it.
    fn check_restored(&mut self, mux: &LiveMux) -> Result<(), EngineError> {
        let clock = mux.clock();
        if clock > mux.config().t_start {
            for &sid in &self.restored {
                let Ok(loc) = self.locate(sid) else {
                    continue; // left or taken out again since
                };
                let store = self.shards[loc.shard as usize]
                    .lock()
                    .expect("shard poisoned");
                let Some(frontier) = store
                    .link
                    .lane(loc.slot as usize)
                    .map(SessionLane::frontier)
                else {
                    continue;
                };
                if frontier < clock {
                    return Err(EngineError::LaneBehindLinkClock {
                        sid,
                        frontier,
                        clock,
                    });
                }
            }
        }
        self.restored.clear();
        Ok(())
    }

    /// Binds every shard's lane table to `mux`, with room for a lane in
    /// every slot the shard may come to hold.
    fn attach(&mut self, mux: &LiveMux) {
        let slots = self.shard_size.min(self.capacity);
        for shard in &mut self.shards {
            let link = &mut shard.get_mut().expect("shard poisoned").link;
            link.attach(mux);
            link.reserve(slots);
        }
    }

    /// Ingests every shard's lane table into `mux` up to `clock_cap`.
    fn ingest(&mut self, mux: &mut LiveMux, threads: usize, clock_cap: f64) {
        let tables = self
            .shards
            .iter_mut()
            .map(|s| &mut s.get_mut().expect("shard poisoned").link);
        mux.ingest_lanes(threads, clock_cap, tables);
    }

    /// Whether every shard's lane table is empty of events: a session
    /// may only move between shards then, so that its events never sit
    /// in two tables.
    fn lanes_drained(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().expect("shard poisoned").link.pending_events() == 0)
    }

    /// Mux lanes resident across the shards' lane tables: bounded by
    /// the allocated slots, whatever the number of joins.
    pub fn resident_lanes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").link.resident())
            .sum()
    }

    /// An upper bound on the event times any *future* join can emit: a
    /// join at tick `t > now` has its first arrival at `t + 1 > now +
    /// 1`, so its lane's events sit strictly past `(now + 1)` ticks —
    /// safe as the [`LiveMux::ingest`] clock cap (events *at* the cap
    /// are not flushed).
    fn mux_clock_cap(&self) -> f64 {
        (self.now + 1) as f64 / TICKS_PER_SEC as f64
    }

    /// [`join`](Self::join) anchored at event tick `t` (≥ the current
    /// position): a trace replay's clock stands at `t - 1` while it
    /// applies the churn of tick `t`, so arrivals must be armed relative
    /// to `t`.
    fn join_at(
        &mut self,
        t: u64,
        class_id: usize,
        stream: u64,
        phase: u64,
    ) -> Result<u64, EngineError> {
        assert!(!self.ended, "join after finish");
        if class_id >= self.classes.len() {
            return Err(EngineError::UnknownClass { class: class_id });
        }
        let s = self.place()?;
        let sid = self.locator.len() as u64;
        let first = t + 1 + (phase % self.periods[class_id]);
        let store = self.shards[s].get_mut().expect("shard poisoned");
        let slot = store.alloc();
        store.install(slot, sid, stream, &self.classes, class_id as u16, first);
        self.locator.push(Locator {
            shard: s as u32,
            slot,
        });
        self.digests.push(FNV_OFFSET);
        self.live += 1;
        Ok(sid)
    }

    /// Per-session decision digests by session id — departed sessions
    /// report their final digest, live sessions their digest so far.
    pub fn session_digests(&self) -> Vec<u64> {
        let mut out = self.digests.clone();
        for shard in &self.shards {
            for (sid, digest) in shard.lock().expect("shard poisoned").live_digests() {
                out[sid as usize] = digest;
            }
        }
        out
    }

    /// One FNV-1a fingerprint over every session's digest in session-id
    /// order — the determinism witness the churn proptests compare
    /// across thread counts and against the scan reference.
    pub fn digest(&self) -> u64 {
        let mut d = FNV_OFFSET;
        for x in self.session_digests() {
            d = fnv(d, x);
        }
        d
    }

    /// Captures session `sid`'s complete state.
    pub fn snapshot(&self, sid: u64) -> Result<SessionSnapshot, EngineError> {
        let loc = self.locate(sid)?;
        let store = self.shards[loc.shard as usize]
            .lock()
            .expect("shard poisoned");
        Ok(store.snapshot_slot(loc.slot as usize))
    }

    /// Removes session `sid` *without* ending its stream (migration,
    /// not departure) and returns its state; [`restore`](Self::restore)
    /// re-installs it here or in another engine with the same classes.
    /// In a fused run the snapshot carries the session's mux lane, which
    /// bounds no ingest fence while it is out: restore it before the
    /// next fused call. A fused call made while it is out may move the
    /// link clock past the lane's frontier; the first fused call after
    /// the restore then returns [`EngineError::LaneBehindLinkClock`],
    /// before feeding anything, since the lane's next events would land
    /// in the link's past.
    pub fn take(&mut self, sid: u64) -> Result<SessionSnapshot, EngineError> {
        let loc = self.locate(sid)?;
        debug_assert!(self.lanes_drained(), "fused calls ingest before returning");
        let store = self.shards[loc.shard as usize]
            .get_mut()
            .expect("shard poisoned");
        let snap = store.snapshot_slot(loc.slot as usize);
        store.free_slot(loc.slot as usize);
        self.locator[sid as usize] = GONE;
        self.live -= 1;
        Ok(snap)
    }

    /// Re-installs a snapshot (from [`take`](Self::take) or a
    /// checkpoint). The continued schedule is bit-identical to never
    /// having moved the session.
    ///
    /// # Errors
    ///
    /// [`EngineError::StaleSnapshot`] when the snapshot's next arrival
    /// is not past this engine's position: the engine has already
    /// passed that arrival, so arming it would put the session off its
    /// arrival grid for the rest of its life.
    pub fn restore(&mut self, snap: SessionSnapshot) -> Result<(), EngineError> {
        assert!(!self.ended, "restore after finish");
        let class = snap.class as usize;
        if class >= self.classes.len() {
            return Err(EngineError::UnknownClass { class });
        }
        if snap.next_arrival <= self.now {
            return Err(EngineError::StaleSnapshot {
                sid: snap.sid,
                next_arrival: snap.next_arrival,
                now: self.now,
            });
        }
        let ring_cap = self.classes[class].ring_cap;
        if snap.history.len() > ring_cap {
            return Err(EngineError::SnapshotHistoryTooLong {
                len: snap.history.len(),
                ring_cap,
            });
        }
        let sid = snap.sid as usize;
        if self.locator.len() <= sid {
            self.locator.resize(sid + 1, GONE);
            self.digests.resize(sid + 1, FNV_OFFSET);
        }
        if self.locator[sid] != GONE {
            return Err(EngineError::UnknownSession { sid: snap.sid });
        }
        let s = self.place()?;
        self.install_snapshot(s, &snap);
        if snap.lane.is_some() {
            self.restored.push(snap.sid);
        }
        Ok(())
    }

    /// Installs `snap` into a fresh slot of shard `s` and records where
    /// the session lives.
    fn install_snapshot(&mut self, s: usize, snap: &SessionSnapshot) {
        let store = self.shards[s].get_mut().expect("shard poisoned");
        let slot = store.alloc();
        store.install_snapshot(slot, snap, &self.classes);
        self.locator[snap.sid as usize] = Locator {
            shard: s as u32,
            slot,
        };
        self.live += 1;
    }

    /// Evens the shard loads by migrating sessions (snapshot out of
    /// overloaded shards in slot order, re-install into underloaded ones
    /// in shard order — deterministic). Returns the sessions moved.
    /// Digests are unchanged: migration is [`take`](Self::take) +
    /// [`restore`](Self::restore), which is bit-identical.
    pub fn rebalance(&mut self) -> usize {
        let n = self.shards.len();
        if n == 0 || self.live == 0 {
            return 0;
        }
        debug_assert!(self.lanes_drained(), "fused calls ingest before returning");
        let q = self.live / n;
        let r = self.live % n;
        let mut moved: VecDeque<SessionSnapshot> = VecDeque::new();
        for i in 0..n {
            let target = q + usize::from(i < r);
            let store = self.shards[i].get_mut().expect("shard poisoned");
            let mut excess = store.live.saturating_sub(target);
            let mut j = 0;
            while excess > 0 {
                if store.hot[j].class_of != FREE {
                    let snap = store.snapshot_slot(j);
                    store.free_slot(j);
                    self.locator[snap.sid as usize] = GONE;
                    moved.push_back(snap);
                    excess -= 1;
                }
                j += 1;
            }
        }
        let count = moved.len();
        self.live -= count;
        for i in 0..n {
            let target = q + usize::from(i < r);
            while self.shards[i].get_mut().expect("shard poisoned").live < target
                && !moved.is_empty()
            {
                let snap = moved.pop_front().expect("checked non-empty");
                self.install_snapshot(i, &snap);
            }
        }
        debug_assert!(moved.is_empty(), "every migrated session re-installed");
        count
    }

    /// Captures the whole fleet: scheduler position, every live
    /// session, and departed sessions' digests —
    /// [`restore_checkpoint`](Self::restore_checkpoint) rebuilds an
    /// engine that continues bit-identically (crash recovery).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let mut sessions = Vec::with_capacity(self.live);
        let mut retired = Vec::new();
        for (sid, loc) in self.locator.iter().enumerate() {
            if *loc == GONE {
                retired.push((sid as u64, self.digests[sid]));
            } else {
                let store = self.shards[loc.shard as usize]
                    .lock()
                    .expect("shard poisoned");
                sessions.push(store.snapshot_slot(loc.slot as usize));
            }
        }
        EngineCheckpoint {
            now: self.now,
            joined: self.joined(),
            decisions: self.decisions(),
            sessions,
            retired,
        }
    }

    /// Rebuilds an engine from a checkpoint. `classes` must match the
    /// captured engine's and `capacity` must hold its live sessions;
    /// `shard_size` may differ (sessions are placed afresh, their mux
    /// lanes with them). Continuing the same trace from here yields the
    /// same digests as the uninterrupted run (pinned by the churn and
    /// `livemux_props` tests).
    pub fn restore_checkpoint(
        classes: Vec<DynamicClass>,
        capacity: usize,
        shard_size: usize,
        cp: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        let mut engine = Self::new(classes, capacity, shard_size)?;
        engine.now = cp.now;
        engine.recovered_decisions = cp.decisions;
        engine.locator = vec![GONE; cp.joined as usize];
        engine.digests = vec![FNV_OFFSET; cp.joined as usize];
        for &(sid, digest) in &cp.retired {
            engine.digests[sid as usize] = digest;
        }
        for snap in &cp.sessions {
            engine.restore(snap.clone())?;
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticFleet;
    use smooth_core::{OnlineSmoother, SmootherParams};
    use smooth_mpeg::GopPattern;

    fn test_class(period_ticks: u64) -> DynamicClass {
        let pattern = GopPattern::new(3, 9).unwrap();
        DynamicClass {
            class: SessionClass::new(SmootherParams::recommended(9), pattern),
            period_ticks,
        }
    }

    fn fleet() -> SyntheticFleet {
        SyntheticFleet {
            seed: 7,
            pattern: GopPattern::new(3, 9).unwrap(),
        }
    }

    /// A dynamic session's decisions match a dedicated OnlineSmoother
    /// fed the same sizes — same digest fold as the engine.
    #[test]
    fn matches_online_smoother() {
        let src = fleet();
        let mut engine = DynamicEngine::new(vec![test_class(20)], 10, 4).unwrap();
        let sid = engine.join(0, 3, 5).unwrap();
        engine.advance_to(&src, 2000, 1);
        engine.leave(sid, &src).unwrap();
        // Pictures fed: arrivals at 6, 26, 46, … ≤ 2000 → 100 pictures.
        let pushed = (2000 - 6) / 20 + 1;
        let class = test_class(20);
        let mut online = OnlineSmoother::new(class.class.params, class.class.pattern);
        let mut digest = FNV_OFFSET;
        let mut fold = |d: &smooth_core::PictureSchedule| {
            digest = fnv(digest, d.index as u64);
            digest = fnv(digest, d.start.to_bits());
            digest = fnv(digest, d.rate.to_bits());
            digest = fnv(digest, d.depart.to_bits());
        };
        for p in 0..pushed {
            for d in online.push(src.size(3, p)) {
                fold(&d);
            }
        }
        for d in online.finish() {
            fold(&d);
        }
        assert_eq!(engine.session_digests()[sid as usize], digest);
    }

    /// Two sessions with different periods interleave correctly and
    /// each matches its own single-session run.
    #[test]
    fn heterogeneous_periods_are_independent() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let mut both = DynamicEngine::new(classes.clone(), 10, 4).unwrap();
        let a = both.join(0, 1, 0).unwrap();
        let b = both.join(1, 2, 7).unwrap();
        both.advance_to(&src, 3000, 1);
        both.finish(&src, 1);

        for (class_id, stream, sid) in [(0usize, 1u64, a), (1, 2, b)] {
            let mut solo = DynamicEngine::new(classes.clone(), 10, 4).unwrap();
            let s = solo
                .join(class_id, stream, if class_id == 0 { 0 } else { 7 })
                .unwrap();
            solo.advance_to(&src, 3000, 1);
            solo.finish(&src, 1);
            assert_eq!(
                solo.session_digests()[s as usize],
                both.session_digests()[sid as usize],
                "class {class_id}"
            );
        }
    }

    /// Slot recycling: leave then join reuses the freed slot and the
    /// newcomer's schedule is untouched by the previous occupant.
    #[test]
    fn recycled_slot_is_fresh() {
        let src = fleet();
        let mut engine = DynamicEngine::new(vec![test_class(20)], 1, 1).unwrap();
        let a = engine.join(0, 10, 0).unwrap();
        engine.advance_to(&src, 1000, 1);
        engine.leave(a, &src).unwrap();
        let b = engine.join(0, 11, 0).unwrap();
        assert_eq!(engine.allocated_slots(), 1, "slot was recycled, not grown");
        engine.advance_to(&src, 2000, 1);
        engine.leave(b, &src).unwrap();

        // A fresh engine running only stream 11 joined at the same tick.
        let mut fresh = DynamicEngine::new(vec![test_class(20)], 1, 1).unwrap();
        fresh.advance_to(&src, 1000, 1);
        let c = fresh.join(0, 11, 0).unwrap();
        fresh.advance_to(&src, 2000, 1);
        fresh.leave(c, &src).unwrap();
        assert_eq!(
            engine.session_digests()[b as usize],
            fresh.session_digests()[c as usize]
        );
    }

    /// take + restore (same or rebalanced shard) changes no digest bit.
    #[test]
    fn migration_is_bit_identical() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let mut plain = DynamicEngine::new(classes.clone(), 64, 8).unwrap();
        let mut moved = DynamicEngine::new(classes.clone(), 64, 8).unwrap();
        for i in 0..20u64 {
            plain.join((i % 2) as usize, i, i % 13).unwrap();
            moved.join((i % 2) as usize, i, i % 13).unwrap();
        }
        plain.advance_to(&src, 1500, 1);
        moved.advance_to(&src, 1500, 1);
        // Migrate a few sessions and rebalance mid-run.
        for sid in [0u64, 7, 13] {
            let snap = moved.take(sid).unwrap();
            moved.restore(snap).unwrap();
        }
        moved.rebalance();
        let loads = moved.shard_loads();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(max - min <= 1, "rebalanced loads {loads:?}");
        plain.advance_to(&src, 4000, 1);
        moved.advance_to(&src, 4000, 1);
        plain.finish(&src, 1);
        moved.finish(&src, 1);
        assert_eq!(plain.digest(), moved.digest());
    }

    /// A snapshot whose next arrival the restoring engine has already
    /// passed is rejected with a typed error, leaving the engine
    /// untouched, instead of being armed in the past (which would shift
    /// the session off its arrival grid for the rest of its life).
    #[test]
    fn restore_rejects_a_stale_snapshot() {
        let src = fleet();
        let mut a = DynamicEngine::new(vec![test_class(5)], 4, 4).unwrap();
        let sid = a.join(0, 5, 0).unwrap();
        a.advance_to(&src, 100, 1);
        let snap = a.take(sid).unwrap();
        assert_eq!(snap.next_arrival, 101);

        let mut late = DynamicEngine::new(vec![test_class(5)], 4, 4).unwrap();
        late.advance_to(&src, 205, 1);
        assert_eq!(
            late.restore(snap.clone()).unwrap_err(),
            EngineError::StaleSnapshot {
                sid,
                next_arrival: 101,
                now: 205,
            }
        );
        assert_eq!(late.live_sessions(), 0);
        assert_eq!(late.joined(), 0);

        // The same snapshot restores into the engine it came from and
        // stays on its arrival grid (1 mod 5).
        a.restore(snap).unwrap();
        a.advance_to(&src, 300, 1);
        assert_eq!(a.snapshot(sid).unwrap().next_arrival, 301);
    }

    /// checkpoint + restore_checkpoint continues bit-identically.
    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let mut a = DynamicEngine::new(classes.clone(), 32, 8).unwrap();
        for i in 0..12u64 {
            a.join((i % 2) as usize, i, i % 9).unwrap();
        }
        a.advance_to(&src, 1000, 1);
        a.leave(3, &src).unwrap();
        a.advance_to(&src, 1700, 1);
        let cp = a.checkpoint();
        let mut b = DynamicEngine::restore_checkpoint(classes, 32, 8, &cp).unwrap();
        for e in [&mut a, &mut b] {
            e.advance_to(&src, 4000, 1);
            e.finish(&src, 1);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.session_digests(), b.session_digests());
    }

    /// A small deterministic churn trace for the fused tests.
    fn small_trace() -> ChurnTrace {
        crate::synthetic::churn_trace(&crate::synthetic::ChurnSpec {
            seed: 0xFACE,
            initial: 9,
            weights: vec![2, 1],
            periods: vec![20, 25],
            ticks_per_sec: TICKS_PER_SEC,
            horizon: 2400,
            churn_ppm_per_sec: 200_000,
        })
    }

    /// Splits a trace at tick `cut`: the first half replays events up
    /// to and including `cut` (horizon `cut`), the second the rest.
    fn split_trace(trace: &ChurnTrace, cut: u64) -> (ChurnTrace, ChurnTrace) {
        let half = |keep: &dyn Fn(u64) -> bool, horizon| ChurnTrace {
            events: trace
                .events
                .iter()
                .filter(|&&(t, _)| keep(t))
                .copied()
                .collect(),
            horizon,
            peak_live: trace.peak_live,
        };
        (half(&|t| t <= cut, cut), half(&|t| t > cut, trace.horizon))
    }

    fn small_cfg() -> crate::livemux::MuxConfig {
        crate::livemux::MuxConfig {
            capacity_bps: 12.0e6,
            buffer_bits: 0.4e6,
            t_start: 0.0,
            t_end: 4.5,
            descriptor_rho_bps: 1.5e6,
        }
    }

    /// The fused trace replay leaves the engine bit-identical to the
    /// plain replay (same digests, same decision count), and the mux
    /// outcome is invariant in thread count.
    #[test]
    fn fused_trace_matches_plain_replay_and_threads() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let trace = small_trace();

        let mut plain = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
        let made_plain = plain.run_trace(&src, &trace, 1).unwrap();
        plain.finish(&src, 1);

        let mut baseline = None;
        for threads in [1usize, 2, 5] {
            let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
            let mut mux = LiveMux::with_joins(trace.total_joins(), 4, small_cfg());
            let made = engine
                .run_trace_fused(&src, &trace, threads, &mut mux)
                .unwrap();
            let stats = engine.finish_fused(&src, threads, &mut mux);
            assert_eq!(made, made_plain, "threads={threads}");
            assert_eq!(engine.digest(), plain.digest(), "threads={threads}");
            let digest = crate::livemux::mux_digest(&stats, &mux.descriptors());
            match baseline {
                None => baseline = Some(digest),
                Some(d) => assert_eq!(d, digest, "mux digest diverged at threads={threads}"),
            }
        }
    }

    /// Engine + mux checkpoints taken mid-trace continue bit-identical
    /// to the uninterrupted fused run.
    #[test]
    fn fused_trace_checkpoint_restore_is_bit_identical() {
        let src = fleet();
        let classes = vec![test_class(20), test_class(25)];
        let trace = small_trace();
        let cut = 1300u64;
        let (first, second) = split_trace(&trace, cut);

        let mut whole = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
        let total = trace.total_joins();
        let mut whole_mux = LiveMux::with_joins(total, 4, small_cfg());
        whole
            .run_trace_fused(&src, &trace, 1, &mut whole_mux)
            .unwrap();
        let want = whole.finish_fused(&src, 1, &mut whole_mux);
        let want_digest = crate::livemux::mux_digest(&want, &whole_mux.descriptors());
        let want_engine = whole.digest();

        let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
        let mut mux = LiveMux::with_joins(total, 4, small_cfg());
        // A fused call ingests before it returns, so the pair is
        // checkpointable at the same trace position.
        engine.run_trace_fused(&src, &first, 1, &mut mux).unwrap();
        let ecp = engine.checkpoint();
        let mcp = mux.checkpoint();

        let mut engine =
            DynamicEngine::restore_checkpoint(classes, trace.peak_live, 4, &ecp).unwrap();
        let mut mux = LiveMux::restore(&mcp);
        engine.run_trace_fused(&src, &second, 1, &mut mux).unwrap();
        let got = engine.finish_fused(&src, 1, &mut mux);
        assert_eq!(engine.digest(), want_engine);
        assert_eq!(
            crate::livemux::mux_digest(&got, &mux.descriptors()),
            want_digest
        );
    }

    /// A session taken out across a fused call comes back with a lane
    /// the link clock has passed: the next fused call refuses it with a
    /// typed error before feeding anything, where posting its events
    /// would put them in the link's past.
    #[test]
    fn a_lane_restored_behind_the_link_clock_is_refused() {
        let src = fleet();
        // One picture a second on the scheduler, 30 a second on the
        // session's own clock: its lane's frontier lags the link.
        let classes = vec![test_class(20), test_class(600)];
        let mut engine = DynamicEngine::new(classes, 4, 2).unwrap();
        let mut mux = LiveMux::with_joins(2, 2, small_cfg());
        let joins = ChurnTrace {
            events: vec![
                (
                    0,
                    ChurnEvent::Join {
                        class: 0,
                        stream: 1,
                        phase: 0,
                    },
                ),
                (
                    0,
                    ChurnEvent::Join {
                        class: 1,
                        stream: 2,
                        phase: 0,
                    },
                ),
            ],
            horizon: 700,
            peak_live: 2,
        };
        let until = |horizon| ChurnTrace {
            events: Vec::new(),
            horizon,
            peak_live: 2,
        };
        engine.run_trace_fused(&src, &joins, 1, &mut mux).unwrap();
        let slow = engine.take(1).unwrap();
        let frontier = slow.lane.as_ref().unwrap().frontier();
        engine
            .run_trace_fused(&src, &until(1100), 1, &mut mux)
            .unwrap();
        let clock = mux.clock();
        assert!(frontier < clock, "the link clock {clock} passed {frontier}");
        engine.restore(slow).unwrap();
        let refused = EngineError::LaneBehindLinkClock {
            sid: 1,
            frontier,
            clock,
        };
        // Fed, its next rate change would post behind the clock.
        let decisions = engine.decisions();
        assert_eq!(
            engine.run_trace_fused(&src, &until(7000), 1, &mut mux),
            Err(refused.clone())
        );
        assert_eq!(engine.try_finish_fused(&src, 1, &mut mux), Err(refused));
        assert_eq!((engine.now(), engine.decisions()), (1100, decisions));
        assert_eq!(mux.clock(), clock);
    }

    #[test]
    fn config_errors_are_typed() {
        assert_eq!(
            DynamicEngine::new(vec![], 10, 4).err(),
            Some(EngineError::NoClasses)
        );
        assert_eq!(
            DynamicEngine::new(vec![test_class(0)], 10, 4).err(),
            Some(EngineError::ZeroPeriod { class: 0 })
        );
        assert_eq!(
            DynamicEngine::new(vec![test_class(20)], 0, 4).err(),
            Some(EngineError::ZeroCapacity)
        );
        let mut engine = DynamicEngine::new(vec![test_class(20)], 1, 1).unwrap();
        engine.join(0, 0, 0).unwrap();
        assert_eq!(
            engine.join(0, 1, 0).unwrap_err(),
            EngineError::CapacityExhausted { capacity: 1 }
        );
        assert_eq!(
            engine.leave(99, &fleet()).unwrap_err(),
            EngineError::UnknownSession { sid: 99 }
        );
    }
}
