//! **LiveMux**: online incremental link aggregation — the one
//! production fluid multiplexer.
//!
//! Two kinds of input share it. The session engines of `smooth-engine`
//! stream each session's decisions into its [`SessionLane`] as they are
//! made. Offline callers post rate functions per lane
//! ([`LiveMux::push_step_function`], or window by window with
//! [`LiveMux::push_step_window`]); that is how [`crate::FluidMux::run`],
//! the X-mux experiment and `mpeg-smooth sweep --sources` multiplex.
//!
//! ### Where lanes live
//!
//! A lane sits in a [`LaneTable`], indexed by its owner's slot number,
//! beside the buffer its events wait in. The event-driven engine keeps
//! one table per shard, each lane in its session's own slot of the
//! slot store: the fused step decides into the lane inline, with no lock
//! and no lookup by session id, lanes scale with the slots (peak live
//! sessions) rather than with joins, and a lane moves with its session
//! in the session's snapshot. Such a mux builds no lanes of its own; a
//! departing lane leaves only its final σ, 8 bytes a session id
//! ([`LiveMux::retire_lane`]). Callers that feed the mux directly —
//! [`LiveMux::push_decision`], the lockstep engine through
//! [`LiveMux::block`], the step-function posts — use lane blocks the mux
//! owns, one table per block of `block_size` leaves, built at
//! [`LiveMux::new`] or, for [`LiveMux::with_joins`], on the first direct
//! call.
//!
//! Every rate change becomes a tiny *delta event* `(t, leaf,
//! new_rate)`. Ingestion applies events in global time order to the
//! canonical [`SumTree`] pairwise-summation tree — an O(log S) leaf
//! update per event — advancing the exact fluid queue ([`QueueState`])
//! across each interval between distinct event times. Nothing per
//! source is materialized for a streamed session: resident state is
//! O(S) lanes plus the tree and the pending events.
//!
//! ### Why the bits match the sweep oracle
//!
//! The test-only `smooth-oracle` crate keeps the reference this path is
//! pinned to: every session's schedule materialized as a
//! [`smooth_metrics::StepFunction`] and merged by a serial k-way sweep
//! (`RateSweep`), itself pinned to a quadratic materialize-then-resample
//! loop. The sweep closes an interval only when the next event time
//! strictly exceeds the current time, and its aggregate is the root of
//! a [`SumTree`] whose value is a pure function of the current leaves.
//! So any schedule that (a) applies the same set of `(t, leaf, value)`
//! updates, (b) in globally non-decreasing time order, (c) closing each
//! interval *before* applying the updates at its right endpoint, reads
//! the same roots and feeds the same `(agg, dt)` pairs to the same
//! [`QueueState`] — bit for bit. LiveMux guarantees (a) by replicating
//! the exact streaming builder `rate_segments ∘
//! StepFunction::from_segments` (same `TIME_EPS` merge, same `1e-12`
//! gap threshold) — or, for a step-function lane, by posting the
//! function's own breakpoints — (b) by only flushing events strictly
//! below a **fence** no future event can undercut (next section), and
//! (c) by sorting each flush on `t` and applying equal-time groups
//! atomically. Within a group the order of different leaves is
//! immaterial — a tree node is a function of its leaves — and ties keep
//! buffer order, which is each session's own emission order. The sort
//! key is order-preserving for every finite time, negative ones
//! included, and gives −0.0 and +0.0 one key.
//!
//! ### The fence
//!
//! Each lane emits its breakpoints in increasing time: a piece's end
//! lies past its start, a gap's start more than `1e-12` past the last
//! breakpoint. A breakpoint goes out as soon as the value taking effect
//! at it is certain. A gap's zero is certain when the segment after it
//! opens. A merged segment's rate is certain once the segment's end has
//! passed the last breakpoint: `from_segments` places its piece as long
//! as the final end lies past that breakpoint, and the end of an
//! announced segment never moves back (decisions depart in order; a
//! merge that would pull it back panics). So the *frontier* — the
//! earliest time a lane can still emit — is:
//!
//! - `offset + last_break` while the open segment's piece is pending:
//!   the value at that dangling breakpoint is still unknown;
//! - `offset + cur_end` once it went out: the next breakpoint is the
//!   segment's final end, no earlier than its current one;
//! - the next unposted breakpoint of a step-function lane posted up to
//!   a window's end;
//! - `+∞` for a finished lane, and for a lane that has not joined (it
//!   takes no decisions before it joins; the caller's clock cap bounds
//!   the events of future joins).
//!
//! [`LiveMux::ingest`]'s fence is the minimum of the clock cap and
//! every live lane's frontier, so every event posted after an ingest
//! lies at or past its fence, and flushing strictly below it applies
//! events in global time order across passes. Each table keeps the
//! frontiers of its live lanes in a dense `f64` array — the engine
//! refreshes a slot's entry once per visit — so the fence reads one
//! value per live lane and nothing for departed ones. A lane that holds
//! one rate for the whole run advances its frontier with every
//! decision, so the fence follows the fleet's clock: after an ingest
//! the shards hold only the events a lane posted between the fence and
//! its own frontier — a few per live session, O(S) whatever the run's
//! length ([`LiveMux::pending_events`]). [`crate::FluidMux::run`] posts
//! its step functions one time window at a time and ingests after each,
//! so it buffers one window of breakpoints, not all of them.
//!
//! ### Shard-parallel, thread-invariant
//!
//! Leaves are partitioned by a [`ShardPlan`] (fixed by session count
//! and block size, never by worker count), one subtree per shard.
//! Workers apply their shard's events to the shard subtree and record a
//! time-ordered run of `(t, subtree_root)` pairs; a serial k-way merge
//! then replays the runs through the top levels of the tree. Because
//! shard boundaries coincide with subtree boundaries, the composed root
//! is *the same tree* a serial sweep over all S leaves reads, whatever
//! the shard count.
//!
//! A table buffers its events in one bucket per mux shard, so an event
//! is routed once, when it is posted, whichever sessions the table
//! holds. An ingest pass hands each non-empty bucket whole to its shard
//! (the table gets back the buffer it handed over the pass before, now
//! empty), and the shard sorts only those new events, in O(n) for a
//! live step's few hundred: a counting scatter on the top bits of their
//! time keys, then an insertion sort within each bucket. The events a
//! shard holds at or past the fence are *batches*, one per earlier pass
//! that held any, each sorted, back to back in one arena. A pass appends
//! its new events as the newest batch, takes each batch's prefix below
//! the fence, and sorts the prefixes together by `(time key, arena
//! index)`, so at one time earlier passes apply first, then routing
//! order, then posting order. A held event is written into the arena
//! once and stays where it is until it applies; the arena drops its
//! applied slots now and then, once they outnumber half the held
//! events. When nothing is held, as in a whole run ingested at once,
//! the new events below the fence apply straight from the buffers they
//! were routed in. So a pass costs what was posted since the last one
//! plus what it applies, not a copy of everything still held.
//! [`LiveMux::ingest_counts`] reports the events posted, routed,
//! applied and held, and the frontiers the fences read.
//!
//! ### Live (σ, ρ) descriptors
//!
//! Alongside the aggregate, each session's lane maintains the tightest
//! leaky-bucket envelope of its smoothed schedule over the measurement
//! window — [`TrafficDescriptor`]`{ sigma, rho }` for the configured
//! drain rate ρ — by running [`crate::min_bucket_for`]'s exact
//! recurrence incrementally on its own breakpoints (same `1e-12` cut
//! dedup, same update order). A future admission controller reads
//! descriptors for free; the proptests pin them bit-identical to the
//! offline oracle.

use std::sync::Mutex;

use smooth_core::{PictureSchedule, RateSegment, TIME_EPS};
use smooth_metrics::StepFunction;
use smooth_sweep::{par_map, ShardPlan, SumTree};

use crate::mux::{FluidMuxStats, QueueState};

/// Upper bound on [`LiveMux`] aggregation shards. The shard layout is
/// chosen by session count and block size only (see [`ShardPlan`]), so
/// it — and therefore every output bit — is independent of the worker
/// count.
pub const MUX_MAX_SHARDS: usize = 64;

/// Configuration of a fused link-aggregation run: the link, the
/// measurement window, and the descriptor drain rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MuxConfig {
    /// Output link capacity, bits/second.
    pub capacity_bps: f64,
    /// Link buffer size, bits.
    pub buffer_bits: f64,
    /// Start of the measurement window, seconds.
    pub t_start: f64,
    /// End of the measurement window, seconds.
    pub t_end: f64,
    /// Drain rate ρ for the per-session leaky-bucket descriptors,
    /// bits/second.
    pub descriptor_rho_bps: f64,
}

impl MuxConfig {
    /// The link checks [`crate::FluidMux::run`] has always made
    /// (positive capacity, non-negative buffer), [`crate::min_bucket_for`]'s
    /// token-rate check, and a finite window, whose end the final
    /// interval is closed at. A NaN capacity or buffer fails the first
    /// two; an infinite capacity passes, and reports NaN utilization.
    fn check(&self) {
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        assert!(self.buffer_bits >= 0.0, "buffer must be non-negative");
        assert!(self.descriptor_rho_bps > 0.0, "token rate must be positive");
        assert!(
            self.t_start.is_finite() && self.t_end.is_finite(),
            "window bounds must be finite"
        );
    }
}

/// The tightest leaky-bucket envelope of one session's smoothed
/// schedule over the measurement window: the schedule is (σ, ρ)-smooth,
/// i.e. a token bucket of depth σ draining at ρ never drops a bit of
/// it. σ is maintained incrementally, bit-identical to
/// [`crate::min_bucket_for`] over the materialized schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficDescriptor {
    /// Bucket depth σ, bits.
    pub sigma: f64,
    /// Drain rate ρ, bits/second (the configured
    /// [`MuxConfig::descriptor_rho_bps`]).
    pub rho: f64,
}

/// Aggregate outcome of a link-aggregation run: the exact fluid queue
/// stats (bit-identical to the sweep oracle) plus the running peak of
/// the link aggregate rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveMuxStats {
    /// The fluid finite-buffer FIFO stats over the window.
    pub mux: FluidMuxStats,
    /// Peak aggregate input rate observed on any interval of the
    /// window, bits/second (0 over an empty window).
    pub peak_rate_bps: f64,
}

/// Cumulative counts of what [`LiveMux`]'s ingest passes did: plain
/// integers, deterministic for a given input (never a function of the
/// thread count), and never part of a digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounts {
    /// Ingest passes run.
    pub passes: u64,
    /// Events the lanes posted into their buffers.
    pub posted: u64,
    /// Events routed from a lane buffer to their shard and sorted. Each
    /// event is routed once, so after a pass this equals `posted`.
    pub routed: u64,
    /// Events applied to the summation tree.
    pub applied: u64,
    /// Events held at or past the fence after the last pass (a gauge,
    /// not a running total).
    pub held: u64,
    /// Lane frontiers the fences read: one per live lane per pass.
    pub fence_reads: u64,
}

/// One rate-change delta: session `leaf`'s rate becomes `v` at the
/// absolute time whose [`time_key`] is `key`. 24 bytes; the only thing
/// the fused path buffers.
#[derive(Debug, Clone, Copy)]
struct Event {
    key: u64,
    v: f64,
    leaf: u32,
}

/// An event time's sort key: unsigned order of keys is `<` order of
/// times for every non-NaN time, negative ones included (raw `to_bits`
/// order reverses the negatives), and −0.0 shares +0.0's key because
/// the two are one instant. A positive time gets its sign bit set, a
/// negative one all its bits flipped.
#[inline]
fn time_key(t: f64) -> u64 {
    let bits = if t == 0.0 { 0 } else { t.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The time a [`time_key`] came from (+0.0 for either zero).
#[inline]
fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Where a [`LaneTable`]'s lanes post: the configuration they run under
/// and one buffer per [`LiveMux`] shard, so routing a buffer is one
/// append to its shard.
#[derive(Debug, Clone, Default)]
struct Outbox {
    /// `None` until the table is attached to a mux.
    cfg: Option<MuxConfig>,
    /// Leaf `l` belongs to shard `l >> shift` (shards are a power of two
    /// wide).
    shift: u32,
    buckets: Vec<Vec<Event>>,
    /// Events posted since the last ingest.
    posted: u64,
}

impl Outbox {
    fn bind(&mut self, cfg: MuxConfig, plan: &ShardPlan) {
        let shift = plan.width.trailing_zeros();
        if self.cfg == Some(cfg) && self.shift == shift && self.buckets.len() == plan.count {
            return;
        }
        assert_eq!(
            self.pending(),
            0,
            "a lane table with unrouted events cannot move to another mux"
        );
        self.cfg = Some(cfg);
        self.shift = shift;
        self.buckets.resize_with(plan.count, Vec::new);
    }

    fn cfg(&self) -> MuxConfig {
        self.cfg.expect("lane table attached to a mux")
    }

    fn push(&mut self, e: Event) {
        let Some(bucket) = self.buckets.get_mut((e.leaf >> self.shift) as usize) else {
            panic!("session {} is not a leaf of the attached mux", e.leaf);
        };
        bucket.push(e);
        self.posted += 1;
    }

    fn pending(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

/// One session's lane: the exact streaming replica of the offline
/// schedule builder (events out instead of arrays), its join
/// bookkeeping, and the incremental (σ, ρ) recurrence. A lane lives in
/// a [`LaneTable`] — the session engine's, in the session's own slot, or
/// one of the mux's own blocks when the mux is fed directly — and moves
/// with its session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionLane {
    /// Whether the session has joined the mux (a lane built by
    /// [`SessionLane::new`] has; a placeholder has not).
    joined: bool,
    /// Whether the stream has ended (builder flushed, final zero-rate
    /// event emitted, descriptor window closed).
    finished: bool,
    /// Absolute time of the session's local t = 0 (its join time).
    offset: f64,
    // --- builder: rate_segments ∘ from_segments, streaming ---
    /// Whether a merged segment is open (can still grow): from the
    /// first decision until the stream ends.
    has_cur: bool,
    /// End of the open segment, local time — also the last decision's
    /// departure, which gates zero-rate gap insertion.
    cur_end: f64,
    cur_rate: f64,
    /// The open segment's start breakpoint is already emitted (with
    /// its rate): the segment has outgrown `last_break`, so the
    /// offline builder is bound to place that piece. The next event is
    /// then at the segment's final end, no earlier than `cur_end`.
    announced: bool,
    /// The last placed breakpoint (local time). Unless `announced`, it
    /// dangles — the value taking effect at it is not yet known — and
    /// the session's next event is at exactly `offset + last_break`. A
    /// step-function lane posted up to a window keeps its next
    /// unposted breakpoint here.
    last_break: f64,
    // --- descriptor: min_bucket_for's recurrence, incremental ---
    /// Last retained cut (absolute time; starts at the window start).
    last_cut: f64,
    /// Rate in effect since `last_cut`.
    value: f64,
    /// Cumulative arrivals since the window start.
    cum: f64,
    g_min: f64,
    sigma: f64,
}

impl SessionLane {
    /// The lane of a session joining the mux `cfg` configures, its
    /// local t = 0 at absolute time `offset`.
    pub fn new(cfg: &MuxConfig, offset: f64) -> Self {
        SessionLane {
            joined: true,
            offset,
            ..Self::placeholder(cfg.t_start)
        }
    }

    /// A lane of a session that has not joined: it bounds no fence and
    /// takes no decisions.
    fn placeholder(t_start: f64) -> Self {
        SessionLane {
            joined: false,
            finished: false,
            offset: 0.0,
            has_cur: false,
            cur_end: 0.0,
            cur_rate: 0.0,
            announced: false,
            last_break: 0.0,
            last_cut: t_start,
            value: 0.0,
            cum: 0.0,
            g_min: 0.0,
            sigma: 0.0,
        }
    }

    /// Whether the lane can still emit: joined and not finished.
    fn is_live(&self) -> bool {
        self.joined && !self.finished
    }

    /// Earliest absolute time at which this lane can still emit an
    /// event; the ingestion fence is the fleet-wide minimum. Unjoined
    /// lanes don't bound the fence (the caller's clock cap covers
    /// future joins, and they take no decisions); finished lanes never
    /// emit again. See the module docs for why this is a lower bound.
    #[inline]
    pub fn frontier(&self) -> f64 {
        if !self.is_live() {
            f64::INFINITY
        } else if self.announced {
            self.offset + self.cur_end
        } else {
            self.offset + self.last_break
        }
    }

    /// One decision: `rate_segments`' zero-rate gap insertion, then its
    /// equal-rate merge — identical to the oracle's streaming builder.
    ///
    /// # Panics
    ///
    /// Panics if the lane has not joined or has already finished.
    #[inline]
    fn decision(&mut self, d: &PictureSchedule, leaf: u32, out: &mut Outbox) {
        // Hot path: a gapless decision at the current rate extends the
        // open, announced merged segment (most decisions of a smoothed
        // schedule keep the rate) — one branch instead of the gap check
        // plus the merge check below, with identical state updates. An
        // announced segment implies a live lane, so the lifecycle check
        // below guards this path too.
        if self.announced
            && self.cur_rate == d.rate
            && (d.start - self.cur_end).abs() <= TIME_EPS
            && d.depart >= self.cur_end
        {
            self.cur_end = d.depart;
            return;
        }
        self.check_live(leaf);
        if self.has_cur && d.start > self.cur_end + TIME_EPS {
            let gap = RateSegment {
                start: self.cur_end,
                end: d.start,
                rate: 0.0,
            };
            self.raw(gap, leaf, out);
        }
        self.raw(
            RateSegment {
                start: d.start,
                end: d.depart,
                rate: d.rate,
            },
            leaf,
            out,
        );
    }

    fn raw(&mut self, seg: RateSegment, leaf: u32, out: &mut Outbox) {
        if self.has_cur {
            if self.cur_rate == seg.rate && (seg.start - self.cur_end).abs() <= TIME_EPS {
                // An announced segment must not shrink back: its end is
                // the frontier the fence already trusted.
                assert!(
                    !self.announced || seg.end >= self.cur_end,
                    "session {leaf}: a decision departs before its predecessor"
                );
                self.cur_end = seg.end;
                self.announce(leaf, out);
                return;
            }
            self.close_segment();
        } else {
            // The stream's first segment: its start is the first
            // breakpoint.
            self.last_break = seg.start;
        }
        self.open_segment(seg, leaf, out);
    }

    /// Streaming `StepFunction::from_segments`, split at the open
    /// segment's two ends so its breakpoints go out as early as they
    /// are certain. `from_segments` handles a finished segment in two
    /// steps: a gap piece (zero from the last breakpoint to the
    /// segment start, when that is more than `1e-12` away), then the
    /// segment's own piece (when its end lies past the last
    /// breakpoint). The gap step depends only on the segment's start,
    /// so it runs here, on opening; the piece step runs in
    /// [`announce`](Self::announce) as soon as the growing end passes
    /// the last breakpoint.
    fn open_segment(&mut self, seg: RateSegment, leaf: u32, out: &mut Outbox) {
        self.has_cur = true;
        self.cur_end = seg.end;
        self.cur_rate = seg.rate;
        if seg.start > self.last_break + 1e-12 {
            let at = self.last_break;
            self.push_event(at, 0.0, leaf, out);
            self.last_break = seg.start;
        }
        self.announce(leaf, out);
    }

    /// Emits the open segment's piece once its end has passed the last
    /// breakpoint. Ends only grow from here (a merge checks it), so
    /// the offline builder is bound to place the same piece.
    fn announce(&mut self, leaf: u32, out: &mut Outbox) {
        if !self.announced && self.cur_end > self.last_break {
            self.announced = true;
            let at = self.last_break;
            self.push_event(at, self.cur_rate, leaf, out);
        }
    }

    /// The open segment can no longer grow: an announced piece ends at
    /// its final end, the new last breakpoint. An unannounced segment
    /// never passed the last breakpoint and places nothing.
    fn close_segment(&mut self) {
        self.has_cur = false;
        if self.announced {
            self.announced = false;
            self.last_break = self.cur_end;
        }
    }

    /// End of stream: close the open merged segment, resolve the last
    /// breakpoint to zero (after the last piece the rate is 0), and
    /// close the descriptor window at `t_end`. A session that never
    /// decided anything contributes `StepFunction::zero`'s single
    /// `t = 0` event (`last_break` is still 0 then).
    ///
    /// # Panics
    ///
    /// Panics if the lane has not joined or has already finished.
    fn finish(&mut self, leaf: u32, out: &mut Outbox) {
        self.check_live(leaf);
        self.close_segment();
        let at = self.last_break;
        self.push_event(at, 0.0, leaf, out);
        self.end_stream(&out.cfg());
    }

    /// Posts a rate function's pieces that start before absolute time
    /// `until`, resuming at piece `*next`: one event per piece start
    /// with the piece's value, then — once every piece is out and the
    /// domain end lies before `until` — the final zero at the domain
    /// end and the end of stream. Later events at one time win, so the
    /// lane reads `f.value_at(t)` at every `t`, duplicate breakpoints
    /// included. Until the stream ends, the lane's frontier is its next
    /// unposted breakpoint, so posting window by window applies the
    /// same events as posting the function whole.
    ///
    /// # Panics
    ///
    /// Panics if the lane has not joined, has already finished, or has
    /// taken decisions — unless the cursor is the one the ending call
    /// left, past the last piece: the call is then a no-op.
    fn step_window(
        &mut self,
        f: &StepFunction,
        next: &mut usize,
        until: f64,
        leaf: u32,
        out: &mut Outbox,
    ) {
        if *next > f.values().len() {
            return;
        }
        self.check_live(leaf);
        assert!(!self.has_cur, "session {leaf} already took decisions");
        let (breaks, values) = (f.breakpoints(), f.values());
        while let Some(&v) = values.get(*next) {
            let start = breaks[*next];
            if self.offset + start >= until {
                self.last_break = start;
                return;
            }
            self.push_event(start, v, leaf, out);
            *next += 1;
        }
        let end = f.domain_end();
        if self.offset + end >= until {
            self.last_break = end;
            return;
        }
        self.push_event(end, 0.0, leaf, out);
        self.end_stream(&out.cfg());
        *next += 1;
    }

    #[inline]
    fn check_live(&self, leaf: u32) {
        assert!(self.joined, "session {leaf} has not joined the mux");
        assert!(!self.finished, "session {leaf} already finished");
    }

    /// Closes the descriptor window at `t_end` and marks the lane
    /// finished.
    fn end_stream(&mut self, cfg: &MuxConfig) {
        // min_bucket_for's final cut is the window end itself, dropped
        // by the same 1e-12 dedup when the last kept cut crowds it.
        let t1 = cfg.t_end;
        if t1 - self.last_cut >= 1e-12 {
            self.cum += self.value * (t1 - self.last_cut);
            let g = self.cum - cfg.descriptor_rho_bps * (t1 - cfg.t_start);
            self.sigma = self.sigma.max(g - self.g_min);
            self.g_min = self.g_min.min(g);
            self.last_cut = t1;
        }
        self.finished = true;
    }

    /// Records one breakpoint: feed the descriptor recurrence, then
    /// buffer the delta event (the sweep oracle's heap only ever holds
    /// breakpoints below the window end, so later ones are dropped —
    /// their leaf value would never be observed). Any finite time is
    /// fine, negative ones included.
    fn push_event(&mut self, t_local: f64, v: f64, leaf: u32, out: &mut Outbox) {
        let cfg = out.cfg();
        let t = self.offset + t_local;
        self.descriptor_cut(&cfg, t, v);
        if t < cfg.t_end {
            out.push(Event {
                key: time_key(t),
                v,
                leaf,
            });
        }
    }

    /// [`crate::min_bucket_for`]'s loop body, one cut at a
    /// time. Cuts outside the open window `(t_start, t_end)` are not
    /// cuts (they only set the rate in effect); a cut within `1e-12` of
    /// the last kept one is deduplicated exactly like the oracle's
    /// chained `dedup_by`.
    fn descriptor_cut(&mut self, cfg: &MuxConfig, t: f64, v: f64) {
        if t >= cfg.t_end {
            return;
        }
        if t <= cfg.t_start {
            self.value = v;
            return;
        }
        if t - self.last_cut < 1e-12 {
            self.value = v;
            return;
        }
        self.cum += self.value * (t - self.last_cut);
        let g = self.cum - cfg.descriptor_rho_bps * (t - cfg.t_start);
        self.sigma = self.sigma.max(g - self.g_min);
        self.g_min = self.g_min.min(g);
        self.last_cut = t;
        self.value = v;
    }
}

/// Dense-array marker of a slot without a live lane.
const NO_LANE: u32 = u32::MAX;

/// The lanes of one owner, indexed by the owner's slot numbers, with
/// the buffer their events wait in until [`LiveMux`] ingests them.
///
/// A session engine keeps one table per shard, each lane in its
/// session's slot: a decision goes straight to the lane beside the
/// slot's own state, with no lock and no lookup by session id, and the
/// table only ever holds as many lanes as the shard has slots. Events
/// are bucketed by the mux shard that owns their leaf, so an ingest
/// routes each buffer with one append. The frontier of every live lane
/// sits in a dense `f64` array (refreshed once per slot visit by
/// [`visited`](Self::visited)), so the ingest fence is a min over
/// exactly the live lanes.
#[derive(Debug, Default)]
pub struct LaneTable {
    /// The lane of each slot (a placeholder where a slot holds none).
    lanes: Vec<SessionLane>,
    /// Position of each slot's frontier in `frontier` ([`NO_LANE`] for
    /// a slot without a live lane).
    at: Vec<u32>,
    /// Frontier of every live lane, densely packed.
    frontier: Vec<f64>,
    /// The slot of each `frontier` entry.
    owner: Vec<u32>,
    out: Outbox,
}

impl LaneTable {
    /// An empty table, not yet attached to a mux.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the table to `mux`: its configuration (descriptor window
    /// and rate) and its shard layout (the event buckets). A no-op when
    /// already bound to an equal layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout changes while events wait to be ingested.
    pub fn attach(&mut self, mux: &LiveMux) {
        self.out.bind(mux.cfg, &mux.plan);
    }

    /// Places `lane` in `slot`. A live lane's frontier joins the fence.
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds a live lane.
    pub fn open(&mut self, slot: usize, lane: SessionLane) {
        if self.lanes.len() <= slot {
            self.reserve_slots(slot + 1);
        }
        assert_eq!(
            self.at[slot], NO_LANE,
            "slot {slot} already holds a live lane"
        );
        if lane.is_live() {
            self.at[slot] = u32::try_from(self.frontier.len()).expect("live lanes fit u32");
            self.frontier.push(lane.frontier());
            self.owner.push(slot as u32);
        }
        self.lanes[slot] = lane;
    }

    /// Makes room for lanes in slots `0 .. slots` in one allocation per
    /// array, where opening slot after slot would regrow them by
    /// copying. Only the slots that come to hold a lane are touched.
    pub fn reserve(&mut self, slots: usize) {
        let more = slots.saturating_sub(self.lanes.len());
        self.lanes.reserve_exact(more);
        self.at.reserve_exact(more);
    }

    /// Sizes the table to `slots` slots, new ones without a lane.
    fn reserve_slots(&mut self, slots: usize) {
        self.lanes.resize(slots, SessionLane::placeholder(0.0));
        self.at.resize(slots, NO_LANE);
    }

    /// Removes and returns the lane in `slot`, if it holds one (the
    /// session moves, leaves or its slot is freed).
    pub fn close(&mut self, slot: usize) -> Option<SessionLane> {
        let lane = self.lanes.get_mut(slot).filter(|l| l.joined)?;
        let lane = std::mem::replace(lane, SessionLane::placeholder(0.0));
        self.drop_frontier(slot);
        Some(lane)
    }

    fn drop_frontier(&mut self, slot: usize) {
        let i = std::mem::replace(&mut self.at[slot], NO_LANE);
        if i == NO_LANE {
            return;
        }
        self.frontier.swap_remove(i as usize);
        self.owner.swap_remove(i as usize);
        if let Some(&moved) = self.owner.get(i as usize) {
            self.at[moved as usize] = i;
        }
    }

    /// The lane in `slot`, if it holds one.
    pub fn lane(&self, slot: usize) -> Option<&SessionLane> {
        self.lanes.get(slot).filter(|l| l.joined)
    }

    /// Feeds one decision of session `sid` to the lane in `slot`: the
    /// fused engine's per-decision hot path.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no live lane, or if the decision
    /// continues the session's current rate but departs before the
    /// previous decision did.
    #[inline]
    pub fn decision(&mut self, slot: usize, sid: u64, d: &PictureSchedule) {
        let leaf = u32::try_from(sid).expect("session id fits u32");
        match self.lanes.get_mut(slot) {
            Some(lane) => lane.decision(d, leaf, &mut self.out),
            None => panic!("session {sid} has not joined the mux"),
        }
    }

    /// Refreshes the fence's copy of the frontier of `slot`'s lane, if
    /// it holds a live one: an owner calls it after a run of decisions
    /// to the slot.
    #[inline]
    pub fn visited(&mut self, slot: usize) {
        if let Some(&i) = self.at.get(slot) {
            if i != NO_LANE {
                self.frontier[i as usize] = self.lanes[slot].frontier();
            }
        }
    }

    /// Ends the stream of session `sid`, whose lane sits in `slot`:
    /// flushes its builder, posts its final zero-rate event and closes
    /// its descriptor window. The finished lane stays in the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no live lane.
    pub fn finish(&mut self, slot: usize, sid: u64) {
        let leaf = u32::try_from(sid).expect("session id fits u32");
        match self.lanes.get_mut(slot) {
            Some(lane) => lane.finish(leaf, &mut self.out),
            None => panic!("session {sid} has not joined the mux"),
        }
        self.drop_frontier(slot);
    }

    fn step_window(
        &mut self,
        slot: usize,
        leaf: u32,
        f: &StepFunction,
        next: &mut usize,
        until: f64,
    ) {
        let lane = &mut self.lanes[slot];
        lane.step_window(f, next, until, leaf, &mut self.out);
        let finished = lane.finished;
        if finished {
            self.drop_frontier(slot);
        }
    }

    /// Lane slots resident in the table (live, finished or empty): the
    /// highest slot that ever held a lane, plus one.
    pub fn resident(&self) -> usize {
        self.lanes.len()
    }

    /// Events posted and not yet ingested.
    pub fn pending_events(&self) -> usize {
        self.out.pending()
    }

    /// Re-reads every live lane's frontier. The mux's own blocks take
    /// decisions one by one, with no visit to end, so their ingest
    /// refreshes the whole array.
    fn refresh(&mut self) {
        for (f, &slot) in self.frontier.iter_mut().zip(&self.owner) {
            *f = self.lanes[slot as usize].frontier();
        }
    }

    /// The earliest live frontier (`INFINITY` without live lanes).
    /// Eight independent running minima, so the compiler keeps them in
    /// vector registers; a compare-select is `min` exactly here, as no
    /// frontier is NaN (and the fence's time key gives −0.0 and +0.0
    /// one key).
    fn fence(&self) -> f64 {
        let select = |m: &mut f64, f: f64| {
            if f < *m {
                *m = f;
            }
        };
        let mut m = [f64::INFINITY; 8];
        let chunks = self.frontier.chunks_exact(8);
        for &f in chunks.remainder() {
            select(&mut m[0], f);
        }
        for chunk in chunks {
            for (m, &f) in m.iter_mut().zip(chunk) {
                select(m, f);
            }
        }
        m.into_iter()
            .fold(f64::INFINITY, |a, f| if f < a { f } else { a })
    }
}

/// A contiguous run of session lanes the mux owns — one block per
/// engine shard of a lockstep fleet, so the fused batch path writes
/// events with zero cross-thread contention. Reached through
/// [`LiveMux::block`].
#[derive(Debug)]
pub struct LaneBlock {
    first_leaf: u32,
    table: LaneTable,
}

impl LaneBlock {
    /// Feeds one decision of session `sid` (a global id, which must
    /// belong to this block) to its lane: the fused engine's per-decision
    /// hot path.
    ///
    /// # Panics
    ///
    /// Panics if the session has not joined or has already finished,
    /// or if the decision continues the session's current rate but
    /// departs before the previous decision did.
    #[inline]
    pub fn decision(&mut self, sid: u64, d: &PictureSchedule) {
        let j = sid as usize - self.first_leaf as usize;
        self.table.decision(j, sid, d);
    }

    /// Ends every still-open joined lane of the block (the batch path's
    /// end-of-stream, reached once per fused run).
    pub fn finish_lanes(&mut self) {
        for j in 0..self.table.lanes.len() {
            if self.table.lanes[j].is_live() {
                self.table.finish(j, u64::from(self.first_leaf) + j as u64);
            }
        }
    }
}

/// The events a shard holds at or past the fence: one batch per pass
/// that held any, each sorted by time key with ties in routing order,
/// then posting order. The batches sit back to back in one arena,
/// oldest first, so an event's arena index orders the events of one
/// time as they must apply — earlier passes first. A pass appends its
/// new events as one batch (only those at or past the fence, when
/// nothing was held) and takes the prefix below the fence of every
/// batch, so a held event is written once, when it is routed, and not
/// copied again while it waits; the arena drops its applied slots once
/// they outnumber half the live events, which moves an event at most
/// twice per event applied since the last compaction and keeps the
/// arena within 1.5 times what it holds (a `sliced_5k` run's peak RSS
/// is then the merge pass's; at twice, it read 2 % higher).
#[derive(Debug, Default)]
struct Held {
    /// The batches, oldest first, with applied slots before each.
    arena: Vec<Event>,
    /// The live range of each batch in `arena`, oldest first.
    batches: Vec<(usize, usize)>,
    /// Live events: the batches' total length.
    live: usize,
}

impl Held {
    /// The held events as one time-ordered list, ties in apply order
    /// (the [`MuxCheckpoint`] form).
    fn to_vec(&self) -> Vec<Event> {
        let mut all: Vec<Event> = (self.batches.iter())
            .flat_map(|&(from, to)| self.arena[from..to].iter().copied())
            .collect();
        // Stable: ties keep batch order, then position.
        all.sort_by_key(|e| e.key);
        all
    }

    /// A held set of one batch: `events`, time-ordered.
    fn from_vec(events: Vec<Event>) -> Self {
        let live = events.len();
        Held {
            arena: events,
            batches: if live > 0 { vec![(0, live)] } else { vec![] },
            live,
        }
    }

    /// Appends one pass's new events, in `(time key, source, position)`
    /// order, as the newest batch.
    fn push_batch(&mut self, order: &[u128], sources: &[Vec<Event>]) {
        let from = self.arena.len();
        self.arena.extend(order.iter().map(|&o| routed(sources, o)));
        if !order.is_empty() {
            self.batches.push((from, self.arena.len()));
            self.live += order.len();
        }
    }

    /// Takes every event below `fence` out of the held set and keys it
    /// as `(time key, arena index)` in `keys`, batch by batch. The taken
    /// events stay readable at their arena index until the next
    /// [`compact`](Self::compact).
    fn take_below(&mut self, fence: u64, keys: &mut Vec<u128>) {
        keys.clear();
        for (from, to) in &mut self.batches {
            let cut = self.arena[*from..*to].partition_point(|e| e.key < fence);
            keys.extend(
                (*from..*from + cut).map(|i| ((self.arena[i].key as u128) << 64) | i as u128),
            );
            *from += cut;
        }
        self.live -= keys.len();
        self.batches.retain(|(from, to)| from < to);
    }

    /// Moves the live events to the front of the arena, in batch order,
    /// once the applied slots outnumber half of them.
    fn compact(&mut self) {
        if 2 * self.arena.len() <= 3 * self.live {
            return;
        }
        let mut to = 0;
        for batch in &mut self.batches {
            let len = batch.1 - batch.0;
            self.arena.copy_within(batch.0..batch.1, to);
            *batch = (to, to + len);
            to += len;
        }
        self.arena.truncate(to);
    }
}

/// Keys handled by the insertion sort alone: below this, the scatter's
/// passes cost more than they save.
const SCATTER_MIN: usize = 32;

/// Keys above which [`sort_keys`] uses the comparison sort, in place:
/// a live step routes a few hundred events a shard, but a whole run
/// ingested at once (a lockstep fleet's) routes thousands, and
/// scattering those would add their size again in scratch (the 1M
/// session fused CLI run peaked 19 % higher, at a lockstep step about
/// 3 % faster).
const SCATTER_MAX: usize = 4096;

/// Sorts `keys` — a time key in the high 64 bits above a position that
/// makes every key unique — ascending, in O(n) for time keys spread
/// over their range: one counting scatter on the top bits in which the
/// time keys differ, then an insertion sort, which moves a key only
/// within its bucket. A live fleet's events crowd the newest few
/// milliseconds of a span that reaches back to the slowest lane's
/// frontier, so the scatter spreads them over 4 to 8 buckets a key
/// (on a `sliced_5k` step that sorts about a quarter faster than 1 to
/// 2 buckets a key, and 8 to 16 is slower again). Keys crowded into a
/// few buckets fall back to the comparison sort once the insertion sort
/// has moved more than a few keys a key. `spare` and `starts` are
/// scratch.
fn sort_keys(keys: &mut Vec<u128>, spare: &mut Vec<u128>, starts: &mut Vec<u32>) {
    let n = keys.len();
    let time = |k: u128| (k >> 64) as u64;
    if n > SCATTER_MAX {
        keys.sort_unstable();
        return;
    }
    if n >= SCATTER_MIN {
        let (min, max) = (keys.iter()).fold((u64::MAX, 0), |(lo, hi), &k| {
            (lo.min(time(k)), hi.max(time(k)))
        });
        let span = max - min;
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(n.ilog2() + 3);
        let bucket = |k: u128| ((time(k) - min) >> shift) as usize;
        starts.clear();
        starts.resize((span >> shift) as usize + 2, 0);
        for &k in keys.iter() {
            starts[bucket(k) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        spare.clear();
        spare.resize(n, 0);
        for &k in keys.iter() {
            let at = &mut starts[bucket(k)];
            spare[*at as usize] = k;
            *at += 1;
        }
        std::mem::swap(keys, spare);
    }
    let budget = 8 * n;
    let mut moved = 0;
    for i in 1..n {
        let k = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > k {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = k;
        moved += i - j;
        if moved > budget {
            keys.sort_unstable();
            return;
        }
    }
}

/// One aggregation shard: the [`SumTree`] subtree over its leaf range,
/// the events routed to it, and the time-ordered `(t, subtree_root)` run
/// of the current ingest pass.
#[derive(Debug)]
struct MuxShard {
    tree: SumTree,
    /// Events at or past the last fence.
    held: Held,
    /// The lane buffers routed in since the last pass, in routing order:
    /// each taken whole from its lane table, so no event is copied
    /// before it is sorted, and one that applies in the pass that sorts
    /// it is never copied.
    sources: Vec<Vec<Event>>,
    /// The table (its position in the ingest's routing order) each
    /// source came from.
    origin: Vec<usize>,
    /// By table position: the emptied buffer the table gets back in
    /// exchange for its next one, so each table's bucket alternates
    /// between two buffers that both keep their capacity.
    returned: Vec<Vec<Event>>,
    /// Sort keys: the new events', then the applicable events'.
    order: Vec<u128>,
    /// [`sort_keys`] scratch.
    spare: Vec<u128>,
    starts: Vec<u32>,
    run: Vec<(f64, f64)>,
    /// Events the last pass applied.
    applied: u64,
}

impl MuxShard {
    fn new(width: usize) -> Self {
        MuxShard {
            tree: SumTree::new(width),
            held: Held::default(),
            sources: Vec::new(),
            origin: Vec::new(),
            returned: Vec::new(),
            order: Vec::new(),
            spare: Vec::new(),
            starts: Vec::new(),
            run: Vec::new(),
            applied: 0,
        }
    }

    /// Sorts the routed events and applies every event, held or new,
    /// whose time key is below `fence`, in time order, recording the
    /// subtree root after each distinct time. The new events at or past
    /// the fence become the newest held batch, and held events stay
    /// where they are, so the next pass only sorts what arrives
    /// meanwhile.
    ///
    /// # Panics
    ///
    /// Panics if a routed event lies below `floor`, the time key of the
    /// link clock once it has passed the window start: the queue has
    /// already been advanced past the event, so it would apply out of
    /// time order.
    fn pass(&mut self, lo: usize, floor: u64, fence: u64) {
        let direct = self.take_applicable(floor, fence);
        self.apply_taken(lo, direct);
    }

    /// The second half of a [`pass`](Self::pass): applies what
    /// [`take_applicable`](Self::take_applicable) left in `order` (named
    /// as it says by `direct`), then hands the routed buffers back.
    fn apply_taken(&mut self, lo: usize, direct: bool) {
        let MuxShard {
            tree,
            held,
            sources,
            order,
            run,
            applied,
            ..
        } = self;
        if direct {
            apply(tree, lo, order, run, |o| routed(sources, o));
        } else {
            apply(tree, lo, order, run, |o| held.arena[o as u64 as usize]);
        }
        *applied = order.len() as u64;
        self.return_sources();
        self.held.compact();
    }

    /// The first half of a [`pass`](Self::pass): leaves in `order` every
    /// event below `fence`, sorted into apply order — time order, and at
    /// one time earlier passes first, then routing order, then posting
    /// order — and holds the rest. Returns whether the keys are new
    /// events' `(time key, source, position)`, applied where they were
    /// routed (nothing was held), rather than `(time key, arena index)`.
    fn take_applicable(&mut self, floor: u64, fence: u64) -> bool {
        let MuxShard {
            held,
            sources,
            order,
            spare,
            starts,
            ..
        } = self;
        // `(time key, source, position)` packed into one integer, so
        // ties keep posting order (the buffers in routing order; a
        // session posts into one buffer between ingests, so each
        // session's own order).
        order.clear();
        order.reserve(sources.iter().map(Vec::len).sum());
        for (src, events) in sources.iter().enumerate() {
            assert!(
                u32::try_from(events.len()).is_ok(),
                "an event buffer outgrew u32 positions"
            );
            order.extend(
                events
                    .iter()
                    .enumerate()
                    .map(|(pos, e)| ((e.key as u128) << 64) | ((src as u128) << 32) | pos as u128),
            );
        }
        sort_keys(order, spare, starts);
        assert!(
            order.first().map_or(true, |&o| (o >> 64) as u64 >= floor),
            "an event was posted behind the link clock (its lane missed an \
             ingest's fence, as a session taken out across one does)"
        );
        // Apply below the fence: no event at or past it can be
        // undercut by anything a session emits later, so the global
        // time order across ingest passes is total. Each batch is
        // sorted, so what applies is a prefix of each.
        let below = |o: &u128| ((o >> 64) as u64) < fence;
        if held.live == 0 {
            // Only new events: their prefix applies from the buffers
            // they were routed in, uncopied (through the arena, the 1M
            // session fused CLI run peaked 14 % higher).
            let cut = order.partition_point(below);
            held.push_batch(&order[cut..], sources);
            order.truncate(cut);
            return true;
        }
        // The arena index breaks ties between batches in pass order.
        held.push_batch(order, sources);
        held.take_below(fence, order);
        sort_keys(order, spare, starts);
        false
    }

    /// Hands each routed buffer, emptied, back to its table.
    fn return_sources(&mut self) {
        let MuxShard {
            sources,
            origin,
            returned,
            ..
        } = self;
        for (mut events, &table) in sources.drain(..).zip(origin.iter()) {
            events.clear();
            returned[table] = events;
        }
        origin.clear();
    }
}

/// The routed event an `(time key, source, position)` key names.
#[inline(always)]
fn routed(sources: &[Vec<Event>], o: u128) -> Event {
    let at = o as u64;
    sources[(at >> 32) as usize][at as u32 as usize]
}

/// Applies the events `order` names, in order, to `tree` (the subtree
/// of leaves from `lo`), recording its root after each distinct time in
/// `run`, which is sized once, for one entry an event, before it fills.
fn apply(
    tree: &mut SumTree,
    lo: usize,
    order: &[u128],
    run: &mut Vec<(f64, f64)>,
    event: impl Fn(u128) -> Event,
) {
    run.clear();
    run.reserve(order.len());
    let mut i = 0;
    while let Some(&o) = order.get(i) {
        let t = (o >> 64) as u64;
        while let Some(&o) = order.get(i).filter(|&&o| (o >> 64) as u64 == t) {
            let e = event(o);
            tree.set(e.leaf as usize - lo, e.v);
            i += 1;
        }
        run.push((key_time(t), tree.total()));
    }
}

/// Opaque snapshot of a [`LiveMux`]'s full aggregation state — its own
/// lanes, the retired descriptors, shard subtrees, held events, queue,
/// clock and counters — for mid-trace checkpoint/restore alongside the
/// session engine's own checkpoint (which carries the engine's lanes).
#[derive(Debug, Clone)]
pub struct MuxCheckpoint {
    cfg: MuxConfig,
    sessions: usize,
    block_size: usize,
    lanes: Vec<SessionLane>,
    retired: Vec<f64>,
    shards: Vec<(SumTree, Vec<Event>)>,
    top: SumTree,
    queue: QueueState,
    cur_t: f64,
    peak: f64,
    counts: IngestCounts,
}

/// The online link aggregator. See the module docs for the
/// architecture; `smooth-engine`'s `SessionEngine::run_fused` and
/// `DynamicEngine::run_trace_fused` are the engine hookups, and
/// [`crate::FluidMux::run`] the offline one.
pub struct LiveMux {
    cfg: MuxConfig,
    sessions: usize,
    block_size: usize,
    plan: ShardPlan,
    /// Lanes the mux owns, for callers that feed it directly. A
    /// [`with_joins`](Self::with_joins) mux builds them on the first
    /// direct call, so a fused engine, whose lanes live in its slots,
    /// never pays for them.
    blocks: Vec<Mutex<LaneBlock>>,
    /// Final σ of every lane retired into the mux from outside
    /// ([`retire_lane`](Self::retire_lane)), by leaf: 8 bytes a session
    /// id, allocated at the first retirement.
    retired: Vec<f64>,
    shards: Vec<Mutex<MuxShard>>,
    /// `0 .. shards.len()`, the items of the per-pass `par_map`.
    shard_idx: Vec<usize>,
    /// Top-merge scratch, kept across passes: the shards' runs (swapped
    /// out for the merge), each run's read position, the winner tree.
    runs: Vec<Vec<(f64, f64)>>,
    heads: Vec<usize>,
    nodes: Vec<u128>,
    top: SumTree,
    queue: QueueState,
    /// Left edge of the next interval to close (starts at `t_start`).
    cur_t: f64,
    peak: f64,
    finalized: bool,
    counts: IngestCounts,
}

impl LiveMux {
    /// An aggregator for a fixed fleet of `sessions` sessions, all
    /// present from time 0 (the lockstep `SessionEngine` batch case, and
    /// [`crate::FluidMux::run`]'s step-function lanes), with its lanes.
    /// `block_size` must match the engine's shard size so each engine
    /// shard owns exactly one lane block.
    pub fn new(sessions: usize, block_size: usize, cfg: MuxConfig) -> Self {
        let mut mux = Self::build(sessions, block_size, cfg);
        mux.blocks = mux.lane_blocks(true);
        mux
    }

    /// An aggregator whose sessions join over time (the
    /// `DynamicEngine` churn case): size it to the total
    /// number of session ids the trace will ever issue. A fused engine
    /// keeps the lanes in its own slots; a caller feeding the mux
    /// directly announces each session via
    /// [`begin_session`](Self::begin_session).
    pub fn with_joins(capacity: usize, block_size: usize, cfg: MuxConfig) -> Self {
        Self::build(capacity, block_size, cfg)
    }

    fn build(sessions: usize, block_size: usize, cfg: MuxConfig) -> Self {
        cfg.check();
        assert!(block_size > 0, "block size must be positive");
        assert!(
            u32::try_from(sessions).is_ok(),
            "session count must fit u32"
        );
        // A mux shard spans at least one lane block. Still fixed by the
        // fleet, never by threads.
        let padded = sessions.max(1).next_power_of_two();
        let max_shards = (padded / block_size.next_power_of_two()).clamp(1, MUX_MAX_SHARDS);
        let plan = ShardPlan::new(sessions, max_shards);
        LiveMux {
            cfg,
            sessions,
            block_size,
            plan,
            blocks: Vec::new(),
            retired: Vec::new(),
            shards: (0..plan.count)
                .map(|_| Mutex::new(MuxShard::new(plan.width)))
                .collect(),
            shard_idx: (0..plan.count).collect(),
            runs: vec![Vec::new(); plan.count],
            heads: vec![0; plan.count],
            nodes: Vec::new(),
            top: SumTree::new(plan.count),
            queue: QueueState::new(),
            cur_t: cfg.t_start,
            peak: 0.0,
            finalized: false,
            counts: IngestCounts::default(),
        }
    }

    /// The mux's own lane blocks, every lane joined at time 0 when
    /// `joined`, else waiting for [`begin_session`](Self::begin_session).
    fn lane_blocks(&self, joined: bool) -> Vec<Mutex<LaneBlock>> {
        (0..self.sessions.div_ceil(self.block_size))
            .map(|b| {
                let lo = b * self.block_size;
                let n = ((b + 1) * self.block_size).min(self.sessions) - lo;
                let mut table = if joined {
                    // Every lane live from time 0, its frontier 0, built
                    // in one allocation per array.
                    let lane = SessionLane::new(&self.cfg, 0.0);
                    let frontier = lane.frontier();
                    LaneTable {
                        lanes: vec![lane; n],
                        at: (0..n as u32).collect(),
                        frontier: vec![frontier; n],
                        owner: (0..n as u32).collect(),
                        out: Outbox::default(),
                    }
                } else {
                    let mut table = LaneTable::new();
                    table.reserve_slots(n);
                    table
                };
                table.out.bind(self.cfg, &self.plan);
                Mutex::new(LaneBlock {
                    first_leaf: lo as u32,
                    table,
                })
            })
            .collect()
    }

    /// The lane block and in-block slot of session `sid`, building the
    /// blocks on first use.
    fn own_lane(&mut self, sid: u64) -> (&mut LaneTable, usize) {
        if self.blocks.is_empty() {
            self.blocks = self.lane_blocks(false);
        }
        let sid = sid as usize;
        let block = self.blocks[sid / self.block_size]
            .get_mut()
            .expect("block poisoned");
        (&mut block.table, sid % self.block_size)
    }

    /// Number of session lanes.
    pub fn session_count(&self) -> usize {
        self.sessions
    }

    /// Lanes per block (must equal the batch engine's shard size).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The configuration the aggregator was built with.
    pub fn config(&self) -> MuxConfig {
        self.cfg
    }

    /// Lane blocks the mux has built for direct feeding (0 for a
    /// [`with_joins`](Self::with_joins) mux only ever fed by an engine's
    /// lane tables).
    pub fn lane_blocks_built(&self) -> usize {
        self.blocks.len()
    }

    /// What the ingest passes so far did (see [`IngestCounts`]).
    pub fn ingest_counts(&self) -> IngestCounts {
        self.counts
    }

    /// The current link aggregate rate (bits/second) as of the last
    /// ingested event — the live queryable an admission controller
    /// polls.
    pub fn aggregate_bps(&self) -> f64 {
        self.top.total()
    }

    /// Running peak of the aggregate rate over closed intervals so far.
    pub fn peak_bps(&self) -> f64 {
        self.peak
    }

    /// The link clock: the latest applied event time (the window start
    /// until an event past it applies). The queue has advanced up to
    /// here; when no event falls before the window start,
    /// [`aggregate_bps`](Self::aggregate_bps) is the fleet's rate at
    /// this instant.
    pub fn clock(&self) -> f64 {
        self.cur_t
    }

    /// Rate-change events posted but not yet applied: those buffered in
    /// the mux's own lane blocks since the last [`ingest`](Self::ingest),
    /// plus those held at or past its fence. A fused engine ingests its
    /// lane tables before each of its calls returns, so between calls
    /// this counts its events too. Right after an ingest only the held
    /// ones remain — a few per live session, whatever the run's length.
    pub fn pending_events(&self) -> usize {
        let buffered: usize = self
            .blocks
            .iter()
            .map(|b| b.lock().expect("block poisoned").table.pending_events())
            .sum();
        let held: usize = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").held.live)
            .sum();
        buffered + held
    }

    /// The lane block of engine shard `s`, holding sessions
    /// `s * block_size ..`: the fused batch path locks engine shard and
    /// lane block pairwise and feeds [`LaneBlock::decision`].
    pub fn block(&self, s: usize) -> &Mutex<LaneBlock> {
        &self.blocks[s]
    }

    /// Marks session `sid` as joined at absolute time `offset_sec`
    /// (its decisions' local times are offset by this much).
    ///
    /// # Panics
    ///
    /// Panics if the session already joined.
    pub fn begin_session(&mut self, sid: u64, offset_sec: f64) {
        let cfg = self.cfg;
        let (table, j) = self.own_lane(sid);
        assert!(table.lane(j).is_none(), "session {sid} already joined");
        table.open(j, SessionLane::new(&cfg, offset_sec));
    }

    /// Ends session `sid`'s stream: flushes its builder, emits its
    /// final zero-rate event, and closes its descriptor window.
    ///
    /// # Panics
    ///
    /// Panics if the session has not joined or has already finished.
    pub fn finish_session(&mut self, sid: u64) {
        let (table, j) = self.own_lane(sid);
        table.finish(j, sid);
    }

    /// Feeds one decision of session `sid` directly.
    ///
    /// # Panics
    ///
    /// Panics if the session has not joined or has already finished,
    /// or if the decision continues the session's current rate but
    /// departs before the previous decision did.
    pub fn push_decision(&mut self, sid: u64, d: &PictureSchedule) {
        let (table, j) = self.own_lane(sid);
        table.decision(j, sid, d);
    }

    /// Posts the whole rate function `f` (local time, offset by the
    /// session's join time) into session `sid`'s lane and ends its
    /// stream: one event per piece start, then the final zero at the
    /// domain end. The lane then reads exactly `f.value_at` at every
    /// time, so the aggregate is the one a sweep over the functions
    /// computes, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the session has not joined, has already finished, or
    /// has taken decisions.
    pub fn push_step_function(&mut self, sid: u64, f: &StepFunction) {
        let mut next = 0;
        self.push_step_window(sid, f, &mut next, f64::INFINITY);
    }

    /// [`push_step_function`](Self::push_step_function) one window at a
    /// time: posts the pieces of `f` that start before absolute time
    /// `until`, resuming at piece `*next` (start at 0), and ends the
    /// stream once the final zero is out. Until then the lane's frontier
    /// is its next unposted breakpoint, so a caller that posts every
    /// input up to `until` and then ingests with clock cap `until` keeps
    /// only one window of events buffered, and lands on the same bits as
    /// posting every function whole.
    ///
    /// # Panics
    ///
    /// As [`push_step_function`](Self::push_step_function).
    pub fn push_step_window(&mut self, sid: u64, f: &StepFunction, next: &mut usize, until: f64) {
        let leaf = u32::try_from(sid).expect("session id fits u32");
        let (table, j) = self.own_lane(sid);
        table.step_window(j, leaf, f, next, until);
    }

    /// Takes the final descriptor of session `sid`'s finished lane,
    /// which lived outside the mux (in a fused engine's slot). The lane
    /// itself can then be dropped: the mux keeps its σ, 8 bytes a
    /// session id, for [`descriptors`](Self::descriptors).
    ///
    /// # Panics
    ///
    /// Panics if the lane has not finished or `sid` is not a leaf.
    pub fn retire_lane(&mut self, sid: u64, lane: &SessionLane) {
        assert!(lane.finished, "session {sid} retired before it finished");
        assert!(
            (sid as usize) < self.sessions,
            "session {sid} is not a leaf"
        );
        if self.retired.is_empty() {
            self.retired = vec![0.0; self.sessions];
        }
        self.retired[sid as usize] = lane.sigma;
    }

    /// Applies every buffered event whose time is strictly below the
    /// fence — `clock_cap` (a time no event of a session that joins
    /// later can fall below; `INFINITY` for fixed fleets) min'd with
    /// every live lane's frontier (module docs) — to the summation tree
    /// in global time order, closing queue intervals as time advances.
    /// Reads the mux's own lane blocks. Thread-invariant: shard routing
    /// is fixed by the [`ShardPlan`], runs merge in shard order. Returns
    /// the number of events applied.
    pub fn ingest(&mut self, threads: usize, clock_cap: f64) -> u64 {
        self.ingest_lanes(threads, clock_cap, std::iter::empty())
    }

    /// [`ingest`](Self::ingest) over the mux's own lane blocks and the
    /// lane tables of a fused engine: each table's live frontiers bound
    /// the fence, and its buffered events are routed, in table order.
    /// A session's events must all sit in one table: ingest before a
    /// session moves between tables.
    ///
    /// # Panics
    ///
    /// Panics if a table is attached to a mux of another layout.
    pub fn ingest_lanes<'a>(
        &mut self,
        threads: usize,
        clock_cap: f64,
        tables: impl IntoIterator<Item = &'a mut LaneTable>,
    ) -> u64 {
        let mut fence = clock_cap;
        for (b, block) in self.blocks.iter_mut().enumerate() {
            let table = &mut block.get_mut().expect("block poisoned").table;
            table.refresh();
            route(&mut self.shards, &mut self.counts, &mut fence, table, b);
        }
        let shift = self.plan.width.trailing_zeros();
        for (t, table) in tables.into_iter().enumerate() {
            assert!(
                table.out.buckets.is_empty()
                    || (table.out.shift == shift && table.out.buckets.len() == self.plan.count),
                "lane table attached to a mux of another layout"
            );
            let position = self.blocks.len() + t;
            route(
                &mut self.shards,
                &mut self.counts,
                &mut fence,
                table,
                position,
            );
        }

        let width = self.plan.width;
        // Before the clock passes the window start no interval has
        // closed, and events below it only set leaf values.
        let floor = if self.cur_t > self.cfg.t_start {
            time_key(self.cur_t)
        } else {
            0
        };
        let fence = time_key(fence);
        let shards = &self.shards;
        par_map(threads, &self.shard_idx, |_, &m| {
            shards[m]
                .lock()
                .expect("shard poisoned")
                .pass(m * width, floor, fence);
        });
        let mut applied = 0;
        let mut held = 0;
        for (shard, run) in self.shards.iter_mut().zip(&mut self.runs) {
            let shard = shard.get_mut().expect("shard poisoned");
            applied += shard.applied;
            held += shard.held.live as u64;
            std::mem::swap(run, &mut shard.run);
        }
        self.merge_runs();
        for (shard, run) in self.shards.iter_mut().zip(&mut self.runs) {
            std::mem::swap(run, &mut shard.get_mut().expect("shard poisoned").run);
        }
        self.counts.passes += 1;
        self.counts.applied += applied;
        self.counts.held = held;
        applied
    }

    /// Serial top merge: replays the shard runs in global time order
    /// through the top of the tree, advancing the queue across each
    /// interval exactly like the sweep's merge loop. The k-way merge is
    /// a flat winner tree over the (at most [`MUX_MAX_SHARDS`]) runs —
    /// each step is log₂(shards) sequential min() nodes, a fraction of a
    /// binary heap's pop-push churn on this hot loop. Keys pack
    /// `(time_key(t), shard)` into a u128, so equal times resolve in
    /// shard order, exactly like the old heap's tuples.
    fn merge_runs(&mut self) {
        let runs = &self.runs;
        debug_assert!(runs.len() <= 128, "winner-tree keys pack a 7-bit shard");
        const DONE: u128 = u128::MAX;
        let key = |t: f64, m: usize| ((time_key(t) as u128) << 7) | m as u128;
        let k2 = runs.len().next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(2 * k2, DONE);
        // Length pinned symbolically to `2 * k2` so the level walks
        // below (`i / 2 < k2` implies `2 * (i / 2) + 1 < 2 * k2`) index
        // without per-level bounds checks.
        let nodes = &mut self.nodes[..2 * k2];
        let heads = &mut self.heads;
        heads.fill(0);
        for (m, run) in runs.iter().enumerate() {
            if let Some(&(t, _)) = run.first() {
                nodes[k2 + m] = key(t, m);
            }
        }
        for i in (1..k2).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        // Queue state lives in locals for the duration.
        let mut cur_t = self.cur_t;
        let mut peak = self.peak;
        while nodes[1] != DONE {
            let m = (nodes[1] & 0x7F) as usize;
            let (t, root) = runs[m][heads[m]];
            heads[m] += 1;
            if t > cur_t {
                let agg = self.top.total();
                self.queue
                    .advance(agg, t - cur_t, self.cfg.capacity_bps, self.cfg.buffer_bits);
                peak = peak.max(agg);
                cur_t = t;
            }
            self.top.set(m, root);
            let mut i = k2 + m;
            nodes[i] = match runs[m].get(heads[m]) {
                Some(&(next, _)) => key(next, m),
                None => DONE,
            };
            while i > 1 {
                i /= 2;
                nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
            }
        }
        self.cur_t = cur_t;
        self.peak = peak;
    }

    /// Closes the final interval up to the window end and returns the
    /// run's stats. Every lane must be finished and every event
    /// ingested (call [`ingest`](Self::ingest) with an `INFINITY` cap
    /// after the engine finishes).
    pub fn finalize(&mut self) -> LiveMuxStats {
        assert!(!self.finalized, "finalize called twice");
        self.finalized = true;
        debug_assert!(
            self.shards
                .iter()
                .all(|s| s.lock().expect("shard poisoned").held.live == 0),
            "finalize with unflushed events"
        );
        if self.cfg.t_end > self.cur_t {
            let agg = self.top.total();
            self.queue.advance(
                agg,
                self.cfg.t_end - self.cur_t,
                self.cfg.capacity_bps,
                self.cfg.buffer_bits,
            );
            self.peak = self.peak.max(agg);
            self.cur_t = self.cfg.t_end;
        }
        LiveMuxStats {
            mux: self
                .queue
                .into_stats(self.cfg.capacity_bps, self.cfg.t_start, self.cfg.t_end),
            peak_rate_bps: self.peak,
        }
    }

    /// Session `sid`'s descriptor. For a lane the mux owns, σ is final
    /// once the lane finished and mid-run covers the schedule ingested
    /// so far; for a lane that lived in an engine, σ is the one it
    /// retired with ([`retire_lane`](Self::retire_lane)), 0 before.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is not a leaf.
    pub fn descriptor(&self, sid: u64) -> TrafficDescriptor {
        let sid = sid as usize;
        assert!(sid < self.sessions, "session {sid} is not a leaf");
        let sigma = if self.blocks.is_empty() {
            self.retired.get(sid).copied().unwrap_or(0.0)
        } else {
            let block = self.blocks[sid / self.block_size]
                .lock()
                .expect("block poisoned");
            block.table.lanes[sid % self.block_size].sigma
        };
        TrafficDescriptor {
            sigma,
            rho: self.cfg.descriptor_rho_bps,
        }
    }

    /// Every session's descriptor, in session-id order (see
    /// [`descriptor`](Self::descriptor)).
    pub fn descriptors(&self) -> Vec<TrafficDescriptor> {
        let rho = self.cfg.descriptor_rho_bps;
        if self.blocks.is_empty() {
            let mut out: Vec<_> = self
                .retired
                .iter()
                .map(|&sigma| TrafficDescriptor { sigma, rho })
                .collect();
            out.resize(self.sessions, TrafficDescriptor { sigma: 0.0, rho });
            return out;
        }
        let mut out = Vec::with_capacity(self.sessions);
        for blk in &self.blocks {
            let blk = blk.lock().expect("block poisoned");
            out.extend(blk.table.lanes.iter().map(|l| TrafficDescriptor {
                sigma: l.sigma,
                rho,
            }));
        }
        out
    }

    /// Snapshots the full aggregation state. The mux's own lane blocks
    /// must be drained first (any [`ingest`](Self::ingest) does that,
    /// whatever its fence — events it held at or past the fence are
    /// captured). A fused engine's lanes are not part of it: the
    /// engine's checkpoint carries them.
    ///
    /// # Panics
    ///
    /// Panics if a lane block still buffers unrouted events.
    pub fn checkpoint(&self) -> MuxCheckpoint {
        let mut lanes = Vec::new();
        for blk in &self.blocks {
            let blk = blk.lock().expect("block poisoned");
            assert_eq!(
                blk.table.pending_events(),
                0,
                "checkpoint with unrouted events; call ingest first"
            );
            lanes.extend_from_slice(&blk.table.lanes);
        }
        MuxCheckpoint {
            cfg: self.cfg,
            sessions: self.sessions,
            block_size: self.block_size,
            lanes,
            retired: self.retired.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let s = s.lock().expect("shard poisoned");
                    (s.tree.clone(), s.held.to_vec())
                })
                .collect(),
            top: self.top.clone(),
            queue: self.queue,
            cur_t: self.cur_t,
            peak: self.peak,
            counts: self.counts,
        }
    }

    /// Rebuilds an aggregator from a [`checkpoint`](Self::checkpoint),
    /// bit-identical to the one that was snapshotted.
    pub fn restore(cp: &MuxCheckpoint) -> Self {
        let mut mux = Self::build(cp.sessions, cp.block_size, cp.cfg);
        if !cp.lanes.is_empty() {
            mux.blocks = mux.lane_blocks(false);
            for (sid, lane) in cp.lanes.iter().enumerate() {
                let (table, j) = mux.own_lane(sid as u64);
                table.open(j, lane.clone());
            }
        }
        mux.retired = cp.retired.clone();
        for (shard, (tree, held)) in mux.shards.iter_mut().zip(&cp.shards) {
            let shard = shard.get_mut().expect("shard poisoned");
            shard.tree = tree.clone();
            shard.held = Held::from_vec(held.clone());
        }
        mux.top = cp.top.clone();
        mux.queue = cp.queue;
        mux.cur_t = cp.cur_t;
        mux.peak = cp.peak;
        mux.counts = cp.counts;
        mux
    }
}

/// Routes the buffered events of the lane table at `position` in the
/// routing order to their shards (each non-empty bucket handed over
/// whole, for the one it handed over last time, now empty), folds its
/// live frontiers into `fence`, and counts both.
fn route(
    shards: &mut [Mutex<MuxShard>],
    counts: &mut IngestCounts,
    fence: &mut f64,
    table: &mut LaneTable,
    position: usize,
) {
    *fence = fence.min(table.fence());
    counts.fence_reads += table.frontier.len() as u64;
    counts.posted += std::mem::take(&mut table.out.posted);
    for (shard, bucket) in shards.iter_mut().zip(&mut table.out.buckets) {
        if !bucket.is_empty() {
            counts.routed += bucket.len() as u64;
            let shard = shard.get_mut().expect("shard poisoned");
            if shard.returned.len() <= position {
                shard.returned.resize_with(position + 1, Vec::new);
            }
            let empty = std::mem::take(&mut shard.returned[position]);
            shard.sources.push(std::mem::replace(bucket, empty));
            shard.origin.push(position);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(capacity: f64, buffer: f64, a: f64, b: f64) -> MuxConfig {
        MuxConfig {
            capacity_bps: capacity,
            buffer_bits: buffer,
            t_start: a,
            t_end: b,
            descriptor_rho_bps: 1.5e6,
        }
    }

    #[test]
    fn time_keys_follow_time_order() {
        let times = [
            f64::NEG_INFINITY,
            -1.0e6,
            -1.0,
            -0.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0e-13,
            0.5,
            1.0,
            1.0e6,
            f64::INFINITY,
        ];
        for w in times.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert_eq!(time_key(a) < time_key(b), a < b, "{a} vs {b}");
            assert_eq!(time_key(a) == time_key(b), a == b, "{a} vs {b}");
        }
        for t in times {
            assert_eq!(key_time(time_key(t)), t);
        }
        assert_eq!(key_time(time_key(-0.0)).to_bits(), 0.0f64.to_bits());
    }

    /// A session that joins before time zero: its events land at
    /// negative times and must still apply in time order. Raw `to_bits`
    /// keys sorted -0.5 before -1.0, so the 1 Mbit/s piece took effect
    /// at -0.5 and ran to the window end (2.5 Mbit arrived).
    #[test]
    fn negative_times_apply_in_time_order() {
        let mut mux = LiveMux::with_joins(1, 1, cfg(1.0e9, 0.0, -2.0, 2.0));
        mux.begin_session(0, -1.0);
        mux.push_decision(0, &sent(0.0, 0.5, 1.0e6));
        mux.finish_session(0);
        mux.ingest(1, f64::INFINITY);
        let stats = mux.finalize();
        assert_eq!(stats.mux.arrived_bits, 500_000.0);
        assert_eq!(stats.peak_rate_bps, 1.0e6);
    }

    /// A lane joined at −0.0 keeps a −0.0 breakpoint at −0.0: it is the
    /// same instant as +0.0, so the later of the two events wins there.
    #[test]
    fn signed_zero_times_are_one_instant() {
        let f = StepFunction::new(vec![0.0, -0.0, 1.0], vec![9.0e6, 1.0e6]);
        let mut mux = LiveMux::with_joins(1, 1, cfg(1.0e9, 0.0, -1.0, 2.0));
        mux.begin_session(0, -0.0);
        mux.push_step_function(0, &f);
        mux.ingest(1, f64::INFINITY);
        let stats = mux.finalize();
        assert_eq!(stats.mux.arrived_bits, 1.0e6);
        assert_eq!(stats.peak_rate_bps, 1.0e6);
    }

    fn stats_bits(s: &LiveMuxStats) -> [u64; 7] {
        [
            s.mux.arrived_bits.to_bits(),
            s.mux.lost_bits.to_bits(),
            s.mux.served_bits.to_bits(),
            s.mux.final_queue_bits.to_bits(),
            s.mux.max_queue_bits.to_bits(),
            s.mux.utilization.to_bits(),
            s.peak_rate_bps.to_bits(),
        ]
    }

    /// Posting step functions window by window, ingesting up to each
    /// window's end, lands on the bits of posting them whole and
    /// ingesting once; each ingest routes what was posted since the last
    /// one, and the windows hold back the fence only to their ends.
    #[test]
    fn windowed_step_posting_matches_whole() {
        let fs = [
            StepFunction::new(
                vec![0.0, 0.3, 0.3, 1.1, 2.0],
                vec![1.0e6, 3.0e6, 2.0e6, 5.0e5],
            ),
            StepFunction::new(vec![0.2, 0.9, 1.7], vec![4.0e6, 0.0]),
            StepFunction::zero(),
            StepFunction::new(vec![-0.5, 0.05, 2.5], vec![7.0e5, 9.0e5]),
        ];
        let c = cfg(5.0e6, 2.0e5, 0.0, 2.2);
        let mut whole = LiveMux::new(fs.len(), 2, c);
        for (sid, f) in fs.iter().enumerate() {
            whole.push_step_function(sid as u64, f);
        }
        whole.ingest(1, f64::INFINITY);
        let want = stats_bits(&whole.finalize());

        let mut mux = LiveMux::new(fs.len(), 2, c);
        let mut next = [0; 4];
        for until in [0.1, 0.3, 0.31, 1.0, 1.9, f64::INFINITY] {
            let before = mux.ingest_counts();
            for (sid, f) in fs.iter().enumerate() {
                mux.push_step_window(sid as u64, f, &mut next[sid], until);
            }
            mux.ingest(1, until);
            let counts = mux.ingest_counts();
            assert_eq!(counts.routed - before.routed, counts.posted - before.posted);
            if until.is_finite() {
                assert!(mux.clock() < until);
            }
        }
        assert_eq!(mux.pending_events(), 0);
        assert_eq!(stats_bits(&mux.finalize()), want);
        assert_eq!(mux.descriptors(), whole.descriptors());
    }

    /// A join-as-you-go mux builds its own lanes only when fed directly.
    #[test]
    fn join_mux_builds_lane_blocks_on_direct_feeding() {
        let mut mux = LiveMux::with_joins(8, 4, cfg(1.0e6, 0.0, 0.0, 10.0));
        assert_eq!(mux.lane_blocks_built(), 0);
        mux.ingest(1, 1.0);
        assert_eq!(mux.lane_blocks_built(), 0);
        mux.begin_session(5, 0.5);
        assert_eq!(mux.lane_blocks_built(), 2);
    }

    #[test]
    #[should_panic(expected = "session 0 already took decisions")]
    fn step_function_after_decisions_panics() {
        let mut mux = LiveMux::new(1, 1, cfg(1.0e6, 0.0, 0.0, 10.0));
        mux.push_decision(0, &sent(0.0, 1.0, 5.0e5));
        mux.push_step_function(0, &StepFunction::zero());
    }

    /// An event posted behind the link clock — here by a session that
    /// joins in the past after an ingest whose clock cap promised no
    /// such join — is refused, not applied out of time order.
    #[test]
    #[should_panic(expected = "behind the link clock")]
    fn an_event_behind_the_link_clock_is_refused() {
        let mut mux = LiveMux::with_joins(2, 2, cfg(1.0e6, 0.0, 0.0, 10.0));
        mux.begin_session(0, 0.0);
        mux.push_decision(0, &sent(0.0, 1.0, 5.0e5));
        mux.push_decision(0, &sent(1.0, 2.0, 2.5e5));
        mux.ingest(1, f64::INFINITY);
        assert_eq!(mux.clock(), 1.0);
        mux.begin_session(1, 0.0);
        mux.push_decision(1, &sent(0.5, 1.5, 1.0e5));
        mux.ingest(1, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        LiveMux::new(1, 1, cfg(0.0, 0.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "token rate must be positive")]
    fn zero_rho_rejected() {
        let mut c = cfg(1.0, 0.0, 0.0, 1.0);
        c.descriptor_rho_bps = 0.0;
        LiveMux::new(1, 1, c);
    }

    /// A decision sending at `rate` over `[start, depart]`.
    fn sent(start: f64, depart: f64, rate: f64) -> PictureSchedule {
        PictureSchedule {
            index: 0,
            start,
            rate,
            depart,
            delay: 0.0,
            lower0: 0.0,
            upper0: f64::INFINITY,
            lookahead_used: 1,
        }
    }

    /// A churn-sized aggregator with session 1 joined and ended.
    fn with_one_finished() -> LiveMux {
        let mut mux = LiveMux::with_joins(4, 2, cfg(1.0e6, 0.0, 0.0, 10.0));
        mux.begin_session(1, 0.5);
        mux.push_decision(1, &sent(0.0, 1.0, 5.0e5));
        mux.finish_session(1);
        mux
    }

    #[test]
    #[should_panic(expected = "session 2 has not joined the mux")]
    fn decision_before_join_panics() {
        with_one_finished().push_decision(2, &sent(0.0, 1.0, 5.0e5));
    }

    #[test]
    #[should_panic(expected = "session 1 already finished")]
    fn decision_after_finish_panics() {
        with_one_finished().push_decision(1, &sent(1.0, 2.0, 5.0e5));
    }

    #[test]
    #[should_panic(expected = "session 3 has not joined the mux")]
    fn finish_before_join_panics() {
        with_one_finished().finish_session(3);
    }

    #[test]
    #[should_panic(expected = "session 1 already finished")]
    fn finishing_twice_panics() {
        with_one_finished().finish_session(1);
    }

    /// A decision that would pull back an already announced segment end
    /// is rejected, not silently applied out of time order.
    #[test]
    #[should_panic(expected = "session 0: a decision departs before its predecessor")]
    fn decision_departing_backwards_panics() {
        let mut mux = LiveMux::new(1, 1, cfg(1.0e6, 0.0, 0.0, 10.0));
        mux.push_decision(0, &sent(0.0, 1.0, 5.0e5));
        mux.push_decision(0, &sent(1.0, 0.5, 5.0e5));
    }

    /// The shard pass as it was before held batches, kept to pin the
    /// batched pass to: sort the routed events, merge them with the
    /// time-ordered held list (held first at one time), apply every
    /// event below the fence, and copy the rest into the next held list.
    struct MergePass {
        tree: SumTree,
        held: Vec<Event>,
    }

    impl MergePass {
        /// One pass; returns the applied events, in apply order.
        fn pass(
            &mut self,
            sources: &[Vec<Event>],
            fence: u64,
            run: &mut Vec<(f64, f64)>,
        ) -> Vec<Event> {
            let mut order: Vec<u128> = Vec::new();
            for (src, events) in sources.iter().enumerate() {
                order.extend(
                    events.iter().enumerate().map(|(pos, e)| {
                        ((e.key as u128) << 64) | ((src as u128) << 32) | pos as u128
                    }),
                );
            }
            order.sort_unstable();
            let new_key = |o: u128| (o >> 64) as u64;
            let new_event = |o: u128| routed(sources, o);
            let (held, tree) = (&self.held, &mut self.tree);
            let mut applied = Vec::new();
            run.clear();
            let (mut h, mut k) = (0, 0);
            loop {
                let t = match (held.get(h), order.get(k)) {
                    (None, None) => break,
                    (Some(e), None) => e.key,
                    (None, Some(&o)) => new_key(o),
                    (Some(e), Some(&o)) => e.key.min(new_key(o)),
                };
                if t >= fence {
                    break;
                }
                while let Some(&e) = held.get(h).filter(|e| e.key == t) {
                    tree.set(e.leaf as usize, e.v);
                    applied.push(e);
                    h += 1;
                }
                while let Some(&o) = order.get(k).filter(|&&o| new_key(o) == t) {
                    let e = new_event(o);
                    tree.set(e.leaf as usize, e.v);
                    applied.push(e);
                    k += 1;
                }
                run.push((key_time(t), tree.total()));
            }
            let mut next = Vec::new();
            for &o in &order[k..] {
                let t = new_key(o);
                let run = held[h..].iter().take_while(|e| e.key <= t).count();
                next.extend_from_slice(&held[h..h + run]);
                h += run;
                next.push(new_event(o));
            }
            next.extend_from_slice(&held[h..]);
            self.held = next;
            applied
        }
    }

    /// An event's bits, for exact comparison.
    fn bits(e: &Event) -> (u64, u64, u32) {
        (e.key, e.v.to_bits(), e.leaf)
    }

    /// Leaves of the shard the proptest drives.
    const WIDTH: usize = 8;

    /// Event times: a grid that repeats keys across and within sources
    /// (negative times, −0.0 and +0.0 among them), or any time between.
    fn event_time() -> BoxedStrategy<f64> {
        prop_oneof![
            Just(-2.5),
            Just(-1.0),
            Just(-0.0),
            Just(0.0),
            Just(0.5),
            Just(1.0),
            Just(2.0),
            Just(3.5),
            -3.0..4.0f64,
        ]
        .boxed()
    }

    /// A fence: a grid time, so events sit exactly at it, any time, or
    /// no fence at all.
    fn fence_time() -> BoxedStrategy<f64> {
        prop_oneof![
            Just(-1.0),
            Just(-0.0),
            Just(0.0),
            Just(1.0),
            Just(2.0),
            -3.0..4.0f64,
            Just(f64::INFINITY),
        ]
        .boxed()
    }

    /// One pass's routed buffers: up to three sources of up to 48 events,
    /// or, now and then, three of 1,500 (past the scatter's limit).
    fn routed_batch() -> BoxedStrategy<Vec<Vec<Event>>> {
        let event = (event_time(), 0..WIDTH as u32, -4i32..5).prop_map(|(t, leaf, v)| Event {
            key: time_key(t),
            v: f64::from(v) * 0.25e6,
            leaf,
        });
        let source = proptest::collection::vec(event, 0..48);
        let big = (event_time(), 0..WIDTH as u32).prop_map(|(t, leaf)| {
            (0..1500u32)
                .map(|i| Event {
                    key: time_key(t + f64::from(i % 97) * 0.01),
                    v: f64::from(i % 7),
                    leaf: (leaf + i) % WIDTH as u32,
                })
                .collect::<Vec<Event>>()
        });
        prop_oneof![
            proptest::collection::vec(source, 0..4),
            proptest::collection::vec(big, 3..4),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The batched pass applies exactly what the merge pass applied,
        /// in the same order, records the same run and root, and holds
        /// the same events in the same order, pass after pass.
        #[test]
        fn batched_pass_matches_the_merge_pass(
            passes in proptest::collection::vec((routed_batch(), fence_time()), 1..7),
        ) {
            let mut shard = MuxShard::new(WIDTH);
            let mut oracle = MergePass { tree: SumTree::new(WIDTH), held: Vec::new() };
            let mut oracle_run = Vec::new();
            for (sources, fence) in passes {
                let fence = time_key(fence);
                let expect = oracle.pass(&sources, fence, &mut oracle_run);
                shard.returned.resize_with(sources.len(), Vec::new);
                shard.origin = (0..sources.len()).collect();
                shard.sources = sources;
                let direct = shard.take_applicable(0, fence);
                let applied: Vec<_> = (shard.order.iter())
                    .map(|&o| if direct { routed(&shard.sources, o) } else { shard.held.arena[o as u64 as usize] })
                    .map(|e| bits(&e))
                    .collect();
                shard.apply_taken(0, direct);
                prop_assert_eq!(applied, expect.iter().map(bits).collect::<Vec<_>>());
                prop_assert_eq!(shard.applied, expect.len() as u64);
                let run_bits = |r: &[(f64, f64)]| r.iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect::<Vec<_>>();
                prop_assert_eq!(run_bits(&shard.run), run_bits(&oracle_run));
                prop_assert_eq!(shard.tree.total().to_bits(), oracle.tree.total().to_bits());
                let held: Vec<_> = shard.held.to_vec().iter().map(bits).collect();
                prop_assert_eq!(held, oracle.held.iter().map(bits).collect::<Vec<_>>());
                prop_assert_eq!(shard.held.live, oracle.held.len());
            }
        }
    }
}
