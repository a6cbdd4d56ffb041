//! **LiveMux**: online incremental link aggregation — the one
//! production fluid multiplexer.
//!
//! Two kinds of input share it. The session engines of `smooth-engine`
//! stream each session's decisions into its lane as they are made
//! ([`LiveMux::push_decision`], or the fused hooks [`LiveMux::block`] and
//! [`LiveMux::decision_shared`]). Offline callers post a whole rate
//! function per lane ([`LiveMux::push_step_function`]); that is how
//! [`crate::FluidMux::run`], the X-mux experiment and
//! `mpeg-smooth sweep --sources` multiplex.
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
//! - `+∞` for a finished lane (a step-function lane finishes as it is
//!   posted), and for a lane that has not joined (it takes no
//!   decisions before [`LiveMux::begin_session`]; the caller's clock
//!   cap bounds the events of future joins).
//!
//! [`LiveMux::ingest`]'s fence is the minimum of the clock cap and
//! every lane's frontier, so every event posted after an ingest lies at
//! or past its fence, and flushing strictly below it applies events in
//! global time order across passes. A lane that holds one rate for the
//! whole run advances its frontier with every decision, so the fence
//! follows the fleet's clock: after an ingest the shards hold only the
//! events a lane posted between the fence and its own frontier — a
//! few per live session, O(S) whatever the run's length
//! ([`LiveMux::pending_events`]). Step-function lanes are the
//! exception: [`crate::FluidMux::run`] posts all T breakpoints of its
//! inputs before one ingest, so it buffers O(T) events.
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
//! Events are posted into one buffer per lane block (the engine's
//! shard), and a mux shard spans at least one lane block
//! (`width ≥ block_size.next_power_of_two()`, at most
//! [`MUX_MAX_SHARDS`] shards), so a block buffer overlaps one shard, or
//! two when it straddles a boundary. An ingest pass reads the buffers
//! in place: each shard visits its overlapping buffers once, keying
//! the events below the fence for its sort and copying the rest into
//! its held set, so each event is visited at most twice and never
//! copied before it is applied.
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

/// One rate-change delta: session `leaf`'s rate becomes `v` at absolute
/// time `t`. 24 bytes; the only thing the fused path buffers.
#[derive(Debug, Clone, Copy)]
struct Event {
    t: f64,
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

/// Per-session streaming state: the exact builder replica (events out
/// instead of arrays), the join bookkeeping, and the incremental (σ, ρ)
/// recurrence.
#[derive(Debug, Clone)]
struct SessionLane {
    /// Whether the session has joined the mux (batch fleets join at
    /// construction; churn fleets via [`LiveMux::begin_session`]).
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
    /// the session's next event is at exactly `offset + last_break`.
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
    fn new(joined: bool, t_start: f64) -> Self {
        SessionLane {
            joined,
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

    /// Earliest absolute time at which this lane can still emit an
    /// event; the ingestion fence is the fleet-wide minimum. Unjoined
    /// lanes don't bound the fence (the caller's clock cap covers
    /// future joins, and they take no decisions); finished lanes never
    /// emit again. See the module docs for why this is a lower bound.
    fn frontier(&self) -> f64 {
        if !self.joined || self.finished {
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
    fn decision(&mut self, cfg: &MuxConfig, d: &PictureSchedule, leaf: u32, out: &mut Vec<Event>) {
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
            self.raw(cfg, gap, leaf, out);
        }
        self.raw(
            cfg,
            RateSegment {
                start: d.start,
                end: d.depart,
                rate: d.rate,
            },
            leaf,
            out,
        );
    }

    fn raw(&mut self, cfg: &MuxConfig, seg: RateSegment, leaf: u32, out: &mut Vec<Event>) {
        if self.has_cur {
            if self.cur_rate == seg.rate && (seg.start - self.cur_end).abs() <= TIME_EPS {
                // An announced segment must not shrink back: its end is
                // the frontier the fence already trusted.
                assert!(
                    !self.announced || seg.end >= self.cur_end,
                    "session {leaf}: a decision departs before its predecessor"
                );
                self.cur_end = seg.end;
                self.announce(cfg, leaf, out);
                return;
            }
            self.close();
        } else {
            // The stream's first segment: its start is the first
            // breakpoint.
            self.last_break = seg.start;
        }
        self.open(cfg, seg, leaf, out);
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
    fn open(&mut self, cfg: &MuxConfig, seg: RateSegment, leaf: u32, out: &mut Vec<Event>) {
        self.has_cur = true;
        self.cur_end = seg.end;
        self.cur_rate = seg.rate;
        if seg.start > self.last_break + 1e-12 {
            let at = self.last_break;
            self.push_event(cfg, at, 0.0, leaf, out);
            self.last_break = seg.start;
        }
        self.announce(cfg, leaf, out);
    }

    /// Emits the open segment's piece once its end has passed the last
    /// breakpoint. Ends only grow from here (a merge checks it), so
    /// the offline builder is bound to place the same piece.
    fn announce(&mut self, cfg: &MuxConfig, leaf: u32, out: &mut Vec<Event>) {
        if !self.announced && self.cur_end > self.last_break {
            self.announced = true;
            let at = self.last_break;
            self.push_event(cfg, at, self.cur_rate, leaf, out);
        }
    }

    /// The open segment can no longer grow: an announced piece ends at
    /// its final end, the new last breakpoint. An unannounced segment
    /// never passed the last breakpoint and places nothing.
    fn close(&mut self) {
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
    fn finish(&mut self, cfg: &MuxConfig, leaf: u32, out: &mut Vec<Event>) {
        self.check_live(leaf);
        self.close();
        let at = self.last_break;
        self.push_event(cfg, at, 0.0, leaf, out);
        self.end_stream(cfg);
    }

    /// A whole rate function in one go: one event per piece start with
    /// the piece's value, then the final zero at the domain end, then
    /// the end of stream. Later events at one time win, so the lane
    /// reads `f.value_at(t)` at every `t`, duplicate breakpoints
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if the lane has not joined, has already finished, or has
    /// taken decisions.
    fn step_function(
        &mut self,
        cfg: &MuxConfig,
        f: &StepFunction,
        leaf: u32,
        out: &mut Vec<Event>,
    ) {
        self.check_live(leaf);
        assert!(!self.has_cur, "session {leaf} already took decisions");
        for (start, _, v) in f.pieces() {
            self.push_event(cfg, start, v, leaf, out);
        }
        self.push_event(cfg, f.domain_end(), 0.0, leaf, out);
        self.end_stream(cfg);
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
    fn push_event(
        &mut self,
        cfg: &MuxConfig,
        t_local: f64,
        v: f64,
        leaf: u32,
        out: &mut Vec<Event>,
    ) {
        let t = self.offset + t_local;
        self.descriptor_cut(cfg, t, v);
        if t < cfg.t_end {
            out.push(Event { t, v, leaf });
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

/// A contiguous run of session lanes plus their shared event buffer —
/// one block per engine shard, so the fused batch path writes events
/// with zero cross-thread contention. Reached through
/// [`LiveMux::block`].
#[derive(Debug)]
pub struct LaneBlock {
    cfg: MuxConfig,
    first_leaf: u32,
    lanes: Vec<SessionLane>,
    events: Vec<Event>,
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
        let leaf = u32::try_from(sid).expect("session id fits u32");
        let j = (leaf - self.first_leaf) as usize;
        self.lanes[j].decision(&self.cfg, d, leaf, &mut self.events);
    }

    /// Ends every still-open joined lane of the block (the batch path's
    /// end-of-stream, reached once per fused run).
    pub fn finish_lanes(&mut self) {
        for j in 0..self.lanes.len() {
            if self.lanes[j].joined && !self.lanes[j].finished {
                let leaf = self.first_leaf + j as u32;
                self.lanes[j].finish(&self.cfg, leaf, &mut self.events);
            }
        }
    }
}

/// One aggregation shard: the [`SumTree`] subtree over its leaf range,
/// the events routed to it but held at or past the fence, and the
/// time-ordered `(t, subtree_root)` run of the current ingest pass.
#[derive(Debug)]
struct MuxShard {
    tree: SumTree,
    held: Vec<Event>,
    /// The next pass's `held` (swapped in, so both keep capacity).
    spare: Vec<Event>,
    /// The current pass's sort keys (see [`LiveMux::ingest`]).
    order: Vec<u128>,
    run: Vec<(f64, f64)>,
}

/// Opaque snapshot of a [`LiveMux`]'s full aggregation state — lanes,
/// shard subtrees, held events, queue, clock — for mid-trace
/// checkpoint/restore alongside the session engine's own checkpoint.
#[derive(Debug, Clone)]
pub struct MuxCheckpoint {
    cfg: MuxConfig,
    sessions: usize,
    block_size: usize,
    lanes: Vec<SessionLane>,
    shards: Vec<(SumTree, Vec<Event>)>,
    top: SumTree,
    queue: QueueState,
    cur_t: f64,
    peak: f64,
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
    blocks: Vec<Mutex<LaneBlock>>,
    shards: Vec<Mutex<MuxShard>>,
    top: SumTree,
    queue: QueueState,
    /// Left edge of the next interval to close (starts at `t_start`).
    cur_t: f64,
    peak: f64,
    finalized: bool,
}

impl LiveMux {
    /// An aggregator for a fixed fleet of `sessions` sessions, all
    /// present from time 0 (the lockstep `SessionEngine` batch case, and
    /// [`crate::FluidMux::run`]'s step-function lanes).
    /// `block_size` must match the engine's shard size so each engine
    /// shard owns exactly one lane block.
    pub fn new(sessions: usize, block_size: usize, cfg: MuxConfig) -> Self {
        Self::build(sessions, block_size, cfg, true)
    }

    /// An aggregator whose sessions join over time (the
    /// `DynamicEngine` churn case): size it to the total
    /// number of session ids the trace will ever issue and announce
    /// each via [`begin_session`](Self::begin_session).
    pub fn with_joins(capacity: usize, block_size: usize, cfg: MuxConfig) -> Self {
        Self::build(capacity, block_size, cfg, false)
    }

    fn build(sessions: usize, block_size: usize, cfg: MuxConfig, joined: bool) -> Self {
        cfg.check();
        assert!(block_size > 0, "block size must be positive");
        assert!(
            u32::try_from(sessions).is_ok(),
            "session count must fit u32"
        );
        // A mux shard spans at least one lane block, so a block's buffer
        // overlaps at most two shards and routing visits each event at
        // most twice. Still fixed by the fleet, never by threads.
        let padded = sessions.max(1).next_power_of_two();
        let max_shards = (padded / block_size.next_power_of_two()).clamp(1, MUX_MAX_SHARDS);
        let plan = ShardPlan::new(sessions, max_shards);
        let blocks = (0..sessions.div_ceil(block_size))
            .map(|b| {
                let lo = b * block_size;
                let hi = ((b + 1) * block_size).min(sessions);
                Mutex::new(LaneBlock {
                    cfg,
                    first_leaf: lo as u32,
                    lanes: (lo..hi)
                        .map(|_| SessionLane::new(joined, cfg.t_start))
                        .collect(),
                    events: Vec::new(),
                })
            })
            .collect();
        let shards = (0..plan.count)
            .map(|_| {
                Mutex::new(MuxShard {
                    tree: SumTree::new(plan.width),
                    held: Vec::new(),
                    spare: Vec::new(),
                    order: Vec::new(),
                    run: Vec::new(),
                })
            })
            .collect();
        LiveMux {
            cfg,
            sessions,
            block_size,
            plan,
            blocks,
            shards,
            top: SumTree::new(plan.count),
            queue: QueueState::new(),
            cur_t: cfg.t_start,
            peak: 0.0,
            finalized: false,
        }
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
    /// the lane blocks since the last [`ingest`](Self::ingest), plus
    /// those held at or past its fence. Right after an ingest only the
    /// latter remain — a few per live session, whatever the run's
    /// length.
    pub fn pending_events(&self) -> usize {
        let buffered: usize = self
            .blocks
            .iter()
            .map(|b| b.lock().expect("block poisoned").events.len())
            .sum();
        let held: usize = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").held.len())
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
        let lane = self.lane_mut(sid);
        assert!(!lane.joined, "session {sid} already joined");
        lane.joined = true;
        lane.offset = offset_sec;
    }

    /// Ends session `sid`'s stream: flushes its builder, emits its
    /// final zero-rate event, and closes its descriptor window.
    ///
    /// # Panics
    ///
    /// Panics if the session has not joined or has already finished.
    pub fn finish_session(&mut self, sid: u64) {
        let leaf = u32::try_from(sid).expect("session id fits u32");
        let b = leaf as usize / self.block_size;
        let block = self.blocks[b].get_mut().expect("unshared");
        let j = (leaf - block.first_leaf) as usize;
        let cfg = block.cfg;
        block.lanes[j].finish(&cfg, leaf, &mut block.events);
    }

    /// Feeds one decision of session `sid` directly (the churn path,
    /// where decisions are gathered per dynamic shard and applied in
    /// session order).
    ///
    /// # Panics
    ///
    /// Panics if the session has not joined or has already finished,
    /// or if the decision continues the session's current rate but
    /// departs before the previous decision did.
    pub fn push_decision(&mut self, sid: u64, d: &PictureSchedule) {
        let b = sid as usize / self.block_size;
        self.blocks[b].get_mut().expect("unshared").decision(sid, d);
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
        let leaf = u32::try_from(sid).expect("session id fits u32");
        let b = leaf as usize / self.block_size;
        let block = self.blocks[b].get_mut().expect("unshared");
        let j = (leaf - block.first_leaf) as usize;
        let cfg = block.cfg;
        block.lanes[j].step_function(&cfg, f, leaf, &mut block.events);
    }

    /// Shared-reference [`push_decision`](Self::push_decision) through
    /// the block mutex — the dynamic fused path, where round-robin
    /// placement means any engine shard's worker may hold any session.
    /// Per-session decision order is preserved (a session lives in
    /// exactly one shard, which emits its decisions sequentially);
    /// cross-session interleaving in the buffer is irrelevant because
    /// [`ingest`](Self::ingest) orders by time, and different sessions'
    /// events at one time apply as one group.
    #[inline]
    pub fn decision_shared(&self, sid: u64, d: &PictureSchedule) {
        let b = sid as usize / self.block_size;
        self.blocks[b]
            .lock()
            .expect("block poisoned")
            .decision(sid, d);
    }

    fn lane_mut(&mut self, sid: u64) -> &mut SessionLane {
        let b = sid as usize / self.block_size;
        let block = self.blocks[b].get_mut().expect("unshared");
        let j = sid as usize - block.first_leaf as usize;
        &mut block.lanes[j]
    }

    /// Applies every buffered event whose time is strictly below the
    /// fence — `clock_cap` (a time no event of a session that joins
    /// later can fall below; `INFINITY` for fixed fleets) min'd with
    /// every live lane's frontier (module docs) — to the summation tree
    /// in global time order, closing queue intervals as time advances.
    /// Thread-invariant: shard routing is fixed by the [`ShardPlan`],
    /// runs merge in shard order. Returns the number of events applied.
    pub fn ingest(&mut self, threads: usize, clock_cap: f64) -> u64 {
        // The fence, and the block buffers the pass reads (several
        // shards may read one) and clears once every shard is done.
        let mut fence = clock_cap;
        let buffers: Vec<&[Event]> = self
            .blocks
            .iter_mut()
            .map(|b| {
                let b = b.get_mut().expect("block poisoned");
                for lane in &b.lanes {
                    fence = fence.min(lane.frontier());
                }
                &b.events[..]
            })
            .collect();
        let plan = self.plan;
        let block_size = self.block_size;
        let shards = &self.shards;
        let idx: Vec<usize> = (0..plan.count).collect();
        let flushed = par_map(threads, &idx, |_, &m| {
            let mut shard = shards[m].lock().expect("shard poisoned");
            let MuxShard {
                tree,
                held,
                spare,
                order,
                run,
            } = &mut *shard;
            let lo = m * plan.width;
            let hi = lo + plan.width;
            // Route in one visit per event: an event below the fence
            // gets a sort key, one at or past it waits in `held`. The
            // sources are the events held from earlier passes, then
            // every block buffer overlapping the shard — one or two,
            // unless blocks are narrower than the shard.
            let old = std::mem::replace(held, std::mem::take(spare));
            let b0 = (lo / block_size).min(buffers.len());
            let b1 = hi.div_ceil(block_size).min(buffers.len());
            let blocks = &buffers[b0..b1];
            let sources: Vec<&[Event]> = std::iter::once(&old[..])
                .chain(blocks.iter().copied())
                .collect();
            order.clear();
            for (src, events) in sources.iter().enumerate() {
                assert!(
                    u32::try_from(events.len()).is_ok(),
                    "an event buffer outgrew u32 positions"
                );
                for (pos, e) in events.iter().enumerate() {
                    if !(lo..hi).contains(&(e.leaf as usize)) {
                        continue;
                    }
                    if e.t < fence {
                        // `(time_key(t), source, position)` packed into
                        // one integer: a primitive sort, one compare per
                        // step. Ties on `t` keep source-then-buffer
                        // order, which is each session's emission order
                        // (older passes' events first; a session posts
                        // into one block).
                        order.push(
                            ((time_key(e.t) as u128) << 64) | ((src as u128) << 32) | pos as u128,
                        );
                    } else {
                        held.push(*e);
                    }
                }
            }
            // Apply below the fence: no event at or past it can be
            // undercut by anything a session emits later, so the
            // global time order across ingest passes is total.
            order.sort_unstable();
            run.clear();
            run.reserve(order.len());
            let mut i = 0;
            while i < order.len() {
                let t = (order[i] >> 64) as u64;
                while i < order.len() && (order[i] >> 64) as u64 == t {
                    let key = order[i] as u64;
                    let e = sources[(key >> 32) as usize][key as u32 as usize];
                    tree.set(e.leaf as usize - lo, e.v);
                    i += 1;
                }
                run.push((key_time(t), tree.total()));
            }
            drop(sources);
            *spare = old;
            spare.clear();
            order.len() as u64
        });
        drop(buffers);
        for blk in &mut self.blocks {
            blk.get_mut().expect("block poisoned").events.clear();
        }

        // Serial top merge: replay the shard runs in global time order
        // through the top of the tree, advancing the queue across each
        // interval exactly like the sweep's merge loop. The k-way merge
        // is a flat winner tree over the (at most [`MUX_MAX_SHARDS`])
        // runs — each step is log₂(shards) sequential min() nodes, a
        // fraction of a binary heap's pop-push churn on this hot loop.
        // Keys pack `(time_key(t), shard)` into a u128, so equal times
        // resolve in shard order, exactly like the old heap's tuples.
        let runs: Vec<Vec<(f64, f64)>> = self
            .shards
            .iter()
            .map(|s| std::mem::take(&mut s.lock().expect("shard poisoned").run))
            .collect();
        debug_assert!(runs.len() <= 128, "winner-tree keys pack a 7-bit shard");
        const DONE: u128 = u128::MAX;
        let key = |t: f64, m: usize| ((time_key(t) as u128) << 7) | m as u128;
        let k2 = runs.len().next_power_of_two();
        let mut nodes_buf = vec![DONE; 2 * k2];
        // Length pinned symbolically to `2 * k2` so the level walks
        // below (`i / 2 < k2` implies `2 * (i / 2) + 1 < 2 * k2`) index
        // without per-level bounds checks.
        let nodes = &mut nodes_buf[..2 * k2];
        // Per-run tails advanced by `split_first` — the replay loop
        // below touches each entry exactly once, with no positional
        // re-indexing. Queue state lives in locals for the duration.
        let mut rem: Vec<&[(f64, f64)]> = runs.iter().map(|r| r.as_slice()).collect();
        for (m, run) in rem.iter().enumerate() {
            if let Some(&(t, _)) = run.first() {
                nodes[k2 + m] = key(t, m);
            }
        }
        for i in (1..k2).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        let mut cur_t = self.cur_t;
        let mut peak = self.peak;
        while nodes[1] != DONE {
            let m = (nodes[1] & 0x7F) as usize;
            let (&(t, root), tail) = rem[m].split_first().expect("non-empty keyed run");
            rem[m] = tail;
            if t > cur_t {
                let agg = self.top.total();
                self.queue
                    .advance(agg, t - cur_t, self.cfg.capacity_bps, self.cfg.buffer_bits);
                peak = peak.max(agg);
                cur_t = t;
            }
            self.top.set(m, root);
            let mut i = k2 + m;
            nodes[i] = match tail.first() {
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
        drop(rem);
        // Hand the (now empty) run vectors' capacity back to the shards.
        for (m, run) in runs.into_iter().enumerate() {
            let mut shard = self.shards[m].lock().expect("shard poisoned");
            shard.run = run;
            shard.run.clear();
        }
        flushed.into_iter().sum()
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
                .all(|s| s.lock().expect("shard poisoned").held.is_empty()),
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

    /// Session `sid`'s descriptor. σ is final once the lane finished;
    /// mid-run it covers the schedule ingested so far.
    pub fn descriptor(&self, sid: u64) -> TrafficDescriptor {
        let b = sid as usize / self.block_size;
        let block = self.blocks[b].lock().expect("block poisoned");
        let j = sid as usize - block.first_leaf as usize;
        TrafficDescriptor {
            sigma: block.lanes[j].sigma,
            rho: self.cfg.descriptor_rho_bps,
        }
    }

    /// Every session's descriptor, in session-id order.
    pub fn descriptors(&self) -> Vec<TrafficDescriptor> {
        let mut out = Vec::with_capacity(self.sessions);
        for blk in &self.blocks {
            let blk = blk.lock().expect("block poisoned");
            out.extend(blk.lanes.iter().map(|l| TrafficDescriptor {
                sigma: l.sigma,
                rho: self.cfg.descriptor_rho_bps,
            }));
        }
        out
    }

    /// Snapshots the full aggregation state. The lane blocks' event
    /// buffers must be drained first (any [`ingest`](Self::ingest)
    /// does that, whatever its fence — events it held at or past the
    /// fence are captured).
    ///
    /// # Panics
    ///
    /// Panics if a lane block still buffers unrouted events.
    pub fn checkpoint(&self) -> MuxCheckpoint {
        for blk in &self.blocks {
            assert!(
                blk.lock().expect("block poisoned").events.is_empty(),
                "checkpoint with unrouted events; call ingest first"
            );
        }
        MuxCheckpoint {
            cfg: self.cfg,
            sessions: self.sessions,
            block_size: self.block_size,
            lanes: self
                .blocks
                .iter()
                .flat_map(|b| b.lock().expect("block poisoned").lanes.clone())
                .collect(),
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let s = s.lock().expect("shard poisoned");
                    (s.tree.clone(), s.held.clone())
                })
                .collect(),
            top: self.top.clone(),
            queue: self.queue,
            cur_t: self.cur_t,
            peak: self.peak,
        }
    }

    /// Rebuilds an aggregator from a [`checkpoint`](Self::checkpoint),
    /// bit-identical to the one that was snapshotted.
    pub fn restore(cp: &MuxCheckpoint) -> Self {
        let mut mux = Self::build(cp.sessions, cp.block_size, cp.cfg, false);
        for (lane, from) in mux
            .blocks
            .iter_mut()
            .flat_map(|b| b.get_mut().expect("unshared").lanes.iter_mut())
            .zip(&cp.lanes)
        {
            *lane = from.clone();
        }
        for (shard, (tree, held)) in mux.shards.iter_mut().zip(&cp.shards) {
            let shard = shard.get_mut().expect("unshared");
            shard.tree = tree.clone();
            shard.held = held.clone();
        }
        mux.top = cp.top.clone();
        mux.queue = cp.queue;
        mux.cur_t = cp.cur_t;
        mux.peak = cp.peak;
        mux
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "session 0 already took decisions")]
    fn step_function_after_decisions_panics() {
        let mut mux = LiveMux::new(1, 1, cfg(1.0e6, 0.0, 0.0, 10.0));
        mux.push_decision(0, &sent(0.0, 1.0, 5.0e5));
        mux.push_step_function(0, &StepFunction::zero());
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
}
