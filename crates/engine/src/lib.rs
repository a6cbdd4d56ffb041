//! # smooth-engine
//!
//! A **session engine**: up to a million concurrent live smoothing
//! sessions — one per active viewer, the production setting the paper's
//! transport-protocol smoother (Figure 1) implies — run through one
//! process.
//!
//! One [`smooth_core::OnlineSmoother`] per stream does not scale to that
//! count: each carries its own heap-scattered state. The engine replaces
//! the per-stream objects with:
//!
//! * **One session store.** Every session lives in a slot of a shard's
//!   slot store: its scalars packed into one 64-byte header, narrowed to
//!   the smallest width their invariants allow (u32 picture indices, u16
//!   lengths and class ids; times and rates stay f64), its session id
//!   beside it, and its arrival history in a fixed slice of **u32 size
//!   words** in one flat ring (widening back is exact, so no decision
//!   bit changes), pruned in whole GOP periods under the estimator's
//!   [`history_window`](smooth_core::SizeEstimator::history_window)
//!   contract. Resident memory per session is O(H + N + K + D/τ), not
//!   O(pictures pushed) (see [`SessionEngine::state_bytes_per_session`]).
//!   One step body feeds a slot its arrivals and drains every decision
//!   whose paper preconditions are met through the two halves of
//!   [`smooth_core::decide_live`] ([`smooth_core::live_ready`] and the
//!   inlined [`smooth_core::decide_ready`]) — the *same* decision
//!   function `OnlineSmoother` uses, so a session's schedule is
//!   bit-identical to a dedicated smoother fed the same sizes (pinned by
//!   proptests). Per-class configuration is shared
//!   across all sessions of a [`SessionClass`].
//! * **Two engines over that store.** [`SessionEngine`] advances a fixed
//!   fleet in lockstep picture ticks: sessions sit in contiguous slots in
//!   session-id order, and a tick, a session-major batch of ticks
//!   ([`SessionEngine::run`]) or a fused chunk is one slot-order sweep.
//!   [`DynamicEngine`] advances a churning fleet on per-class clocks
//!   from per-shard timing wheels ([`dynamic`]).
//! * **Shard-parallel execution.** Sessions are assigned to fixed-size
//!   shards by session id (never by worker count); ticks fan shards out
//!   over [`smooth_sweep::par_map`] with index-ordered collection.
//!   Shards are disjoint state machines, so the result — every decision,
//!   and the per-session [`digest`](SessionEngine::digest) that
//!   fingerprints them — is bit-identical to serial for any thread
//!   count, the same discipline as the netsim mux's `ShardPlan`.
//! * **Link aggregation.** [`SessionEngine::run_fused`] streams every
//!   decision into a [`LiveMux`] lane, which keeps the link aggregate,
//!   fluid-queue stats and per-session (σ, ρ) online without
//!   materializing a [`smooth_metrics::StepFunction`] per source.
//!   [`LiveMux`] lives in `smooth-netsim`, re-exported here; the
//!   materializing oracle it is pinned to lives in the test-only
//!   `smooth-oracle` crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Mutex;

use smooth_core::{
    PatternEstimator, PictureSchedule, RateSelection, SizeEstimator, SmootherParams,
};
use smooth_mpeg::GopPattern;
use smooth_sweep::par_map;

pub mod dynamic;
pub mod livemux;
mod store;
pub mod synthetic;

use store::SlotStore;

pub use livemux::{mux_digest, LiveMux, LiveMuxStats, MuxCheckpoint, MuxConfig, TrafficDescriptor};

pub use dynamic::{
    fps_class, DynamicClass, DynamicEngine, EngineCheckpoint, SessionSnapshot, ARRIVAL_BATCH,
    MUX_INGEST_SPAN_TICKS, TICKS_PER_SEC,
};
pub use synthetic::{churn_trace, ChurnEvent, ChurnSpec, ChurnTrace, SyntheticFleet};

/// Errors constructing or operating a session engine: every narrowed
/// width the compact store relies on (u16 retained-length words, u16
/// class ids) is guarded here with a typed error
/// instead of a debug-only panic, so extreme-but-valid smoother
/// parameters (huge `D/τ`, huge `N`) are rejected loudly at
/// configuration time in every build profile.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An engine needs at least one session class.
    NoClasses,
    /// Shard size must be positive.
    ZeroShardSize,
    /// Class ids are stored as `u16`.
    TooManyClasses {
        /// Classes requested (limit is 65 536).
        classes: usize,
    },
    /// The class estimator declares no bounded history window, so the
    /// fixed-slot ring cannot hold its history.
    UnboundedEstimator,
    /// The per-session history slot (`ring_cap`, a function of `D/τ`,
    /// `K`, `H`, and `N`) exceeds the compact store's `u16` retained
    /// -length word.
    RingCapExceedsLenWord {
        /// Required slot size in sizes.
        ring_cap: usize,
        /// The `u16` limit.
        max: usize,
    },
    /// The dynamic engine needs room for at least one session.
    ZeroCapacity,
    /// A class picture period must be at least one scheduler tick.
    ZeroPeriod {
        /// Offending class id.
        class: usize,
    },
    /// Unknown class id.
    UnknownClass {
        /// Offending class id.
        class: usize,
    },
    /// A join arrived with every slot of every shard occupied.
    CapacityExhausted {
        /// The engine's fixed session capacity.
        capacity: usize,
    },
    /// Unknown or departed session id.
    UnknownSession {
        /// Offending session id.
        sid: u64,
    },
    /// A snapshot's retained history does not fit its class's slot.
    SnapshotHistoryTooLong {
        /// Retained sizes in the snapshot.
        len: usize,
        /// The class's slot size.
        ring_cap: usize,
    },
    /// A snapshot's next arrival is not past the restoring engine's
    /// position, so its session would be armed in the past and fall off
    /// its arrival grid.
    StaleSnapshot {
        /// The snapshot's session id.
        sid: u64,
        /// The snapshot's next arrival, in scheduler ticks.
        next_arrival: u64,
        /// The restoring engine's position, in scheduler ticks.
        now: u64,
    },
    /// A fused run was handed an engine that already advanced: it
    /// must see the fleet from picture 0, so a partially-run engine
    /// would silently multiplex a truncated schedule.
    StaleEngine {
        /// Ticks the engine has already been fed.
        ticks: u64,
        /// Whether the engine was already finished.
        finished: bool,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoClasses => write!(f, "at least one session class is required"),
            EngineError::ZeroShardSize => write!(f, "shard size must be positive"),
            EngineError::TooManyClasses { classes } => {
                write!(f, "at most 65536 session classes ({classes} given)")
            }
            EngineError::UnboundedEstimator => {
                write!(f, "engine estimator must declare a bounded history window")
            }
            EngineError::RingCapExceedsLenWord { ring_cap, max } => write!(
                f,
                "per-session history slot ({ring_cap} sizes) exceeds the u16 length word \
                 (max {max}); lower D/τ, K, H, or N"
            ),
            EngineError::ZeroCapacity => write!(f, "session capacity must be positive"),
            EngineError::ZeroPeriod { class } => {
                write!(f, "class {class}: picture period must be at least one tick")
            }
            EngineError::UnknownClass { class } => write!(f, "unknown class {class}"),
            EngineError::CapacityExhausted { capacity } => {
                write!(f, "all {capacity} session slots are occupied")
            }
            EngineError::UnknownSession { sid } => {
                write!(f, "unknown or departed session {sid}")
            }
            EngineError::SnapshotHistoryTooLong { len, ring_cap } => write!(
                f,
                "snapshot retains {len} sizes but the class slot holds {ring_cap}"
            ),
            EngineError::StaleSnapshot {
                sid,
                next_arrival,
                now,
            } => write!(
                f,
                "snapshot of session {sid} arrives next at tick {next_arrival}, \
                 not after the engine's position {now}"
            ),
            EngineError::StaleEngine { ticks, finished } => write!(
                f,
                "a fused run needs a fresh engine (this one has {ticks} ticks, \
                 finished: {finished})"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Default sessions per shard. Fixed by session id — never by worker
/// count — so the shard layout, and with it every output bit, is
/// independent of how many threads advance a tick.
pub const SESSIONS_PER_SHARD: usize = 4096;

/// Ticks per fused engine+mux chunk ([`SessionEngine::run_fused`]):
/// large enough to keep the session-major batch's cache economy, small
/// enough to bound the transient delta-event buffers between ingests.
/// Purely a batching knob — every output bit is chunk-size-invariant
/// (the mux applies events in global time order regardless).
pub const FUSED_CHUNK: u64 = 8;

/// Produces each session's picture sizes on demand: `size(s, p)` is the
/// coded size (bits) of session `s`'s picture `p` (display order). A
/// pure function of its arguments, so ticks can re-derive sizes instead
/// of storing a megasession's worth of traces.
///
/// The engine's compact history ring stores sizes as `u32` words;
/// feeding a picture of 2³² bits (≈ 0.5 GB) or more panics with a clear
/// message. Real MPEG pictures are orders of magnitude below this.
pub trait SizeSource: Sync {
    /// Coded size of picture `picture` of session `session`, in bits.
    fn size(&self, session: u64, picture: u64) -> u64;
}

/// A configuration class shared by many sessions: the paper's `(D, K,
/// H)`, the GOP pattern, the estimator, and the rate-selection policy.
#[derive(Debug, Clone)]
pub struct SessionClass {
    /// Smoother parameters.
    pub params: SmootherParams,
    /// GOP pattern of the class's streams.
    pub pattern: GopPattern,
    /// Rate-selection policy.
    pub selection: RateSelection,
    /// Size estimator (shared by every session of the class).
    pub estimator: PatternEstimator,
}

impl SessionClass {
    /// A class with the paper's default estimator and basic selection.
    pub fn new(params: SmootherParams, pattern: GopPattern) -> Self {
        SessionClass {
            params,
            pattern,
            selection: RateSelection::Basic,
            estimator: PatternEstimator::default(),
        }
    }
}

/// Per-class derived constants, computed once at engine construction.
#[derive(Debug, Clone)]
pub(crate) struct ClassInfo {
    pub(crate) class: SessionClass,
    /// The estimator's declared history window (`2N` for the pattern
    /// estimator).
    pub(crate) hist: usize,
    /// Fixed per-session history slot size. Sized from Theorem 1: the
    /// undecided backlog never exceeds ⌈D/τ⌉ + K (+1 for the picture
    /// pushed this tick); on top of that live tail the prune cut lags by
    /// at most the watermark lead (another backlog), the estimator
    /// window, and pattern alignment. Doubled so compaction is amortized
    /// (each memmove frees at least half the slot), plus slack.
    pub(crate) ring_cap: usize,
}

impl ClassInfo {
    /// Derives the class constants, guarding every width the compact
    /// store narrows to: the `u16` retained-length word bounds
    /// `ring_cap`, which grows with `D/τ`, `K`, `H`, and `N` — extreme
    /// but feasible parameters (say `D = 3000 s`, `τ = 1/30 s`) push it
    /// past 65 535, and a fleet configured that way must be rejected at
    /// construction in every build profile, not caught by a debug-only
    /// index panic deep in the push path.
    pub(crate) fn try_new(class: SessionClass) -> Result<Self, EngineError> {
        let Some(hist) = class.estimator.history_window(&class.pattern) else {
            return Err(EngineError::UnboundedEstimator);
        };
        let n = class.pattern.n();
        let backlog =
            (class.params.delay_bound / class.params.tau).ceil() as usize + class.params.k + 1;
        let ring_cap = 2 * (backlog + hist + n + 2) + 16;
        // The compact layout stores retained lengths as `u16`.
        if ring_cap > u16::MAX as usize {
            return Err(EngineError::RingCapExceedsLenWord {
                ring_cap,
                max: u16::MAX as usize,
            });
        }
        Ok(ClassInfo {
            class,
            hist,
            ring_cap,
        })
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline(always)]
pub(crate) fn fnv(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(FNV_PRIME)
}

/// The engine: a fleet of live smoothing sessions advanced in lockstep
/// picture ticks. See the crate docs for the architecture.
///
/// ```
/// use smooth_core::SmootherParams;
/// use smooth_engine::{SessionClass, SessionEngine, SyntheticFleet};
/// use smooth_mpeg::GopPattern;
///
/// let pattern = GopPattern::new(3, 9).unwrap();
/// let class = SessionClass::new(SmootherParams::recommended(9), pattern);
/// let mut engine = SessionEngine::new(vec![class]);
/// engine.add_sessions(0, 1000);
/// let fleet = SyntheticFleet { seed: 7, pattern };
/// for _ in 0..30 {
///     engine.tick(&fleet, 1);
/// }
/// engine.finish(&fleet, 1);
/// assert_eq!(engine.decisions(), 30 * 1000);
/// ```
pub struct SessionEngine {
    classes: Vec<ClassInfo>,
    /// One [`SlotStore`] per shard; session `sid` sits in slot
    /// `sid % shard_size` of shard `sid / shard_size`.
    shards: Vec<Mutex<SlotStore>>,
    shard_size: usize,
    /// Every slot's history slice: the widest class's `ring_cap`.
    slot_cap: usize,
    sessions: usize,
    ticks: u64,
    ended: bool,
}

impl SessionEngine {
    /// An engine over the given session classes, with the default shard
    /// size ([`SESSIONS_PER_SHARD`]).
    pub fn new(classes: Vec<SessionClass>) -> Self {
        Self::with_shard_size(classes, SESSIONS_PER_SHARD)
    }

    /// An engine with an explicit shard size (tests use small shards to
    /// exercise many-shard layouts with few sessions). The shard layout
    /// is a pure function of session ids and this size — results do not
    /// depend on it (pinned by proptests), only batching does.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`try_with_shard_size`]
    /// (Self::try_with_shard_size) rejects.
    pub fn with_shard_size(classes: Vec<SessionClass>, shard_size: usize) -> Self {
        Self::try_with_shard_size(classes, shard_size).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`with_shard_size`](Self::with_shard_size): rejects an
    /// empty class list, a zero shard size, more classes than the `u16`
    /// class word holds, and — the compact-store width guard — a class
    /// whose history slot overflows the `u16` length word, with a typed
    /// [`EngineError`] instead of a debug-only panic.
    pub fn try_with_shard_size(
        classes: Vec<SessionClass>,
        shard_size: usize,
    ) -> Result<Self, EngineError> {
        if classes.is_empty() {
            return Err(EngineError::NoClasses);
        }
        if shard_size == 0 {
            return Err(EngineError::ZeroShardSize);
        }
        // The compact layout stores class ids as `u16`.
        if classes.len() > 1 << 16 {
            return Err(EngineError::TooManyClasses {
                classes: classes.len(),
            });
        }
        let classes = classes
            .into_iter()
            .map(ClassInfo::try_new)
            .collect::<Result<Vec<_>, _>>()?;
        let slot_cap = classes.iter().map(|c| c.ring_cap).max().expect("non-empty");
        Ok(SessionEngine {
            classes,
            shards: Vec::new(),
            shard_size,
            slot_cap,
            sessions: 0,
            ticks: 0,
            ended: false,
        })
    }

    /// Appends `count` sessions of class `class_id` to `store`, the
    /// first with id `first_sid`. Each session reads the stream of its
    /// own id, so slot order is session-id order.
    fn fill(store: &mut SlotStore, first_sid: u64, class_id: usize, count: usize) {
        store.reserve(count);
        for k in 0..count as u64 {
            let slot = store.alloc();
            store.install(slot, first_sid + k, first_sid + k, class_id as u16, 0);
        }
    }

    /// Adds `count` sessions of class `class_id`. Sessions receive
    /// consecutive ids in creation order.
    ///
    /// # Panics
    ///
    /// Panics after the first tick (the lockstep schedule admits no
    /// stragglers), or on an unknown class.
    pub fn add_sessions(&mut self, class_id: usize, count: usize) {
        assert!(
            self.ticks == 0 && !self.ended,
            "add sessions before ticking"
        );
        assert!(class_id < self.classes.len(), "unknown class {class_id}");
        let mut left = count;
        while left > 0 {
            if self.sessions % self.shard_size == 0 {
                self.shards.push(Mutex::new(SlotStore::new(self.slot_cap)));
            }
            let room = self.shard_size - self.sessions % self.shard_size;
            let take = room.min(left);
            let store = self
                .shards
                .last_mut()
                .expect("just ensured")
                .get_mut()
                .expect("unshared");
            Self::fill(store, self.sessions as u64, class_id, take);
            self.sessions += take;
            left -= take;
        }
    }

    /// [`add_sessions`](Self::add_sessions); `threads` is ignored. Kept
    /// because the repository benchmark (`crates/bench/src/bin/benchmark`)
    /// builds its lockstep fleet through this name. Shard contents are a
    /// pure function of the session ids, so the engine is the same for
    /// any `threads`.
    pub fn add_sessions_placed(&mut self, class_id: usize, count: usize, _threads: usize) {
        self.add_sessions(class_id, count);
    }

    /// Number of sessions in the fleet.
    pub fn session_count(&self) -> usize {
        self.sessions
    }

    /// Sessions per shard — the lane-block width a fused
    /// [`LiveMux`] must be built with so each engine shard owns
    /// exactly one block (see [`run_fused`](Self::run_fused)).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Number of ticks (pictures per session) fed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total picture decisions made across all sessions.
    pub fn decisions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").decisions)
            .sum()
    }

    /// The per-session history slot size (in sizes) of a class — the
    /// engine's O(H + N + K + D/τ) memory bound, independent of how many
    /// pictures a session is fed.
    pub fn class_ring_cap(&self, class_id: usize) -> usize {
        self.classes[class_id].ring_cap
    }

    /// Resident array bytes per session of a class: the one-line
    /// scalar header, the session id and the `u32` history slot. Every
    /// slot is sized to the fleet's widest class, so the figure is the
    /// same for every class of one engine. This is what a batch streams
    /// from memory per session besides the session's lookahead-window
    /// heap block — the numerator of the roofline's bytes-per-decision
    /// in DESIGN.md §6.
    ///
    /// # Panics
    ///
    /// Panics on an unknown class.
    pub fn state_bytes_per_session(&self, class_id: usize) -> usize {
        assert!(class_id < self.classes.len(), "unknown class {class_id}");
        SlotStore::bytes_per_slot(self.slot_cap)
    }

    /// Sweeps every shard through `pushes` ticks (plus, when `ended` is
    /// set, the end-of-stream drain) over `threads` workers. Returns the
    /// decisions made.
    fn par_sweep<S: SizeSource>(
        &self,
        source: &S,
        pushes: u64,
        ended: bool,
        threads: usize,
    ) -> u64 {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        par_map(threads, &idx, |_, &s| {
            let mut store = self.shards[s].lock().expect("shard poisoned");
            store.sweep(&self.classes, source, pushes, ended, &mut |_, _| {})
        })
        .into_iter()
        .sum()
    }

    /// Serial sweep of every shard, in session-id order, offering every
    /// decision to `sink`.
    fn serial_sweep<S: SizeSource>(
        &mut self,
        source: &S,
        pushes: u64,
        ended: bool,
        sink: &mut impl FnMut(u64, &PictureSchedule),
    ) -> u64 {
        let classes = &self.classes;
        self.shards
            .iter_mut()
            .map(|s| {
                let store = s.get_mut().expect("unshared");
                store.sweep(classes, source, pushes, ended, sink)
            })
            .sum()
    }

    /// Feeds every session its next picture from `source` and drains all
    /// decisions now decidable, fanning shards over `threads` workers.
    /// Bit-identical to `threads == 1` for any thread count. Returns the
    /// number of decisions made this tick.
    ///
    /// # Panics
    ///
    /// Panics after [`finish`](Self::finish).
    pub fn tick<S: SizeSource>(&mut self, source: &S, threads: usize) -> u64 {
        assert!(!self.ended, "tick after finish");
        let made = self.par_sweep(source, 1, false, threads);
        self.ticks += 1;
        made
    }

    /// Signals end-of-stream to every session and drains the remaining
    /// tail decisions. Returns the number of decisions made.
    pub fn finish<S: SizeSource>(&mut self, source: &S, threads: usize) -> u64 {
        let made = self.par_sweep(source, 0, true, threads);
        self.ended = true;
        made
    }

    /// Runs `ticks` live ticks — plus, when `finish` is set, the
    /// end-of-stream drain — as one **session-major batch**: within each
    /// shard every session is advanced through the whole batch before
    /// the next session is touched, so fleet state streams from memory
    /// once per batch instead of once per tick. Sessions are independent,
    /// so the result (every decision, [`decisions`](Self::decisions),
    /// [`digest`](Self::digest)) is bit-identical to calling
    /// [`tick`](Self::tick) `ticks` times then [`finish`](Self::finish)
    /// — pinned by proptests — for any thread count. This is the
    /// throughput path; lockstep consumers (the materializing oracle)
    /// need the per-tick barrier and use [`tick`](Self::tick). Returns the number
    /// of decisions made.
    ///
    /// # Panics
    ///
    /// Panics after [`finish`](Self::finish).
    pub fn run<S: SizeSource>(
        &mut self,
        source: &S,
        ticks: u64,
        finish: bool,
        threads: usize,
    ) -> u64 {
        assert!(!self.ended, "tick after finish");
        let made = self.par_sweep(source, ticks, finish, threads);
        self.ticks += ticks;
        self.ended = finish;
        made
    }

    /// Runs the whole fleet through `ticks` live ticks plus the
    /// end-of-stream drain, **fused with online link aggregation**:
    /// each chunk of up to [`FUSED_CHUNK`] ticks is batched
    /// session-major (same cache behaviour as [`run`](Self::run)),
    /// every decision streams straight into its [`LiveMux`] lane, and
    /// the mux ingests the accumulated rate-change deltas between
    /// chunks — no materialized schedules, no breakpoint heap, no
    /// lockstep pumping. Returns the window's aggregate stats; the
    /// per-session (σ, ρ) descriptors stay readable on `mux`.
    ///
    /// Bit-identical to materializing every session's schedule and
    /// sweeping the step functions (the `smooth-oracle` reference), for
    /// any thread count (pinned by the `livemux_props` proptests).
    ///
    /// # Errors
    ///
    /// [`EngineError::StaleEngine`] when the engine already advanced —
    /// the fused pass must see every decision from picture 0.
    ///
    /// # Panics
    ///
    /// Panics if `mux` was not built for this fleet (session count and
    /// block size must match the engine's layout).
    pub fn run_fused<S: SizeSource>(
        &mut self,
        source: &S,
        ticks: u64,
        threads: usize,
        mux: &mut LiveMux,
    ) -> Result<LiveMuxStats, EngineError> {
        if self.ticks != 0 || self.ended {
            return Err(EngineError::StaleEngine {
                ticks: self.ticks,
                finished: self.ended,
            });
        }
        assert_eq!(
            mux.session_count(),
            self.sessions,
            "mux sized for a different fleet"
        );
        assert_eq!(
            mux.block_size(),
            self.shard_size,
            "mux block size must match the engine shard size"
        );
        let classes = &self.classes;
        let shards = &self.shards;
        let idx: Vec<usize> = (0..shards.len()).collect();
        let mut remaining = ticks;
        loop {
            let chunk = remaining.min(FUSED_CHUNK);
            remaining -= chunk;
            let fin = remaining == 0;
            let mux_ref = &*mux;
            par_map(threads, &idx, |_, &s| {
                let mut store = shards[s].lock().expect("shard poisoned");
                let mut block = mux_ref.block(s).lock().expect("block poisoned");
                store.sweep(classes, source, chunk, fin, &mut |sid, d| {
                    block.decision(sid, d)
                });
                if fin {
                    block.finish_lanes();
                }
            });
            mux.ingest(threads, f64::INFINITY);
            if fin {
                break;
            }
        }
        self.ticks = ticks;
        self.ended = true;
        Ok(mux.finalize())
    }

    /// Serial [`tick`](Self::tick) that also hands every decision to
    /// `sink(session_id, schedule)` — the lockstep path the
    /// materializing oracle (`smooth-oracle`) drives.
    pub fn tick_serial_with<S: SizeSource>(
        &mut self,
        source: &S,
        sink: &mut impl FnMut(u64, &PictureSchedule),
    ) -> u64 {
        assert!(!self.ended, "tick after finish");
        let made = self.serial_sweep(source, 1, false, sink);
        self.ticks += 1;
        made
    }

    /// Serial [`finish`](Self::finish) with a decision sink.
    pub fn finish_serial_with<S: SizeSource>(
        &mut self,
        source: &S,
        sink: &mut impl FnMut(u64, &PictureSchedule),
    ) -> u64 {
        let made = self.serial_sweep(source, 0, true, sink);
        self.ended = true;
        made
    }

    /// Whether [`finish`](Self::finish) has run.
    pub fn is_finished(&self) -> bool {
        self.ended
    }

    /// One FNV-1a fingerprint over every session's decision digest, in
    /// session-id order — equal iff every decision of every session is
    /// bit-identical. The determinism witness the proptests compare
    /// across thread counts and shard sizes.
    pub fn digest(&self) -> u64 {
        let mut d = FNV_OFFSET;
        for shard in &self.shards {
            for (_, x) in shard.lock().expect("shard poisoned").live_digests() {
                d = fnv(d, x);
            }
        }
        d
    }

    /// Per-session decision digests, in session-id order.
    pub fn session_digests(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.sessions);
        for shard in &self.shards {
            let store = shard.lock().expect("shard poisoned");
            out.extend(store.live_digests().map(|(_, digest)| digest));
        }
        out
    }

    /// Peak retained history length across all sessions (diagnostics for
    /// the memory-bound tests).
    pub fn max_retained(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").max_retained())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine(shard_size: usize) -> (SessionEngine, SyntheticFleet) {
        let pattern = GopPattern::new(3, 9).unwrap();
        let class = SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern);
        let mut engine = SessionEngine::with_shard_size(vec![class], shard_size);
        engine.add_sessions(0, 50);
        (
            engine,
            SyntheticFleet {
                seed: 0xfeed,
                pattern,
            },
        )
    }

    /// Satellite regression: the `u16` retained-length guard trips at
    /// exactly the boundary. For pattern (3, 9) with `K = 1` the slot
    /// is `2·⌈D/τ⌉ + 78` sizes, so `⌈D/τ⌉ = 32728` is the largest
    /// admissible backlog (65 534 ≤ 65 535) and 32 729 must be rejected
    /// with the typed error — not a debug-only panic downstream.
    #[test]
    fn ring_cap_u16_guard_trips_at_the_boundary() {
        let pattern = GopPattern::new(3, 9).unwrap();
        let class = |backlog: f64| {
            SessionClass::new(
                SmootherParams::new(backlog, 1, 9, 1.0).expect("feasible"),
                pattern,
            )
        };
        let ok = SessionEngine::try_with_shard_size(vec![class(32728.0)], 4).expect("at the limit");
        assert_eq!(ok.class_ring_cap(0), 65534);
        assert_eq!(
            SessionEngine::try_with_shard_size(vec![class(32729.0)], 4).err(),
            Some(EngineError::RingCapExceedsLenWord {
                ring_cap: 65536,
                max: 65535,
            })
        );
        // The dynamic engine rejects the same class the same way.
        let dyn_class = DynamicClass {
            class: class(32729.0),
            period_ticks: 20,
        };
        assert_eq!(
            DynamicEngine::new(vec![dyn_class], 10, 4).err(),
            Some(EngineError::RingCapExceedsLenWord {
                ring_cap: 65536,
                max: 65535,
            })
        );
    }

    /// The panicking constructor surfaces the typed error's message.
    #[test]
    #[should_panic(expected = "at least one session class")]
    fn empty_class_list_panics_with_the_typed_message() {
        let _ = SessionEngine::with_shard_size(vec![], 4);
    }

    #[test]
    fn every_session_decides_every_picture() {
        let (mut engine, fleet) = small_engine(16);
        for _ in 0..40 {
            engine.tick(&fleet, 1);
        }
        engine.finish(&fleet, 1);
        assert_eq!(engine.decisions(), 40 * 50);
        assert_eq!(engine.ticks(), 40);
    }

    #[test]
    fn digest_is_shard_and_thread_invariant() {
        let (mut a, fleet) = small_engine(SESSIONS_PER_SHARD);
        for _ in 0..25 {
            a.tick(&fleet, 1);
        }
        a.finish(&fleet, 1);
        for shard_size in [1, 3, 7, 64] {
            for threads in [1, 2, 5] {
                let (mut b, fleet) = small_engine(shard_size);
                for _ in 0..25 {
                    b.tick(&fleet, threads);
                }
                b.finish(&fleet, threads);
                assert_eq!(
                    a.digest(),
                    b.digest(),
                    "shard_size={shard_size} threads={threads}"
                );
                assert_eq!(a.session_digests(), b.session_digests());
            }
        }
    }

    #[test]
    fn batched_run_matches_tick_loop() {
        let (mut a, fleet) = small_engine(16);
        for _ in 0..33 {
            a.tick(&fleet, 1);
        }
        a.finish(&fleet, 1);
        for threads in [1, 4] {
            let (mut b, fleet) = small_engine(16);
            b.run(&fleet, 33, true, threads);
            assert_eq!(a.digest(), b.digest(), "threads={threads}");
            assert_eq!(a.decisions(), b.decisions());
            assert_eq!(a.ticks(), b.ticks());
            assert!(b.is_finished());
        }
    }

    #[test]
    fn placed_build_matches_serial() {
        let (mut a, fleet) = small_engine(16);
        a.run(&fleet, 33, true, 1);
        let pattern = GopPattern::new(3, 9).unwrap();
        let class = SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern);
        for threads in [1, 2, 5] {
            let mut b = SessionEngine::with_shard_size(vec![class.clone()], 16);
            b.add_sessions_placed(0, 50, threads);
            assert_eq!(b.session_count(), 50);
            b.run(&fleet, 33, true, threads);
            assert_eq!(
                a.session_digests(),
                b.session_digests(),
                "threads={threads}"
            );
            assert_eq!(a.decisions(), b.decisions());
        }
    }

    #[test]
    fn compact_layout_reports_session_bytes() {
        let (engine, _) = small_engine(8);
        let cap = engine.class_ring_cap(0);
        let bytes = engine.state_bytes_per_session(0);
        // The 64-byte scalar header and the 8-byte session id plus the
        // u32 ring slot.
        assert_eq!(bytes, 72 + 4 * cap);
    }

    #[test]
    fn history_stays_inside_the_fixed_slot() {
        let (mut engine, fleet) = small_engine(8);
        let cap = engine.class_ring_cap(0);
        for _ in 0..500 {
            engine.tick(&fleet, 1);
            assert!(engine.max_retained() <= cap);
        }
        // The slot is O(H + N + K + D/τ) — nowhere near 500 pictures.
        assert!(cap < 128, "ring cap {cap}");
    }

    #[test]
    #[should_panic(expected = "tick after finish")]
    fn tick_after_finish_panics() {
        let (mut engine, fleet) = small_engine(8);
        engine.finish(&fleet, 1);
        engine.tick(&fleet, 1);
    }

    #[test]
    #[should_panic(expected = "before ticking")]
    fn late_add_panics() {
        let (mut engine, fleet) = small_engine(8);
        engine.tick(&fleet, 1);
        engine.add_sessions(0, 1);
    }
}
