//! # smooth-engine
//!
//! A **session engine**: up to a million concurrent live smoothing
//! sessions — one per active viewer, the production setting the paper's
//! transport-protocol smoother (Figure 1) implies — advanced in lockstep
//! picture ticks through one process.
//!
//! One [`smooth_core::OnlineSmoother`] per stream does not scale to that
//! count: each carries its own heap-scattered state and (before PR 5) an
//! arrival history that grew without bound. The engine replaces the
//! per-stream objects with:
//!
//! * **Cache-compact struct-of-arrays session store.** Per-session
//!   scalars (`decided`, `depart`, `prev_rate`, `watermark`, history
//!   `base`/`len`) live in parallel arrays inside a [`Shard`], narrowed
//!   to the smallest width their invariants allow (u32 picture indices,
//!   u16 lengths and class ids; the authoritative times and rates stay
//!   f64) with hot per-tick scalars split from cold configuration;
//!   arrival history is a bounded per-session slot of **u32 size words**
//!   in one flat ring buffer (picture sizes are bits-per-picture, far
//!   below 2³²; widening back is exact, so no decision bit changes),
//!   pruned in whole GOP periods under the estimator's
//!   [`history_window`](smooth_core::SizeEstimator::history_window)
//!   contract — so resident memory per session is O(H + N + K + D/τ),
//!   not O(pictures pushed), at roughly half the pre-compaction bytes
//!   (see [`SessionEngine::state_bytes_per_session`]). Sliding
//!   [`smooth_core::LookaheadWindow`]s are kept per session (the
//!   O(1)-per-picture fast path needs them); decision scratch
//!   ([`smooth_core::BlockLanes`]) and the widened staging tail are per
//!   shard.
//! * **Tick scheduler.** [`SessionEngine::tick`] feeds every session its
//!   next picture and drains all decisions whose paper preconditions are
//!   now met, via [`smooth_core::decide_live`] — the *same* decision
//!   function `OnlineSmoother` uses, so a session's schedule is
//!   bit-identical to a dedicated smoother fed the same sizes (pinned by
//!   proptests). Per-class configuration (params, pattern, estimator,
//!   selection) is shared across all sessions of a
//!   [`SessionClass`]. For throughput, [`SessionEngine::run`] executes a
//!   whole batch of ticks **session-major** — each session's state
//!   streams from memory once per batch instead of once per tick — and
//!   is bit-identical to the lockstep loop (sessions are independent).
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
//!   [`mux::materialize_schedules`] is the materializing oracle it is
//!   pinned to.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Mutex;

use smooth_core::{
    decide_live, prunable_prefix, BlockLanes, LiveCursor, LiveParams, LookaheadWindow,
    PatternEstimator, PictureSchedule, RateSelection, SizeEstimator, SizeHistory, SmootherParams,
};
use smooth_mpeg::GopPattern;
use smooth_sweep::{par_map, par_map_pinned};

pub mod dynamic;
pub mod livemux;
pub mod mux;
pub mod synthetic;

pub use livemux::{mux_digest, LiveMux, LiveMuxStats, MuxCheckpoint, MuxConfig, TrafficDescriptor};

pub use dynamic::{
    fps_class, DynamicClass, DynamicEngine, EngineCheckpoint, SessionSnapshot, ARRIVAL_BATCH,
    MUX_INGEST_SPAN_TICKS, TICKS_PER_SEC,
};
pub use synthetic::{churn_trace, ChurnEvent, ChurnSpec, ChurnTrace, SyntheticFleet};

/// Errors constructing or operating a session engine: every narrowed
/// width the compact store relies on (u16 retained-length words, u32
/// ring offsets, u16 class ids) is guarded here with a typed error
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
    /// A shard's flat history ring (`shard_size · ring_cap` sizes)
    /// exceeds the compact store's `u32` ring-offset word.
    ShardRingExceedsOffsetWord {
        /// Required ring length in sizes.
        ring_slots: u128,
        /// The `u32` limit.
        max: u64,
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
            EngineError::ShardRingExceedsOffsetWord { ring_slots, max } => write!(
                f,
                "shard history ring ({ring_slots} sizes) exceeds the u32 offset word \
                 (max {max}); lower the shard size or the class ring slot"
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

/// Checks that a shard's flat history ring — `shard_size` slots of the
/// largest class's `ring_cap` — stays addressable by the compact
/// store's `u32` ring-offset word.
pub(crate) fn check_shard_ring(
    classes: &[ClassInfo],
    shard_size: usize,
) -> Result<(), EngineError> {
    let widest = classes.iter().map(|c| c.ring_cap).max().unwrap_or(0);
    let ring_slots = shard_size as u128 * widest as u128;
    if ring_slots > u64::from(u32::MAX) as u128 {
        return Err(EngineError::ShardRingExceedsOffsetWord {
            ring_slots,
            max: u64::from(u32::MAX),
        });
    }
    Ok(())
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline(always)]
pub(crate) fn fnv(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(FNV_PRIME)
}

/// One shard's struct-of-arrays session store. Index `j` is the
/// shard-local session slot; all vectors run in lockstep.
///
/// The layout is **cache-compact**: hot per-tick scalars are narrowed
/// to the smallest width their invariants allow and kept apart from
/// cold, rarely-written configuration; the session id is derived from
/// the slot (`first_sid + j`) instead of stored; and the history ring
/// packs each size into a `u32` fixed-point word (picture sizes are
/// bits-per-picture, far below 2³² — the push path checks). Every
/// narrowed field widens *exactly* (`u32 → u64`/`usize`/`f64` are all
/// value-preserving), so schedules are bit-identical to the wide
/// layout — pinned by the engine-vs-[`smooth_core::OnlineSmoother`]
/// proptests.
struct Shard {
    /// Session id of slot 0; slot `j` holds session `first_sid + j`
    /// ([`SessionEngine::add_sessions`] hands out consecutive ids).
    first_sid: u64,
    // --- hot scalars: read and written every tick ---
    /// Decisions already emitted (the next undecided picture index).
    decided: Vec<u32>,
    /// Retained history length in sizes; bounded by the class
    /// `ring_cap`, which [`ClassInfo::new`] asserts fits `u16`.
    len: Vec<u16>,
    /// High-water mark of the visible prefix length consulted so far.
    watermark: Vec<u32>,
    /// Departure time of the last decided picture (authoritative `f64`).
    depart: Vec<f64>,
    /// Rate of the last decided picture (meaningful when `decided > 0`).
    prev_rate: Vec<f64>,
    /// FNV-1a fingerprint of every decision emitted by session `j`
    /// (index, start, rate, depart bits) — the determinism witness.
    digest: Vec<u64>,
    // --- cold: written only at creation or on (rare) compaction ---
    /// Logical index of the first retained size (whole-pattern cut).
    base: Vec<u32>,
    class_of: Vec<u16>,
    /// Start of session `j`'s history slot in `ring`.
    ring_off: Vec<u32>,
    /// Flat history storage, one fixed slot per session: session `j`
    /// retains logical pictures `base[j] .. base[j] + len[j]` at
    /// `ring[ring_off[j] ..]`, each size a checked-narrowed `u32`.
    ring: Vec<u32>,
    windows: Vec<LookaheadWindow>,
    /// Widened `u64` mirror of the *active* session's retained tail:
    /// refilled when a session is entered (once per batch), kept in
    /// sync by push/prune, and always L1-hot — [`decide_live`] reads
    /// sizes from here, so only the halved `u32` ring streams from
    /// DRAM. The widening is exact, so this changes no bits.
    stage: Vec<u64>,
    /// Decision scratch, shared by every session of the shard.
    lanes: BlockLanes,
    decisions: u64,
}

impl Shard {
    fn new(first_sid: u64) -> Self {
        Shard {
            first_sid,
            decided: Vec::new(),
            len: Vec::new(),
            watermark: Vec::new(),
            depart: Vec::new(),
            prev_rate: Vec::new(),
            digest: Vec::new(),
            base: Vec::new(),
            class_of: Vec::new(),
            ring_off: Vec::new(),
            ring: Vec::new(),
            windows: Vec::new(),
            stage: Vec::new(),
            lanes: BlockLanes::default(),
            decisions: 0,
        }
    }

    fn count(&self) -> usize {
        self.class_of.len()
    }

    fn push_session(&mut self, class_id: u16, info: &ClassInfo) {
        self.class_of.push(class_id);
        let off = u32::try_from(self.ring.len()).expect("shard ring offset fits u32");
        self.ring_off.push(off);
        self.ring.resize(self.ring.len() + info.ring_cap, 0);
        self.base.push(0);
        self.len.push(0);
        self.decided.push(0);
        self.depart.push(0.0);
        self.prev_rate.push(0.0);
        self.watermark.push(0);
        self.digest.push(FNV_OFFSET);
        self.windows.push(LookaheadWindow::new());
    }

    /// Advances every session of the shard by one tick: optionally push
    /// the next picture (live tick) and drain every decision now
    /// decidable. Returns the number of decisions made.
    fn advance<S: SizeSource, F: FnMut(u64, &PictureSchedule)>(
        &mut self,
        classes: &[ClassInfo],
        source: &S,
        push: bool,
        ended: bool,
        sink: &mut F,
    ) -> u64 {
        let mut made = 0u64;
        for j in 0..self.count() {
            self.prefetch(j + 1);
            made += self.run_session(j, classes, source, u64::from(push), ended, sink);
        }
        self.decisions += made;
        made
    }

    /// Advances every session of the shard by `ticks` live ticks (plus,
    /// when `finish` is set, the end-of-stream drain), **session-major**:
    /// each session runs through the whole batch before the next is
    /// touched, so its ring slot, window, and scalars are streamed from
    /// memory once per batch instead of once per tick. Sessions are
    /// independent state machines, so every decision and digest is
    /// bit-identical to `ticks` calls of [`advance`] (pinned by
    /// proptests); only the interleaving a sink would observe differs,
    /// which is why this path takes none — lockstep consumers (the
    /// materializing oracle) use [`advance`].
    fn advance_batch<S: SizeSource>(
        &mut self,
        classes: &[ClassInfo],
        source: &S,
        ticks: u64,
        finish: bool,
    ) -> u64 {
        self.advance_batch_with(classes, source, ticks, finish, &mut |_, _| {})
    }

    /// [`advance_batch`](Self::advance_batch) with a decision sink. The
    /// sink observes the **session-major** interleaving (each session's
    /// whole batch before the next session), but within a session the
    /// decisions come in schedule order — all a per-session consumer
    /// (the fused mux's lanes) needs.
    fn advance_batch_with<S: SizeSource, F: FnMut(u64, &PictureSchedule)>(
        &mut self,
        classes: &[ClassInfo],
        source: &S,
        ticks: u64,
        finish: bool,
        sink: &mut F,
    ) -> u64 {
        let mut made = 0u64;
        for j in 0..self.count() {
            self.prefetch(j + 1);
            made += self.run_session(j, classes, source, ticks, finish, sink);
        }
        self.decisions += made;
        made
    }

    /// Hide session `j`'s demand misses behind its predecessor's work:
    /// its window buffer is a per-session heap block (the one pointer
    /// chase here), and its ring slot sits a long stride away.
    #[inline(always)]
    fn prefetch(&self, j: usize) {
        if let Some(next) = self.windows.get(j) {
            next.prewarm();
            std::hint::black_box(self.ring.get(self.ring_off[j] as usize).copied());
        }
    }

    /// Runs session `j` through `live_ticks` pushes plus, when `finish`
    /// is set, the end-of-stream drain. Every per-session scalar is
    /// loaded into a local once, carried through the whole batch, and
    /// stored back once — the arrays see one load and one store per
    /// batch, not per tick. Returns the decisions made.
    fn run_session<S: SizeSource, F: FnMut(u64, &PictureSchedule)>(
        &mut self,
        j: usize,
        classes: &[ClassInfo],
        source: &S,
        live_ticks: u64,
        finish: bool,
        sink: &mut F,
    ) -> u64 {
        let info = &classes[self.class_of[j] as usize];
        let off = self.ring_off[j] as usize;
        let cap = info.ring_cap;
        let n = info.class.pattern.n();
        let sid = self.first_sid + j as u64;

        let mut cursor = LiveCursor {
            decided: self.decided[j] as usize,
            depart: self.depart[j],
            prev_rate: if self.decided[j] > 0 {
                Some(self.prev_rate[j])
            } else {
                None
            },
            watermark: self.watermark[j] as usize,
        };
        let mut base = self.base[j] as usize;
        let mut len = self.len[j] as usize;
        let mut digest = self.digest[j];
        let mut made = 0u64;

        // Stage the retained tail as `u64` once per batch (exact
        // widening); decisions read the L1-hot stage, not the ring.
        self.stage.clear();
        self.stage
            .extend(self.ring[off..off + len].iter().map(|&s| u64::from(s)));

        let cfg = LiveParams {
            params: &info.class.params,
            pattern: info.class.pattern,
            estimator: &info.class.estimator,
            selection: info.class.selection,
            total: None,
        };

        let steps = live_ticks + u64::from(finish);
        for t in 0..steps {
            let live = t < live_ticks;
            if live {
                if len == cap {
                    // The push path found the slot full: prune now or
                    // die. Theorem 1 bounds the live tail well below
                    // `ring_cap`, so an empty prune here means the slot
                    // was mis-sized — a bug, not a load condition.
                    let cut = prunable_prefix(&cursor, Some(info.hist), n);
                    let drop = cut.saturating_sub(base);
                    assert!(
                        drop > 0,
                        "session {sid} history slot full ({cap} sizes) with nothing prunable"
                    );
                    self.ring.copy_within(off + drop..off + len, off);
                    self.stage.copy_within(drop..len, 0);
                    len -= drop;
                    self.stage.truncate(len);
                    base = cut;
                    // The window caches base-shifted coordinates; force
                    // a refill (bit-identical to sliding — pinned by
                    // the lookahead proptests).
                    self.windows[j].reset();
                }
                let size = source.size(sid, (base + len) as u64);
                self.ring[off + len] = u32::try_from(size).unwrap_or_else(|_| {
                    panic!("picture size {size} bits exceeds the engine's u32 size word")
                });
                self.stage.push(size);
                len += 1;
            }
            let ended = !live;
            loop {
                let history = SizeHistory {
                    base,
                    tail: &self.stage[..len],
                };
                let Some(decision) = decide_live(
                    &cfg,
                    history,
                    ended,
                    &mut cursor,
                    &mut self.windows[j],
                    &mut self.lanes,
                ) else {
                    break;
                };
                digest = fnv(digest, decision.index as u64);
                digest = fnv(digest, decision.start.to_bits());
                digest = fnv(digest, decision.rate.to_bits());
                digest = fnv(digest, decision.depart.to_bits());
                made += 1;
                sink(sid, &decision);
            }

            // Lazy prune: drop the decided-and-unneeded prefix once it
            // covers at least half the retained slice (amortized O(1)
            // per push).
            let cut = prunable_prefix(&cursor, Some(info.hist), n);
            let drop = cut.saturating_sub(base);
            if drop > 0 && drop >= len / 2 {
                self.ring.copy_within(off + drop..off + len, off);
                self.stage.copy_within(drop..len, 0);
                len -= drop;
                self.stage.truncate(len);
                base = cut;
                self.windows[j].reset();
            }
        }

        self.decided[j] = u32::try_from(cursor.decided).expect("picture index fits u32");
        self.watermark[j] = u32::try_from(cursor.watermark).expect("watermark fits u32");
        self.base[j] = u32::try_from(base).expect("history base fits u32");
        // len <= ring_cap, asserted to fit u16 at class construction.
        self.len[j] = len as u16;
        self.depart[j] = cursor.depart;
        if let Some(r) = cursor.prev_rate {
            self.prev_rate[j] = r;
        }
        self.digest[j] = digest;
        made
    }
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
    shards: Vec<Mutex<Shard>>,
    shard_size: usize,
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
    /// class word holds, and — the compact-store width guards — a class
    /// whose history slot overflows the `u16` length word or a shard
    /// ring that overflows the `u32` offset word, with a typed
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
        check_shard_ring(&classes, shard_size)?;
        Ok(SessionEngine {
            classes,
            shards: Vec::new(),
            shard_size,
            sessions: 0,
            ticks: 0,
            ended: false,
        })
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
        let info = &self.classes[class_id];
        for _ in 0..count {
            if self.sessions % self.shard_size == 0 {
                self.shards
                    .push(Mutex::new(Shard::new(self.sessions as u64)));
            }
            let shard = self
                .shards
                .last_mut()
                .expect("just ensured")
                .get_mut()
                .expect("unshared");
            shard.push_session(class_id as u16, info);
            self.sessions += 1;
        }
    }

    /// Like [`add_sessions`](Self::add_sessions), but constructs the new
    /// shards **in parallel with first-touch placement**: worker `w`
    /// (pinned to logical CPU `w`, best-effort) allocates and fills
    /// shards `w, w + threads, …` of the new range — the same static
    /// shard→thread striping [`run_pinned`](Self::run_pinned) uses — so
    /// each shard's memory is first touched by the thread that will
    /// advance it (on NUMA machines, in that thread's local node).
    /// Shard contents are a pure function of the session ids, so the
    /// resulting engine is indistinguishable from one built by
    /// [`add_sessions`](Self::add_sessions) (pinned by tests).
    ///
    /// # Panics
    ///
    /// As [`add_sessions`](Self::add_sessions); additionally, placed
    /// growth must start on a shard boundary (the current session count
    /// a multiple of the shard size).
    pub fn add_sessions_placed(&mut self, class_id: usize, count: usize, threads: usize) {
        assert!(
            self.ticks == 0 && !self.ended,
            "add sessions before ticking"
        );
        assert!(class_id < self.classes.len(), "unknown class {class_id}");
        assert!(
            self.sessions % self.shard_size == 0,
            "placed growth must start on a shard boundary"
        );
        let info = &self.classes[class_id];
        let shard_size = self.shard_size;
        let first = self.sessions as u64;
        let shard_count = count.div_ceil(shard_size);
        let idx: Vec<usize> = (0..shard_count).collect();
        let built = par_map_pinned(threads, &idx, |_, &s| {
            let first_sid = first + (s * shard_size) as u64;
            let in_shard = shard_size.min(count - s * shard_size);
            let mut shard = Shard::new(first_sid);
            for _ in 0..in_shard {
                shard.push_session(class_id as u16, info);
            }
            Mutex::new(shard)
        });
        self.shards.extend(built);
        self.sessions += count;
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

    /// Resident array bytes per session of a class under the compact
    /// layout: the narrowed hot and cold scalars plus the `u32` history
    /// slot. This is what a batch streams from memory per session (the
    /// per-session [`LookaheadWindow`] heap block, ~`H + N` f64 slots,
    /// is reported by [`window_bytes_per_session`]
    /// (Self::window_bytes_per_session)) — the numerator of the
    /// roofline's bytes-per-decision in DESIGN.md §6.
    pub fn state_bytes_per_session(&self, class_id: usize) -> usize {
        use std::mem::size_of;
        // Hot: decided u32, len u16, watermark u32, depart f64,
        // prev_rate f64, digest u64.
        let hot = size_of::<u32>() * 2 + size_of::<u16>() + size_of::<f64>() * 2 + size_of::<u64>();
        // Cold: base u32, class_of u16, ring_off u32.
        let cold = size_of::<u32>() * 2 + size_of::<u16>();
        hot + cold + size_of::<u32>() * self.classes[class_id].ring_cap
    }

    /// Approximate per-session lookahead-window heap bytes of a class:
    /// the window retains `H` lookahead slots plus up to `N` estimate
    /// slots between slides.
    pub fn window_bytes_per_session(&self, class_id: usize) -> usize {
        let info = &self.classes[class_id];
        std::mem::size_of::<f64>() * (info.class.params.h + info.class.pattern.n())
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
        let classes = &self.classes;
        let shards = &self.shards;
        let idx: Vec<usize> = (0..shards.len()).collect();
        let made = par_map(threads, &idx, |_, &s| {
            let mut shard = shards[s].lock().expect("shard poisoned");
            shard.advance(classes, source, true, false, &mut |_, _| {})
        });
        self.ticks += 1;
        made.into_iter().sum()
    }

    /// Signals end-of-stream to every session and drains the remaining
    /// tail decisions. Returns the number of decisions made.
    pub fn finish<S: SizeSource>(&mut self, source: &S, threads: usize) -> u64 {
        let classes = &self.classes;
        let shards = &self.shards;
        let idx: Vec<usize> = (0..shards.len()).collect();
        let made = par_map(threads, &idx, |_, &s| {
            let mut shard = shards[s].lock().expect("shard poisoned");
            shard.advance(classes, source, false, true, &mut |_, _| {})
        });
        self.ended = true;
        made.into_iter().sum()
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
        let classes = &self.classes;
        let shards = &self.shards;
        let idx: Vec<usize> = (0..shards.len()).collect();
        let made = par_map(threads, &idx, |_, &s| {
            let mut shard = shards[s].lock().expect("shard poisoned");
            shard.advance_batch(classes, source, ticks, finish)
        });
        self.ticks += ticks;
        self.ended = finish;
        made.into_iter().sum()
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
    /// Bit-identical to multiplexing [`mux::materialize_schedules`]'
    /// output with [`smooth_netsim::RateSweep`], for any thread count
    /// (pinned by the `livemux_props` proptests).
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
                let mut shard = shards[s].lock().expect("shard poisoned");
                let mut block = mux_ref.block(s).lock().expect("block poisoned");
                shard.advance_batch_with(classes, source, chunk, fin, &mut |sid, d| {
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

    /// [`run`](Self::run) with **static shard→thread striping and
    /// pinned workers** ([`smooth_sweep::par_map_pinned`]): worker `w`
    /// advances shards `w, w + threads, …`, so across repeated calls
    /// with the same `threads` every shard stays with one thread — and,
    /// when the shards were built by
    /// [`add_sessions_placed`](Self::add_sessions_placed) at the same
    /// worker count, with the thread that first touched its memory.
    /// Bit-identical to [`run`](Self::run) for any thread count (shards
    /// are disjoint; only placement differs) — pinned by tests.
    ///
    /// # Panics
    ///
    /// Panics after [`finish`](Self::finish).
    pub fn run_pinned<S: SizeSource>(
        &mut self,
        source: &S,
        ticks: u64,
        finish: bool,
        threads: usize,
    ) -> u64 {
        assert!(!self.ended, "tick after finish");
        let classes = &self.classes;
        let shards = &self.shards;
        let idx: Vec<usize> = (0..shards.len()).collect();
        let made = par_map_pinned(threads, &idx, |_, &s| {
            let mut shard = shards[s].lock().expect("shard poisoned");
            shard.advance_batch(classes, source, ticks, finish)
        });
        self.ticks += ticks;
        self.ended = finish;
        made.into_iter().sum()
    }

    /// Serial [`tick`](Self::tick) that also hands every decision to
    /// `sink(session_id, schedule)` — the lockstep path the
    /// materializing oracle ([`mux`]) drives.
    pub fn tick_serial_with<S: SizeSource>(
        &mut self,
        source: &S,
        sink: &mut impl FnMut(u64, &PictureSchedule),
    ) -> u64 {
        assert!(!self.ended, "tick after finish");
        let classes = &self.classes;
        let mut made = 0;
        for shard in &mut self.shards {
            let shard = shard.get_mut().expect("unshared");
            made += shard.advance(classes, source, true, false, sink);
        }
        self.ticks += 1;
        made
    }

    /// Serial [`finish`](Self::finish) with a decision sink.
    pub fn finish_serial_with<S: SizeSource>(
        &mut self,
        source: &S,
        sink: &mut impl FnMut(u64, &PictureSchedule),
    ) -> u64 {
        let classes = &self.classes;
        let mut made = 0;
        for shard in &mut self.shards {
            let shard = shard.get_mut().expect("unshared");
            made += shard.advance(classes, source, false, true, sink);
        }
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
            let shard = shard.lock().expect("shard poisoned");
            for &x in &shard.digest {
                d = fnv(d, x);
            }
        }
        d
    }

    /// Per-session decision digests, in session-id order.
    pub fn session_digests(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.sessions);
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            out.extend_from_slice(&shard.digest);
        }
        out
    }

    /// Peak retained history length across all sessions (diagnostics for
    /// the memory-bound tests).
    pub fn max_retained(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("shard poisoned");
                shard.len.iter().map(|&l| l as usize).max().unwrap_or(0)
            })
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

    /// Satellite regression: the `u32` shard-ring-offset guard trips at
    /// exactly the boundary. The paper class's slot is 90 sizes, so
    /// `⌊u32::MAX / 90⌋ = 47 721 858` sessions per shard still address
    /// the flat ring and one more must be rejected.
    #[test]
    fn shard_ring_u32_guard_trips_at_the_boundary() {
        let pattern = GopPattern::new(3, 9).unwrap();
        let class = || SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern);
        let cap = SessionEngine::try_with_shard_size(vec![class()], 1)
            .expect("valid")
            .class_ring_cap(0);
        assert_eq!(cap, 90);
        let limit = u32::MAX as usize / cap;
        assert!(SessionEngine::try_with_shard_size(vec![class()], limit).is_ok());
        assert_eq!(
            SessionEngine::try_with_shard_size(vec![class()], limit + 1).err(),
            Some(EngineError::ShardRingExceedsOffsetWord {
                ring_slots: (limit as u128 + 1) * cap as u128,
                max: u64::from(u32::MAX),
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
    fn placed_build_and_pinned_run_match_serial() {
        let (mut a, fleet) = small_engine(16);
        for _ in 0..33 {
            a.tick(&fleet, 1);
        }
        a.finish(&fleet, 1);
        let pattern = GopPattern::new(3, 9).unwrap();
        let class = SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern);
        for threads in [1, 2, 5] {
            let mut b = SessionEngine::with_shard_size(vec![class.clone()], 16);
            b.add_sessions_placed(0, 50, threads);
            assert_eq!(b.session_count(), 50);
            b.run_pinned(&fleet, 33, true, threads);
            assert_eq!(a.digest(), b.digest(), "threads={threads}");
            assert_eq!(a.session_digests(), b.session_digests());
            assert_eq!(a.decisions(), b.decisions());
        }
    }

    #[test]
    fn compact_layout_reports_session_bytes() {
        let (engine, _) = small_engine(8);
        let cap = engine.class_ring_cap(0);
        let bytes = engine.state_bytes_per_session(0);
        // 34 hot + 10 cold scalar bytes plus the u32 ring slot.
        assert_eq!(bytes, 44 + 4 * cap);
        assert!(engine.window_bytes_per_session(0) > 0);
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
