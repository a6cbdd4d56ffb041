//! LiveMux's load-bearing equalities, pinned property-style:
//!
//! 1. **Frozen oracle.** A fused batch run's aggregate stats are
//!    bit-identical to materializing every schedule and running the
//!    [`RateSweep`], its peak to the
//!    sweep's interval maxima, and every session's descriptor σ to
//!    [`min_bucket_for`] over its materialized schedule — for arbitrary
//!    fleets, windows, and link parameters.
//! 2. **Layout invariance.** The fused digest is invariant under engine
//!    shard size (= mux block size) and thread count: shard routing is
//!    fixed by the fleet and ingestion orders globally by time, so
//!    parallel == serial, bit for bit.
//! 3. **Checkpoint/restore under churn.** A dynamic fused replay
//!    interrupted mid-trace by an engine + mux checkpoint pair
//!    continues bit-identically to the uninterrupted run — including
//!    across different thread counts on the two sides of the cut.
//!    The restored engine may have another shard size: each session's
//!    lane travels in its snapshot.
//! 4. **Online fence.** Over a long churn trace fed in short slices,
//!    with sessions holding one rate for most of the run, the events
//!    held after every ingest stay O(sessions), the live aggregate
//!    equals the oracle fleet's rate at the link clock, every ingest
//!    routes exactly the events posted since the last one and reads one
//!    frontier per live lane, and the run ends on the oracle sweep's
//!    bits.
//! 5. **Lanes travel with their sessions.** A fused churn replay fed in
//!    slices, with sessions moved between slices by `rebalance` and by
//!    `take` + `restore`, lands on the uninterrupted run's fleet and mux
//!    digests; and a long churn keeps the engine's lanes within its
//!    slots while the mux builds no lane block of its own.

use proptest::prelude::*;
use smooth_core::{OnlineSmoother, SmootherParams, SmoothingResult};
use smooth_engine::{
    churn_trace, fps_class, mux_digest, ChurnEvent, ChurnSpec, ChurnTrace, DynamicClass,
    DynamicEngine, LiveMux, MuxConfig, SessionClass, SessionEngine, SizeSource, SyntheticFleet,
    TICKS_PER_SEC,
};
use smooth_metrics::StepFunction;
use smooth_mpeg::GopPattern;
use smooth_netsim::min_bucket_for;
use smooth_oracle::{materialize_schedules, sweep_cursors, RateSweep};
use smooth_sweep::SumTree;

const TAU: f64 = 1.0 / 30.0;

fn arb_pattern() -> impl Strategy<Value = GopPattern> {
    prop_oneof![
        Just((3usize, 9usize)),
        Just((2, 6)),
        Just((3, 12)),
        Just((1, 5)),
        Just((1, 1)),
    ]
    .prop_map(|(m, n)| GopPattern::new(m, n).expect("regular pattern"))
}

fn arb_class() -> impl Strategy<Value = SessionClass> {
    (arb_pattern(), 1usize..=4, 1usize..=16, 0.0f64..0.3).prop_map(
        |(pattern, k, h, extra_slack)| {
            let d = (k as f64 + 1.0) * TAU + extra_slack;
            let params = SmootherParams::new(d, k, h, TAU).expect("feasible by construction");
            SessionClass::new(params, pattern)
        },
    )
}

/// A heterogeneous fleet plus the link and window the mux measures.
#[derive(Debug, Clone)]
struct MuxSpec {
    classes: Vec<SessionClass>,
    counts: Vec<usize>,
    ticks: u64,
    seed: u64,
    /// Link capacity per session, bits/s.
    cap_per_session: f64,
    buffer_bits: f64,
    rho_bps: f64,
    /// Window as fractions of the schedules' span (start may exceed
    /// end — inverted windows must behave like the oracle too).
    w0: f64,
    w1: f64,
}

fn arb_mux() -> impl Strategy<Value = MuxSpec> {
    (
        (
            proptest::collection::vec((arb_class(), 1usize..=5), 1..=3),
            1u64..50,
            any::<u64>(),
        ),
        (
            0.5e6f64..6.0e6,
            0.0f64..8.0e5,
            0.5e6f64..4.0e6,
            0.0f64..1.2,
            0.0f64..1.2,
        ),
    )
        .prop_map(
            |((classed, ticks, seed), (cap_per_session, buffer_bits, rho_bps, w0, w1))| {
                let (classes, counts) = classed.into_iter().unzip();
                MuxSpec {
                    classes,
                    counts,
                    ticks,
                    seed,
                    cap_per_session,
                    buffer_bits,
                    rho_bps,
                    w0,
                    w1,
                }
            },
        )
}

fn build(spec: &MuxSpec, shard_size: usize) -> (SessionEngine, SyntheticFleet) {
    let mut engine = SessionEngine::with_shard_size(spec.classes.clone(), shard_size);
    for (class_id, &count) in spec.counts.iter().enumerate() {
        engine.add_sessions(class_id, count);
    }
    let source = SyntheticFleet {
        seed: spec.seed,
        pattern: spec.classes[0].pattern,
    };
    (engine, source)
}

/// The two dynamic classes of the churn properties: 30 fps on a (3, 9)
/// GOP and 24 fps on a (3, 12) GOP.
fn churn_classes() -> Vec<DynamicClass> {
    vec![
        DynamicClass {
            class: SessionClass::new(
                SmootherParams::new(0.2, 1, 9, 1.0 / 30.0).unwrap(),
                GopPattern::new(3, 9).unwrap(),
            ),
            period_ticks: 20,
        },
        DynamicClass {
            class: SessionClass::new(
                SmootherParams::new(0.25, 2, 12, 1.0 / 24.0).unwrap(),
                GopPattern::new(3, 12).unwrap(),
            ),
            period_ticks: 25,
        },
    ]
}

/// `trace` cut into consecutive slices of `ticks` ticks, each replaying
/// its events up to and including its horizon — how a live server
/// steps a fleet. The last slice ends at the trace horizon.
fn slices(trace: &ChurnTrace, ticks: u64) -> Vec<ChurnTrace> {
    let mut out = Vec::new();
    let mut lo = 0;
    let mut end = ticks - 1;
    loop {
        let end_here = end.min(trace.horizon);
        let hi = lo + trace.events[lo..].partition_point(|(t, _)| *t <= end_here);
        out.push(ChurnTrace {
            events: trace.events[lo..hi].to_vec(),
            horizon: end_here,
            peak_live: trace.peak_live,
        });
        lo = hi;
        if end_here == trace.horizon {
            return out;
        }
        end += ticks;
    }
}

fn config(spec: &MuxSpec) -> MuxConfig {
    let (engine, source) = build(spec, 4);
    let sessions = engine.session_count();
    let inputs = materialize_schedules(engine, source, spec.ticks);
    let span = inputs.iter().map(|f| f.domain_end()).fold(0.0, f64::max);
    MuxConfig {
        capacity_bps: spec.cap_per_session * sessions as f64,
        buffer_bits: spec.buffer_bits,
        t_start: spec.w0 * span,
        t_end: spec.w1 * span,
        descriptor_rho_bps: spec.rho_bps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: the fused run lands on the frozen oracle's bits —
    /// queue stats from the materialize-then-sweep path, peak from the
    /// sweep's interval aggregates, σ from `min_bucket_for`.
    #[test]
    fn fused_matches_materialized_oracle_bitwise(spec in arb_mux()) {
        let c = config(&spec);
        let (engine, source) = build(&spec, 4);
        let sessions = engine.session_count();
        let inputs = materialize_schedules(engine, source, spec.ticks);

        let sweep = RateSweep {
            capacity_bps: c.capacity_bps,
            buffer_bits: c.buffer_bits,
        };
        let want = sweep.run(&inputs, c.t_start, c.t_end);
        let mut want_peak = 0.0f64;
        let mut cursors: Vec<_> = inputs.iter().map(|f| f.cursor_at(c.t_start)).collect();
        sweep_cursors(&mut cursors, inputs.len(), c.t_start, c.t_end, |agg, _, _| {
            want_peak = want_peak.max(agg);
        });

        let (mut engine, source) = build(&spec, 4);
        let mut mux = LiveMux::new(sessions, 4, c);
        let got = engine
            .run_fused(&source, spec.ticks, 2, &mut mux)
            .expect("fresh engine");

        prop_assert_eq!(got.mux.arrived_bits.to_bits(), want.arrived_bits.to_bits());
        prop_assert_eq!(got.mux.lost_bits.to_bits(), want.lost_bits.to_bits());
        prop_assert_eq!(got.mux.served_bits.to_bits(), want.served_bits.to_bits());
        prop_assert_eq!(
            got.mux.final_queue_bits.to_bits(),
            want.final_queue_bits.to_bits()
        );
        prop_assert_eq!(
            got.mux.max_queue_bits.to_bits(),
            want.max_queue_bits.to_bits()
        );
        prop_assert_eq!(got.mux.utilization.to_bits(), want.utilization.to_bits());
        prop_assert_eq!(got.peak_rate_bps.to_bits(), want_peak.to_bits());

        for (sid, f) in inputs.iter().enumerate() {
            let want_sigma = min_bucket_for(f, c.descriptor_rho_bps, c.t_start, c.t_end);
            let d = mux.descriptor(sid as u64);
            prop_assert_eq!(
                d.sigma.to_bits(),
                want_sigma.to_bits(),
                "sid {} sigma {} vs oracle {}",
                sid,
                d.sigma,
                want_sigma
            );
            prop_assert_eq!(d.rho.to_bits(), c.descriptor_rho_bps.to_bits());
        }
    }

    /// Property 2: the fused digest never moves with the layout — any
    /// engine shard size (= mux block size) and thread count produce
    /// the same stats and descriptors, bit for bit.
    #[test]
    fn fused_digest_invariant_across_shards_and_threads(spec in arb_mux()) {
        let c = config(&spec);
        let mut baseline = None;
        for shard_size in [1usize, 3, 7, 1024] {
            for threads in [1usize, 2, 5] {
                let (mut engine, source) = build(&spec, shard_size);
                let sessions = engine.session_count();
                let mut mux = LiveMux::new(sessions, shard_size, c);
                let stats = engine
                    .run_fused(&source, spec.ticks, threads, &mut mux)
                    .expect("fresh engine");
                let digest = mux_digest(&stats, &mux.descriptors());
                match baseline {
                    None => baseline = Some(digest),
                    Some(d) => prop_assert_eq!(
                        d,
                        digest,
                        "diverged at shard_size={} threads={}",
                        shard_size,
                        threads
                    ),
                }
            }
        }
    }

    /// Property 3: a churny fused replay cut mid-trace by an engine +
    /// mux checkpoint pair continues bit-identically — across thread
    /// counts on both sides of the cut, and into an engine of another
    /// shard size.
    #[test]
    fn churn_checkpoint_restore_is_bit_identical(
        initial in 1usize..=10,
        horizon in 600u64..2400,
        churn_ppm in 0u64..300_000,
        seed in any::<u64>(),
        cut_frac in 0.1f64..0.9,
        window_frac in 0.2f64..1.5,
        threads_a in 1usize..=3,
        threads_b in 1usize..=3,
        shard_b in 1usize..=6,
    ) {
        let classes = churn_classes();
        let trace = churn_trace(&ChurnSpec {
            seed,
            initial,
            weights: vec![3, 2],
            periods: vec![20, 25],
            ticks_per_sec: TICKS_PER_SEC,
            horizon,
            churn_ppm_per_sec: churn_ppm,
        });
        let total = trace.total_joins();
        let cfg = MuxConfig {
            capacity_bps: 1.2e6 * initial as f64,
            buffer_bits: 2.0e5,
            t_start: 0.0,
            t_end: window_frac * horizon as f64 / TICKS_PER_SEC as f64,
            descriptor_rho_bps: 1.5e6,
        };
        let source = SyntheticFleet {
            seed: seed ^ 0xD1CE,
            pattern: GopPattern::new(3, 9).unwrap(),
        };

        let run_whole = |threads: usize| {
            let mut engine =
                DynamicEngine::new(classes.clone(), trace.peak_live.max(1), 4).unwrap();
            let mut mux = LiveMux::with_joins(total, 4, cfg);
            engine
                .run_trace_fused(&source, &trace, threads, &mut mux)
                .unwrap();
            let stats = engine.finish_fused(&source, threads, &mut mux);
            (engine.digest(), mux_digest(&stats, &mux.descriptors()))
        };
        let (want_engine, want_mux) = run_whole(threads_a);

        // Interrupted: replay to the cut, checkpoint both sides, then
        // continue from the restored pair (possibly on another thread
        // count).
        let cut = ((horizon as f64 * cut_frac) as u64).max(1);
        let split = |keep: &dyn Fn(u64) -> bool, horizon| ChurnTrace {
            events: trace
                .events
                .iter()
                .filter(|&&(t, _)| keep(t))
                .copied()
                .collect(),
            horizon,
            peak_live: trace.peak_live,
        };
        let first = split(&|t| t <= cut, cut);
        let second = split(&|t| t > cut, horizon);

        let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live.max(1), 4).unwrap();
        let mut mux = LiveMux::with_joins(total, 4, cfg);
        engine
            .run_trace_fused(&source, &first, threads_a, &mut mux)
            .unwrap();
        let ecp = engine.checkpoint();
        let mcp = mux.checkpoint();

        let mut engine =
            DynamicEngine::restore_checkpoint(classes, trace.peak_live.max(1), shard_b, &ecp)
                .unwrap();
        let mut mux = LiveMux::restore(&mcp);
        engine
            .run_trace_fused(&source, &second, threads_b, &mut mux)
            .unwrap();
        let stats = engine.finish_fused(&source, threads_b, &mut mux);
        prop_assert_eq!(engine.digest(), want_engine);
        prop_assert_eq!(mux_digest(&stats, &mux.descriptors()), want_mux);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 5: a session's lane moves with it. A churny fused replay
    /// fed in slices, interrupted between slices by `rebalance` and by
    /// `take` + `restore` of random live sessions (which land in other
    /// shards and slots), ends on the bits of the same replay fed whole.
    #[test]
    fn lanes_travel_with_migrated_sessions(
        initial in 2usize..=12,
        horizon in 600u64..1800,
        churn_ppm in 0u64..400_000,
        seed in any::<u64>(),
        slice_ticks in 7u64..60,
        shard_size in 1usize..=4,
        threads in 1usize..=2,
    ) {
        let classes = churn_classes();
        let trace = churn_trace(&ChurnSpec {
            seed,
            initial,
            weights: vec![3, 2],
            periods: vec![20, 25],
            ticks_per_sec: TICKS_PER_SEC,
            horizon,
            churn_ppm_per_sec: churn_ppm,
        });
        let cfg = MuxConfig {
            capacity_bps: 1.2e6 * initial as f64,
            buffer_bits: 2.0e5,
            t_start: 0.0,
            t_end: horizon as f64 / TICKS_PER_SEC as f64,
            descriptor_rho_bps: 1.5e6,
        };
        let source = SyntheticFleet {
            seed: seed ^ 0x5EED,
            pattern: GopPattern::new(3, 9).unwrap(),
        };
        let capacity = trace.peak_live.max(1);
        let fresh = || {
            (
                DynamicEngine::new(classes.clone(), capacity, shard_size).unwrap(),
                LiveMux::with_joins(trace.total_joins(), 4, cfg),
            )
        };

        let (mut engine, mut mux) = fresh();
        engine.run_trace_fused(&source, &trace, threads, &mut mux).unwrap();
        let stats = engine.finish_fused(&source, threads, &mut mux);
        let want = (engine.digest(), mux_digest(&stats, &mux.descriptors()));

        let (mut engine, mut mux) = fresh();
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut moved = 0;
        for slice in slices(&trace, slice_ticks) {
            engine.run_trace_fused(&source, &slice, threads, &mut mux).unwrap();
            if next() % 3 == 0 {
                moved += engine.rebalance();
            }
            let live: Vec<u64> = (0..engine.joined())
                .filter(|&sid| engine.snapshot(sid).is_ok())
                .collect();
            for _ in 0..next() % 4 {
                if live.is_empty() {
                    break;
                }
                let sid = live[(next() % live.len() as u64) as usize];
                let snap = engine.take(sid).unwrap();
                prop_assert!(snap.lane.is_some(), "session {} moved without its lane", sid);
                engine.restore(snap).unwrap();
                moved += 1;
            }
        }
        let stats = engine.finish_fused(&source, threads, &mut mux);
        prop_assert_eq!(
            (engine.digest(), mux_digest(&stats, &mux.descriptors())),
            want,
            "after {} moves",
            moved
        );
    }
}

/// Lanes scale with the sessions live at once, not with the sessions
/// ever joined: 200 sessions churned through 20,000 joins keep at most
/// one lane per engine slot, and the mux, fed only by the engine's lane
/// tables, builds no lane block of its own.
#[test]
fn lanes_stay_within_the_engine_slots_under_churn() {
    const LIVE: u64 = 200;
    const JOINS: u64 = 20_000;
    let classes = vec![fps_class(30)];
    // Tick 0 joins LIVE sessions; every later tick retires the oldest
    // and joins one more, so each lives LIVE ticks.
    let mut events: Vec<(u64, ChurnEvent)> = (0..LIVE)
        .map(|s| {
            (
                0,
                ChurnEvent::Join {
                    class: 0,
                    stream: s,
                    phase: s,
                },
            )
        })
        .collect();
    for t in 1..=JOINS - LIVE {
        events.push((t, ChurnEvent::Leave { sid: t - 1 }));
        events.push((
            t,
            ChurnEvent::Join {
                class: 0,
                stream: LIVE + t,
                phase: t,
            },
        ));
    }
    let horizon = JOINS - LIVE + 20;
    let trace = ChurnTrace {
        events,
        horizon,
        peak_live: LIVE as usize,
    };
    assert_eq!(trace.total_joins(), JOINS as usize);
    let cfg = MuxConfig {
        capacity_bps: 1.2e6 * LIVE as f64,
        buffer_bits: 4.0e5,
        t_start: 0.0,
        t_end: horizon as f64 / TICKS_PER_SEC as f64,
        descriptor_rho_bps: 1.5e6,
    };
    let source = SyntheticFleet {
        seed: 0x1A7E,
        pattern: classes[0].class.pattern,
    };
    let mut engine = DynamicEngine::new(classes, LIVE as usize, 64).unwrap();
    let mut mux = LiveMux::with_joins(trace.total_joins(), 64, cfg);
    engine
        .run_trace_fused(&source, &trace, 1, &mut mux)
        .unwrap();
    assert_eq!(engine.joined(), JOINS);
    assert!(
        engine.resident_lanes() <= engine.allocated_slots(),
        "{} lanes over {} slots",
        engine.resident_lanes(),
        engine.allocated_slots()
    );
    assert!(engine.allocated_slots() <= LIVE as usize + 64);
    assert_eq!(mux.lane_blocks_built(), 0);
    let stats = engine.finish_fused(&source, 1, &mut mux);
    assert_eq!(mux.lane_blocks_built(), 0);
    assert!(stats.mux.arrived_bits > 0.0);
    assert_eq!(mux.descriptors().len(), JOINS as usize);
}

/// Sizes for the long-horizon fleet: streams below `steady` send one
/// constant picture size forever, so their smoothed rate never changes
/// and each stays on one merged segment for the whole run; the rest
/// come from the synthetic fleet.
struct Mixed {
    steady: u64,
    fleet: SyntheticFleet,
}

impl SizeSource for Mixed {
    fn size(&self, stream: u64, picture: u64) -> u64 {
        if stream < self.steady {
            100_000
        } else {
            self.fleet.size(stream, picture)
        }
    }
}

/// One session of the long-horizon trace.
struct Life {
    join: u64,
    leave: Option<u64>,
    class: u16,
    stream: u64,
    phase: u64,
}

/// `steady` sessions that join early and never leave, plus `lanes`
/// churning lanes, each a chain of sessions living 0.1–1.1 s with a
/// short gap between them, over `horizon` ticks.
fn long_horizon_trace(steady: u64, lanes: u64, horizon: u64) -> (Vec<Life>, ChurnTrace) {
    let mut rng = 0x5EED_u64;
    let mut next = move |n: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % n
    };
    let mut lives: Vec<Life> = (0..steady)
        .map(|s| Life {
            join: 3 * s,
            leave: None,
            class: (s % 3) as u16,
            stream: s,
            phase: s,
        })
        .collect();
    let mut stream = steady;
    for lane in 0..lanes {
        let mut t = 5 * lane;
        while t < horizon {
            let leave = t + 60 + next(600);
            lives.push(Life {
                join: t,
                leave: (leave <= horizon).then_some(leave),
                class: next(3) as u16,
                stream,
                phase: next(40),
            });
            stream += 1;
            t = leave + 1 + next(30);
        }
    }
    // Session ids are issued in join order.
    lives.sort_by_key(|l| (l.join, l.stream));
    let mut events: Vec<(u64, u8, ChurnEvent)> = Vec::new();
    for (sid, l) in lives.iter().enumerate() {
        events.push((
            l.join,
            0,
            ChurnEvent::Join {
                class: l.class,
                stream: l.stream,
                phase: l.phase,
            },
        ));
        if let Some(t) = l.leave {
            events.push((t, 1, ChurnEvent::Leave { sid: sid as u64 }));
        }
    }
    // Joins precede leaves within a tick.
    events.sort_by_key(|&(t, kind, _)| (t, kind));
    let (mut live, mut peak_live) = (0usize, 0usize);
    for (_, kind, _) in &events {
        if *kind == 0 {
            live += 1;
            peak_live = peak_live.max(live);
        } else {
            live -= 1;
        }
    }
    let trace = ChurnTrace {
        events: events.into_iter().map(|(t, _, e)| (t, e)).collect(),
        horizon,
        peak_live,
    };
    (lives, trace)
}

/// Every session's rate function on the link clock, from the offline
/// pipeline: its whole decision sequence through a standalone
/// `OnlineSmoother`, `rate_segments`, `StepFunction::from_segments`,
/// shifted to its first arrival.
fn oracle_schedules(
    classes: &[DynamicClass],
    lives: &[Life],
    source: &Mixed,
    horizon: u64,
) -> Vec<StepFunction> {
    lives
        .iter()
        .map(|l| {
            let c = &classes[l.class as usize];
            let mut online = OnlineSmoother::with_estimator(
                c.class.params,
                c.class.pattern,
                c.class.estimator,
                c.class.selection,
                None,
            );
            let first = l.join + 1 + l.phase % c.period_ticks;
            // A leave ends the stream before that tick's arrival.
            let last = l.leave.map_or(horizon, |t| t - 1);
            let mut schedule = Vec::new();
            let mut p = 0;
            while first + p * c.period_ticks <= last {
                schedule.extend(online.push(source.size(l.stream, p)));
                p += 1;
            }
            schedule.extend(online.finish());
            let f = StepFunction::from_segments(
                &SmoothingResult {
                    params: c.class.params,
                    schedule,
                }
                .rate_segments(),
            );
            let offset = first as f64 / TICKS_PER_SEC as f64;
            let values = f.pieces().map(|(_, _, v)| v).collect();
            StepFunction::new(f.breakpoints().iter().map(|b| offset + b).collect(), values)
        })
        .collect()
}

/// Property 4: the aggregate is online. Over a 20 s trace fed in
/// 10-tick slices, with sessions that hold one rate for most of the run
/// (the case that used to pin the fence) beside churning lanes, the
/// fence keeps up with the clock: after every ingest the events still
/// held number at most `C` per session the trace has live at once, and
/// the live aggregate equals the oracle fleet's summed rate at the link
/// clock, bit for bit.
#[test]
fn fence_advances_and_pending_stays_bounded() {
    const SLICE: u64 = 10;
    // The last tick, closing the last slice.
    const HORIZON: u64 = 20 * TICKS_PER_SEC - 1;
    const STEADY: u64 = 8;
    // After a slice every arrived picture has been fed, and a decided
    // picture departs no earlier than the arrival K = 1 picture after
    // it, so the fence trails the clock by at most one picture period
    // (1/24 s); no lane has emitted past the clock plus D = 0.2 s. The
    // pictures departing in that 0.24 s window arrived within 0.44 s:
    // at most 27 at 60 fps, each placing at most two breakpoints (its
    // piece and a gap before it), so 54 a lane; 64 leaves room for
    // lanes that left inside the window.
    const C: usize = 64;
    let classes = vec![fps_class(24), fps_class(30), fps_class(60)];
    let (lives, trace) = long_horizon_trace(STEADY, 24, HORIZON);
    let source = Mixed {
        steady: STEADY,
        fleet: SyntheticFleet {
            seed: 0xF00D,
            pattern: classes[0].class.pattern,
        },
    };
    let oracle = oracle_schedules(&classes, &lives, &source, HORIZON);
    let half = HORIZON as f64 / TICKS_PER_SEC as f64 / 2.0;
    assert!(
        lives.iter().zip(&oracle).any(|(l, f)| {
            // The last rate change, before the final zero.
            let b = f.breakpoints();
            l.stream < STEADY && b[b.len() - 2] < half
        }),
        "a steady session holds one rate through the second half"
    );
    let bound = C * trace.peak_live;

    let cfg = MuxConfig {
        capacity_bps: 1.2e6 * trace.peak_live as f64,
        buffer_bits: 4.0e5,
        t_start: 0.0,
        t_end: (HORIZON + TICKS_PER_SEC) as f64 / TICKS_PER_SEC as f64,
        descriptor_rho_bps: 1.5e6,
    };
    let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live, 4).unwrap();
    let mut mux = LiveMux::with_joins(trace.total_joins(), 4, cfg);
    for (step, slice) in slices(&trace, SLICE).iter().enumerate() {
        let end = slice.horizon;
        let before = mux.ingest_counts();
        engine
            .run_trace_fused(&source, slice, 1 + step % 2, &mut mux)
            .unwrap();
        // One ingest a slice: it routes what the slice posted, each
        // event once, and its fence reads one frontier per live lane.
        let counts = mux.ingest_counts();
        assert_eq!(counts.passes - before.passes, 1);
        assert_eq!(
            counts.routed - before.routed,
            counts.posted - before.posted,
            "routed vs posted after tick {end}"
        );
        assert_eq!(
            counts.fence_reads - before.fence_reads,
            engine.live_sessions() as u64,
            "fence reads after tick {end}"
        );
        assert_eq!(counts.held as usize, mux.pending_events());
        let pending = mux.pending_events();
        assert!(
            pending <= bound,
            "{pending} events held after tick {end}, over {C} per session"
        );
        let t = mux.clock();
        let rates: Vec<f64> = oracle.iter().map(|f| f.value_at(t)).collect();
        assert_eq!(
            mux.aggregate_bps().to_bits(),
            SumTree::sum_of(&rates).to_bits(),
            "aggregate at t = {t} after tick {end}"
        );
    }
    // The clock followed the trace to its end, not to the first held
    // segment.
    assert!(mux.clock() > 2.0 * half - 1.0);

    // And the events applied in time order: the finished run is the
    // oracle sweep's, bit for bit.
    let got = engine.finish_fused(&source, 1, &mut mux);
    let want = RateSweep {
        capacity_bps: cfg.capacity_bps,
        buffer_bits: cfg.buffer_bits,
    }
    .run(&oracle, cfg.t_start, cfg.t_end);
    for (a, b) in [
        (got.mux.arrived_bits, want.arrived_bits),
        (got.mux.lost_bits, want.lost_bits),
        (got.mux.served_bits, want.served_bits),
        (got.mux.final_queue_bits, want.final_queue_bits),
        (got.mux.max_queue_bits, want.max_queue_bits),
        (got.mux.utilization, want.utilization),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{got:?} vs {want:?}");
    }
    for (sid, f) in oracle.iter().enumerate() {
        let sigma = min_bucket_for(f, cfg.descriptor_rho_bps, cfg.t_start, cfg.t_end);
        assert_eq!(mux.descriptor(sid as u64).sigma.to_bits(), sigma.to_bits());
    }

    // The whole trace in one call ingests only every half second of
    // trace time, each time right after flushing the fleet: same bits.
    let mut engine = DynamicEngine::new(classes, trace.peak_live, 4).unwrap();
    let mut whole = LiveMux::with_joins(trace.total_joins(), 4, cfg);
    engine
        .run_trace_fused(&source, &trace, 2, &mut whole)
        .unwrap();
    let stats = engine.finish_fused(&source, 2, &mut whole);
    assert_eq!(
        mux_digest(&stats, &whole.descriptors()),
        mux_digest(&got, &mux.descriptors())
    );
}
