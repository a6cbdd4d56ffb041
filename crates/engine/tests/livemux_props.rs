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
//!    fixed by session count and ingestion orders globally by
//!    `(t, leaf)`, so parallel == serial, bit for bit.
//! 3. **Checkpoint/restore under churn.** A dynamic fused replay
//!    interrupted mid-trace by an engine + mux checkpoint pair
//!    continues bit-identically to the uninterrupted run — including
//!    across different thread counts on the two sides of the cut.

use proptest::prelude::*;
use smooth_core::SmootherParams;
use smooth_engine::{
    churn_trace, mux::materialize_schedules, mux_digest, ChurnSpec, ChurnTrace, DynamicClass,
    DynamicEngine, LiveMux, MuxConfig, SessionClass, SessionEngine, SyntheticFleet, TICKS_PER_SEC,
};
use smooth_mpeg::GopPattern;
use smooth_netsim::{min_bucket_for, sweep_cursors, RateSweep};

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
    /// counts on both sides of the cut.
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
    ) {
        let classes = vec![
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
        ];
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
            DynamicEngine::restore_checkpoint(classes, trace.peak_live.max(1), 4, &ecp).unwrap();
        let mut mux = LiveMux::restore(&mcp);
        engine
            .run_trace_fused(&source, &second, threads_b, &mut mux)
            .unwrap();
        let stats = engine.finish_fused(&source, threads_b, &mut mux);
        prop_assert_eq!(engine.digest(), want_engine);
        prop_assert_eq!(mux_digest(&stats, &mux.descriptors()), want_mux);
    }
}
