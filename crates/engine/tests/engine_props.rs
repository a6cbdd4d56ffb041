//! The engine's two load-bearing equalities, pinned property-style:
//!
//! 1. **One decision function.** A fleet session's schedule is
//!    bit-identical to a dedicated [`OnlineSmoother`] fed the same sizes
//!    — the engine runs the same `live_ready` + `decide_ready` halves
//!    of `decide_live`, carrying the readiness between decisions, so
//!    batching, the carried readiness, the shared ring storage, and
//!    history pruning must be invisible.
//! 2. **Determinism.** The per-session decision digests are invariant
//!    under shard size and thread count — shards are disjoint state
//!    machines collected in index order, so parallel == serial, bit for
//!    bit.
//!
//! 3. **One store's decisions, two schedulers.** A single-class,
//!    phase-0, zero-churn [`DynamicEngine`] fleet on the timing wheel
//!    decides bit-identically to the same fleet in lockstep on
//!    [`SessionEngine`] — both run the one slot store, so the wheel's
//!    visit pattern must change no bit.

use proptest::prelude::*;
use smooth_core::{OnlineSmoother, PictureSchedule, SmootherParams};
use smooth_engine::{
    fps_class, DynamicEngine, SessionClass, SessionEngine, SizeSource, SyntheticFleet,
};
use smooth_mpeg::GopPattern;

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

/// `K ∈ 0..=4`: `K = 0` is the class whose readiness must count picture
/// `i` itself (its actual size sets the departure), the `i + 1` term of
/// `need` that `K ≥ 1` never exercises.
fn arb_class() -> impl Strategy<Value = SessionClass> {
    (arb_pattern(), 0usize..=4, 1usize..=16, 0.0f64..0.3).prop_map(
        |(pattern, k, h, extra_slack)| {
            let d = (k as f64 + 1.0) * TAU + extra_slack;
            let params = SmootherParams::new(d, k, h, TAU).expect("feasible by construction");
            SessionClass::new(params, pattern)
        },
    )
}

/// A heterogeneous fleet: 1–3 classes, a few sessions each, plus the
/// tick count and the synthetic seed.
#[derive(Debug, Clone)]
struct FleetSpec {
    classes: Vec<SessionClass>,
    counts: Vec<usize>,
    ticks: u64,
    seed: u64,
}

fn arb_fleet() -> impl Strategy<Value = FleetSpec> {
    (
        proptest::collection::vec((arb_class(), 1usize..=6), 1..=3),
        1u64..60,
        any::<u64>(),
    )
        .prop_map(|(classed, ticks, seed)| {
            let (classes, counts) = classed.into_iter().unzip();
            FleetSpec {
                classes,
                counts,
                ticks,
                seed,
            }
        })
}

fn build(spec: &FleetSpec, shard_size: usize) -> SessionEngine {
    let mut engine = SessionEngine::with_shard_size(spec.classes.clone(), shard_size);
    for (class_id, &count) in spec.counts.iter().enumerate() {
        engine.add_sessions(class_id, count);
    }
    engine
}

/// The engine's size source uses the *first* class's pattern for the
/// type shape; decisions only care about the numbers, so that is fine
/// for heterogeneous fleets as long as both sides see the same stream.
fn fleet_source(spec: &FleetSpec) -> SyntheticFleet {
    SyntheticFleet {
        seed: spec.seed,
        pattern: spec.classes[0].pattern,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every session of the fleet decides exactly what a dedicated
    /// per-stream `OnlineSmoother` would, bit for bit.
    #[test]
    fn fleet_sessions_match_dedicated_smoothers(spec in arb_fleet()) {
        let source = fleet_source(&spec);
        let mut engine = build(&spec, 5);
        let sessions = engine.session_count();
        let mut got: Vec<Vec<PictureSchedule>> = vec![Vec::new(); sessions];
        for _ in 0..spec.ticks {
            engine.tick_serial_with(&source, &mut |sid, d| got[sid as usize].push(*d));
        }
        engine.finish_serial_with(&source, &mut |sid, d| got[sid as usize].push(*d));

        let mut sid = 0u64;
        for (class, &count) in spec.classes.iter().zip(&spec.counts) {
            for _ in 0..count {
                let mut online = OnlineSmoother::new(class.params, class.pattern);
                let mut want = Vec::new();
                for p in 0..spec.ticks {
                    want.extend(online.push(source.size(sid, p)));
                }
                want.extend(online.finish());
                prop_assert_eq!(
                    &got[sid as usize],
                    &want,
                    "session {} diverged from its dedicated smoother",
                    sid
                );
                sid += 1;
            }
        }
    }

    /// Shard size and thread count never change a bit: the digests (one
    /// per session, one global) are invariant across layouts.
    #[test]
    fn digests_invariant_across_shards_and_threads(spec in arb_fleet()) {
        let source = fleet_source(&spec);
        let mut baseline = build(&spec, 1024);
        for _ in 0..spec.ticks {
            baseline.tick(&source, 1);
        }
        baseline.finish(&source, 1);
        let want_digest = baseline.digest();
        let want_sessions = baseline.session_digests();
        prop_assert!(baseline.decisions() > 0);

        for shard_size in [1usize, 2, 3, 7] {
            for threads in [1usize, 2, 4, 9] {
                let mut engine = build(&spec, shard_size);
                for _ in 0..spec.ticks {
                    engine.tick(&source, threads);
                }
                engine.finish(&source, threads);
                prop_assert_eq!(
                    engine.digest(),
                    want_digest,
                    "digest diverged at shard_size={} threads={}",
                    shard_size,
                    threads
                );
                prop_assert_eq!(&engine.session_digests(), &want_sessions);
                prop_assert_eq!(engine.decisions(), baseline.decisions());
            }
        }

        // The session-major batched driver (the throughput path) lands
        // on the same bits as the lockstep tick loop.
        for (shard_size, threads) in [(1024usize, 1usize), (3, 1), (5, 4)] {
            let mut engine = build(&spec, shard_size);
            engine.run(&source, spec.ticks, true, threads);
            prop_assert_eq!(
                engine.digest(),
                want_digest,
                "batched run diverged at shard_size={} threads={}",
                shard_size,
                threads
            );
            prop_assert_eq!(&engine.session_digests(), &want_sessions);
            prop_assert_eq!(engine.decisions(), baseline.decisions());
            prop_assert_eq!(engine.ticks(), baseline.ticks());
        }
    }

    /// Retained history per session stays inside the fixed per-class
    /// slot no matter how many ticks run.
    #[test]
    fn history_bounded_for_any_run_length(
        spec in arb_fleet(),
        extra_ticks in 0u64..400,
    ) {
        let source = fleet_source(&spec);
        let mut engine = build(&spec, 4);
        let cap = (0..spec.classes.len())
            .map(|c| engine.class_ring_cap(c))
            .max()
            .expect("non-empty");
        for _ in 0..(spec.ticks + extra_ticks) {
            engine.tick(&source, 2);
            prop_assert!(engine.max_retained() <= cap);
        }
        engine.finish(&source, 2);
        prop_assert!(engine.max_retained() <= cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `n` sessions of one `fps_class(30)` class, every one joined at
    /// tick 0 with phase 0 and never leaving, fed `p` pictures: the
    /// wheel-scheduled [`DynamicEngine`] (arrivals at ticks 1, 1 + τ, …,
    /// 1 + (p−1)·τ, then `finish`) makes exactly the decisions of the
    /// lockstep [`SessionEngine`] (`p` ticks, then `finish`) — per-session
    /// digests and the decision count, for any arrival batch, shard size
    /// and thread count.
    #[test]
    fn dynamic_engine_matches_lockstep_engine(
        n in 1usize..=40,
        p in 1u64..=40,
        seed in any::<u64>(),
        shard_size in prop_oneof![Just(1usize), Just(3), Just(7), Just(64)],
        threads in 1usize..=3,
    ) {
        let class = fps_class(30);
        let source = SyntheticFleet { seed, pattern: class.class.pattern };

        let mut lockstep = SessionEngine::with_shard_size(vec![class.class.clone()], shard_size);
        lockstep.add_sessions(0, n);
        for _ in 0..p {
            lockstep.tick(&source, threads);
        }
        lockstep.finish(&source, threads);
        let want_sessions = lockstep.session_digests();
        prop_assert!(lockstep.decisions() > 0);

        for batch in [1u64, 16] {
            let mut dynamic = DynamicEngine::new(vec![class.clone()], n, shard_size)
                .expect("valid fleet");
            dynamic.set_arrival_batch(batch);
            for sid in 0..n as u64 {
                prop_assert_eq!(dynamic.join(0, sid, 0).expect("room"), sid);
            }
            dynamic.advance_to(&source, 1 + (p - 1) * class.period_ticks, threads);
            dynamic.finish(&source, threads);
            prop_assert_eq!(
                &dynamic.session_digests(),
                &want_sessions,
                "batch={} shard_size={} threads={}",
                batch,
                shard_size,
                threads
            );
            prop_assert_eq!(dynamic.decisions(), lockstep.decisions());
        }
    }
}
