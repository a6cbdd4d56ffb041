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
//!    phase-0, zero-churn [`DynamicEngine`] fleet on its own clock
//!    decides bit-identically to the same fleet in lockstep on
//!    [`SessionEngine`] — both run the one slot store, so the dynamic
//!    engine's visit pattern, and a session taken out and restored
//!    mid-run (its header's cached `need` derived afresh), must change
//!    no bit.

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
    /// slot, with room for the next push, no matter how many ticks run.
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
            prop_assert!(engine.max_retained() < cap);
        }
        engine.finish(&source, 2);
        prop_assert!(engine.max_retained() < cap);
    }
}

/// A stream whose I pictures are `big` bits and every other picture
/// 2 kbit: each I picture stretches the delay toward `D`, the pattern
/// that fills a session's backlog.
struct Spiky {
    n: u64,
    big: u64,
}

impl SizeSource for Spiky {
    fn size(&self, _session: u64, picture: u64) -> u64 {
        if picture % self.n == 0 {
            self.big
        } else {
            2_000
        }
    }
}

/// `K ∈ 0..=4` and `D/τ` spread log-uniformly from the feasibility
/// minimum `K + 1` up to where the slot meets the `u16` guard.
fn arb_wide_class() -> impl Strategy<Value = SessionClass> {
    (arb_pattern(), 0usize..=4, 1usize..=16, 0.0f64..1.0).prop_map(|(pattern, k, h, u)| {
        let min = (k + 1) as f64;
        let max = 65_000.0f64;
        let d = TAU * (min * (max / min).powf(u * u));
        let params = SmootherParams::new(d, k, h, TAU).expect("feasible by construction");
        SessionClass::new(params, pattern)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 1's live bound holds for every class the engine admits:
    /// a session fed twice its delay's worth of pictures (at least a few
    /// hundred; at most 2 000, as a visit restages the whole retained
    /// history) never holds more than `ring_cap − 1` sizes after a
    /// visit, and the push path's `len == ring_cap` guard never fires.
    #[test]
    fn history_stays_within_the_live_bound(
        class in arb_wide_class(),
        spiky in any::<bool>(),
        big in 20_000u64..2_000_000,
        seed in any::<u64>(),
    ) {
        let lead = (class.params.delay_bound / class.params.tau).ceil() as u64;
        let ticks = (2 * lead + 200).min(2_000);
        let n = class.pattern.n() as u64;
        let fleet = SyntheticFleet { seed, pattern: class.pattern };
        let mut engine = SessionEngine::with_shard_size(vec![class], 4);
        engine.add_sessions(0, 2);
        let cap = engine.class_ring_cap(0);
        prop_assert!(cap <= u16::MAX as usize);
        for _ in 0..ticks {
            if spiky {
                engine.tick(&Spiky { n, big }, 1);
            } else {
                engine.tick(&fleet, 1);
            }
            prop_assert!(engine.max_retained() < cap);
        }
    }
}

/// The live bound is attained, so `ring_cap` has no slack to give: at
/// the smallest delay a class admits, `D = (K + 1)·τ`, with `K ≤ 1`, a
/// spiky stream leaves a session holding `ring_cap − 1` sizes after a
/// visit, and the next push fills the slot. A slot one word smaller
/// trips the push path's guard here.
#[test]
fn live_bound_is_attained_at_the_minimum_delay() {
    for (m, n) in [(3usize, 9usize), (3, 12), (1, 5)] {
        for k in 0..=1 {
            let pattern = GopPattern::new(m, n).expect("regular pattern");
            let d = (k + 1) as f64 * TAU;
            let params = SmootherParams::new(d, k, 9, TAU).expect("feasible");
            let mut engine =
                SessionEngine::with_shard_size(vec![SessionClass::new(params, pattern)], 4);
            engine.add_sessions(0, 1);
            let cap = engine.class_ring_cap(0);
            let source = Spiky {
                n: n as u64,
                big: 300_000,
            };
            let mut held = 0;
            for _ in 0..100 {
                engine.tick(&source, 1);
                held = held.max(engine.max_retained());
            }
            assert_eq!(held, cap - 1, "pattern ({m}, {n}), K = {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `n` sessions of one `fps_class(30)` class, every one joined at
    /// tick 0 with phase 0 and never leaving, fed `p` pictures: the
    /// [`DynamicEngine`] (arrivals at ticks 1, 1 + τ, …, 1 + (p−1)·τ,
    /// advanced in two calls with one session taken out and restored
    /// between them, then `finish`) makes exactly the decisions of the
    /// lockstep [`SessionEngine`] (`p` ticks, then `finish`) — per-session
    /// digests and the decision count, for any cut, shard size and
    /// thread count.
    #[test]
    fn dynamic_engine_matches_lockstep_engine(
        n in 1usize..=40,
        p in 1u64..=40,
        seed in any::<u64>(),
        shard_size in prop_oneof![Just(1usize), Just(3), Just(7), Just(64)],
        threads in 1usize..=3,
        cut_frac in 0.0f64..1.0,
    ) {
        let class = fps_class(30);
        let source = SyntheticFleet { seed, pattern: class.class.pattern };

        let mut lockstep = SessionEngine::with_shard_size(vec![class.class.clone()], shard_size);
        lockstep.add_sessions(0, n);
        for _ in 0..p {
            lockstep.tick(&source, threads);
        }
        lockstep.finish(&source, threads);
        prop_assert!(lockstep.decisions() > 0);

        let mut dynamic = DynamicEngine::new(vec![class.clone()], n, shard_size)
            .expect("valid fleet");
        for sid in 0..n as u64 {
            prop_assert_eq!(dynamic.join(0, sid, 0).expect("room"), sid);
        }
        let end = 1 + (p - 1) * class.period_ticks;
        let cut = (end as f64 * cut_frac) as u64;
        dynamic.advance_to(&source, cut, threads);
        let moved = seed % n as u64;
        let snap = dynamic.take(moved).expect("live session");
        dynamic.restore(snap).expect("its next arrival is ahead");
        dynamic.advance_to(&source, end, threads);
        dynamic.finish(&source, threads);
        prop_assert_eq!(
            &dynamic.session_digests(),
            &lockstep.session_digests(),
            "cut={} moved={} shard_size={} threads={}",
            cut,
            moved,
            shard_size,
            threads
        );
        prop_assert_eq!(dynamic.decisions(), lockstep.decisions());
    }
}
