//! The dynamic engine's load-bearing equalities, pinned property-style:
//!
//! 1. **Wheel vs. scan.** Replaying a churn trace through the
//!    timing-wheel [`DynamicEngine`] yields the same per-session
//!    digests, fleet digest, and decision count as the frozen
//!    brute-force scan-all reference (`smooth_oracle::scanref`) —
//!    the wheel, the compact store, and slot recycling are invisible.
//! 2. **Determinism.** The digests are invariant under thread count and
//!    shard size, and under mid-run snapshot/restore migration,
//!    rebalancing, and checkpoint/recovery.
//! 3. **Slot recycling.** Interleaved add/remove/re-add over the shards
//!    leaves every *surviving* session with exactly the digest a fresh
//!    engine fed only the survivors' traces produces — a recycled slot
//!    carries nothing over from its previous occupant.

use proptest::prelude::*;
use smooth_core::SmootherParams;
use smooth_engine::{
    churn_trace, ChurnEvent, ChurnSpec, ChurnTrace, DynamicClass, DynamicEngine, SessionClass,
    SyntheticFleet,
};
use smooth_mpeg::GopPattern;
use smooth_oracle::scanref::run_scan;

const TAU: f64 = 1.0 / 30.0;

fn arb_pattern() -> impl Strategy<Value = GopPattern> {
    prop_oneof![Just((3usize, 9usize)), Just((2, 6)), Just((1, 5))]
        .prop_map(|(m, n)| GopPattern::new(m, n).expect("regular pattern"))
}

/// A dynamic class: smoother parameters plus a small period in ticks.
fn arb_dynamic_class() -> impl Strategy<Value = DynamicClass> {
    (
        arb_pattern(),
        1usize..=3,
        1usize..=12,
        0.0f64..0.2,
        1u64..=7,
    )
        .prop_map(|(pattern, k, h, extra_slack, period_ticks)| {
            let d = (k as f64 + 1.0) * TAU + extra_slack;
            let params = SmootherParams::new(d, k, h, TAU).expect("feasible by construction");
            DynamicClass {
                class: SessionClass::new(params, pattern),
                period_ticks,
            }
        })
}

/// A churn scenario: 1–3 classes with weights, a small initial fleet, a
/// short horizon, and a hot churn rate so joins *and* leaves actually
/// happen inside the horizon.
#[derive(Debug, Clone)]
struct Scenario {
    classes: Vec<DynamicClass>,
    trace: ChurnTrace,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec((arb_dynamic_class(), 1u32..=3), 1..=3),
        1usize..=12,
        20u64..200,
        any::<u64>(),
    )
        .prop_map(|(weighted, initial, horizon, seed)| {
            let (classes, weights): (Vec<_>, Vec<_>) = weighted.into_iter().unzip();
            let spec = ChurnSpec {
                seed,
                initial,
                weights,
                periods: classes.iter().map(|c| c.period_ticks).collect(),
                ticks_per_sec: 10,
                horizon,
                // Very hot churn (500 %/s of the initial fleet) so short
                // horizons still exercise leave + recycle + re-add.
                churn_ppm_per_sec: 5_000_000,
            };
            Scenario {
                trace: churn_trace(&spec),
                classes,
                seed,
            }
        })
}

fn source(s: &Scenario) -> SyntheticFleet {
    SyntheticFleet {
        seed: s.seed,
        pattern: s.classes[0].class.pattern,
    }
}

fn capacity(s: &Scenario) -> usize {
    s.trace.peak_live.max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wheel vs. frozen scan-all reference, with and without the final
    /// end-of-run drain.
    #[test]
    fn wheel_matches_scan_reference(s in arb_scenario()) {
        let src = source(&s);
        for finish in [false, true] {
            let want = run_scan(&s.classes, &s.trace, &src, finish);
            let mut engine =
                DynamicEngine::new(s.classes.clone(), capacity(&s), 4).expect("valid config");
            engine.run_trace(&src, &s.trace, 1).expect("trace fits capacity");
            if finish {
                engine.finish(&src, 1);
            }
            prop_assert_eq!(
                engine.session_digests(),
                want.session_digests,
                "finish={} seed={}",
                finish,
                s.seed
            );
            prop_assert_eq!(engine.digest(), want.digest);
            prop_assert_eq!(engine.decisions(), want.decisions);
        }
    }

    /// Thread count and shard size never change a bit.
    #[test]
    fn churn_digests_invariant_across_threads_and_shards(s in arb_scenario()) {
        let src = source(&s);
        let cap = capacity(&s);
        let mut baseline = DynamicEngine::new(s.classes.clone(), cap, 64).expect("valid");
        baseline.run_trace(&src, &s.trace, 1).expect("fits");
        baseline.finish(&src, 1);
        let want_digest = baseline.digest();
        let want_sessions = baseline.session_digests();

        for shard_size in [1usize, 3, 7] {
            for threads in [1usize, 2, 4] {
                let mut engine =
                    DynamicEngine::new(s.classes.clone(), cap, shard_size).expect("valid");
                engine.run_trace(&src, &s.trace, threads).expect("fits");
                engine.finish(&src, threads);
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
    }

    /// The arrival-batch quantum is a pure throughput knob: replays at
    /// B ∈ {1, 2, 7, 16} all match the frozen scan-all reference bit
    /// for bit. B=1 is the unbatched wheel (one arrival per visit), so
    /// this pins batching itself, not just batch-vs-batch agreement.
    #[test]
    fn churn_digests_invariant_in_arrival_batch(s in arb_scenario()) {
        let src = source(&s);
        let cap = capacity(&s);
        let want = run_scan(&s.classes, &s.trace, &src, true);
        for batch in [1u64, 2, 7, 16] {
            let mut engine =
                DynamicEngine::new(s.classes.clone(), cap, 4).expect("valid");
            engine.set_arrival_batch(batch);
            engine.run_trace(&src, &s.trace, 1).expect("fits");
            engine.finish(&src, 1);
            prop_assert_eq!(
                engine.digest(),
                want.digest,
                "digest diverged at batch={} seed={}",
                batch,
                s.seed
            );
            prop_assert_eq!(&engine.session_digests(), &want.session_digests);
            prop_assert_eq!(engine.decisions(), want.decisions);
        }
    }

    /// Mid-trace rebalancing and checkpoint/recovery continue
    /// bit-identically: split the trace at a cut tick, disturb the
    /// engine there, replay the remainder.
    #[test]
    fn migration_and_recovery_preserve_digests(s in arb_scenario(), cut_frac in 0.1f64..0.9) {
        let src = source(&s);
        let cap = capacity(&s);
        let cut = ((s.trace.horizon as f64 * cut_frac) as u64).max(1);
        let head = ChurnTrace {
            events: s.trace.events.iter().filter(|(t, _)| *t < cut).cloned().collect(),
            horizon: cut - 1,
            peak_live: s.trace.peak_live,
        };
        let tail = ChurnTrace {
            events: s.trace.events.iter().filter(|(t, _)| *t >= cut).cloned().collect(),
            horizon: s.trace.horizon,
            peak_live: s.trace.peak_live,
        };

        let mut plain = DynamicEngine::new(s.classes.clone(), cap, 4).expect("valid");
        plain.run_trace(&src, &s.trace, 1).expect("fits");
        plain.finish(&src, 1);

        let mut disturbed = DynamicEngine::new(s.classes.clone(), cap, 4).expect("valid");
        disturbed.run_trace(&src, &head, 1).expect("fits");
        disturbed.rebalance();
        let cp = disturbed.checkpoint();
        let mut recovered =
            DynamicEngine::restore_checkpoint(s.classes.clone(), cap, 4, &cp).expect("valid");
        recovered.run_trace(&src, &tail, 1).expect("fits");
        recovered.finish(&src, 1);

        prop_assert_eq!(plain.digest(), recovered.digest());
        prop_assert_eq!(plain.session_digests(), recovered.session_digests());
        prop_assert_eq!(plain.decisions(), recovered.decisions());
    }

    /// Slot recycling: after interleaved add/remove/re-add, every
    /// surviving session's digest equals what a fresh engine fed *only
    /// the survivors' traces* (same streams, same join ticks and phases,
    /// no churn) produces — recycled slots carry nothing over.
    #[test]
    fn recycled_slots_match_fresh_engine_of_survivors(s in arb_scenario()) {
        let src = source(&s);
        let mut engine =
            DynamicEngine::new(s.classes.clone(), capacity(&s), 3).expect("valid");
        engine.run_trace(&src, &s.trace, 1).expect("fits");
        engine.finish(&src, 1);
        let churned = engine.session_digests();

        // Survivors: joins whose sid never appears in a Leave.
        let departed: std::collections::HashSet<u64> = s
            .trace
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                ChurnEvent::Leave { sid } => Some(*sid),
                _ => None,
            })
            .collect();
        let mut surviving_joins = Vec::new();
        let mut sid = 0u64;
        for (t, e) in &s.trace.events {
            if let ChurnEvent::Join { .. } = e {
                if !departed.contains(&sid) {
                    surviving_joins.push((*t, *e));
                }
                sid += 1;
            }
        }
        prop_assume!(!surviving_joins.is_empty());
        let survivors_trace = ChurnTrace {
            events: surviving_joins.clone(),
            horizon: s.trace.horizon,
            peak_live: surviving_joins.len(),
        };
        let mut fresh =
            DynamicEngine::new(s.classes.clone(), surviving_joins.len(), 3).expect("valid");
        fresh.run_trace(&src, &survivors_trace, 1).expect("fits");
        fresh.finish(&src, 1);
        let fresh_digests = fresh.session_digests();

        // Fresh sid i is the i-th surviving join; map back to the
        // churned engine's sid via the stream id (streams are unique).
        let mut fresh_i = 0usize;
        let mut churned_sid = 0u64;
        let mut checked = 0usize;
        for (_, e) in &s.trace.events {
            if let ChurnEvent::Join { stream, .. } = e {
                if !departed.contains(&churned_sid) {
                    let fe = &survivors_trace.events[fresh_i].1;
                    if let ChurnEvent::Join { stream: fs, .. } = fe {
                        prop_assert_eq!(*fs, *stream, "survivor order preserved");
                    }
                    prop_assert_eq!(
                        churned[churned_sid as usize],
                        fresh_digests[fresh_i],
                        "survivor stream {} diverged after slot recycling",
                        stream
                    );
                    fresh_i += 1;
                    checked += 1;
                }
                churned_sid += 1;
            }
        }
        prop_assert!(checked > 0);
    }
}

/// Bounded memory under heavy churn: 100k+ churn events recycle slots
/// instead of growing the shards — resident slots never exceed the
/// engine capacity (peak concurrency), no matter how many sessions pass
/// through.
#[test]
fn hundred_k_churn_events_keep_memory_bounded() {
    let pattern = GopPattern::new(3, 9).unwrap();
    let class = DynamicClass {
        class: SessionClass::new(SmootherParams::new(0.1, 1, 4, TAU).unwrap(), pattern),
        period_ticks: 3,
    };
    let spec = ChurnSpec {
        seed: 0xC0FFEE,
        initial: 500,
        weights: vec![1],
        periods: vec![3],
        ticks_per_sec: 20,
        horizon: 2_100,
        // 100 %/s of the initial fleet: 25 joins + 25 leaves per tick-
        // second — over the 105 simulated seconds, 100k+ events.
        churn_ppm_per_sec: 1_000_000,
    };
    let trace = churn_trace(&spec);
    assert!(
        trace.events.len() >= 100_000,
        "trace has only {} events",
        trace.events.len()
    );
    let shard_size = 64usize;
    let cap = trace.peak_live;
    let mut engine = DynamicEngine::new(vec![class], cap, shard_size).unwrap();
    let src = SyntheticFleet {
        seed: 0xC0FFEE,
        pattern,
    };
    engine.run_trace(&src, &trace, 1).unwrap();
    // Far more sessions passed through than are ever resident…
    assert!(engine.joined() as usize > 50 * cap);
    // …yet resident slots are bounded by the peak-concurrency capacity
    // (rounded up to whole shards), not by the 50k+ sessions that ever
    // lived: churn recycles slots instead of growing the arrays.
    let slot_budget = cap.div_ceil(shard_size) * shard_size;
    assert!(
        engine.allocated_slots() <= slot_budget,
        "{} slots resident for peak {} live",
        engine.allocated_slots(),
        cap
    );
    let slot_bytes = engine.state_bytes_per_slot();
    assert!(
        slot_bytes < 1024,
        "slot bytes {slot_bytes} not a small constant"
    );
}
