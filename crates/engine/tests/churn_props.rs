//! The dynamic engine's load-bearing equalities, pinned property-style:
//!
//! 1. **Engine vs. scan.** Replaying a churn trace through the
//!    [`DynamicEngine`] yields the same per-session digests, fleet
//!    digest, and decision count as the frozen brute-force scan-all
//!    reference (`smooth_oracle::scanref`) — deferred feeding, the
//!    compact store, and slot recycling are invisible.
//! 2. **Determinism.** The digests are invariant under thread count and
//!    shard size, under any cut of the trace into calls (bare or fused
//!    with the link, whose digest is invariant too), and under mid-run
//!    snapshot/restore migration, rebalancing, and checkpoint/recovery.
//! 3. **Slot recycling.** Interleaved add/remove/re-add over the shards
//!    leaves every *surviving* session with exactly the digest a fresh
//!    engine fed only the survivors' traces produces — a recycled slot
//!    carries nothing over from its previous occupant.

use proptest::prelude::*;
use smooth_core::SmootherParams;
use smooth_engine::{
    churn_trace, mux_digest, ChurnEvent, ChurnSpec, ChurnTrace, DynamicClass, DynamicEngine,
    LiveMux, MuxConfig, SessionClass, SyntheticFleet, TICKS_PER_SEC,
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

/// A scenario for cutting: broadcast-clock classes (τ = one period on
/// the 600 ticks/s scheduler, so lane times track the link clock) and a
/// horizon of 0.5–2.5 s, long enough for slices past
/// [`MUX_INGEST_SPAN_TICKS`](smooth_engine::MUX_INGEST_SPAN_TICKS).
fn arb_long_scenario() -> impl Strategy<Value = Scenario> {
    let class = (
        arb_pattern(),
        prop_oneof![Just(24u64), Just(25), Just(30), Just(60)],
        1usize..=3,
        1usize..=12,
        0.0f64..0.2,
    )
        .prop_map(|(pattern, fps, k, h, extra_slack)| {
            let tau = 1.0 / fps as f64;
            let d = (k as f64 + 1.0) * tau + extra_slack;
            DynamicClass {
                class: SessionClass::new(
                    SmootherParams::new(d, k, h, tau).expect("feasible by construction"),
                    pattern,
                ),
                period_ticks: TICKS_PER_SEC / fps,
            }
        });
    (
        proptest::collection::vec((class, 1u32..=3), 1..=3),
        1usize..=8,
        300u64..1500,
        0u64..3_000_000,
        any::<u64>(),
    )
        .prop_map(|(weighted, initial, horizon, churn_ppm_per_sec, seed)| {
            let (classes, weights): (Vec<_>, Vec<_>) = weighted.into_iter().unzip();
            let spec = ChurnSpec {
                seed,
                initial,
                weights,
                periods: classes.iter().map(|c| c.period_ticks).collect(),
                ticks_per_sec: TICKS_PER_SEC,
                horizon,
                churn_ppm_per_sec,
            };
            Scenario {
                trace: churn_trace(&spec),
                classes,
                seed,
            }
        })
}

/// `trace` cut into consecutive slices of the given widths (cycled),
/// each replaying its events up to and including its horizon; the last
/// ends at the trace horizon.
fn cut(trace: &ChurnTrace, widths: &[u64]) -> Vec<ChurnTrace> {
    let mut out = Vec::new();
    let (mut lo, mut start) = (0, 0);
    for &width in widths.iter().cycle() {
        let horizon = (start + width - 1).min(trace.horizon);
        let hi = lo + trace.events[lo..].partition_point(|(t, _)| *t <= horizon);
        out.push(ChurnTrace {
            events: trace.events[lo..hi].to_vec(),
            horizon,
            peak_live: trace.peak_live,
        });
        lo = hi;
        start = horizon + 1;
        if horizon == trace.horizon {
            break;
        }
    }
    out
}

/// A tick in `[done.horizon, next_event − 1]`, capped at `next`'s
/// horizon: where a caller may stop the engine between two slices
/// without passing a churn tick.
fn stop_between(done: &ChurnTrace, next: &ChurnTrace, r: u64) -> u64 {
    let first = next.events.first().map_or(next.horizon + 1, |&(t, _)| t);
    let last = (first - 1).min(next.horizon);
    done.horizon + r % (last - done.horizon + 1)
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

    /// Engine vs. frozen scan-all reference, with and without the final
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cut of a trace into calls never matters: slices of 1–400
    /// ticks (shorter than every period, and longer than a mux ingest
    /// span), then one period less one tick, one period and one period
    /// and a tick of every class — either side of the one-arrival visit
    /// that skips its division — with the engine stopped at a random
    /// tick between slices
    /// (`advance_to` bare, an empty fused call fused) and a random
    /// session taken out and restored there, replay to the scan
    /// reference's digests and decision count, bare and fused, at one
    /// and two threads — and fused, to the mux digest of one
    /// whole-trace fused call.
    #[test]
    fn any_cut_of_the_trace_matches_scan_reference(
        s in arb_long_scenario(),
        widths in proptest::collection::vec(1u64..=400, 1..=6),
        salt in any::<u64>(),
    ) {
        let src = source(&s);
        let cap = capacity(&s);
        let want = run_scan(&s.classes, &s.trace, &src, true);
        let cfg = MuxConfig {
            capacity_bps: 0.5e6 * s.trace.peak_live as f64,
            buffer_bits: 2.0e5,
            t_start: 0.0,
            t_end: s.trace.horizon as f64 / TICKS_PER_SEC as f64,
            descriptor_rho_bps: 1.0e6,
        };
        let joins = s.trace.total_joins();
        let engine = || DynamicEngine::new(s.classes.clone(), cap, 3).expect("valid");

        let mut whole = engine();
        let mut mux = LiveMux::with_joins(joins, 4, cfg);
        whole.run_trace_fused(&src, &s.trace, 1, &mut mux).expect("fits");
        let stats = whole.finish_fused(&src, 1, &mut mux);
        prop_assert_eq!(whole.digest(), want.digest);
        let want_mux = mux_digest(&stats, &mux.descriptors());

        let mut widths = widths;
        for c in &s.classes {
            let p = c.period_ticks;
            widths.extend([(p - 1).max(1), p, p + 1]);
        }
        let slices = cut(&s.trace, &widths);
        for threads in [1usize, 2] {
            for fused in [false, true] {
                let mut rng = salt | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut e = engine();
                let mut mux = LiveMux::with_joins(joins, 4, cfg);
                for (k, slice) in slices.iter().enumerate() {
                    if fused {
                        e.run_trace_fused(&src, slice, threads, &mut mux).expect("fits");
                    } else {
                        e.run_trace(&src, slice, threads).expect("fits");
                    }
                    let Some(following) = slices.get(k + 1) else { break };
                    let stop = stop_between(slice, following, next());
                    if fused {
                        let empty = ChurnTrace {
                            events: Vec::new(),
                            horizon: stop,
                            peak_live: s.trace.peak_live,
                        };
                        e.run_trace_fused(&src, &empty, threads, &mut mux).expect("fits");
                    } else {
                        e.advance_to(&src, stop, threads);
                    }
                    if e.live_sessions() > 0 {
                        let sid = next() % e.joined();
                        if let Ok(snap) = e.take(sid) {
                            e.restore(snap).expect("restores where it was taken");
                        }
                    }
                }
                if fused {
                    let stats = e.finish_fused(&src, threads, &mut mux);
                    prop_assert_eq!(
                        mux_digest(&stats, &mux.descriptors()),
                        want_mux,
                        "mux digest, threads={} widths={:?}",
                        threads,
                        &widths
                    );
                } else {
                    e.finish(&src, threads);
                }
                prop_assert_eq!(
                    &e.session_digests(),
                    &want.session_digests,
                    "fused={} threads={} widths={:?}",
                    fused,
                    threads,
                    &widths
                );
                prop_assert_eq!(e.decisions(), want.decisions);
            }
        }
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
    // The 64 B header, the 8 B session id and the 28-word ring Theorem 1
    // bounds (lead 2 at D/τ = 3, a 2N = 18 estimator window, N − 1 = 8
    // of pattern alignment): 184 B, all of it in flat arrays. A slot
    // keeps no lookahead; each decision resolves it from the ring.
    let slot_bytes = engine.state_bytes_per_slot();
    assert!(
        slot_bytes <= 184,
        "slot bytes {slot_bytes} exceed the live bound"
    );
}
