//! Churn scale smoke test: one million live sessions on heterogeneous
//! picture clocks with ~1 %/s of the fleet joining and leaving.
//!
//! The event-driven tentpole asserted end to end: a 24/25/30/60 fps mix
//! ramps to 1M live sessions, churns at 1 %/s, and decides two
//! simulated seconds of pictures inside the CI budget (release builds
//! only; debug builds run a 10k-session variant with no runtime
//! budget). A multi-thread replay of a 50k sub-fleet reproduces the
//! serial digests bit for bit.

use std::time::Instant;

use smooth_engine::{churn_trace, ChurnSpec, DynamicEngine, SyntheticFleet, TICKS_PER_SEC};

/// The standard heterogeneous mix: equal-weight 24/25/30/60 fps.
fn standard_mix() -> (Vec<smooth_engine::DynamicClass>, Vec<u32>) {
    let classes: Vec<_> = [24u64, 25, 30, 60]
        .iter()
        .map(|&fps| smooth_engine::fps_class(fps))
        .collect();
    let weights = vec![1u32; classes.len()];
    (classes, weights)
}

fn mixed_trace(initial: usize, seconds: u64, churn_ppm_per_sec: u64) -> smooth_engine::ChurnTrace {
    let (classes, weights) = standard_mix();
    churn_trace(&ChurnSpec {
        seed: 0xC_0041_7E57,
        initial,
        weights,
        periods: classes.iter().map(|c| c.period_ticks).collect(),
        ticks_per_sec: TICKS_PER_SEC,
        horizon: TICKS_PER_SEC * seconds,
        churn_ppm_per_sec,
    })
}

#[test]
fn million_session_churn_smoke() {
    let initial: usize = if cfg!(debug_assertions) {
        10_000
    } else {
        1_000_000
    };
    // Ramp second + one full churn second.
    let trace = mixed_trace(initial, 2, 10_000);
    let (classes, _) = standard_mix();
    let src = SyntheticFleet {
        seed: 0xC_0041_7E57,
        pattern: classes[0].class.pattern,
    };
    let mut engine = DynamicEngine::new(classes, trace.peak_live, 4096).unwrap();

    let t0 = Instant::now();
    engine.run_trace(&src, &trace, 1).unwrap();
    let wall = t0.elapsed().as_secs_f64();

    // The fleet is live at the horizon (joins ≈ leaves after the ramp).
    assert!(engine.live_sessions() > initial * 9 / 10);
    // Churn happened: more sessions ever existed than are live.
    assert!(engine.joined() as usize > initial);
    // The closing flush fed everyone: ~31 pictures/session/s on the mixed
    // clocks over the post-ramp second, and decisions track arrivals.
    let decided = engine.decisions();
    assert!(
        decided as usize > initial * 30,
        "only {decided} decisions for {initial} sessions"
    );
    // Bounded memory: resident slots track peak concurrency, not the
    // sessions that ever existed.
    assert!(engine.allocated_slots() <= engine.capacity().div_ceil(4096) * 4096);
    std::hint::black_box(engine.digest());

    // Runtime budget, release only (the CI smoke bound).
    if !cfg!(debug_assertions) {
        assert!(
            wall < 60.0,
            "{initial} sessions x 2 s churn took {wall:.1} s — budget is 60 s"
        );
    }
}

#[test]
fn churn_digests_invariant_across_threads_at_scale() {
    let initial: usize = if cfg!(debug_assertions) {
        2_000
    } else {
        50_000
    };
    // Hot churn (20 %/s) so thousands of join/leave/recycle events hit
    // the shards while threads race over them.
    let trace = mixed_trace(initial, 2, 200_000);
    let (classes, _) = standard_mix();
    let src = SyntheticFleet {
        seed: 0xC_0041_7E57,
        pattern: classes[0].class.pattern,
    };

    let mut serial = DynamicEngine::new(classes.clone(), trace.peak_live, 512).unwrap();
    serial.run_trace(&src, &trace, 1).unwrap();
    serial.finish(&src, 1);

    let mut parallel = DynamicEngine::new(classes, trace.peak_live, 512).unwrap();
    parallel.run_trace(&src, &trace, 4).unwrap();
    parallel.finish(&src, 4);

    assert_eq!(serial.digest(), parallel.digest());
    assert_eq!(serial.session_digests(), parallel.session_digests());
    assert_eq!(serial.decisions(), parallel.decisions());
}
