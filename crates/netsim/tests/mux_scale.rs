//! Scale smoke test: the production fluid multiplexer (`FluidMux::run`,
//! step-function lanes on `LiveMux`) at 10k sources.
//!
//! The old materialize-then-resample multiplexer was O(S²·B·log B) — at
//! 10 000 sources it would grind for hours. LiveMux is O(T·log S) and
//! must finish the same ensemble in single-digit seconds (asserted in
//! release builds only; debug builds run a 1k-source variant with no
//! runtime budget), on the serial sweep oracle's bits. Loss sanity is checked against a
//! 16-source reference run at identical per-source capacity and buffer:
//! a larger ensemble multiplexes *better*, so its loss ratio must not
//! exceed the small ensemble's by more than a small tolerance.

use std::time::Instant;

use smooth_core::RateSegment;
use smooth_metrics::StepFunction;
use smooth_netsim::{FluidMux, FluidMuxStats};
use smooth_oracle::{mux, RateSweep};
use smooth_rng::Rng;

fn bits(s: &FluidMuxStats) -> [u64; 6] {
    [
        s.arrived_bits.to_bits(),
        s.lost_bits.to_bits(),
        s.served_bits.to_bits(),
        s.final_queue_bits.to_bits(),
        s.max_queue_bits.to_bits(),
        s.utilization.to_bits(),
    ]
}

/// A bursty on/off-ish synthetic source: random piece durations in
/// [20 ms, 200 ms], rates uniform in [0, 4 Mbps] (mean ~2 Mbps).
fn synthetic_source(seed: u64, horizon: f64) -> StepFunction {
    let mut rng = Rng::seed_from_u64(seed);
    let mut segs = Vec::new();
    let mut t = 0.0;
    while t < horizon {
        let dur = rng.range_f64(0.02, 0.2);
        segs.push(RateSegment {
            start: t,
            end: (t + dur).min(horizon),
            rate: rng.range_f64(0.0, 4.0e6),
        });
        t += dur;
    }
    StepFunction::from_segments(&segs)
}

fn ensemble(count: usize, horizon: f64) -> Vec<StepFunction> {
    (0..count)
        .map(|s| synthetic_source(0x5eed ^ s as u64, horizon))
        .collect()
}

#[test]
fn ten_thousand_source_sweep_is_fast_and_sane() {
    let big_s: usize = if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    };
    let horizon = 4.0;
    // Per-source capacity sized for ~0.85 nominal load at the ~2 Mbps
    // synthetic mean; buffer ~2 kbit per source.
    let per_source_cap = 2.35e6;
    let per_source_buf = 2.0e3;

    let small_s = 16;
    let small = ensemble(small_s, horizon);
    let small_mux = FluidMux {
        capacity_bps: per_source_cap * small_s as f64,
        buffer_bits: per_source_buf * small_s as f64,
    };
    let small_ref = mux::reference::run(&small_mux, &small, 0.0, horizon);
    let balance = small_ref.arrived_bits
        - small_ref.lost_bits
        - small_ref.served_bits
        - small_ref.final_queue_bits;
    assert!(balance.abs() < 1.0, "reference conservation: {balance}");

    let big = ensemble(big_s, horizon);
    let fluid = FluidMux {
        capacity_bps: per_source_cap * big_s as f64,
        buffer_bits: per_source_buf * big_s as f64,
    };
    let t0 = Instant::now();
    let stats = fluid.run(&big, 0.0, horizon, 1);
    let wall = t0.elapsed().as_secs_f64();

    let balance = stats.arrived_bits - stats.lost_bits - stats.served_bits - stats.final_queue_bits;
    assert!(balance.abs() < 1.0, "mux conservation: {balance}");
    assert!(stats.arrived_bits > 0.0);
    assert!(
        (0.0..=1.0 + 1e-9).contains(&stats.utilization),
        "utilization {}",
        stats.utilization
    );

    // Statistical-multiplexing sanity: at identical per-source capacity
    // and buffer, the large ensemble must not lose a larger fraction
    // than the 16-source reference (modulo a small tolerance for the
    // different sample paths).
    assert!(
        stats.loss_ratio() <= small_ref.loss_ratio() + 0.01,
        "large-ensemble loss {} exceeds 16-source reference loss {}",
        stats.loss_ratio(),
        small_ref.loss_ratio()
    );

    // The serial sweep oracle and the threaded run agree bitwise at
    // scale too.
    let sweep = RateSweep {
        capacity_bps: fluid.capacity_bps,
        buffer_bits: fluid.buffer_bits,
    };
    assert_eq!(bits(&stats), bits(&sweep.run(&big, 0.0, horizon)));
    let threaded = fluid.run(&big, 0.0, horizon, 7);
    assert_eq!(bits(&stats), bits(&threaded));

    // Runtime budget: single-digit seconds at 10k sources, release only
    // (debug builds are ~an order of magnitude slower and smaller).
    if !cfg!(debug_assertions) {
        assert!(
            wall < 9.0,
            "10k-source mux took {wall:.2} s — budget is single-digit seconds"
        );
    }
}
