//! The oracle self-check: the serial k-way-merge sweep
//! [`smooth_oracle::RateSweep`] must be **bit-identical** — not merely
//! within tolerance — to the frozen quadratic oracle
//! [`smooth_oracle::mux::reference`] on every input, and so must the
//! production `FluidMux::run`. All of them share the canonical `SumTree`
//! summation order and the exact (`==`) breakpoint dedup, which is what
//! makes `to_bits` equality an achievable spec rather than a flaky
//! aspiration. `smooth-netsim`'s `step_lane_props` holds the production
//! path to both over a wider input space.

use proptest::prelude::*;
use smooth_core::RateSegment;
use smooth_metrics::StepFunction;
use smooth_netsim::{FluidMux, FluidMuxStats};
use smooth_oracle::{mux, RateSweep};

/// All six stat fields as raw bits, so `assert_eq!` means bit-identical.
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

/// Builds a piecewise-constant source starting at `base + offset`.
fn build_source(base: f64, offset: f64, pieces: &[(f64, f64)]) -> StepFunction {
    let mut segs = Vec::with_capacity(pieces.len());
    let mut t = base + offset;
    for &(dur, rate) in pieces {
        segs.push(RateSegment {
            start: t,
            end: t + dur,
            rate,
        });
        t += dur;
    }
    StepFunction::from_segments(&segs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sweep and the production multiplexer (any thread count) match
    /// the frozen quadratic reference bit-for-bit over random source ensembles,
    /// offsets, capacities, and buffer sizes — including windows parked
    /// a million seconds from the origin, where one f64 ulp is ~1.2e-10 s
    /// and any epsilon-based breakpoint handling would misbehave.
    #[test]
    fn streaming_sweep_is_bit_identical_to_reference(
        base in prop_oneof![Just(0.0f64), Just(1.0e6f64)],
        sources in proptest::collection::vec(
            (
                0.0f64..2.0,
                proptest::collection::vec((0.001f64..0.4, 0.0f64..10.0e6), 1..10),
            ),
            1..24,
        ),
        cap in 1.0e6f64..20.0e6,
        buf in 0.0f64..4.0e6,
        threads in 1usize..9,
    ) {
        let inputs: Vec<StepFunction> = sources
            .iter()
            .map(|(off, pieces)| build_source(base, *off, pieces))
            .collect();
        let horizon = inputs
            .iter()
            .map(|f| f.domain_end())
            .fold(base, f64::max);
        let fluid = FluidMux { capacity_bps: cap, buffer_bits: buf };
        let oracle = mux::reference::run(&fluid, &inputs, base, horizon);
        let sweep = RateSweep { capacity_bps: cap, buffer_bits: buf };
        prop_assert_eq!(bits(&oracle), bits(&sweep.run(&inputs, base, horizon)));

        let fast = fluid.run(&inputs, base, horizon, threads);
        prop_assert_eq!(bits(&oracle), bits(&fast));
    }
}

/// Regression for the scale-unsafe cut dedup: the old `FluidMux::run`
/// merged cuts closer than an **absolute** `1e-12`, which silently
/// vanished sub-epsilon bursts near `t = 0`. Exact dedup must keep them.
#[test]
fn sub_epsilon_sliver_near_origin_is_integrated() {
    // All of the source's mass sits in a 1e-13-second sliver: the old
    // dedup collapsed its two cuts into one and integrated zero bits.
    let sliver = StepFunction::from_segments(&[RateSegment {
        start: 1.0,
        end: 1.0 + 1e-13,
        rate: 5.0e6,
    }]);
    let fluid = FluidMux {
        capacity_bps: 1.0e6,
        buffer_bits: 1.0e3,
    };
    let stats = fluid.run(std::slice::from_ref(&sliver), 0.0, 2.0, 1);
    let expected = 5.0e6 * ((1.0 + 1e-13) - 1.0);
    assert!(
        stats.arrived_bits > 0.0,
        "sub-epsilon sliver was dropped (the old 1e-12 dedup bug)"
    );
    assert!(
        (stats.arrived_bits - expected).abs() <= 1e-2 * expected,
        "arrived {} != expected {expected}",
        stats.arrived_bits
    );
    let oracle = mux::reference::run(&fluid, std::slice::from_ref(&sliver), 0.0, 2.0);
    assert_eq!(bits(&oracle), bits(&stats));
    let sweep = RateSweep {
        capacity_bps: fluid.capacity_bps,
        buffer_bits: fluid.buffer_bits,
    };
    let swept = sweep.run(std::slice::from_ref(&sliver), 0.0, 2.0);
    assert_eq!(bits(&oracle), bits(&swept));
}

/// Regression pinning behaviour for windows starting near `t = 1e6` s,
/// where one ulp (~1.2e-10 s) dwarfs the old absolute dedup epsilon:
/// breakpoints nanoseconds apart must stay distinct and both engines
/// must agree bitwise.
#[test]
fn window_at_a_million_seconds_is_exact() {
    let t0 = 1.0e6;
    let a = StepFunction::from_segments(&[
        RateSegment {
            start: t0,
            end: t0 + 1e-9,
            rate: 8.0e6,
        },
        RateSegment {
            start: t0 + 1e-9,
            end: t0 + 1.5,
            rate: 2.0e6,
        },
    ]);
    let b = StepFunction::from_segments(&[RateSegment {
        start: t0 + 0.25,
        end: t0 + 2.0,
        rate: 3.0e6,
    }]);
    let inputs = vec![a, b];
    let fluid = FluidMux {
        capacity_bps: 4.0e6,
        buffer_bits: 0.5e6,
    };
    let oracle = mux::reference::run(&fluid, &inputs, t0, t0 + 2.0);
    let sweep = RateSweep {
        capacity_bps: fluid.capacity_bps,
        buffer_bits: fluid.buffer_bits,
    };
    assert_eq!(bits(&oracle), bits(&sweep.run(&inputs, t0, t0 + 2.0)));
    let fast = fluid.run(&inputs, t0, t0 + 2.0, 1);
    assert_eq!(bits(&oracle), bits(&fast));
    assert!(fast.arrived_bits > 0.0);
    let balance = fast.arrived_bits - fast.lost_bits - fast.served_bits - fast.final_queue_bits;
    assert!(balance.abs() < 1.0, "conservation violated by {balance}");
}

/// The zero-length-window guard: utilization must be 0, not NaN.
#[test]
fn zero_length_window_has_zero_utilization_not_nan() {
    let src = StepFunction::from_segments(&[RateSegment {
        start: 0.0,
        end: 1.0,
        rate: 1.0e6,
    }]);
    let fluid = FluidMux {
        capacity_bps: 1.0e6,
        buffer_bits: 0.0,
    };
    for (s, e) in [(0.5, 0.5), (2.0, 1.0)] {
        let stats = fluid.run(std::slice::from_ref(&src), s, e, 1);
        assert_eq!(stats.utilization, 0.0, "window [{s}, {e}]");
        assert!(!stats.utilization.is_nan());
        assert_eq!(stats.arrived_bits, 0.0);
    }
}
