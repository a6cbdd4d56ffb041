//! Step-function lanes: the production fluid multiplexer
//! (`FluidMux::run`, which posts each input into a `LiveMux` lane) must
//! be **bit-identical** to the `smooth-oracle` references — the serial
//! k-way-merge sweep and the quadratic materialize-then-resample loop —
//! for every thread count.
//!
//! The inputs reach past what the session engines emit: duplicate
//! breakpoints (zero-length pieces), sub-nanosecond slivers,
//! `StepFunction::zero`, negative and signed-zero breakpoints, a
//! million-second offset where one ulp is ~1.2e-10 s, windows that start
//! inside the inputs' domain or are empty, and up to ~200 sources, which
//! spreads a run over several LiveMux shards.

use proptest::prelude::*;
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

/// One source: its first breakpoint relative to the base, then
/// `(step, value)` pairs. A zero step repeats the previous breakpoint.
type SourceSpec = (f64, Vec<(f64, f64)>);

fn arb_source() -> impl Strategy<Value = Option<SourceSpec>> {
    let start = prop_oneof![Just(-0.0f64), Just(0.0f64), -2.0f64..2.0];
    let step = prop_oneof![
        Just(0.0f64),
        1.0e-13f64..1.0e-9,
        0.001f64..0.4,
        0.001f64..0.4,
    ];
    let value = prop_oneof![Just(0.0f64), 0.0f64..10.0e6, 0.0f64..10.0e6];
    let pieces = proptest::collection::vec((step, value), 1..8);
    // One source in eight is `StepFunction::zero()`.
    (0u32..8, start, pieces).prop_map(|(z, s, p)| (z != 0).then_some((s, p)))
}

/// Builds the source. Breakpoints are `base + start`, then running sums
/// of the steps; at base 0 the start is used as is, so a `-0.0` survives.
fn build(base: f64, spec: &Option<SourceSpec>) -> StepFunction {
    let Some((start, pieces)) = spec else {
        return StepFunction::zero();
    };
    let mut t = if base == 0.0 { *start } else { base + start };
    let mut breaks = vec![t];
    let mut values = Vec::with_capacity(pieces.len());
    for &(step, value) in pieces {
        t += step;
        breaks.push(t);
        values.push(value);
    }
    StepFunction::new(breaks, values)
}

/// Checks the production run against both oracles.
fn check(inputs: &[StepFunction], cap: f64, buf: f64, a: f64, b: f64, threads: usize) {
    let fluid = FluidMux {
        capacity_bps: cap,
        buffer_bits: buf,
    };
    let sweep = RateSweep {
        capacity_bps: cap,
        buffer_bits: buf,
    };
    let want = sweep.run(inputs, a, b);
    let got = fluid.run(inputs, a, b, threads);
    assert_eq!(bits(&got), bits(&want), "vs sweep, window [{a}, {b}]");
    let reference = mux::reference::run(&fluid, inputs, a, b);
    assert_eq!(bits(&got), bits(&reference), "vs reference");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn step_lanes_are_bit_identical_to_the_oracles(
        base in prop_oneof![Just(0.0f64), Just(1.0e6f64), Just(-1.0e6f64)],
        specs in proptest::collection::vec(arb_source(), 0..200),
        cap_per_source in 0.5e6f64..8.0e6,
        buf in 0.0f64..4.0e6,
        w0 in prop_oneof![Just(-0.25f64), 0.0f64..1.0, 0.0f64..1.0],
        len in prop_oneof![Just(-0.1f64), Just(0.0f64), 0.0f64..1.5, 0.0f64..1.5, Just(2.0f64)],
        threads in 1usize..9,
    ) {
        let inputs: Vec<StepFunction> = specs.iter().map(|s| build(base, s)).collect();
        // The window is placed relative to the joint domain of the
        // non-zero inputs, so it may start inside it, clip both ends, or
        // be empty or inverted.
        let live = || inputs.iter().zip(&specs).filter(|(_, s)| s.is_some()).map(|(f, _)| f);
        let lo = live().map(|f| f.domain_start()).fold(base, f64::min);
        let hi = live().map(|f| f.domain_end()).fold(base, f64::max);
        let a = lo + w0 * (hi - lo);
        let b = a + len * (hi - lo);
        let cap = cap_per_source * inputs.len().max(1) as f64;
        check(&inputs, cap, buf, a, b, threads);
    }
}

/// Signed zeros in both orders: `[-0.0, 0.0]` and `[0.0, -0.0]` are
/// non-decreasing breakpoint pairs, and both zeros are one instant.
#[test]
fn signed_zero_breakpoints_match_the_oracles() {
    let inputs = vec![
        StepFunction::new(vec![-1.0, -0.0, 0.0, 1.0], vec![3.0e6, 7.0e6, 1.0e6]),
        StepFunction::new(vec![-0.5, 0.0, -0.0, 0.5], vec![2.0e6, 9.0e6, 4.0e6]),
        StepFunction::new(vec![-0.0, 0.0], vec![5.0e6]),
        StepFunction::zero(),
    ];
    for (a, b) in [(-2.0, 2.0), (-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0)] {
        for threads in [1, 3] {
            check(&inputs, 4.0e6, 0.5e6, a, b, threads);
        }
    }
}

/// Every source but one joins before time zero: the oracle orders
/// negative breakpoints by value, and so must the lanes.
#[test]
fn negative_breakpoints_match_the_oracles() {
    let inputs: Vec<StepFunction> = (0..150)
        .map(|i| {
            let t0 = -3.0 + (i % 11) as f64 * 0.25;
            StepFunction::new(
                vec![t0, t0 + 0.5, t0 + 0.5, t0 + 1.75],
                vec![1.0e6 + i as f64 * 1.0e3, 8.0e6, 0.5e6],
            )
        })
        .chain(std::iter::once(StepFunction::zero()))
        .collect();
    for threads in [1, 2, 8] {
        check(&inputs, 150.0e6, 1.0e6, -4.0, 0.0, threads);
        check(&inputs, 150.0e6, 1.0e6, -2.0, -1.0, threads);
    }
}
