//! Property tests for the multiplexer models: conservation laws and
//! monotonicities that must hold for every input, plus a fluid-vs-cell
//! cross-validation.

use proptest::prelude::*;
use smooth_core::RateSegment;
use smooth_metrics::StepFunction;
use smooth_netsim::{cell_times, CellMux, FluidMux};

/// Strategy: a random piecewise-constant source over [0, ~5 s] with rates
/// up to 10 Mbps.
fn arb_source() -> impl Strategy<Value = StepFunction> {
    proptest::collection::vec((0.01f64..0.5, 0.0f64..10.0e6), 1..12).prop_map(|pieces| {
        let mut segs = Vec::with_capacity(pieces.len());
        let mut t = 0.0;
        for (dur, rate) in pieces {
            segs.push(RateSegment {
                start: t,
                end: t + dur,
                rate,
            });
            t += dur;
        }
        StepFunction::from_segments(&segs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Conservation: offered = lost + served + final queue, exactly.
    #[test]
    fn fluid_mux_conserves_bits(
        sources in proptest::collection::vec(arb_source(), 1..5),
        cap in 1.0e6f64..20.0e6,
        buf in 0.0f64..4.0e6,
    ) {
        let horizon = sources.iter().map(|s| s.domain_end()).fold(0.0f64, f64::max);
        let stats = FluidMux { capacity_bps: cap, buffer_bits: buf }.run(&sources, 0.0, horizon, 1);
        let balance = stats.arrived_bits - stats.lost_bits - stats.served_bits - stats.final_queue_bits;
        prop_assert!(balance.abs() < 1.0, "conservation violated by {balance}");
        prop_assert!(stats.lost_bits >= -1e-9);
        prop_assert!(stats.max_queue_bits <= buf + 1e-6);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&stats.utilization));
    }

    /// Loss is non-increasing in buffer size and in capacity, on the SAME
    /// sample path.
    #[test]
    fn fluid_mux_loss_monotonicities(
        sources in proptest::collection::vec(arb_source(), 1..4),
        cap in 1.0e6f64..15.0e6,
    ) {
        let horizon = sources.iter().map(|s| s.domain_end()).fold(0.0f64, f64::max);
        let loss = |c: f64, b: f64| {
            FluidMux { capacity_bps: c, buffer_bits: b }.run(&sources, 0.0, horizon, 1).loss_ratio()
        };
        let l0 = loss(cap, 0.0);
        let l1 = loss(cap, 1.0e6);
        let l2 = loss(cap, 4.0e6);
        prop_assert!(l1 <= l0 + 1e-12, "buffer monotonicity: {l1} > {l0}");
        prop_assert!(l2 <= l1 + 1e-12, "buffer monotonicity: {l2} > {l1}");
        let lc = loss(cap * 1.5, 1.0e6);
        prop_assert!(lc <= l1 + 1e-12, "capacity monotonicity: {lc} > {l1}");
    }

    /// Packetizer: the cell count equals ceil(bits / payload) and the
    /// times are sorted within the source's domain.
    #[test]
    fn packetizer_invariants(source in arb_source()) {
        let pieces: Vec<RateSegment> = source
            .pieces()
            .map(|(s, e, r)| RateSegment { start: s, end: e, rate: r })
            .collect();
        let total: f64 = pieces.iter().map(|s| s.rate * (s.end - s.start)).sum();
        let cells = cell_times(&pieces);
        let expected = (total / smooth_netsim::CELL_PAYLOAD_BITS).ceil() as usize;
        prop_assert_eq!(cells.len(), expected);
        for w in cells.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        if let (Some(&first), Some(&last)) = (cells.first(), cells.last()) {
            prop_assert!(first >= source.domain_start() - 1e-9);
            prop_assert!(last <= source.domain_end() + 1e-9);
        }
    }

    /// Fluid and cell models agree in the clear-cut regimes: both lossless
    /// when overprovisioned, both lossy when drastically overloaded.
    #[test]
    fn fluid_and_cell_models_agree_at_the_extremes(source in arb_source()) {
        let pieces: Vec<RateSegment> = source
            .pieces()
            .map(|(s, e, r)| RateSegment { start: s, end: e, rate: r })
            .collect();
        let peak = pieces.iter().map(|s| s.rate).fold(0.0f64, f64::max);
        prop_assume!(peak > 1.0e6);
        let total: f64 = pieces.iter().map(|s| s.rate * (s.end - s.start)).sum();
        prop_assume!(total > 10.0 * smooth_netsim::CELL_PAYLOAD_BITS);
        let horizon = source.domain_end();
        let cells = cell_times(&pieces);

        // Overprovisioned: capacity 2x the peak (cell mux carries 53/48
        // overhead, so 2x covers it), generous buffers.
        let over_fluid = FluidMux { capacity_bps: 2.0 * peak, buffer_bits: 1.0e6 }
            .run(std::slice::from_ref(&source), 0.0, horizon, 1);
        let over_cell =
            CellMux { capacity_bps: 2.0 * peak, buffer_cells: 256 }.run(&cells);
        prop_assert_eq!(over_fluid.loss_ratio(), 0.0);
        prop_assert_eq!(over_cell.loss_ratio(), 0.0);

        // Starved: capacity a tenth of the mean rate, tiny buffers.
        let mean = total / horizon;
        let starved_fluid = FluidMux { capacity_bps: mean / 10.0, buffer_bits: 424.0 * 4.0 }
            .run(&[source], 0.0, horizon, 1);
        let starved_cell =
            CellMux { capacity_bps: mean / 10.0, buffer_cells: 4 }.run(&cells);
        prop_assert!(starved_fluid.loss_ratio() > 0.3, "{}", starved_fluid.loss_ratio());
        prop_assert!(starved_cell.loss_ratio() > 0.3, "{}", starved_cell.loss_ratio());
    }
}
