//! A fused lockstep run against the `smooth-oracle` reference on small
//! fixed fleets: materialize every session's schedule, sweep the step
//! functions, and compare the stats, the peak and every descriptor σ
//! bit for bit. `livemux_props` holds the same equalities over
//! arbitrary fleets.

use smooth_core::SmootherParams;
use smooth_engine::{LiveMux, MuxConfig, SessionClass, SessionEngine, SyntheticFleet};
use smooth_metrics::StepFunction;
use smooth_mpeg::GopPattern;
use smooth_netsim::{min_bucket_for, FluidMuxStats};
use smooth_oracle::{materialize_schedules, sweep_cursors, RateSweep};

fn fleet_setup(sessions: usize) -> (SessionEngine, SyntheticFleet) {
    let pattern = GopPattern::new(3, 9).unwrap();
    let class = SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern);
    let mut engine = SessionEngine::with_shard_size(vec![class], 7);
    engine.add_sessions(0, sessions);
    (engine, SyntheticFleet { seed: 99, pattern })
}

fn cfg(capacity: f64, buffer: f64, a: f64, b: f64) -> MuxConfig {
    MuxConfig {
        capacity_bps: capacity,
        buffer_bits: buffer,
        t_start: a,
        t_end: b,
        descriptor_rho_bps: 1.5e6,
    }
}

fn assert_stats_bits_eq(got: &FluidMuxStats, want: &FluidMuxStats, what: &str) {
    for (name, x, y) in [
        ("arrived_bits", got.arrived_bits, want.arrived_bits),
        ("lost_bits", got.lost_bits, want.lost_bits),
        ("served_bits", got.served_bits, want.served_bits),
        (
            "final_queue_bits",
            got.final_queue_bits,
            want.final_queue_bits,
        ),
        ("max_queue_bits", got.max_queue_bits, want.max_queue_bits),
        ("utilization", got.utilization, want.utilization),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name}: {x} vs {y}");
    }
}

/// The oracle triple for a window: sweep stats, interval-max peak,
/// and per-session min_bucket_for sigmas over the materialized
/// schedules.
fn oracle(inputs: &[StepFunction], c: &MuxConfig) -> (FluidMuxStats, f64, Vec<f64>) {
    let sweep = RateSweep {
        capacity_bps: c.capacity_bps,
        buffer_bits: c.buffer_bits,
    };
    let stats = sweep.run(inputs, c.t_start, c.t_end);
    let mut peak = 0.0f64;
    let mut cursors: Vec<_> = inputs.iter().map(|f| f.cursor_at(c.t_start)).collect();
    sweep_cursors(
        &mut cursors,
        inputs.len(),
        c.t_start,
        c.t_end,
        |agg, _, _| {
            peak = peak.max(agg);
        },
    );
    let sigmas = inputs
        .iter()
        .map(|f| min_bucket_for(f, c.descriptor_rho_bps, c.t_start, c.t_end))
        .collect();
    (stats, peak, sigmas)
}

#[test]
fn fused_batch_matches_sweep_oracle_bitwise() {
    for sessions in [1usize, 4, 23] {
        let (engine, fleet) = fleet_setup(sessions);
        let inputs = materialize_schedules(engine, fleet, 40);
        let t_end = inputs.iter().map(|f| f.domain_end()).fold(0.0, f64::max);
        for (a, b) in [(0.0, t_end), (0.3, 0.9), (-1.0, t_end + 1.0), (0.5, 0.5)] {
            let c = cfg(4.0e6 * sessions as f64, 0.5e6, a, b);
            let (want, want_peak, want_sigmas) = oracle(&inputs, &c);

            let (mut engine, fleet) = fleet_setup(sessions);
            let mut mux = LiveMux::new(sessions, 7, c);
            let got = engine.run_fused(&fleet, 40, 1, &mut mux).expect("fresh");
            assert_stats_bits_eq(&got.mux, &want, &format!("S={sessions} window [{a}, {b}]"));
            assert_eq!(got.peak_rate_bps.to_bits(), want_peak.to_bits());
            for (sid, want_sigma) in want_sigmas.iter().enumerate() {
                let d = mux.descriptor(sid as u64);
                assert_eq!(
                    d.sigma.to_bits(),
                    want_sigma.to_bits(),
                    "S={sessions} sid={sid} window [{a}, {b}]"
                );
                assert_eq!(d.rho, c.descriptor_rho_bps);
            }
        }
    }
}

#[test]
fn fused_batch_matches_materialized_sweep() {
    let c = cfg(40.0e6, 0.5e6, 0.0, 2.0);
    let sweep = RateSweep {
        capacity_bps: c.capacity_bps,
        buffer_bits: c.buffer_bits,
    };
    let (engine, fleet) = fleet_setup(23);
    let inputs = materialize_schedules(engine, fleet, 40);
    let want = sweep.run(&inputs, c.t_start, c.t_end);
    let (mut engine, fleet) = fleet_setup(23);
    let mut mux = LiveMux::new(23, 7, c);
    let got = engine.run_fused(&fleet, 40, 1, &mut mux).expect("fresh");
    assert_stats_bits_eq(&got.mux, &want, "vs materialized sweep");
}
