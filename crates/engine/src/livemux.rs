//! The engines' side of link aggregation. [`LiveMux`], the one
//! production fluid multiplexer, lives in `smooth-netsim` (module
//! [`smooth_netsim::livemux`]); the engines stream decisions into its
//! lanes ([`crate::SessionEngine::run_fused`],
//! [`crate::DynamicEngine::run_trace_fused`]). This module re-exports it
//! and adds the fused run's determinism witness, [`mux_digest`].

pub use smooth_netsim::livemux::{
    IngestCounts, LaneTable, LiveMux, LiveMuxStats, MuxCheckpoint, MuxConfig, SessionLane,
    TrafficDescriptor,
};

/// FNV-1a fingerprint of a fused run: the six queue stats, the peak,
/// then every session's (σ, ρ) bits in session-id order. The
/// machine-parsable determinism witness the CLI prints as
/// `mux_digest=`.
pub fn mux_digest(stats: &LiveMuxStats, descriptors: &[TrafficDescriptor]) -> u64 {
    let mut d = crate::FNV_OFFSET;
    for w in [
        stats.mux.arrived_bits,
        stats.mux.lost_bits,
        stats.mux.served_bits,
        stats.mux.final_queue_bits,
        stats.mux.max_queue_bits,
        stats.mux.utilization,
        stats.peak_rate_bps,
    ] {
        d = crate::fnv(d, w.to_bits());
    }
    for td in descriptors {
        d = crate::fnv(d, td.sigma.to_bits());
        d = crate::fnv(d, td.rho.to_bits());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionClass, SessionEngine, SyntheticFleet};
    use smooth_core::SmootherParams;
    use smooth_mpeg::GopPattern;

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

    #[test]
    fn fused_run_is_thread_invariant() {
        // The window ends at the fleet's last departure: the end of the
        // latest materialized schedule.
        let (mut engine, fleet) = fleet_setup(23);
        let mut t_end = 0.0f64;
        for _ in 0..30 {
            engine.tick_serial_with(&fleet, &mut |_, d| t_end = t_end.max(d.depart));
        }
        engine.finish_serial_with(&fleet, &mut |_, d| t_end = t_end.max(d.depart));
        let c = cfg(30.0e6, 0.3e6, 0.0, t_end);
        let mut baseline = None;
        for threads in [1usize, 2, 5, 8] {
            let (mut engine, fleet) = fleet_setup(23);
            let mut mux = LiveMux::new(23, 7, c);
            let got = engine
                .run_fused(&fleet, 30, threads, &mut mux)
                .expect("fresh");
            let digest = mux_digest(&got, &mux.descriptors());
            match baseline {
                None => baseline = Some(digest),
                Some(d) => assert_eq!(d, digest, "threads={threads}"),
            }
        }
    }

    #[test]
    fn stale_engine_is_a_typed_error() {
        let (mut engine, fleet) = fleet_setup(3);
        engine.run(&fleet, 5, false, 1);
        let c = cfg(1.0e6, 0.0, 0.0, 1.0);
        let mut mux = LiveMux::new(3, 7, c);
        let err = engine.run_fused(&fleet, 5, 1, &mut mux).unwrap_err();
        assert_eq!(
            err,
            crate::EngineError::StaleEngine {
                ticks: 5,
                finished: false
            }
        );
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let c = cfg(30.0e6, 0.3e6, 0.0, 2.0);
        // Uninterrupted run.
        let (mut engine, fleet) = fleet_setup(23);
        let mut mux = LiveMux::new(23, 7, c);
        let want = engine.run_fused(&fleet, 30, 1, &mut mux).expect("fresh");
        let want_digest = mux_digest(&want, &mux.descriptors());

        // Same run driven tick-by-tick with a checkpoint in the middle.
        let (mut engine, fleet) = fleet_setup(23);
        let mut mux = LiveMux::new(23, 7, c);
        for _ in 0..17 {
            engine.tick_serial_with(&fleet, &mut |sid, d| mux.push_decision(sid, d));
        }
        mux.ingest(1, f64::INFINITY);
        let cp = mux.checkpoint();
        let mut mux = LiveMux::restore(&cp);
        for _ in 17..30 {
            engine.tick_serial_with(&fleet, &mut |sid, d| mux.push_decision(sid, d));
        }
        engine.finish_serial_with(&fleet, &mut |sid, d| mux.push_decision(sid, d));
        for sid in 0..23 {
            mux.finish_session(sid);
        }
        mux.ingest(1, f64::INFINITY);
        let got = mux.finalize();
        assert_eq!(mux_digest(&got, &mux.descriptors()), want_digest);
    }

    #[test]
    fn zero_and_inverted_windows_give_zero_stats() {
        for (a, b) in [(1.0, 1.0), (2.0, 1.0)] {
            let (mut engine, fleet) = fleet_setup(4);
            let mut mux = LiveMux::new(4, 7, cfg(1.0e6, 0.1e6, a, b));
            let got = engine.run_fused(&fleet, 10, 1, &mut mux).expect("fresh");
            assert_eq!(got.mux.arrived_bits, 0.0);
            assert_eq!(got.mux.utilization, 0.0);
            assert!(!got.mux.utilization.is_nan());
            assert_eq!(got.peak_rate_bps, 0.0);
        }
    }
}
