//! Finite-buffer FIFO multiplexer models.
//!
//! The paper's motivation (§1, §3, citing Reibman & Berger and Reininger
//! et al.): the statistical multiplexing gain of a finite-buffer packet
//! switch improves substantially when the variance of its input traffic is
//! reduced — which is exactly what lossless smoothing does. These two
//! models let the experiments quantify that claim:
//!
//! * [`FluidMux`] — inputs are piecewise-constant rate functions; queue
//!   dynamics are integrated *exactly* between breakpoints (no time
//!   slotting, no discretization error) by the one production fluid
//!   multiplexer, [`LiveMux`];
//! * [`CellMux`] — inputs are discrete ATM cell arrival times; service is
//!   deterministic at line rate; the buffer holds a fixed number of cells.

use serde::{Deserialize, Serialize};
use smooth_metrics::StepFunction;

use crate::livemux::{LiveMux, MuxConfig};

/// Outcome of a fluid multiplexer run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidMuxStats {
    /// Total bits offered by all sources.
    pub arrived_bits: f64,
    /// Bits dropped on buffer overflow.
    pub lost_bits: f64,
    /// Bits transmitted on the output link.
    pub served_bits: f64,
    /// Bits still queued at the end of the run.
    pub final_queue_bits: f64,
    /// Largest queue occupancy observed.
    pub max_queue_bits: f64,
    /// Mean utilization of the output link over the run.
    pub utilization: f64,
}

impl FluidMuxStats {
    /// Fraction of offered bits lost.
    pub fn loss_ratio(&self) -> f64 {
        if self.arrived_bits <= 0.0 {
            0.0
        } else {
            self.lost_bits / self.arrived_bits
        }
    }
}

/// A fluid finite-buffer FIFO multiplexer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidMux {
    /// Output link capacity, bits/second.
    pub capacity_bps: f64,
    /// Buffer size, bits.
    pub buffer_bits: f64,
}

/// Lanes per [`LiveMux`] block when [`FluidMux::run`] posts whole step
/// functions. Any value gives the same bits (the shard layout only
/// regroups one [`smooth_sweep::SumTree`]); this one gives a
/// 10k-source ensemble the full [`crate::MUX_MAX_SHARDS`] shards.
const STEP_BLOCK: usize = 64;

/// Equal time windows [`FluidMux::run`] posts its inputs in, over the
/// measurement window: each ingest then holds one window of every
/// input's breakpoints, not all of them.
const STEP_WINDOWS: usize = 64;

impl FluidMux {
    /// Runs the multiplexer over `[t_start, t_end]` with the given input
    /// rate functions, integrating the queue exactly between breakpoints,
    /// with the aggregation fanned out over `threads` workers.
    ///
    /// Each input becomes one step-function lane of a [`LiveMux`]
    /// ([`LiveMux::push_step_window`]), so the offline figures and the
    /// live fleet share one aggregator. The inputs are posted in
    /// 64 equal time windows, each ingested before the next is
    /// posted, so the buffered events are one window's worth: O(S + T /
    /// windows) for S inputs with T breakpoints in all. The stats are
    /// bit-identical for every thread count, and bit-identical to the
    /// quadratic materialize-then-resample oracle (the `step_lane_props`
    /// proptests pin both). A zero-length window yields all-zero stats
    /// (utilization 0, not NaN).
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive, the buffer is negative, or a
    /// window bound is not finite.
    pub fn run(
        &self,
        inputs: &[StepFunction],
        t_start: f64,
        t_end: f64,
        threads: usize,
    ) -> FluidMuxStats {
        let mut mux = LiveMux::new(
            inputs.len(),
            STEP_BLOCK,
            MuxConfig {
                capacity_bps: self.capacity_bps,
                buffer_bits: self.buffer_bits,
                t_start,
                t_end,
                // Descriptors are not reported; any positive rate will do.
                descriptor_rho_bps: self.capacity_bps,
            },
        );
        let mut next = vec![0usize; inputs.len()];
        let span = (t_end - t_start) / STEP_WINDOWS as f64;
        // Window ends past the first; the last window takes everything
        // left, so the posts cover each function however the arithmetic
        // rounds.
        let windows = if span > 0.0 { STEP_WINDOWS } else { 1 };
        for w in 1..=windows {
            let until = if w < windows {
                t_start + span * w as f64
            } else {
                f64::INFINITY
            };
            for (sid, f) in inputs.iter().enumerate() {
                mux.push_step_window(sid as u64, f, &mut next[sid], until);
            }
            mux.ingest(threads, until);
        }
        mux.finalize().mux
    }
}

/// The exact fluid finite-buffer FIFO queue stepper, shared verbatim by
/// [`LiveMux`] and the test-only oracles so the paths cannot drift:
/// given the same `(agg, dt)` interval sequence they execute the same
/// IEEE operations, which is what makes their stats bit-comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueState {
    q: f64,
    arrived: f64,
    lost: f64,
    served: f64,
    max_q: f64,
}

impl Default for QueueState {
    fn default() -> Self {
        Self::new()
    }
}

impl QueueState {
    /// An empty queue with zeroed counters.
    pub fn new() -> Self {
        QueueState {
            q: 0.0,
            arrived: 0.0,
            lost: 0.0,
            served: 0.0,
            max_q: 0.0,
        }
    }

    /// Integrates one interval of aggregate input rate `agg` over `dt`
    /// seconds, splitting at the buffer-full / buffer-empty crossing when
    /// one occurs mid-interval.
    pub fn advance(&mut self, agg: f64, mut dt: f64, capacity_bps: f64, buffer_bits: f64) {
        if dt <= 0.0 {
            return;
        }
        self.arrived += agg * dt;
        let net = agg - capacity_bps;

        if net > 0.0 {
            // Queue filling: possibly hit the buffer ceiling mid-interval.
            let to_full = (buffer_bits - self.q) / net;
            if to_full < dt {
                // Fill phase: everything served at capacity.
                self.served += capacity_bps * to_full;
                self.q = buffer_bits;
                dt -= to_full;
                // Overflow phase: excess is dropped.
                self.lost += net * dt;
                self.served += capacity_bps * dt;
            } else {
                self.served += capacity_bps * dt;
                self.q += net * dt;
            }
        } else {
            // Queue draining: possibly empty mid-interval.
            let to_empty = if net < 0.0 {
                self.q / (-net)
            } else {
                f64::INFINITY
            };
            if to_empty < dt {
                // Drain phase: output at full capacity until empty.
                self.served += capacity_bps * to_empty;
                self.q = 0.0;
                dt -= to_empty;
                // Starved phase: output equals input (< capacity).
                self.served += agg * dt;
            } else {
                self.served += capacity_bps * dt;
                self.q += net * dt;
            }
        }
        self.max_q = self.max_q.max(self.q);
    }

    /// Finalizes the run. Utilization is defined as 0 over a zero-length
    /// (or inverted) window instead of NaN.
    pub fn into_stats(self, capacity_bps: f64, t_start: f64, t_end: f64) -> FluidMuxStats {
        let denom = capacity_bps * (t_end - t_start);
        FluidMuxStats {
            arrived_bits: self.arrived,
            lost_bits: self.lost,
            served_bits: self.served,
            final_queue_bits: self.q,
            max_queue_bits: self.max_q,
            utilization: if denom > 0.0 {
                self.served / denom
            } else {
                0.0
            },
        }
    }
}

/// Outcome of a cell multiplexer run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellMuxStats {
    /// Cells offered.
    pub arrived_cells: usize,
    /// Cells dropped on buffer overflow.
    pub dropped_cells: usize,
    /// Largest number of cells in the system at once.
    pub max_occupancy: usize,
}

impl CellMuxStats {
    /// Fraction of offered cells dropped.
    pub fn loss_ratio(&self) -> f64 {
        if self.arrived_cells == 0 {
            0.0
        } else {
            self.dropped_cells as f64 / self.arrived_cells as f64
        }
    }
}

/// A cell-granular finite-buffer FIFO multiplexer with deterministic
/// service (one cell every `CELL_WIRE_BITS / capacity` seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMux {
    /// Output link capacity, bits/second (on the wire: 53-byte cells).
    pub capacity_bps: f64,
    /// Buffer size in cells, *excluding* the one in service.
    pub buffer_cells: usize,
}

impl CellMux {
    /// Runs the multiplexer over a sorted sequence of cell arrival times.
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive or arrivals are unsorted.
    pub fn run(&self, arrivals: &[f64]) -> CellMuxStats {
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        let service = crate::packetizer::CELL_WIRE_BITS / self.capacity_bps;
        // `work` = seconds of service already committed (backlog) at the
        // time of the previous arrival.
        let mut work = 0.0f64;
        let mut prev_t = f64::NEG_INFINITY;
        let mut dropped = 0usize;
        let mut max_occupancy = 0usize;
        let system_capacity = (self.buffer_cells + 1) as f64 * service;

        for &t in arrivals {
            assert!(t >= prev_t - 1e-12, "arrivals must be sorted");
            if prev_t.is_finite() {
                work = (work - (t - prev_t)).max(0.0);
            }
            prev_t = t;
            if work + service > system_capacity + 1e-12 {
                dropped += 1;
            } else {
                work += service;
                // Tolerate float fuzz from long subtraction chains: a
                // backlog within 1e-9 of a whole number of cells is that
                // whole number.
                let occupancy = (work / service - 1e-9).ceil().max(1.0) as usize;
                max_occupancy = max_occupancy.max(occupancy);
            }
        }

        CellMuxStats {
            arrived_cells: arrivals.len(),
            dropped_cells: dropped,
            max_occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_core::RateSegment;

    fn step(segs: &[(f64, f64, f64)]) -> StepFunction {
        let segs: Vec<RateSegment> = segs
            .iter()
            .map(|&(s, e, r)| RateSegment {
                start: s,
                end: e,
                rate: r,
            })
            .collect();
        StepFunction::from_segments(&segs)
    }

    #[test]
    fn fluid_no_loss_when_capacity_exceeds_peak() {
        let mux = FluidMux {
            capacity_bps: 10.0e6,
            buffer_bits: 0.0,
        };
        let inputs = vec![step(&[(0.0, 10.0, 3.0e6)]), step(&[(0.0, 10.0, 4.0e6)])];
        let stats = mux.run(&inputs, 0.0, 10.0, 1);
        assert_eq!(stats.loss_ratio(), 0.0);
        assert!((stats.arrived_bits - 70.0e6).abs() < 1.0);
        assert!((stats.utilization - 0.7).abs() < 1e-9);
    }

    #[test]
    fn fluid_zero_buffer_drops_exact_excess() {
        let mux = FluidMux {
            capacity_bps: 5.0e6,
            buffer_bits: 0.0,
        };
        // 8 Mbps offered for 2 s: 6 Mbit must drop.
        let inputs = vec![step(&[(0.0, 2.0, 8.0e6)])];
        let stats = mux.run(&inputs, 0.0, 2.0, 1);
        assert!((stats.lost_bits - 6.0e6).abs() < 1.0);
        assert!((stats.loss_ratio() - 6.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn fluid_buffer_absorbs_short_burst() {
        // 8 Mbps for 1 s then 2 Mbps for 3 s into a 5 Mbps link:
        // burst excess = 3 Mbit; a 3 Mbit buffer absorbs it entirely.
        let mux = FluidMux {
            capacity_bps: 5.0e6,
            buffer_bits: 3.0e6,
        };
        let inputs = vec![step(&[(0.0, 1.0, 8.0e6), (1.0, 4.0, 2.0e6)])];
        let stats = mux.run(&inputs, 0.0, 4.0, 1);
        assert_eq!(stats.loss_ratio(), 0.0);
        assert!((stats.max_queue_bits - 3.0e6).abs() < 1.0);
        // And the queue fully drains before the end (drain rate 3 Mbps,
        // 1 s needed).
        assert!(stats.final_queue_bits.abs() < 1.0);
    }

    #[test]
    fn fluid_undersized_buffer_loses_the_difference() {
        let mux = FluidMux {
            capacity_bps: 5.0e6,
            buffer_bits: 1.0e6,
        };
        let inputs = vec![step(&[(0.0, 1.0, 8.0e6), (1.0, 4.0, 2.0e6)])];
        let stats = mux.run(&inputs, 0.0, 4.0, 1);
        // Excess 3 Mbit, buffer 1 Mbit -> 2 Mbit lost.
        assert!(
            (stats.lost_bits - 2.0e6).abs() < 1.0,
            "lost {}",
            stats.lost_bits
        );
    }

    #[test]
    fn fluid_conservation() {
        let mux = FluidMux {
            capacity_bps: 4.0e6,
            buffer_bits: 0.5e6,
        };
        let inputs = vec![
            step(&[(0.0, 1.0, 6.0e6), (1.0, 2.0, 1.0e6), (2.0, 3.0, 7.0e6)]),
            step(&[(0.5, 2.5, 2.0e6)]),
        ];
        let stats = mux.run(&inputs, 0.0, 3.0, 1);
        let balance =
            stats.arrived_bits - stats.lost_bits - stats.served_bits - stats.final_queue_bits;
        assert!(balance.abs() < 1.0, "conservation violated by {balance}");
    }

    #[test]
    fn fluid_loss_monotone_in_buffer_and_capacity() {
        let inputs = vec![step(&[
            (0.0, 1.0, 9.0e6),
            (1.0, 2.0, 1.0e6),
            (2.0, 3.0, 9.0e6),
        ])];
        let loss = |cap: f64, buf: f64| {
            FluidMux {
                capacity_bps: cap,
                buffer_bits: buf,
            }
            .run(&inputs, 0.0, 3.0, 1)
            .loss_ratio()
        };
        assert!(loss(5.0e6, 0.0) >= loss(5.0e6, 1.0e6));
        assert!(loss(5.0e6, 1.0e6) >= loss(5.0e6, 4.0e6));
        assert!(loss(4.0e6, 1.0e6) >= loss(6.0e6, 1.0e6));
    }

    #[test]
    fn cell_mux_no_drops_when_spaced() {
        // Arrivals exactly at the service rate: never more than 1 in
        // system.
        let mux = CellMux {
            capacity_bps: 424_000.0,
            buffer_cells: 0,
        };
        let service = 1e-3; // 424 bits at 424 kbps
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * service).collect();
        let stats = mux.run(&arrivals);
        assert_eq!(stats.dropped_cells, 0);
        assert_eq!(stats.max_occupancy, 1);
    }

    #[test]
    fn cell_mux_batch_overflows_small_buffer() {
        // 10 simultaneous cells into a buffer of 4 (+1 in service): 5
        // accepted, 5 dropped.
        let mux = CellMux {
            capacity_bps: 424_000.0,
            buffer_cells: 4,
        };
        let arrivals = vec![0.0; 10];
        let stats = mux.run(&arrivals);
        assert_eq!(stats.arrived_cells, 10);
        assert_eq!(stats.dropped_cells, 5);
        assert_eq!(stats.max_occupancy, 5);
    }

    #[test]
    fn cell_mux_loss_monotone_in_buffer() {
        let arrivals: Vec<f64> = (0..1000).map(|i| (i / 10) as f64 * 1e-3).collect();
        let loss = |buf: usize| {
            CellMux {
                capacity_bps: 424_000.0,
                buffer_cells: buf,
            }
            .run(&arrivals)
            .loss_ratio()
        };
        assert!(loss(0) >= loss(4));
        assert!(loss(4) >= loss(16));
        assert!(loss(16) >= loss(64));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn cell_mux_rejects_unsorted() {
        CellMux {
            capacity_bps: 1e6,
            buffer_cells: 1,
        }
        .run(&[1.0, 0.5]);
    }

    #[test]
    fn empty_inputs() {
        let f = FluidMux {
            capacity_bps: 1e6,
            buffer_bits: 1e6,
        }
        .run(&[], 0.0, 1.0, 1);
        assert_eq!(f.loss_ratio(), 0.0);
        let c = CellMux {
            capacity_bps: 1e6,
            buffer_cells: 1,
        }
        .run(&[]);
        assert_eq!(c.loss_ratio(), 0.0);
    }
}
