//! Streaming k-way-merge multiplexer sweep: the serial oracle.
//!
//! [`crate::mux::reference`] materializes every breakpoint of every
//! input into one sorted cut vector and then re-samples **all S inputs
//! on every interval** — O(S²·B·log B) time and O(S·B) transient memory
//! for S sources of B breakpoints.
//!
//! [`RateSweep`] computes the same stats with a streaming k-way merge:
//!
//! * one forward-only [`smooth_metrics::StepCursor`] per source,
//! * a binary min-heap of each source's next breakpoint,
//! * the aggregate rate maintained *incrementally* — an event updates one
//!   leaf of a [`SumTree`] pairwise summation tree (O(log S)) instead of
//!   re-summing all S sources.
//!
//! Total cost: O(T·log S) time and O(S) memory, T = total breakpoints.
//! It is the oracle `LiveMux` is pinned to, and stays serial: its merge
//! shares no code with LiveMux's sharded, fenced ingest, which is what
//! makes it an independent check.
//!
//! ### Why the result is bit-identical to the reference
//!
//! Both paths enumerate the same intervals (every distinct breakpoint in
//! `(t_start, t_end)`, deduplicated *exactly* — see the scale-safety note
//! on [`crate::mux::reference`]), assign each interval the value the
//! inputs take on it (a cursor here, `value_at` at the interval's left
//! endpoint there — equal by [`smooth_metrics::StepCursor`]'s contract),
//! and reduce the S values with the same canonical [`SumTree`] order,
//! whose root is a pure function of the current leaf values regardless of
//! whether it was updated incrementally or rebuilt from scratch. The
//! queue dynamics then run through the shared [`QueueState`] stepper. The
//! `sweep_props` proptests pin the equality bit-for-bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use smooth_metrics::{StepCursor, StepFunction};
use smooth_netsim::{FluidMuxStats, QueueState};
use smooth_sweep::SumTree;

/// Streaming k-way-merge fluid multiplexer: the serial sweep oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSweep {
    /// Output link capacity, bits/second.
    pub capacity_bps: f64,
    /// Buffer size, bits.
    pub buffer_bits: f64,
}

impl RateSweep {
    /// Runs the sweep serially over `[t_start, t_end]`.
    ///
    /// A zero-length (or inverted) window yields all-zero stats rather
    /// than NaN utilization.
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive or the buffer is negative.
    pub fn run(&self, inputs: &[StepFunction], t_start: f64, t_end: f64) -> FluidMuxStats {
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        assert!(self.buffer_bits >= 0.0, "buffer must be non-negative");
        let mut state = QueueState::new();
        let mut cursors: Vec<StepCursor<'_>> =
            inputs.iter().map(|f| f.cursor_at(t_start)).collect();
        sweep_cursors(&mut cursors, inputs.len(), t_start, t_end, |agg, a, b| {
            state.advance(agg, b - a, self.capacity_bps, self.buffer_bits);
        });
        state.into_stats(self.capacity_bps, t_start, t_end)
    }
}

/// A heap entry: the next breakpoint of one source. Ordered so that
/// [`BinaryHeap`] pops the *earliest* time first (ties broken by source
/// index for a total order; tie order is immaterial to the result because
/// all same-time events are applied before the next interval closes).
#[derive(Debug, Clone, Copy)]
struct NextBreak {
    t: f64,
    src: u32,
}

impl PartialEq for NextBreak {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for NextBreak {}
impl PartialOrd for NextBreak {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NextBreak {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min time on top.
        other
            .t
            .partial_cmp(&self.t)
            .expect("breakpoints must be finite")
            .then_with(|| other.src.cmp(&self.src))
    }
}

/// The k-way merge core over cursors seated at `t_start`: visits every
/// interval between consecutive distinct breakpoint times in
/// `[t_start, t_end]`, calling `on_interval(agg, a, b)` with the
/// canonical [`SumTree`] aggregate (over `tree_leaves ≥ cursors.len()`
/// leaves) of the inputs' values on `[a, b)`. Does nothing when
/// `t_end <= t_start`.
///
/// Pop order is deterministic regardless of heap insertion order:
/// [`NextBreak`]'s ordering is total (time, then source index), so equal-
/// time events drain in source order.
pub fn sweep_cursors(
    cursors: &mut [StepCursor<'_>],
    tree_leaves: usize,
    t_start: f64,
    t_end: f64,
    mut on_interval: impl FnMut(f64, f64, f64),
) {
    if t_end <= t_start {
        return;
    }
    let mut tree = SumTree::new(tree_leaves);
    let mut heap: BinaryHeap<NextBreak> = BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter_mut().enumerate() {
        tree.set(i, cursor.value());
        if let Some(t) = cursor.next_break() {
            if t < t_end {
                heap.push(NextBreak { t, src: i as u32 });
            }
        }
    }

    let mut t = t_start;
    while let Some(ev) = heap.pop() {
        if ev.t > t {
            on_interval(tree.total(), t, ev.t);
            t = ev.t;
        }
        let i = ev.src as usize;
        let cursor = &mut cursors[i];
        cursor.advance_past(ev.t);
        tree.set(i, cursor.value());
        if let Some(next) = cursor.next_break() {
            if next < t_end {
                heap.push(NextBreak {
                    t: next,
                    src: ev.src,
                });
            }
        }
    }
    if t_end > t {
        on_interval(tree.total(), t, t_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::reference;
    use smooth_core::RateSegment;
    use smooth_netsim::FluidMux;

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

    fn assert_stats_bits_eq(a: &FluidMuxStats, b: &FluidMuxStats, what: &str) {
        for (name, x, y) in [
            ("arrived_bits", a.arrived_bits, b.arrived_bits),
            ("lost_bits", a.lost_bits, b.lost_bits),
            ("served_bits", a.served_bits, b.served_bits),
            ("final_queue_bits", a.final_queue_bits, b.final_queue_bits),
            ("max_queue_bits", a.max_queue_bits, b.max_queue_bits),
            ("utilization", a.utilization, b.utilization),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {name} differs: {x} vs {y}"
            );
        }
    }

    fn mixed_inputs() -> Vec<StepFunction> {
        vec![
            step(&[(0.0, 1.0, 6.0e6), (1.0, 2.0, 1.0e6), (2.0, 3.0, 7.0e6)]),
            step(&[(0.5, 2.5, 2.0e6)]),
            step(&[(0.25, 0.75, 4.0e6), (1.5, 2.75, 3.0e6)]),
            StepFunction::zero(),
        ]
    }

    #[test]
    fn sweep_matches_reference_on_mixed_inputs() {
        let mux = FluidMux {
            capacity_bps: 4.0e6,
            buffer_bits: 0.5e6,
        };
        let engine = RateSweep {
            capacity_bps: mux.capacity_bps,
            buffer_bits: mux.buffer_bits,
        };
        let inputs = mixed_inputs();
        for (a, b) in [(0.0, 3.0), (-1.0, 4.0), (0.6, 2.1), (2.9, 3.5)] {
            let want = reference::run(&mux, &inputs, a, b);
            let got = engine.run(&inputs, a, b);
            assert_stats_bits_eq(&got, &want, &format!("window [{a}, {b}]"));
            let live = mux.run(&inputs, a, b, 2);
            assert_stats_bits_eq(&live, &want, &format!("LiveMux, window [{a}, {b}]"));
        }
    }

    /// The production multiplexer, threaded, against the serial sweep:
    /// 192 sources split into several `LiveMux` shards, 5 into one.
    #[test]
    fn threaded_matches_serial_below_and_above_shard_threshold() {
        let inputs: Vec<StepFunction> = (0..3 * smooth_netsim::MUX_MAX_SHARDS)
            .map(|i| {
                let phase = (i % 7) as f64 * 0.11;
                step(&[
                    (phase, phase + 0.9, 1.0e6 + i as f64 * 1.0e3),
                    (phase + 1.1, phase + 2.0, 0.5e6),
                ])
            })
            .collect();
        let mux = FluidMux {
            capacity_bps: 80.0e6,
            buffer_bits: 0.2e6,
        };
        let engine = RateSweep {
            capacity_bps: mux.capacity_bps,
            buffer_bits: mux.buffer_bits,
        };
        let serial = engine.run(&inputs, 0.0, 3.0);
        for threads in [1, 2, 3, 8, 64] {
            let par = mux.run(&inputs, 0.0, 3.0, threads);
            assert_stats_bits_eq(&par, &serial, &format!("threads={threads}"));
        }
        let few = &inputs[..5];
        let serial = engine.run(few, 0.0, 3.0);
        let par = mux.run(few, 0.0, 3.0, 4);
        assert_stats_bits_eq(&par, &serial, "few sources");
    }

    #[test]
    fn zero_length_window_gives_zero_stats_not_nan() {
        let mux = FluidMux {
            capacity_bps: 1.0e6,
            buffer_bits: 1.0e6,
        };
        let engine = RateSweep {
            capacity_bps: mux.capacity_bps,
            buffer_bits: mux.buffer_bits,
        };
        let inputs = mixed_inputs();
        for (a, b) in [(1.0, 1.0), (2.0, 1.0)] {
            let stats = engine.run(&inputs, a, b);
            assert_eq!(stats.arrived_bits, 0.0);
            assert_eq!(stats.utilization, 0.0, "no NaN on window [{a}, {b}]");
            assert!(!stats.utilization.is_nan());
            let live = mux.run(&inputs, a, b, 8);
            assert_stats_bits_eq(&live, &stats, "degenerate window, LiveMux");
        }
    }

    #[test]
    fn duplicate_breakpoints_collapse_to_one_interval() {
        // Zero-length piece inside a source: the sweep must treat the
        // duplicated time as one event, like the reference's exact dedup.
        let f = StepFunction::new(vec![0.0, 1.0, 1.0, 2.0], vec![3.0e6, 9.9e6, 1.0e6]);
        let mux = FluidMux {
            capacity_bps: 2.0e6,
            buffer_bits: 0.5e6,
        };
        let engine = RateSweep {
            capacity_bps: mux.capacity_bps,
            buffer_bits: mux.buffer_bits,
        };
        let inputs = vec![f];
        let want = reference::run(&mux, &inputs, 0.0, 2.0);
        let got = engine.run(&inputs, 0.0, 2.0);
        assert_stats_bits_eq(&got, &want, "duplicate breaks");
        assert!((want.arrived_bits - 4.0e6).abs() < 1.0);
        assert_stats_bits_eq(&mux.run(&inputs, 0.0, 2.0, 1), &want, "LiveMux");
    }
}
