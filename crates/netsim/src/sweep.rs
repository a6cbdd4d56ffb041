//! Streaming k-way-merge multiplexer sweep.
//!
//! [`crate::mux::FluidMux`]'s original run loop (frozen as
//! [`crate::mux::reference`]) materializes every breakpoint of every
//! input into one sorted cut vector and then re-samples **all S inputs
//! on every interval** — O(S²·B·log B) time and O(S·B) transient memory
//! for S sources of B breakpoints. That is exact but hopeless at the
//! ROADMAP's scale: the statistical-multiplexing payoff (paper §1, §3,
//! Figures 7–8) only shows at hundreds-to-thousands of sources.
//!
//! [`RateSweep`] replaces it with a streaming k-way merge:
//!
//! * one forward-only [`smooth_metrics::StepCursor`] per source,
//! * a binary min-heap of each source's next breakpoint,
//! * the aggregate rate maintained *incrementally* — an event updates one
//!   leaf of a [`SumTree`] pairwise summation tree (O(log S)) instead of
//!   re-summing all S sources.
//!
//! Total cost: O(T·log S) time and O(S) memory, T = total breakpoints.
//!
//! ### Why the result is still bit-identical to the reference
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
//!
//! ### Deterministic sharded parallelism
//!
//! [`RateSweep::run_threaded`] fans the merge out over
//! power-of-two-aligned source shards ([`ShardPlan`], fixed by S alone —
//! never by the worker count) via [`smooth_sweep::par_map`]: each shard
//! produces its aggregate rate as a step function using the [`SumTree`]
//! subtree its leaves occupy in the serial engine's tree, and a second
//! (tiny) sweep merges the shard aggregates with the tree's top levels.
//! Because shard boundaries coincide with subtree boundaries, the
//! composed sum is *the same tree* — so the parallel result is
//! bit-identical to the serial one for any thread count.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use smooth_metrics::{StepCursor, StepFunction};
use smooth_sweep::{par_map, ShardPlan, SumTree};

use crate::mux::FluidMuxStats;

/// Upper bound on aggregation shards for [`RateSweep::run_threaded`].
/// Chosen by source count only (see [`ShardPlan`]), so the shard layout —
/// and therefore every output bit — is independent of the worker count.
pub const MUX_MAX_SHARDS: usize = 64;

/// Streaming k-way-merge fluid multiplexer engine: the scalable
/// production path behind [`crate::mux::FluidMux::run`].
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
        self.check();
        let mut state = QueueState::new();
        sweep_intervals(inputs, inputs.len(), t_start, t_end, |agg, a, b| {
            state.advance(agg, b - a, self.capacity_bps, self.buffer_bits);
        });
        state.into_stats(self.capacity_bps, t_start, t_end)
    }

    /// [`RateSweep::run`] with the aggregation fanned out over `threads`
    /// workers. Bit-identical to the serial run for every thread count:
    /// shard boundaries are fixed power-of-two [`SumTree`] subtrees of
    /// the serial engine's summation tree, and the per-shard aggregate
    /// step functions are merged in shard order by the tree's top levels.
    pub fn run_threaded(
        &self,
        inputs: &[StepFunction],
        t_start: f64,
        t_end: f64,
        threads: usize,
    ) -> FluidMuxStats {
        self.check();
        // One worker, a degenerate window, or too few sources to be worth
        // the shard pass: the serial engine is the same bits, cheaper.
        if threads <= 1 || inputs.len() < 2 * MUX_MAX_SHARDS || t_end <= t_start {
            return self.run(inputs, t_start, t_end);
        }

        let plan = ShardPlan::new(inputs.len(), MUX_MAX_SHARDS);
        let shards: Vec<usize> = (0..plan.count).collect();
        let partials: Vec<StepFunction> = par_map(threads, &shards, |_, &s| {
            shard_aggregate(&inputs[plan.range(s)], plan.width, t_start, t_end)
        });

        let mut state = QueueState::new();
        sweep_intervals(&partials, plan.count, t_start, t_end, |agg, a, b| {
            state.advance(agg, b - a, self.capacity_bps, self.buffer_bits);
        });
        state.into_stats(self.capacity_bps, t_start, t_end)
    }

    fn check(&self) {
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        assert!(self.buffer_bits >= 0.0, "buffer must be non-negative");
    }
}

/// One shard's aggregate rate over the window, as a step function whose
/// breakpoints are *all* of the shard's source breakpoints (value-
/// preserving runs are kept, never merged — the phase-2 merge must see
/// the same interval set the serial engine would).
///
/// `width` is the shard's [`SumTree`] leaf count in the serial tree
/// (missing trailing leaves stay zero), so the emitted values are interior
/// nodes of that tree.
fn shard_aggregate(shard: &[StepFunction], width: usize, t_start: f64, t_end: f64) -> StepFunction {
    debug_assert!(shard.len() <= width);
    let mut breaks = Vec::with_capacity(2 + total_breaks(shard));
    let mut values = Vec::with_capacity(1 + total_breaks(shard));
    breaks.push(t_start);
    sweep_intervals(shard, width, t_start, t_end, |agg, _a, b| {
        values.push(agg);
        breaks.push(b);
    });
    StepFunction::new(breaks, values)
}

fn total_breaks(inputs: &[StepFunction]) -> usize {
    inputs.iter().map(|f| f.breakpoints().len()).sum()
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

/// The k-way merge core: visits every interval between consecutive
/// distinct breakpoint times in `[t_start, t_end]`, calling
/// `on_interval(agg, a, b)` with the canonical [`SumTree`] aggregate of
/// the inputs' values on `[a, b)`.
///
/// `tree_leaves` is the summation-tree size (≥ `inputs.len()`); passing a
/// shard's full width keeps shard trees congruent with the serial tree.
/// Does nothing when `t_end <= t_start`.
fn sweep_intervals(
    inputs: &[StepFunction],
    tree_leaves: usize,
    t_start: f64,
    t_end: f64,
    on_interval: impl FnMut(f64, f64, f64),
) {
    if t_end <= t_start {
        return;
    }
    let mut cursors: Vec<StepCursor<'_>> = inputs.iter().map(|f| f.cursor_at(t_start)).collect();
    sweep_cursors(&mut cursors, tree_leaves, t_start, t_end, on_interval);
}

/// [`sweep_intervals`] over caller-seated cursors: the same merge, with
/// every cursor already seated at `t_start`. This is *the* serial engine
/// (the step-function path above is a thin wrapper), so there is one
/// merge loop to reason about, not two.
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

/// The exact fluid finite-buffer FIFO queue stepper, shared verbatim by
/// [`RateSweep`], [`crate::mux::reference`], and the fused
/// `smooth-engine` link aggregator so the paths cannot drift: given the
/// same `(agg, dt)` interval sequence they execute the same IEEE
/// operations, which is what makes their stats bit-comparable.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::{reference, FluidMux};
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
        }
    }

    #[test]
    fn threaded_matches_serial_below_and_above_shard_threshold() {
        // Construct > 2 * MUX_MAX_SHARDS sources so the shard path runs.
        let inputs: Vec<StepFunction> = (0..3 * MUX_MAX_SHARDS)
            .map(|i| {
                let phase = (i % 7) as f64 * 0.11;
                step(&[
                    (phase, phase + 0.9, 1.0e6 + i as f64 * 1.0e3),
                    (phase + 1.1, phase + 2.0, 0.5e6),
                ])
            })
            .collect();
        let engine = RateSweep {
            capacity_bps: 80.0e6,
            buffer_bits: 0.2e6,
        };
        let serial = engine.run(&inputs, 0.0, 3.0);
        for threads in [1, 2, 3, 8, 64] {
            let par = engine.run_threaded(&inputs, 0.0, 3.0, threads);
            assert_stats_bits_eq(&par, &serial, &format!("threads={threads}"));
        }
        // And the small-ensemble fallback is the same bits too.
        let few = &inputs[..5];
        let serial = engine.run(few, 0.0, 3.0);
        let par = engine.run_threaded(few, 0.0, 3.0, 4);
        assert_stats_bits_eq(&par, &serial, "few-source fallback");
    }

    #[test]
    fn zero_length_window_gives_zero_stats_not_nan() {
        let engine = RateSweep {
            capacity_bps: 1.0e6,
            buffer_bits: 1.0e6,
        };
        let inputs = mixed_inputs();
        for (a, b) in [(1.0, 1.0), (2.0, 1.0)] {
            let stats = engine.run(&inputs, a, b);
            assert_eq!(stats.arrived_bits, 0.0);
            assert_eq!(stats.utilization, 0.0, "no NaN on window [{a}, {b}]");
            assert!(!stats.utilization.is_nan());
            let threaded = engine.run_threaded(&inputs, a, b, 8);
            assert_stats_bits_eq(&threaded, &stats, "degenerate window threaded");
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
    }
}
