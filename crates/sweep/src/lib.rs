//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation (Figures 4–8, the multiplexing study, the
//! parameter ablations) is a grid of *independent* smoothing runs:
//! sequences × (D, K, H) × buffer sizes × source counts. This crate
//! expresses "run [`smooth_with`] over a grid" as a parallel map with
//! **deterministic, index-ordered result collection**: output is
//! byte-identical to a serial run regardless of thread count or
//! scheduling, because each job's result is placed by its input index and
//! nothing about a job depends on execution order.
//!
//! The executor is a scoped-thread work-stealing loop over
//! [`std::thread::scope`] rather than `rayon`: this build environment is
//! hermetic (no crates.io), so the dependency is vendored in spirit — the
//! API mirrors a `par_iter().map().collect()` at the one call shape the
//! workspace needs. Swapping the internals for rayon later only touches
//! [`par_map`].
//!
//! Thread-count resolution order: explicit argument, else a process-wide
//! override ([`set_default_threads`], what `--threads` flags set), else
//! the `SMOOTH_THREADS` environment variable, else all cores
//! ([`std::thread::available_parallelism`]).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

use smooth_core::estimate::SizeEstimator;
use smooth_core::{smooth_with, RateSelection, SmootherParams, SmoothingResult};
use smooth_trace::VideoTrace;

pub mod reduce;

pub use reduce::{ShardPlan, SumTree};

/// Process-wide thread-count override; 0 means unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets (n > 0) or clears (n = 0) the process-wide default worker count.
/// Because sweep output is deterministic, changing this mid-process never
/// changes any result — only how fast it arrives.
pub fn set_default_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Default worker count: the [`set_default_threads`] override if set,
/// else `SMOOTH_THREADS` if set and positive, else all available cores.
pub fn default_threads() -> usize {
    resolve_threads(None)
}

/// Resolves an optional user-facing thread request (`--threads`):
/// `None` or `Some(0)` mean "use the default".
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        if n > 0 {
            return n;
        }
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Ok(v) = std::env::var("SMOOTH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item and collects results **in input order**.
///
/// Work distribution is dynamic (an atomic cursor, so long jobs do not
/// stall a fixed chunk), but each result is stored at its item's index —
/// the output is identical to `items.iter().enumerate().map(f).collect()`
/// for any `threads`. With `threads <= 1` (or one item) it *is* that
/// serial loop, on the calling thread.
///
/// Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// One cell of a smoothing sweep: a trace paired with parameters.
#[derive(Clone)]
pub struct SweepJob<'a> {
    pub trace: &'a VideoTrace,
    pub params: SmootherParams,
}

/// Runs [`smooth_with`] over explicit (trace, params) jobs in parallel;
/// results arrive in job order.
pub fn smooth_jobs(
    threads: usize,
    jobs: &[SweepJob<'_>],
    estimator: &(dyn SizeEstimator + Sync),
    selection: RateSelection,
) -> Vec<SmoothingResult> {
    par_map(threads, jobs, |_, job| {
        smooth_with(job.trace, job.params, estimator, selection)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_core::estimate::PatternEstimator;
    use smooth_mpeg::{GopPattern, PictureType, Resolution};

    fn trace(n: usize, seed: u64) -> VideoTrace {
        let pattern = GopPattern::new(3, 9).unwrap();
        let sizes: Vec<u64> = (0..n)
            .map(|i| match pattern.type_at(i) {
                PictureType::I => 180_000 + (i as u64 * 31 + seed) % 40_000,
                PictureType::P => 80_000 + (i as u64 * 17 + seed) % 20_000,
                PictureType::B => 16_000 + (i as u64 * 7 + seed) % 8_000,
            })
            .collect();
        VideoTrace::new("sweep-test", pattern, Resolution::VGA, 30.0, sizes).unwrap()
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    /// Every job of the `traces × params` grid, row-major (all
    /// parameter points of `traces[0]`, then `traces[1]`, ...).
    fn grid<'a>(traces: &[&'a VideoTrace], params: &[SmootherParams]) -> Vec<SweepJob<'a>> {
        traces
            .iter()
            .flat_map(|&trace| params.iter().map(move |&params| SweepJob { trace, params }))
            .collect()
    }

    #[test]
    fn grid_results_are_identical_across_thread_counts() {
        let t0 = trace(120, 1);
        let t1 = trace(120, 2);
        let params: Vec<SmootherParams> = [(0.1, 1, 9), (0.2, 1, 9), (0.2, 3, 18)]
            .iter()
            .map(|&(d, k, h)| SmootherParams::at_30fps(d, k, h).unwrap())
            .collect();
        let jobs = grid(&[&t0, &t1], &params);
        let est = PatternEstimator::default();

        let serial = smooth_jobs(1, &jobs, &est, RateSelection::Basic);
        for threads in [2, 4, 16] {
            let parallel = smooth_jobs(threads, &jobs, &est, RateSelection::Basic);
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert_eq!(serial.len(), 2 * params.len());
    }

    #[test]
    fn grid_is_row_major() {
        let t0 = trace(30, 1);
        let t1 = trace(30, 9);
        let params = [
            SmootherParams::at_30fps(0.1, 1, 9).unwrap(),
            SmootherParams::at_30fps(0.2, 1, 9).unwrap(),
        ];
        let est = PatternEstimator::default();
        let out = smooth_jobs(4, &grid(&[&t0, &t1], &params), &est, RateSelection::Basic);
        assert_eq!(out[0].params, params[0]);
        assert_eq!(out[1].params, params[1]);
        // Rows 2,3 are the second trace: same params again, different data.
        assert_eq!(out[2].params, params[0]);
        assert_ne!(out[0].schedule, out[2].schedule);
    }

    #[test]
    fn resolve_threads_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    /// A batch of jobs run back to back through one reused
    /// [`SmoothScratch`](smooth_core::SmoothScratch) — the offline
    /// benchmark's loop — equals [`smooth_jobs`] at any thread count.
    #[test]
    fn batch_matches_smooth_jobs_for_any_thread_count() {
        let t0 = trace(120, 3);
        let t1 = trace(90, 8);
        let jobs: Vec<SweepJob<'_>> = [
            (&t0, SmootherParams::at_30fps(0.1, 1, 9).unwrap()),
            (&t1, SmootherParams::at_30fps(0.2, 1, 9).unwrap()),
            (&t0, SmootherParams::at_30fps(0.2, 3, 18).unwrap()),
        ]
        .into_iter()
        .map(|(trace, params)| SweepJob { trace, params })
        .collect();
        let mut scratch = smooth_core::SmoothScratch::new();
        let batch: Vec<SmoothingResult> = jobs
            .iter()
            .map(|j| smooth_core::smooth_with_scratch(j.trace, j.params, &mut scratch))
            .collect();
        let est = PatternEstimator::default();
        for threads in [1, 2, 4] {
            let got = smooth_jobs(threads, &jobs, &est, RateSelection::Basic);
            assert_eq!(got, batch, "threads={threads}");
        }
    }
}
