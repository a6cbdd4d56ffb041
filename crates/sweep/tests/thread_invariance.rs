//! Property: sweep output never depends on the worker count.
//!
//! `par_map` must equal the serial map for any thread count, and
//! `smooth_jobs` over a random trace must come back bit-identical
//! (full `SmoothingResult` equality — schedules, rates, departures)
//! whether computed on 1 thread or many.

use proptest::prelude::*;
use smooth_core::estimate::PatternEstimator;
use smooth_core::{smooth, smooth_with_scratch, RateSelection, SmoothScratch, SmootherParams};
use smooth_mpeg::{GopPattern, Resolution};
use smooth_sweep::{par_map, smooth_jobs, SweepJob};
use smooth_trace::VideoTrace;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_map_equals_serial_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..80),
        threads in 1usize..17,
    ) {
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(2654435761).rotate_left((i % 64) as u32))
            .collect();
        let got = par_map(threads, &items, |i, &x| {
            x.wrapping_mul(2654435761).rotate_left((i % 64) as u32)
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn smoothing_grid_is_thread_count_invariant(
        sizes in proptest::collection::vec(1_000u64..400_000, 27..120),
        d_idx in 0usize..3,
        k in 1usize..4,
        h in 1usize..20,
        threads in 2usize..17,
    ) {
        let pattern = GopPattern::new(3, 9).expect("valid pattern");
        let trace = VideoTrace::new("prop", pattern, Resolution::VGA, 30.0, sizes)
            .expect("valid trace");
        let d = [0.15, 0.2, 0.35][d_idx];
        let params = SmootherParams::at_30fps(d, k, h);
        prop_assume!(params.is_ok());
        let jobs = vec![SweepJob { trace: &trace, params: params.expect("checked feasible") }];
        let est = PatternEstimator::default();

        let serial = smooth_jobs(1, &jobs, &est, RateSelection::Basic);
        let parallel = smooth_jobs(threads, &jobs, &est, RateSelection::Basic);
        prop_assert_eq!(serial, parallel);
    }

    /// A batch of jobs equals the one-shot offline smoother per job,
    /// both through `smooth_jobs` at any worker count (sharding must
    /// never reorder results) and through one `SmoothScratch` reused
    /// across the batch (reused scratch must never leak state between
    /// jobs).
    #[test]
    fn batch_is_thread_count_invariant_and_matches_one_shot(
        sizes_a in proptest::collection::vec(1_000u64..400_000, 1..90),
        sizes_b in proptest::collection::vec(1_000u64..400_000, 1..90),
        k in 1usize..4,
        h in 1usize..24,
        threads in 1usize..17,
    ) {
        let pattern = GopPattern::new(3, 9).expect("valid pattern");
        let ta = VideoTrace::new("a", pattern, Resolution::VGA, 30.0, sizes_a)
            .expect("valid trace");
        let tb = VideoTrace::new("b", pattern, Resolution::VGA, 30.0, sizes_b)
            .expect("valid trace");
        let params = SmootherParams::at_30fps(0.2, k, h);
        prop_assume!(params.is_ok());
        let params = params.expect("checked feasible");
        // Alternate traces so consecutive jobs on one worker differ in
        // length — the stale-scratch shape most likely to leak.
        let jobs: Vec<SweepJob<'_>> = [&ta, &tb, &ta, &tb, &ta]
            .into_iter()
            .map(|trace| SweepJob { trace, params })
            .collect();

        let expected: Vec<_> = jobs.iter().map(|j| smooth(j.trace, j.params)).collect();
        let est = PatternEstimator::default();
        let results = smooth_jobs(threads, &jobs, &est, RateSelection::Basic);
        prop_assert_eq!(&results, &expected);
        let mut scratch = SmoothScratch::new();
        let reused: Vec<_> = jobs
            .iter()
            .map(|j| smooth_with_scratch(j.trace, j.params, &mut scratch))
            .collect();
        prop_assert_eq!(reused, expected);
    }
}
