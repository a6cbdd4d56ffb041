//! Smoothing video with a time-varying GOP pattern (paper §4.4's
//! adaptive-encoder remark, implemented).
//!
//! Two things change relative to the fixed-pattern smoother, and only
//! two — exactly as the paper observes ("the basic algorithm does not
//! depend on M, and it uses N only in picture size estimation"):
//!
//! 1. **Size estimation.** `S_j ≈ S_{j−N}` assumes pictures one period
//!    apart share a type; with a changing pattern the natural
//!    generalization is *the most recent arrived picture of the same
//!    type*, which degenerates to the paper's rule when the pattern is
//!    constant (the nearest same-type predecessor of an I at distance N
//!    is the previous I, etc. — for P/B slots it may find a nearer
//!    same-type picture, which is a strictly fresher sample).
//! 2. **The moving-average divisor** uses the `N` in force at picture `i`.
//!
//! Theorem 1 is untouched: it never depended on the pattern at all.

use crate::estimate::{DefaultSizes, Invalidation};
use crate::lookahead::LookaheadWindow;
use crate::params::SmootherParams;
use crate::smoother::{decide_one, BlockLanes, DecideCtx, RateSelection, SmoothingResult};
use smooth_mpeg::PatternSchedule;
use smooth_trace::adaptive::AdaptiveVideo;

/// Estimates `S_j` as the size of the most recent arrived picture of the
/// same type under `schedule`, falling back to the paper's per-type
/// defaults when no such picture has arrived.
pub fn same_type_estimate(
    schedule: &PatternSchedule,
    defaults: &DefaultSizes,
    j: usize,
    arrived: &[u64],
) -> f64 {
    let target = schedule.type_at(j);
    let upto = arrived.len().min(j);
    for x in (0..upto).rev() {
        if schedule.type_at(x) == target {
            return arrived[x] as f64;
        }
    }
    defaults.for_type(target)
}

/// Runs the smoothing algorithm over an adaptive-pattern video.
pub fn smooth_adaptive(
    video: &AdaptiveVideo,
    params: SmootherParams,
    selection: RateSelection,
) -> SmoothingResult {
    let k = params.k;
    let n_total = video.len();
    let sizes = &video.sizes;
    let defaults = DefaultSizes::PAPER;

    let mut schedule = Vec::with_capacity(n_total);
    let mut depart = 0.0f64;
    let mut prev_rate: Option<f64> = None;
    // The nearest-same-type estimate can change on *any* arrival (the new
    // picture may be a closer same-type sample for every unresolved slot),
    // so the window runs under the conservative invalidation contract.
    let mut window = LookaheadWindow::new();
    let mut lanes = BlockLanes::default();

    for i in 0..n_total {
        let time = params.start_time(i, depart);
        let arrived_by_time = params.arrived_by(time).min(n_total);
        let arrived = arrived_by_time.max((i + k).min(n_total));

        let visible = &sizes[..arrived];
        let sizes_ahead = window.advance(
            i,
            params.h.min(n_total - i),
            visible,
            Invalidation::OnAnyArrival,
            video.schedule.n_at(i),
            |j| same_type_estimate(&video.schedule, &defaults, j, visible),
        );
        let ctx = DecideCtx {
            params: &params,
            sizes_ahead,
            pattern_n: video.schedule.n_at(i),
            selection,
            i,
            start: time,
            prev_rate,
            size_i: sizes[i],
            exact_prefix: false,
        };
        let decision = decide_one(&ctx, &mut lanes);
        depart = decision.depart;
        prev_rate = Some(decision.rate);
        schedule.push(decision);
    }

    SmoothingResult { params, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_theorem1;
    use smooth_mpeg::{GopPattern, PatternSegment, PictureType};
    use smooth_trace::adaptive::adaptive_driving;

    #[test]
    fn theorem1_holds_on_adaptive_video() {
        let video = adaptive_driving();
        for (d, k) in [(0.1, 1), (0.2, 1), (0.2, 3), (0.4, 9)] {
            let params = SmootherParams::at_30fps(d, k, 9).expect("feasible");
            let result = smooth_adaptive(&video, params, RateSelection::Basic);
            let report = check_theorem1(&result);
            assert!(report.holds(), "D={d} K={k}: {report:?}");
        }
    }

    #[test]
    fn moving_average_uses_local_n() {
        let video = adaptive_driving();
        let params = SmootherParams::at_30fps(0.2, 1, 9).expect("feasible");
        let result = smooth_adaptive(&video, params, RateSelection::MovingAverage);
        assert!(check_theorem1(&result).holds());
    }

    #[test]
    fn same_type_estimate_finds_nearest_match() {
        let schedule = PatternSchedule::new(vec![
            PatternSegment {
                pictures: 18,
                pattern: GopPattern::new(3, 9).unwrap(),
            },
            PatternSegment {
                pictures: 12,
                pattern: GopPattern::new(2, 6).unwrap(),
            },
        ])
        .unwrap();
        let defaults = DefaultSizes::PAPER;
        // Arrived: pictures 0..20 with size = 1000 + index.
        let arrived: Vec<u64> = (0..20).map(|x| 1000 + x as u64).collect();
        // Picture 24 is an I (18 + 6): nearest arrived I is 18.
        assert_eq!(schedule.type_at(24), PictureType::I);
        assert_eq!(
            same_type_estimate(&schedule, &defaults, 24, &arrived),
            1018.0
        );
        // Picture 22 is a P of the (2,6) segment: nearest arrived P...
        assert_eq!(schedule.type_at(22), PictureType::P);
        // indices 18..20 are I(18), B(19); so the nearest P is in the
        // first segment: 15 (15 % 9 == 6 -> P).
        assert_eq!(
            same_type_estimate(&schedule, &defaults, 22, &arrived),
            1015.0
        );
    }

    #[test]
    fn same_type_estimate_cold_start_defaults() {
        let schedule = PatternSchedule::constant(GopPattern::new(3, 9).unwrap());
        let defaults = DefaultSizes::PAPER;
        assert_eq!(same_type_estimate(&schedule, &defaults, 0, &[]), 200_000.0);
        assert_eq!(same_type_estimate(&schedule, &defaults, 3, &[]), 100_000.0);
        assert_eq!(same_type_estimate(&schedule, &defaults, 1, &[]), 20_000.0);
    }

    #[test]
    fn adaptive_estimation_beats_wrong_fixed_pattern() {
        // Smoothing the adaptive video while pretending its pattern is a
        // constant (2,6): types are misclassified after the first switch,
        // so estimates are worse and the schedule is less smooth. The
        // schedule-aware smoother must do at least as well on the paper's
        // area-difference proxy: SD of rates (area difference needs an
        // ideal reference, ill-defined across pattern switches).
        let video = adaptive_driving();
        let params = SmootherParams::at_30fps(0.2, 1, 9).expect("feasible");

        let aware = smooth_adaptive(&video, params, RateSelection::Basic);

        // Naive: wrap the sizes in a fixed-pattern trace and use the
        // standard smoother.
        let naive_trace = smooth_trace::VideoTrace::new(
            "naive",
            GopPattern::new(2, 6).unwrap(),
            video.resolution,
            video.fps,
            video.sizes.clone(),
        )
        .unwrap();
        let naive = crate::smoother::smooth(&naive_trace, params);

        // Both satisfy Theorem 1 regardless.
        assert!(check_theorem1(&aware).holds());
        assert!(check_theorem1(&naive).holds());

        let sd = |r: &SmoothingResult| {
            let rates: Vec<f64> = r.rates().collect();
            let m = rates.iter().sum::<f64>() / rates.len() as f64;
            (rates.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / rates.len() as f64).sqrt()
        };
        assert!(
            sd(&aware) <= sd(&naive) * 1.05,
            "schedule-aware smoothing should not be rougher: {} vs {}",
            sd(&aware),
            sd(&naive)
        );
    }

    #[test]
    fn degenerates_to_fixed_pattern_behaviour() {
        // A constant schedule must give the same *guarantees* and nearly
        // the same schedule as the standard smoother (the estimator
        // differs: same-type-nearest vs one-pattern-back, both exact on a
        // periodic trace).
        let pattern = GopPattern::new(3, 9).unwrap();
        let sizes: Vec<u64> = (0..90)
            .map(|i| match pattern.type_at(i) {
                PictureType::I => 200_000,
                PictureType::P => 100_000,
                PictureType::B => 20_000,
            })
            .collect();
        let video = AdaptiveVideo {
            name: "const".into(),
            schedule: PatternSchedule::constant(pattern),
            resolution: smooth_mpeg::Resolution::VGA,
            fps: 30.0,
            sizes: sizes.clone(),
        };
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let adaptive = smooth_adaptive(&video, params, RateSelection::Basic);

        let trace = smooth_trace::VideoTrace::new(
            "const",
            pattern,
            smooth_mpeg::Resolution::VGA,
            30.0,
            sizes,
        )
        .unwrap();
        let fixed = crate::smoother::smooth(&trace, params);

        // On a perfectly periodic trace both estimators return the exact
        // sizes, so the schedules agree exactly.
        assert_eq!(adaptive.schedule, fixed.schedule);
    }
}
