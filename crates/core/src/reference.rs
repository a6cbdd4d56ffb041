//! Naive reference implementations, retained as test oracles.
//!
//! PR 3 replaced the per-picture O(H) lookahead refill and the O(n/N)
//! pattern walk-back with the incremental
//! [`crate::lookahead::LookaheadWindow`] engine and a closed-form O(1)
//! [`crate::estimate::PatternEstimator`]. The schedules are required to be
//! **bit-identical**, so the superseded code lives on here — simple enough
//! to audit by eye against the paper — and the proptests in
//! `crates/core/tests/incremental_props.rs` plus the throughput benches in
//! `crates/bench` pin the fast paths against it.
//!
//! Nothing in this module is called by production code paths.

use crate::estimate::{Arrived, DefaultSizes, PatternEstimator, SizeEstimator};
use crate::params::SmootherParams;
use crate::smoother::{DecideCtx, PictureSchedule, RateSelection, SmoothingResult, TIME_EPS};
use smooth_mpeg::GopPattern;
use smooth_trace::VideoTrace;

/// The pre-PR per-picture decision loop, verbatim: one scalar
/// `sum / dl`, `sum / du` pair per lookahead step with running
/// max/min intersection. [`crate::smoother`]'s production `decide_one`
/// computes the identical IEEE divisions in blocked form (so the
/// backend can pack them two-per-`divpd`); the `incremental_props`
/// proptests hold the two bit-identical.
pub(crate) fn decide_one_reference(ctx: &DecideCtx<'_>) -> PictureSchedule {
    let tau = ctx.params.tau;
    let d_bound = ctx.params.delay_bound;
    let k = ctx.params.k;
    let i = ctx.i;

    // t_i := max(d_{i-1}, (i + K) * tau)    {paper eq. 2, via start_time}
    let time = ctx.start;

    // Inner loop: intersect [r_L(h), r_U(h)] for h = 0..H-1.
    let mut sum = 0.0f64;
    let mut lower = 0.0f64;
    let mut upper = f64::INFINITY;
    let mut lower_old = 0.0f64;
    let mut upper_old = f64::INFINITY;
    let mut lower0 = 0.0f64;
    let mut upper0 = f64::INFINITY;
    let mut h = 0usize;
    let mut crossed = false;
    while h < ctx.sizes_ahead.len() {
        sum += ctx.sizes_ahead[h];
        lower_old = lower;
        upper_old = upper;
        // r_L(h): delay-bound constraint (paper eq. 12).
        let dl = d_bound + (i + h) as f64 * tau - time;
        let new_lower = if dl > 0.0 { sum / dl } else { f64::INFINITY };
        // r_U(h): continuous-service constraint (paper eq. 13).
        let du = (i + h + k + 1) as f64 * tau - time;
        let new_upper = if du > 0.0 { sum / du } else { f64::INFINITY };
        lower = lower.max(new_lower);
        upper = upper.min(new_upper);
        if h == 0 {
            lower0 = new_lower;
            upper0 = new_upper;
        }
        h += 1;
        if lower > upper {
            crossed = true;
            break;
        }
    }

    crate::smoother::finish_decision(
        ctx, time, sum, lower, upper, lower_old, upper_old, lower0, upper0, h, crossed,
    )
}

/// Fills `scratch` with the lookahead window `S_i .. S_{i+look−1}`:
/// exact sizes for the arrived prefix, `estimate(j)` beyond it.
///
/// This is the naive resolution the incremental window replaced: every
/// picture pays O(`look`) work and one estimator call per unresolved slot.
pub fn fill_lookahead(
    scratch: &mut Vec<f64>,
    i: usize,
    look: usize,
    visible: &[u64],
    mut estimate: impl FnMut(usize) -> f64,
) {
    scratch.clear();
    for j in i..i + look {
        scratch.push(if j < visible.len() {
            visible[j] as f64
        } else {
            estimate(j)
        });
    }
}

/// The paper's `S_j ≈ S_{j−N}` estimate as literally written: walk back
/// one pattern at a time (`j−N, j−2N, …`) until an arrived picture is
/// found, else the per-type default.
///
/// [`PatternEstimator::estimate`] computes the same value in closed form;
/// the `estimator_closed_form_equals_walk_back` proptest holds them equal.
pub fn walk_back_estimate(
    defaults: &DefaultSizes,
    j: usize,
    arrived: Arrived<'_>,
    pattern: &GopPattern,
) -> f64 {
    let n = pattern.n();
    let mut back = j;
    while back >= n {
        back -= n;
        if back < arrived.len() {
            return arrived.get(back) as f64;
        }
    }
    defaults.for_type(pattern.type_at(j))
}

/// [`SizeEstimator`] wrapper around [`walk_back_estimate`]. Keeps the
/// conservative default invalidation contract, so it is safe (if slow)
/// anywhere an estimator is accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferencePatternEstimator {
    /// Cold-start defaults (the paper's §4.4 values by default).
    pub defaults: DefaultSizes,
}

impl Default for ReferencePatternEstimator {
    fn default() -> Self {
        ReferencePatternEstimator {
            defaults: DefaultSizes::PAPER,
        }
    }
}

impl SizeEstimator for ReferencePatternEstimator {
    fn estimate(&self, j: usize, arrived: Arrived<'_>, pattern: &GopPattern) -> f64 {
        walk_back_estimate(&self.defaults, j, arrived, pattern)
    }

    fn name(&self) -> &'static str {
        "pattern-walk-back"
    }
}

/// The pre-engine offline smoother: per-picture [`fill_lookahead`] refill,
/// otherwise identical to [`crate::Smoother::run`]. The determinism suites
/// assert bit-identical output against the window-engine smoother.
pub fn smooth_reference_with(
    trace: &VideoTrace,
    params: SmootherParams,
    estimator: &dyn SizeEstimator,
    selection: RateSelection,
) -> SmoothingResult {
    let tau = params.tau;
    let k = params.k;
    let n_total = trace.len();
    let sizes = &trace.sizes;
    let pattern = trace.pattern;
    let pattern_n = pattern.n();
    let mut sizes_ahead: Vec<f64> = Vec::with_capacity(params.h);

    let mut schedule = Vec::with_capacity(n_total);
    let mut depart = 0.0f64;
    let mut prev_rate: Option<f64> = None;

    for i in 0..n_total {
        let time = params.start_time(i, depart);

        // Pictures fully arrived by `time`: j with (j+1)τ ≤ time.
        let arrived_by_time = (((time + TIME_EPS) / tau).floor() as usize).min(n_total);
        let arrived = arrived_by_time.max((i + k).min(n_total));

        let visible = &sizes[..arrived];
        fill_lookahead(
            &mut sizes_ahead,
            i,
            params.h.min(n_total - i),
            visible,
            |j| estimator.estimate(j, visible.into(), &pattern),
        );
        let decision = decide_one_reference(&DecideCtx {
            params: &params,
            sizes_ahead: &sizes_ahead,
            pattern_n,
            selection,
            i,
            start: time,
            prev_rate,
            size_i: sizes[i],
            exact_prefix: false,
        });
        depart = decision.depart;
        prev_rate = Some(decision.rate);
        schedule.push(decision);
    }

    SmoothingResult { params, schedule }
}

/// [`smooth_reference_with`] with the paper's defaults — the oracle for
/// [`crate::smooth`].
pub fn smooth_reference(trace: &VideoTrace, params: SmootherParams) -> SmoothingResult {
    let estimator = PatternEstimator::default();
    smooth_reference_with(trace, params, &estimator, RateSelection::Basic)
}

/// The pre-engine *live* streaming path: mirrors
/// [`crate::online::OnlineSmoother`]'s drain loop with unknown sequence
/// length (decisions for the last `H − 1` pictures may use estimates past
/// the end), resolving lookahead with the naive [`fill_lookahead`].
pub fn smooth_live_reference(
    trace: &VideoTrace,
    params: SmootherParams,
    estimator: &dyn SizeEstimator,
    selection: RateSelection,
) -> SmoothingResult {
    let tau = params.tau;
    let k = params.k;
    let pattern = trace.pattern;
    let total = trace.len();

    let mut arrived: Vec<u64> = Vec::with_capacity(total);
    let mut schedule = Vec::with_capacity(total);
    let mut sizes_ahead: Vec<f64> = Vec::with_capacity(params.h);
    let mut decided = 0usize;
    let mut depart = 0.0f64;
    let mut prev_rate: Option<f64> = None;

    // Steps 0..total are pushes; the final step is `finish()`.
    for step in 0..=total {
        let ended = step == total;
        if !ended {
            arrived.push(trace.sizes[step]);
        }
        let n_known: Option<usize> = if ended { Some(arrived.len()) } else { None };
        loop {
            let i = decided;
            if let Some(n) = n_known {
                if i >= n {
                    break;
                }
            }
            let time = params.start_time(i, depart);
            let arrived_by_time = ((time + TIME_EPS) / tau).floor() as usize;
            let mut need = arrived_by_time.max(i + k).max(i + 1);
            if let Some(n) = n_known {
                need = need.min(n.max(i + 1));
            }
            if arrived.len() < need && !ended {
                break;
            }
            if arrived.len() <= i {
                break;
            }
            let visible_len = need.min(arrived.len());
            let visible = &arrived[..visible_len];
            let look = match n_known {
                Some(n) => params.h.min(n - i),
                None => params.h,
            };
            fill_lookahead(&mut sizes_ahead, i, look, visible, |j| {
                estimator.estimate(j, visible.into(), &pattern)
            });
            let decision = decide_one_reference(&DecideCtx {
                params: &params,
                sizes_ahead: &sizes_ahead,
                pattern_n: pattern.n(),
                selection,
                i,
                start: time,
                prev_rate,
                size_i: arrived[i],
                exact_prefix: false,
            });
            depart = decision.depart;
            prev_rate = Some(decision.rate);
            decided += 1;
            schedule.push(decision);
        }
    }

    SmoothingResult { params, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoother::smooth;
    use smooth_mpeg::{PictureType, Resolution};

    fn noisy_trace(n: usize) -> VideoTrace {
        let pattern = GopPattern::new(3, 9).unwrap();
        let sizes: Vec<u64> = (0..n)
            .map(|i| match pattern.type_at(i) {
                PictureType::I => 180_000 + (i as u64 * 31) % 60_000,
                PictureType::P => 80_000 + (i as u64 * 17) % 30_000,
                PictureType::B => 16_000 + (i as u64 * 7) % 9_000,
            })
            .collect();
        VideoTrace::new("ref", pattern, Resolution::VGA, 30.0, sizes).unwrap()
    }

    #[test]
    fn reference_matches_engine_smoother() {
        let trace = noisy_trace(120);
        for (d, k, h) in [(0.1, 1, 9), (0.2, 1, 9), (0.2, 3, 18), (0.4, 9, 9)] {
            let p = SmootherParams::at_30fps(d, k, h).unwrap();
            assert_eq!(
                smooth_reference(&trace, p),
                smooth(&trace, p),
                "D={d} K={k} H={h}"
            );
        }
    }

    #[test]
    fn walk_back_equals_closed_form_on_samples() {
        let pattern = GopPattern::new(3, 9).unwrap();
        let est = PatternEstimator::default();
        let arrived: Vec<u64> = (0..25).map(|x| 500 + 13 * x).collect();
        for j in 0..80 {
            for take in [0usize, 1, 5, 9, 24, 25] {
                let pre = &arrived[..take];
                assert_eq!(
                    walk_back_estimate(&est.defaults, j, pre.into(), &pattern),
                    est.estimate(j, pre.into(), &pattern),
                    "j={j} take={take}"
                );
            }
        }
    }
}
