//! The lossless smoothing algorithm (paper §4, Figure 2).
//!
//! ## System model (0-based indices)
//!
//! The paper numbers pictures from 1; this implementation uses 0-based
//! display indices, so every formula below is the paper's with `i → i+1`
//! substituted. Picture `i` arrives at the smoothing queue during
//! `(iτ, (i+1)τ]` and is completely known at `(i+1)τ`.
//!
//! ```text
//! t_i = max(d_{i−1}, (i+K)·τ)          start of service     (paper eq. 2)
//! d_i = t_i + S_i / r_i                departure            (paper eq. 3)
//! delay_i = d_i − i·τ                  per-picture delay    (paper eq. 4)
//! ```
//!
//! ## Rate bounds with lookahead `h` (paper eqs. 12–13)
//!
//! ```text
//! r_L(h) = Σ_{m=0..h} S_{i+m} / (D + (i+h)·τ − t_i)
//! r_U(h) = Σ_{m=0..h} S_{i+m} / ((i+h+K+1)·τ − t_i)   [∞ if denom ≤ 0]
//! ```
//!
//! Sizes beyond the known horizon are estimates; `r_L(0)`/`r_U(0)` use the
//! exact `S_i` and are the Theorem 1 bounds, so the delay bound and
//! continuous service hold for `K ≥ 1` regardless of estimation error.
//!
//! ## Rate selection
//!
//! The inner loop intersects the `[r_L(h), r_U(h)]` intervals for
//! `h = 0 .. H−1`:
//!
//! * **early exit** (`lower > upper` at some `h`): pick the bound that did
//!   *not* move — `upper` if the lower bound rose, `lower` if the upper
//!   bound fell — which keeps the rate valid for the first `h` pictures
//!   and minimizes future forced changes;
//! * **normal exit** (`h = H` reached): keep the previous rate unless it
//!   falls outside `[lower, upper]` ([`RateSelection::Basic`]), or snap to
//!   the pattern moving average `Σ/(N·τ)` clamped to the bounds
//!   ([`RateSelection::MovingAverage`], the paper's eq. 15 modification).
//!
//! The very first picture uses the interval midpoint.

use crate::estimate::{PatternEstimator, SizeEstimator};
use crate::lookahead::LookaheadWindow;
use crate::params::SmootherParams;
use serde::{Deserialize, Serialize};
use smooth_trace::VideoTrace;

/// Tolerance for floating-point comparisons of times (seconds). One
/// nanosecond — ten orders of magnitude below a picture period.
pub const TIME_EPS: f64 = 1e-9;

/// Serde adapter for an `f64` that may be `+∞` (JSON has no infinity:
/// encode it as `null`).
mod serde_maybe_infinite {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::INFINITY))
    }
}

/// How the rate is chosen on normal (full-lookahead) exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateSelection {
    /// Figure 2 as printed: keep the previous rate when it is still within
    /// bounds. Produces the fewest rate changes.
    Basic,
    /// The §4.4 modification: select the moving average `sum / (N·τ)`
    /// (clamped to the bounds). More, smaller rate changes; tracks the
    /// ideal rate function more closely (smaller area difference).
    MovingAverage,
}

/// The scheduling decision for one picture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PictureSchedule {
    /// Display index of the picture.
    pub index: usize,
    /// `t_i` — when the server began sending it (seconds).
    pub start: f64,
    /// `r_i` — the selected sending rate (bits/second).
    pub rate: f64,
    /// `d_i` — when its last bit left (seconds).
    pub depart: f64,
    /// `delay_i = d_i − i·τ` — includes encoding, queueing, and sending
    /// delay (paper eq. 4).
    pub delay: f64,
    /// Exact Theorem 1 lower bound `r_L(0)` at selection time.
    pub lower0: f64,
    /// Exact Theorem 1 upper bound `r_U(0)` at selection time. May be
    /// `+∞` (no continuous-service constraint); serialized as JSON `null`
    /// and restored as `+∞`.
    #[serde(with = "serde_maybe_infinite")]
    pub upper0: f64,
    /// Number of pictures the inner loop examined (1 ..= H).
    pub lookahead_used: usize,
}

/// Complete output of a smoothing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmoothingResult {
    /// Parameters the run used.
    pub params: SmootherParams,
    /// Per-picture schedule, display order.
    pub schedule: Vec<PictureSchedule>,
}

/// A maximal interval of constant sending rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateSegment {
    /// Segment start time (seconds).
    pub start: f64,
    /// Segment end time (seconds).
    pub end: f64,
    /// Rate over the segment (bits/second). Zero for idle gaps.
    pub rate: f64,
}

impl SmoothingResult {
    /// Selected rates, display order. Allocation-free; `.collect()` when a
    /// `Vec` is needed.
    pub fn rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.schedule.iter().map(|p| p.rate)
    }

    /// Per-picture delays, display order. Allocation-free; `.collect()`
    /// when a `Vec` is needed.
    pub fn delays(&self) -> impl Iterator<Item = f64> + '_ {
        self.schedule.iter().map(|p| p.delay)
    }

    /// Largest per-picture delay (0 for an empty schedule).
    pub fn max_delay(&self) -> f64 {
        self.delays().fold(0.0, f64::max)
    }

    /// Number of pictures whose delay exceeds the bound `D`
    /// (beyond [`TIME_EPS`]). Theorem 1: zero whenever `K ≥ 1`.
    pub fn delay_violations(&self) -> usize {
        self.schedule
            .iter()
            .filter(|p| p.delay > self.params.delay_bound + TIME_EPS)
            .count()
    }

    /// Number of times the rate changed from one picture to the next —
    /// the paper's second quantitative smoothness measure (§5.2).
    pub fn rate_changes(&self) -> usize {
        self.schedule
            .windows(2)
            .filter(|w| w[1].rate != w[0].rate)
            .count()
    }

    /// `true` if `t_{i+1} = d_i` for every consecutive pair: the server
    /// never idles (paper's *continuous service* property, guaranteed for
    /// `K ≥ 1` by Theorem 1).
    pub fn continuous_service(&self) -> bool {
        self.schedule
            .windows(2)
            .all(|w| (w[1].start - w[0].depart).abs() <= TIME_EPS)
    }

    /// Number of pictures whose last bit departed before the picture had
    /// completely arrived — buffer underflow, possible only for `K = 0`
    /// (paper §4.1, footnote 11).
    pub fn underflows(&self) -> usize {
        let tau = self.params.tau;
        self.schedule
            .iter()
            .filter(|p| p.depart + TIME_EPS < (p.index as f64 + 1.0) * tau)
            .count()
    }

    /// When the final bit left the smoother.
    pub fn completion_time(&self) -> f64 {
        self.schedule.last().map(|p| p.depart).unwrap_or(0.0)
    }

    /// The rate function `r(t)` as maximal constant-rate segments, with
    /// explicit zero-rate segments for any idle gaps (idle gaps occur only
    /// for `K = 0` configurations).
    pub fn rate_segments(&self) -> Vec<RateSegment> {
        let mut out: Vec<RateSegment> = Vec::with_capacity(self.schedule.len());
        for p in &self.schedule {
            if let Some(last) = out.last() {
                if p.start > last.end + TIME_EPS {
                    out.push(RateSegment {
                        start: last.end,
                        end: p.start,
                        rate: 0.0,
                    });
                }
            }
            out.push(RateSegment {
                start: p.start,
                end: p.depart,
                rate: p.rate,
            });
        }
        // Merge adjacent equal-rate segments so the result is maximal.
        let mut merged: Vec<RateSegment> = Vec::with_capacity(out.len());
        for seg in out {
            match merged.last_mut() {
                Some(last) if last.rate == seg.rate && (seg.start - last.end).abs() <= TIME_EPS => {
                    last.end = seg.end;
                }
                _ => merged.push(seg),
            }
        }
        merged
    }
}

/// Everything needed to schedule one picture — shared by the offline
/// [`Smoother`] and the streaming [`crate::online::OnlineSmoother`], so the
/// two cannot drift apart.
pub(crate) struct DecideCtx<'a> {
    pub params: &'a SmootherParams,
    /// Pre-resolved lookahead sizes: `sizes_ahead[m]` is `S_{i+m}` — the
    /// exact size if picture `i+m` has arrived by `t_i`, the caller's
    /// estimate otherwise. Already truncated to
    /// `min(H, horizon − i)` entries, so the inner loop is pure slice
    /// arithmetic with no dynamic dispatch. Callers fill one reusable
    /// scratch buffer per run instead of allocating per picture.
    pub sizes_ahead: &'a [f64],
    /// Pattern period `N` in force at picture `i` — used only by the
    /// moving-average selection (paper eq. 15).
    pub pattern_n: usize,
    pub selection: RateSelection,
    /// Display index of the picture being scheduled.
    pub i: usize,
    /// Start of service `t_i` (eq. 2), computed once by the caller via
    /// [`SmootherParams::start_time`] — callers need it earlier than the
    /// decision (to derive the arrived-watermark), so it is passed in
    /// rather than re-derived here.
    pub start: f64,
    /// Previously selected rate, if any.
    pub prev_rate: Option<f64>,
    /// The actual size of picture `i`, used for the departure time.
    /// (For `K ≥ 1` this is always `visible[i]`; for `K = 0` the rate may
    /// be chosen from an estimate while the departure still reflects the
    /// bits actually sent.)
    pub size_i: u64,
    /// Whether every `sizes_ahead` value is a nonnegative integer-valued
    /// `f64` with all window partial sums below 2⁵³ (see
    /// [`crate::estimate::SizeEstimator::integral_estimates`]). IEEE
    /// addition of such values is exact, so the prefix sums may be
    /// reassociated into a parallel scan without changing any output
    /// bit. `false` forces the strictly sequential summation.
    pub exact_prefix: bool,
}

pub use crate::simd::BlockLanes;
use crate::simd::{bound_blocks8, BoundState, DECIDE_BLOCK};

/// Schedules one picture: the body of the paper's outer `repeat` loop.
///
/// Computes the same IEEE divisions as the pre-PR scalar loop retained
/// in [`crate::reference::decide_one_reference`] — only grouped into
/// 8-lane blocks ([`bound_blocks8`]) so they vectorize, with the scalar
/// loop kept verbatim for the sub-block tail. The `incremental_props`
/// proptests pin the two bit-identical.
///
/// Inlined into each caller's loop so the `DecideCtx` fields stay in
/// registers instead of being marshalled through the stack per picture.
///
/// `lanes` is the block-pass scratch, hoisted to the caller so its
/// zero-initialisation is paid once per run rather than once per
/// picture. Every lane element is written before it is read within each
/// [`bound_blocks8`] call, so reuse across pictures cannot leak state.
#[inline(always)]
pub(crate) fn decide_one(ctx: &DecideCtx<'_>, lanes: &mut BlockLanes) -> PictureSchedule {
    let tau = ctx.params.tau;
    let d_bound = ctx.params.delay_bound;
    let k = ctx.params.k;
    let i = ctx.i;

    // t_i := max(d_{i-1}, (i + K) * tau)    {paper eq. 2, via start_time}
    let time = ctx.start;

    // Inner loop: intersect [r_L(h), r_U(h)] for h = 0..H-1 (the slice is
    // pre-truncated to the lookahead window, paper's `seq_end` included).
    let mut st = BoundState {
        sum: 0.0,
        lower: 0.0,
        upper: f64::INFINITY,
        lower_old: 0.0,
        upper_old: f64::INFINITY,
        lower0: 0.0,
        upper0: f64::INFINITY,
    };
    let mut h = 0usize;
    let mut crossed = false;

    let sizes_ahead = ctx.sizes_ahead;
    let len = sizes_ahead.len();
    if len >= DECIDE_BLOCK {
        (h, crossed) = bound_blocks8(
            sizes_ahead,
            i,
            k,
            tau,
            d_bound,
            time,
            ctx.exact_prefix,
            lanes,
            &mut st,
        );
    }
    // Scalar tail for the last `len % 8` steps — the pre-PR loop verbatim.
    while !crossed && h < len {
        st.sum += sizes_ahead[h];
        st.lower_old = st.lower;
        st.upper_old = st.upper;
        let dl = d_bound + (i + h) as f64 * tau - time;
        let new_lower = if dl > 0.0 { st.sum / dl } else { f64::INFINITY };
        let du = (i + h + k + 1) as f64 * tau - time;
        let new_upper = if du > 0.0 { st.sum / du } else { f64::INFINITY };
        st.lower = st.lower.max(new_lower);
        st.upper = st.upper.min(new_upper);
        if h == 0 {
            st.lower0 = new_lower;
            st.upper0 = new_upper;
        }
        h += 1;
        if st.lower > st.upper {
            crossed = true;
        }
    }

    finish_decision(
        ctx,
        time,
        st.sum,
        st.lower,
        st.upper,
        st.lower_old,
        st.upper_old,
        st.lower0,
        st.upper0,
        h,
        crossed,
    )
}

/// Turns the bound-intersection loop's exit state into a scheduled
/// picture: rate selection, grid snapping, departure. Shared verbatim by
/// [`decide_one`] and the frozen reference loop so the two can only
/// differ in how they compute the (identical) bounds. Inlined, as the
/// pre-PR code (where this tail was part of the decision loop body) was.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_decision(
    ctx: &DecideCtx<'_>,
    time: f64,
    sum: f64,
    lower: f64,
    upper: f64,
    lower_old: f64,
    upper_old: f64,
    lower0: f64,
    upper0: f64,
    h: usize,
    crossed: bool,
) -> PictureSchedule {
    let tau = ctx.params.tau;
    let i = ctx.i;

    let rate = if crossed {
        // Early exit: with feasible parameters exactly one bound moved in
        // the crossing step (see the paper's case analysis after
        // Figure 2). Choosing the unmoved bound keeps the rate feasible
        // for lookahead h−1 — and in particular for h = 0, so Theorem 1
        // still applies.
        if lower > lower_old {
            // The lower bound rose past the (unchanged) upper bound:
            // `upper == upper_old` here whenever eq. (1) holds.
            upper.min(upper_old)
        } else {
            lower
        }
    } else {
        // Normal exit: h* >= H-1 (or the sequence ended).
        match ctx.prev_rate {
            // {rate for first picture}. For i = 0 the upper bound is
            // always finite: t_0 = K·τ, so r_U(h) has a positive
            // denominator (h+1)·τ for every h.
            None => 0.5 * (lower + upper),
            Some(prev) => {
                let candidate = match ctx.selection {
                    RateSelection::Basic => prev,
                    // {possible modification here}: eq. (15).
                    RateSelection::MovingAverage => sum / (ctx.pattern_n as f64 * tau),
                };
                candidate.clamp(lower, upper)
            }
        }
    };

    // Optional channel rate grid: snap to a multiple of the grid without
    // leaving [lower, upper] (prefer up: a higher rate can only shrink
    // delays). Skipped when no multiple fits the interval.
    let rate = match ctx.params.rate_grid_bps {
        Some(grid) if rate.is_finite() && rate > 0.0 => {
            let up = (rate / grid).ceil() * grid;
            let down = (rate / grid).floor() * grid;
            if up <= upper {
                up.max(lower.min(up)) // up >= rate >= lower already
            } else if down >= lower && down > 0.0 {
                down
            } else {
                rate
            }
        }
        _ => rate,
    };

    // Degenerate configurations (K = 0 with an unsatisfiable D) can
    // produce an unusable rate; fall back to draining the picture within
    // one period. Cannot occur when eq. (1) holds and K >= 1.
    let rate = if rate.is_finite() && rate > 0.0 {
        rate
    } else {
        ctx.size_i as f64 / tau
    };

    let depart_new = time + ctx.size_i as f64 / rate;
    PictureSchedule {
        index: i,
        start: time,
        rate,
        depart: depart_new,
        delay: depart_new - i as f64 * tau,
        lower0,
        upper0,
        lookahead_used: h,
    }
}

/// Reusable working memory for smoothing runs: the incremental lookahead
/// window plus any future per-run buffers.
///
/// One `SmoothScratch` serves any number of sequential runs — across
/// pictures, traces, and parameter points — so the hot path allocates
/// nothing once the window has reached its steady-state capacity. Create
/// one per worker thread in batch settings and pass it to
/// [`smooth_with_scratch`].
#[derive(Debug, Default)]
pub struct SmoothScratch {
    pub(crate) window: LookaheadWindow,
}

impl SmoothScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The smoothing algorithm bound to a trace.
pub struct Smoother<'a> {
    params: SmootherParams,
    trace: &'a VideoTrace,
    estimator: &'a dyn SizeEstimator,
    selection: RateSelection,
}

impl<'a> Smoother<'a> {
    /// Creates a smoother with an explicit estimator and rate selection.
    pub fn new(
        trace: &'a VideoTrace,
        params: SmootherParams,
        estimator: &'a dyn SizeEstimator,
        selection: RateSelection,
    ) -> Self {
        Smoother {
            params,
            trace,
            estimator,
            selection,
        }
    }

    /// Runs the algorithm over the whole trace (the paper's procedure
    /// `smooth`, Figure 2), with private scratch.
    pub fn run(&self) -> SmoothingResult {
        self.run_with_scratch(&mut SmoothScratch::new())
    }

    /// [`run`](Self::run) with caller-provided working memory, so batch
    /// drivers amortize buffer growth across many runs.
    ///
    /// Per picture this costs the paper's O(H) interval-intersection loop
    /// plus amortized O(1) lookahead maintenance (the
    /// [`LookaheadWindow`] slides instead of refilling) — and, after
    /// warm-up, zero allocations.
    pub fn run_with_scratch(&self, scratch: &mut SmoothScratch) -> SmoothingResult {
        run_core(
            self.trace,
            self.params,
            self.estimator,
            self.selection,
            scratch,
        )
    }
}

/// The offline smoothing loop, generic over the estimator so the default
/// path ([`smooth`]/[`smooth_with_scratch`] with a concrete
/// [`PatternEstimator`]) monomorphizes — the closed-form estimate inlines
/// into the window engine with no virtual dispatch. [`Smoother`] calls
/// this with `E = dyn SizeEstimator`, keeping the flexible API.
fn run_core<E: SizeEstimator + ?Sized>(
    trace: &VideoTrace,
    params: SmootherParams,
    estimator: &E,
    selection: RateSelection,
    scratch: &mut SmoothScratch,
) -> SmoothingResult {
    let k = params.k;
    let h_max = params.h;
    let n_total = trace.len();
    let sizes = &trace.sizes;
    // Hoisted out of the per-picture loop: the pattern model and the
    // estimator's invalidation contract.
    let pattern = trace.pattern;
    let pattern_n = pattern.n();
    let invalidation = estimator.invalidation();
    // Order-free prefix sums are bit-identical exactly when every window
    // slot is a nonnegative integer-valued f64 (true sizes are u64 casts,
    // exact below 2^53; the estimator vouches for its estimates) and no
    // window partial sum can reach 2^53, where f64 addition starts to
    // round. The margin of 2 ulps absorbs rounding in the check itself.
    let exact_prefix = match estimator.integral_estimates() {
        Some(bound) => {
            let max_size = sizes.iter().copied().max().unwrap_or(0);
            max_size < (1u64 << 53)
                && (max_size as f64).max(bound) * ((h_max + 1) as f64) < 9007199254740990.0
        }
        None => false,
    };
    let window = &mut scratch.window;
    window.reset();

    let mut schedule = Vec::with_capacity(n_total);
    let mut depart = 0.0f64;
    let mut prev_rate: Option<f64> = None;
    let mut lanes = BlockLanes::default();

    for i in 0..n_total {
        let time = params.start_time(i, depart);

        // Pictures fully arrived by `time`: j with (j+1)τ ≤ time.
        // Pictures i .. i+K−1 are arrived by construction of `time`;
        // the max() guards the exact-boundary float case. Monotone in
        // i (t_i is), as the window engine requires.
        let arrived_by_time = params.arrived_by(time).min(n_total);
        let arrived = arrived_by_time.max((i + k).min(n_total));

        let visible = &sizes[..arrived];
        let sizes_ahead = window.advance(
            i,
            h_max.min(n_total - i),
            visible,
            invalidation,
            pattern_n,
            |j| estimator.estimate(j, visible.into(), &pattern),
        );
        let ctx = DecideCtx {
            params: &params,
            sizes_ahead,
            pattern_n,
            selection,
            i,
            start: time,
            prev_rate,
            size_i: sizes[i],
            exact_prefix,
        };
        let decision = decide_one(&ctx, &mut lanes);
        depart = decision.depart;
        prev_rate = Some(decision.rate);
        schedule.push(decision);
    }

    SmoothingResult { params, schedule }
}

/// Smooths a trace with the paper's defaults: pattern-based size
/// estimation and basic rate selection.
pub fn smooth(trace: &VideoTrace, params: SmootherParams) -> SmoothingResult {
    let estimator = PatternEstimator::default();
    Smoother::new(trace, params, &estimator, RateSelection::Basic).run()
}

/// Smooths a trace with an explicit estimator and rate-selection policy.
pub fn smooth_with(
    trace: &VideoTrace,
    params: SmootherParams,
    estimator: &dyn SizeEstimator,
    selection: RateSelection,
) -> SmoothingResult {
    Smoother::new(trace, params, estimator, selection).run()
}

/// [`smooth`] with caller-provided scratch — the building block for batch
/// drivers that reuse working memory across traces.
pub fn smooth_with_scratch(
    trace: &VideoTrace,
    params: SmootherParams,
    scratch: &mut SmoothScratch,
) -> SmoothingResult {
    // Concrete estimator type: run_core monomorphizes and the closed-form
    // estimate inlines into the window engine.
    let estimator = PatternEstimator::default();
    run_core(trace, params, &estimator, RateSelection::Basic, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::OracleEstimator;
    use smooth_mpeg::{GopPattern, PictureType, Resolution};

    const TAU: f64 = 1.0 / 30.0;

    fn toy_trace(n: usize) -> VideoTrace {
        let pattern = GopPattern::new(3, 9).unwrap();
        let sizes: Vec<u64> = (0..n)
            .map(|i| match pattern.type_at(i) {
                PictureType::I => 200_000,
                PictureType::P => 100_000,
                PictureType::B => 20_000,
            })
            .collect();
        VideoTrace::new("toy", pattern, Resolution::VGA, 30.0, sizes).unwrap()
    }

    fn params(d: f64, k: usize, h: usize) -> SmootherParams {
        SmootherParams::at_30fps(d, k, h).unwrap()
    }

    #[test]
    fn theorem1_holds_on_constant_pattern() {
        let trace = toy_trace(90);
        for (d, k, h) in [
            (0.1, 1, 9),
            (0.2, 1, 9),
            (0.3, 1, 9),
            (0.2, 3, 9),
            (0.4, 9, 9),
        ] {
            let r = smooth(&trace, params(d, k, h));
            assert_eq!(r.delay_violations(), 0, "D={d} K={k} H={h}");
            assert!(r.continuous_service(), "D={d} K={k} H={h}");
            assert!(r.max_delay() <= d + TIME_EPS);
            assert_eq!(r.underflows(), 0);
        }
    }

    #[test]
    fn selected_rates_respect_theorem1_bounds() {
        let trace = toy_trace(90);
        let r = smooth(&trace, params(0.2, 1, 9));
        for p in &r.schedule {
            assert!(
                p.rate >= p.lower0 - 1e-6 && p.rate <= p.upper0 + 1e-6,
                "picture {}: rate {} outside [{}, {}]",
                p.index,
                p.rate,
                p.lower0,
                p.upper0
            );
        }
    }

    #[test]
    fn perfectly_periodic_trace_needs_few_rate_changes() {
        // After warm-up (one pattern of estimates), a perfectly periodic
        // trace with H = N should settle to an almost constant rate.
        let trace = toy_trace(180);
        let r = smooth(&trace, params(0.3, 1, 9));
        // Rate changes confined to the first patterns; the steady state
        // tail is constant.
        let rates: Vec<f64> = r.rates().collect();
        let tail = &rates[36..];
        let changes = tail.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(
            changes,
            0,
            "steady state should hold one rate: {:?}",
            &tail[..12]
        );
    }

    #[test]
    fn steady_rate_approximates_pattern_average() {
        let trace = toy_trace(180);
        let r = smooth(&trace, params(0.3, 1, 9));
        let pattern_rate = (200_000.0 + 2.0 * 100_000.0 + 6.0 * 20_000.0) / (9.0 * TAU);
        let settled = r.schedule[90].rate;
        assert!(
            (settled / pattern_rate - 1.0).abs() < 0.25,
            "settled {settled} vs pattern {pattern_rate}"
        );
    }

    #[test]
    fn k0_can_violate_delay_bound() {
        // Paper §5.2: "For K = 0, however, we did observe some delay bound
        // violations when the slack in the delay bound was deliberately
        // made very small."
        let pattern = GopPattern::new(3, 9).unwrap();
        // A huge I picture after tiny ones defeats K = 0: the rate chosen
        // for earlier pictures was based on estimates; with no slack the
        // bound breaks.
        let mut sizes = vec![5_000u64; 18];
        for (i, s) in sizes.iter_mut().enumerate() {
            if pattern.type_at(i) == PictureType::I {
                *s = 400_000;
            }
        }
        let trace = VideoTrace::new("spiky", pattern, Resolution::VGA, 30.0, sizes).unwrap();
        let p = SmootherParams::new_unchecked(0.034, 0, 9, TAU); // slack ~ 0.0007s
        let r = smooth(&trace, p);
        assert!(
            r.delay_violations() > 0,
            "expected violations at K=0 with near-zero slack; max delay {}",
            r.max_delay()
        );
    }

    #[test]
    fn k1_never_violates_even_with_adversarial_sizes() {
        // Same spiky trace, K = 1, minimal feasible D: Theorem 1 holds.
        let pattern = GopPattern::new(3, 9).unwrap();
        let mut sizes = vec![5_000u64; 45];
        for (i, s) in sizes.iter_mut().enumerate() {
            if pattern.type_at(i) == PictureType::I {
                *s = 400_000;
            }
        }
        let trace = VideoTrace::new("spiky", pattern, Resolution::VGA, 30.0, sizes).unwrap();
        let p = params(2.0 * TAU, 1, 9); // D exactly (K+1)tau
        let r = smooth(&trace, p);
        assert_eq!(r.delay_violations(), 0);
        assert!(r.continuous_service());
    }

    #[test]
    fn first_picture_starts_at_k_tau() {
        let trace = toy_trace(18);
        for k in 0..4 {
            let p = SmootherParams::new_unchecked(0.4, k, 9, TAU);
            let r = smooth(&trace, p);
            assert!(
                (r.schedule[0].start - k as f64 * TAU).abs() < 1e-12,
                "K={k}: start {}",
                r.schedule[0].start
            );
        }
    }

    #[test]
    fn departures_are_monotone_and_positive() {
        let trace = toy_trace(90);
        let r = smooth(&trace, params(0.2, 1, 9));
        let mut last = 0.0;
        for p in &r.schedule {
            assert!(p.rate > 0.0);
            assert!(p.depart > p.start);
            assert!(p.start >= last - TIME_EPS);
            last = p.depart;
        }
    }

    #[test]
    fn moving_average_changes_more_often_but_tracks_mean() {
        let trace = toy_trace(180);
        let p = params(0.2, 1, 9);
        let est = PatternEstimator::default();
        let basic = smooth_with(&trace, p, &est, RateSelection::Basic);
        let ma = smooth_with(&trace, p, &est, RateSelection::MovingAverage);
        // Paper §4.4: "The modified algorithm produces numerous small rate
        // changes over time". (On a perfectly periodic trace both settle;
        // compare on a noisy one instead - done in integration tests. Here
        // just verify MA also satisfies the theorem.)
        assert_eq!(ma.delay_violations(), 0);
        assert!(ma.continuous_service());
        assert_eq!(basic.delay_violations(), 0);
    }

    #[test]
    fn oracle_estimator_also_satisfies_theorem() {
        let trace = toy_trace(90);
        let est = OracleEstimator {
            sizes: trace.sizes.clone(),
        };
        let r = smooth_with(&trace, params(0.2, 1, 9), &est, RateSelection::Basic);
        assert_eq!(r.delay_violations(), 0);
        assert!(r.continuous_service());
    }

    #[test]
    fn h1_disables_lookahead() {
        let trace = toy_trace(90);
        let r = smooth(&trace, params(0.2, 1, 1));
        assert!(r.schedule.iter().all(|p| p.lookahead_used == 1));
        assert_eq!(r.delay_violations(), 0);
        assert!(r.continuous_service());
    }

    #[test]
    fn lookahead_capped_by_trace_end() {
        let trace = toy_trace(10);
        let r = smooth(&trace, params(0.3, 1, 9));
        let last = r.schedule.last().unwrap();
        assert_eq!(
            last.lookahead_used, 1,
            "last picture can only examine itself"
        );
        assert_eq!(
            r.schedule[5].lookahead_used.min(5),
            5,
            "picture 5 sees 5 pictures"
        );
    }

    #[test]
    fn single_picture_trace() {
        let pattern = GopPattern::new(1, 1).unwrap();
        let trace = VideoTrace::new("one", pattern, Resolution::VGA, 30.0, vec![90_000]).unwrap();
        let r = smooth(&trace, params(0.1, 1, 1));
        assert_eq!(r.schedule.len(), 1);
        assert_eq!(r.delay_violations(), 0);
        assert_eq!(r.rate_changes(), 0);
        assert!(r.continuous_service()); // vacuous
    }

    #[test]
    fn rate_segments_abut_under_continuous_service() {
        let trace = toy_trace(90);
        let r = smooth(&trace, params(0.2, 1, 9));
        let segs = r.rate_segments();
        assert!(segs.iter().all(|s| s.rate > 0.0), "no idle gaps for K >= 1");
        for w in segs.windows(2) {
            assert!((w[1].start - w[0].end).abs() <= TIME_EPS);
            assert_ne!(w[1].rate, w[0].rate, "segments must be maximal");
        }
        // Total bits sent equals total trace bits.
        let sent: f64 = segs.iter().map(|s| (s.end - s.start) * s.rate).sum();
        assert!((sent / trace.total_bits() as f64 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rate_changes_counts_transitions() {
        let trace = toy_trace(90);
        let r = smooth(&trace, params(0.2, 1, 9));
        let rates: Vec<f64> = r.rates().collect();
        let manual = rates.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(r.rate_changes(), manual);
    }

    #[test]
    fn increasing_d_never_hurts_smoothness() {
        // Figure 6's monotone trend, in miniature: SD of rates decreases
        // (weakly) as D grows on the periodic toy trace.
        let trace = toy_trace(180);
        let sd = |d: f64| {
            let r = smooth(&trace, params(d, 1, 9));
            let rates: Vec<f64> = r.rates().collect();
            let m = rates.iter().sum::<f64>() / rates.len() as f64;
            (rates.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / rates.len() as f64).sqrt()
        };
        assert!(
            sd(0.30) <= sd(0.10) + 1.0,
            "sd(0.3)={} sd(0.1)={}",
            sd(0.30),
            sd(0.10)
        );
    }

    #[test]
    fn rate_grid_snaps_to_multiples_and_keeps_theorem() {
        let trace = toy_trace(180);
        let grid = 64_000.0; // p x 64 kbit/s
        let p = params(0.2, 1, 9).with_rate_grid(grid);
        let r = smooth(&trace, p);
        assert_eq!(r.delay_violations(), 0);
        assert!(r.continuous_service());
        // Nearly every rate lands on the grid; the rare off-grid rate is
        // a bound clamp where no multiple fits the interval.
        let on_grid = r
            .rates()
            .filter(|&x| (x / grid - (x / grid).round()).abs() < 1e-9)
            .count();
        assert!(
            on_grid * 10 >= r.schedule.len() * 9,
            "{on_grid}/{} rates on the 64k grid",
            r.schedule.len()
        );
        // And the grid coarsens the rate function: no more changes than
        // the exact algorithm has.
        let exact = smooth(&trace, params(0.2, 1, 9));
        assert!(r.rate_changes() <= exact.rate_changes() + 5);
    }

    #[test]
    fn rate_grid_respects_theorem_bounds() {
        let trace = toy_trace(90);
        let p = params(0.15, 1, 9).with_rate_grid(100_000.0);
        let r = smooth(&trace, p);
        for pic in &r.schedule {
            assert!(
                pic.rate >= pic.lower0 - 1e-6 && pic.rate <= pic.upper0 + 1e-6,
                "picture {}: snapped rate {} outside [{}, {}]",
                pic.index,
                pic.rate,
                pic.lower0,
                pic.upper0
            );
        }
    }

    #[test]
    #[should_panic(expected = "bad rate grid")]
    fn rate_grid_rejects_zero() {
        params(0.2, 1, 9).with_rate_grid(0.0);
    }

    #[test]
    fn empty_trace_rejected_upstream_but_smoother_is_total() {
        // VideoTrace::new rejects empties, but a manually built one should
        // still not panic the smoother.
        let pattern = GopPattern::new(3, 9).unwrap();
        let trace = VideoTrace {
            name: "empty".into(),
            pattern,
            resolution: Resolution::VGA,
            fps: 30.0,
            sizes: vec![],
        };
        let r = smooth(&trace, params(0.2, 1, 9));
        assert!(r.schedule.is_empty());
        assert_eq!(r.completion_time(), 0.0);
        assert_eq!(r.rate_segments().len(), 0);
    }
}
