//! Piecewise-constant functions of time.
//!
//! Rate functions — the algorithm's `r(t)`, ideal smoothing's `R(t)`, the
//! encoder's `A(t)` — are all step functions. This module gives them a
//! first-class representation with exact integration, shifting, and
//! pairwise combination, which is what the paper's quantitative measures
//! (§5.2) are built from.

use serde::{Deserialize, Serialize};
use smooth_core::RateSegment;

/// A right-open piecewise-constant function: `values[i]` on
/// `[breaks[i], breaks[i+1])`. Outside `[breaks[0], breaks[last])` the
/// function is 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepFunction {
    /// Breakpoints, strictly increasing; `breaks.len() == values.len() + 1`.
    breaks: Vec<f64>,
    /// Value on each interval.
    values: Vec<f64>,
}

impl StepFunction {
    /// The zero function (empty domain).
    pub fn zero() -> Self {
        StepFunction {
            breaks: vec![0.0, 0.0],
            values: vec![0.0],
        }
    }

    /// Builds from breakpoints and values.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch, breakpoints are not non-decreasing, or
    /// any value is non-finite.
    pub fn new(breaks: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(
            breaks.len(),
            values.len() + 1,
            "breaks must be one longer than values"
        );
        assert!(
            breaks.windows(2).all(|w| w[1] >= w[0]),
            "breakpoints must be non-decreasing"
        );
        assert!(
            values.iter().all(|v| v.is_finite()),
            "values must be finite"
        );
        StepFunction { breaks, values }
    }

    /// Builds from rate segments (as produced by the smoother and the
    /// baselines), inserting explicit zero-rate pieces in any gaps.
    pub fn from_segments(segments: &[RateSegment]) -> Self {
        if segments.is_empty() {
            return StepFunction::zero();
        }
        let mut breaks = Vec::with_capacity(segments.len() * 2 + 1);
        let mut values = Vec::with_capacity(segments.len() * 2);
        breaks.push(segments[0].start);
        for seg in segments {
            let last = *breaks.last().expect("non-empty");
            if seg.start > last + 1e-12 {
                values.push(0.0);
                breaks.push(seg.start);
            }
            if seg.end > *breaks.last().expect("non-empty") {
                values.push(seg.rate);
                breaks.push(seg.end);
            }
        }
        StepFunction { breaks, values }
    }

    /// The breakpoints (one more than the number of pieces).
    pub fn breakpoints(&self) -> &[f64] {
        &self.breaks
    }

    /// The piece values (one fewer than the breakpoints).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The pieces as `(start, end, value)` triples.
    pub fn pieces(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        (0..self.values.len()).map(|i| (self.breaks[i], self.breaks[i + 1], self.values[i]))
    }

    /// Start of the non-zero domain.
    pub fn domain_start(&self) -> f64 {
        self.breaks[0]
    }

    /// End of the non-zero domain.
    pub fn domain_end(&self) -> f64 {
        *self.breaks.last().expect("at least two breaks")
    }

    /// Value at time `t` (0 outside the domain).
    ///
    /// Well-defined even when `breaks` contains duplicates (zero-length
    /// pieces): the piece *after* the last break `<= t` applies, matching
    /// the right-open convention.
    pub fn value_at(&self, t: f64) -> f64 {
        // Number of breaks <= t; the piece in effect is the one starting
        // at the last of them.
        let idx = self.breaks.partition_point(|&b| b <= t);
        if idx == 0 || idx > self.values.len() {
            0.0
        } else {
            self.values[idx - 1]
        }
    }

    /// A forward-only cursor positioned at time `t` — the O(1)-advance
    /// access path for k-way merges over many step functions (one
    /// `partition_point` to seat it, then each [`StepCursor::advance_past`]
    /// is amortized O(1) instead of a fresh binary search per lookup).
    pub fn cursor_at(&self, t: f64) -> StepCursor<'_> {
        StepCursor {
            f: self,
            idx: self.breaks.partition_point(|&b| b <= t),
        }
    }

    /// Exact integral over `[a, b]`.
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..self.values.len() {
            let lo = self.breaks[i].max(a);
            let hi = self.breaks[i + 1].min(b);
            if hi > lo {
                total += self.values[i] * (hi - lo);
            }
        }
        total
    }

    /// Number of value changes (ignoring zero-length pieces).
    pub fn changes(&self) -> usize {
        self.values
            .iter()
            .zip(self.values.iter().skip(1))
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Maximum value attained on `[a, b]` (counting implicit zeros where
    /// the interval leaves the domain).
    pub fn max_over(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let mut m = f64::NEG_INFINITY;
        // Implicit zero outside the domain.
        if a < self.domain_start() || b > self.domain_end() {
            m = 0.0;
        }
        for i in 0..self.values.len() {
            let lo = self.breaks[i].max(a);
            let hi = self.breaks[i + 1].min(b);
            if hi > lo {
                m = m.max(self.values[i]);
            }
        }
        if m == f64::NEG_INFINITY {
            0.0
        } else {
            m
        }
    }

    /// Time-weighted mean over `[a, b]`.
    pub fn mean_over(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.integral(a, b) / (b - a)
    }

    /// Time-weighted (population) standard deviation over `[a, b]`.
    pub fn std_over(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let mean = self.mean_over(a, b);
        // Integrate (f - mean)^2, handling implicit zeros outside the
        // domain by accounting for uncovered length.
        let mut covered = 0.0;
        let mut acc = 0.0;
        for i in 0..self.values.len() {
            let lo = self.breaks[i].max(a);
            let hi = self.breaks[i + 1].min(b);
            if hi > lo {
                let d = self.values[i] - mean;
                acc += d * d * (hi - lo);
                covered += hi - lo;
            }
        }
        let uncovered = (b - a) - covered;
        if uncovered > 0.0 {
            acc += mean * mean * uncovered;
        }
        (acc / (b - a)).sqrt()
    }

    /// The function shifted left by `dt`: `g(t) = f(t + dt)`.
    pub fn shifted_left(&self, dt: f64) -> StepFunction {
        StepFunction {
            breaks: self.breaks.iter().map(|b| b - dt).collect(),
            values: self.values.clone(),
        }
    }

    /// Integrates `combine(self(t), other(t))` over `[a, b]` exactly, by
    /// merging the two breakpoint sets. `combine` must map constants to
    /// constants (no dependence on `t`).
    pub fn integrate_with(
        &self,
        other: &StepFunction,
        a: f64,
        b: f64,
        combine: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        if b <= a {
            return 0.0;
        }
        let mut cuts: Vec<f64> = Vec::with_capacity(self.breaks.len() + other.breaks.len() + 2);
        cuts.push(a);
        cuts.push(b);
        cuts.extend(self.breaks.iter().copied().filter(|&t| t > a && t < b));
        cuts.extend(other.breaks.iter().copied().filter(|&t| t > a && t < b));
        cuts.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-15);

        let mut total = 0.0;
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi > lo {
                let mid = 0.5 * (lo + hi);
                total += combine(self.value_at(mid), other.value_at(mid)) * (hi - lo);
            }
        }
        total
    }
}

/// A forward-only position inside a [`StepFunction`].
///
/// The cursor tracks "how many breaks are `<= t`" for a monotonically
/// advancing time `t`, giving the value in effect and the next breakpoint
/// without re-searching. Invariant: [`StepCursor::value`] equals
/// [`StepFunction::value_at`] at the cursor's time — bit-for-bit — which
/// is what lets a streaming sweep replace per-interval `value_at` sampling
/// while remaining exactly equal to it.
#[derive(Debug, Clone, Copy)]
pub struct StepCursor<'a> {
    f: &'a StepFunction,
    /// Number of breaks `<= t` for the cursor's time `t`;
    /// `0 ..= breaks.len()`.
    idx: usize,
}

impl<'a> StepCursor<'a> {
    /// Value of the function at the cursor's current time (0 outside the
    /// domain).
    pub fn value(&self) -> f64 {
        if self.idx == 0 || self.idx > self.f.values.len() {
            0.0
        } else {
            self.f.values[self.idx - 1]
        }
    }

    /// The next breakpoint strictly after the cursor's time, if any.
    /// Duplicate breaks collapse: each distinct time is reported once.
    pub fn next_break(&self) -> Option<f64> {
        self.f.breaks.get(self.idx).copied()
    }

    /// Advances the cursor past every break `<= t`. Amortized O(1) over a
    /// forward scan (each break is stepped over once).
    pub fn advance_past(&mut self, t: f64) {
        while let Some(&b) = self.f.breaks.get(self.idx) {
            if b <= t {
                self.idx += 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> StepFunction {
        // 2 on [0,1), 5 on [1,3), 1 on [3,4).
        StepFunction::new(vec![0.0, 1.0, 3.0, 4.0], vec![2.0, 5.0, 1.0])
    }

    #[test]
    fn value_lookup() {
        let f = step();
        assert_eq!(f.value_at(-0.5), 0.0);
        assert_eq!(f.value_at(0.0), 2.0);
        assert_eq!(f.value_at(0.999), 2.0);
        assert_eq!(f.value_at(1.0), 5.0);
        assert_eq!(f.value_at(2.9), 5.0);
        assert_eq!(f.value_at(3.0), 1.0);
        assert_eq!(f.value_at(4.0), 0.0, "right-open at the domain end");
        assert_eq!(f.value_at(100.0), 0.0);
    }

    #[test]
    fn integral_exact() {
        let f = step();
        assert!((f.integral(0.0, 4.0) - (2.0 + 10.0 + 1.0)).abs() < 1e-12);
        assert!((f.integral(0.5, 1.5) - (1.0 + 2.5)).abs() < 1e-12);
        // Beyond the domain contributes zero.
        assert!((f.integral(-1.0, 5.0) - 13.0).abs() < 1e-12);
        assert_eq!(f.integral(2.0, 2.0), 0.0);
        assert_eq!(f.integral(3.0, 1.0), 0.0);
    }

    #[test]
    fn from_segments_with_gap() {
        let segs = vec![
            RateSegment {
                start: 0.0,
                end: 1.0,
                rate: 3.0,
            },
            RateSegment {
                start: 2.0,
                end: 3.0,
                rate: 4.0,
            },
        ];
        let f = StepFunction::from_segments(&segs);
        assert_eq!(f.value_at(0.5), 3.0);
        assert_eq!(f.value_at(1.5), 0.0, "gap filled with zero");
        assert_eq!(f.value_at(2.5), 4.0);
        assert!((f.integral(0.0, 3.0) - 7.0).abs() < 1e-12);
        assert_eq!(f.changes(), 2);
    }

    #[test]
    fn from_empty_segments() {
        let f = StepFunction::from_segments(&[]);
        assert_eq!(f.integral(0.0, 10.0), 0.0);
        assert_eq!(f.value_at(1.0), 0.0);
    }

    #[test]
    fn changes_ignores_equal_neighbors() {
        let f = StepFunction::new(vec![0.0, 1.0, 2.0, 3.0], vec![2.0, 2.0, 7.0]);
        assert_eq!(f.changes(), 1);
    }

    #[test]
    fn max_over_includes_implicit_zero() {
        let f = StepFunction::new(vec![1.0, 2.0], vec![-3.0]);
        // On [0, 3]: function is -3 on [1,2), 0 elsewhere -> max 0.
        assert_eq!(f.max_over(0.0, 3.0), 0.0);
        // Entirely within the domain: max is the (negative) value.
        assert_eq!(f.max_over(1.0, 2.0), -3.0);
        assert_eq!(step().max_over(0.0, 4.0), 5.0);
        assert_eq!(step().max_over(0.0, 0.5), 2.0);
    }

    #[test]
    fn mean_and_std() {
        // 0 on [0,1), 2 on [1,2): mean over [0,2) = 1; std = 1.
        let f = StepFunction::new(vec![0.0, 1.0, 2.0], vec![0.0, 2.0]);
        assert!((f.mean_over(0.0, 2.0) - 1.0).abs() < 1e-12);
        assert!((f.std_over(0.0, 2.0) - 1.0).abs() < 1e-12);
        // Constant function: std 0.
        let c = StepFunction::new(vec![0.0, 5.0], vec![3.0]);
        assert!((c.std_over(0.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn std_accounts_for_uncovered_tail() {
        // 2 on [0,1); window [0,2): implicit 0 on [1,2).
        let f = StepFunction::new(vec![0.0, 1.0], vec![2.0]);
        assert!((f.mean_over(0.0, 2.0) - 1.0).abs() < 1e-12);
        assert!((f.std_over(0.0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_left() {
        let f = step();
        let g = f.shifted_left(1.0); // g(t) = f(t+1)
        assert_eq!(g.value_at(0.0), 5.0);
        assert_eq!(g.value_at(-1.0), 2.0);
        assert!((g.integral(-1.0, 3.0) - f.integral(0.0, 4.0)).abs() < 1e-12);
    }

    #[test]
    fn integrate_with_positive_part() {
        // f = 3 on [0,2); g = 1 on [0,1), 5 on [1,2).
        let f = StepFunction::new(vec![0.0, 2.0], vec![3.0]);
        let g = StepFunction::new(vec![0.0, 1.0, 2.0], vec![1.0, 5.0]);
        let pos = f.integrate_with(&g, 0.0, 2.0, |a, b| (a - b).max(0.0));
        // [0,1): (3-1)+ = 2; [1,2): (3-5)+ = 0 -> 2.
        assert!((pos - 2.0).abs() < 1e-12);
        // And the signed difference integrates to 3*2 - (1+5) = 0.
        let signed = f.integrate_with(&g, 0.0, 2.0, |a, b| a - b);
        assert!(signed.abs() < 1e-12);
    }

    #[test]
    fn integrate_with_handles_disjoint_domains() {
        let f = StepFunction::new(vec![0.0, 1.0], vec![4.0]);
        let g = StepFunction::new(vec![2.0, 3.0], vec![7.0]);
        let total = f.integrate_with(&g, 0.0, 3.0, |a, b| a + b);
        assert!((total - (4.0 + 7.0)).abs() < 1e-12);
    }

    #[test]
    fn value_at_is_well_defined_on_duplicate_breaks() {
        // Zero-length piece [1,1): the piece after the *last* break <= t
        // applies, so t = 1 must read the [1,2) value, never the empty
        // piece's.
        let f = StepFunction::new(vec![0.0, 1.0, 1.0, 2.0], vec![3.0, 9.0, 7.0]);
        assert_eq!(f.value_at(0.5), 3.0);
        assert_eq!(f.value_at(1.0), 7.0);
        assert_eq!(f.value_at(1.5), 7.0);
        assert_eq!(f.value_at(2.0), 0.0);
    }

    #[test]
    fn cursor_matches_value_at_everywhere() {
        let f = StepFunction::new(vec![0.0, 1.0, 1.0, 3.0, 4.0], vec![2.0, 8.0, 5.0, 1.0]);
        let mut cursor = f.cursor_at(-2.0);
        assert_eq!(cursor.value(), 0.0);
        assert_eq!(cursor.next_break(), Some(0.0));
        for t in [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 9.0] {
            cursor.advance_past(t);
            assert_eq!(cursor.value(), f.value_at(t), "t={t}");
        }
        assert_eq!(cursor.next_break(), None);
    }

    #[test]
    fn cursor_reports_each_distinct_break_once() {
        let f = StepFunction::new(vec![0.0, 1.0, 1.0, 2.0], vec![3.0, 9.0, 7.0]);
        let mut cursor = f.cursor_at(0.0);
        let mut seen = Vec::new();
        while let Some(b) = cursor.next_break() {
            seen.push(b);
            cursor.advance_past(b);
        }
        assert_eq!(seen, vec![1.0, 2.0], "duplicate break collapses");
    }

    #[test]
    fn cursor_seated_mid_domain() {
        let f = step();
        let c = f.cursor_at(2.0);
        assert_eq!(c.value(), 5.0);
        assert_eq!(c.next_break(), Some(3.0));
        // Seating exactly on a break lands on the piece it opens.
        let c = f.cursor_at(3.0);
        assert_eq!(c.value(), 1.0);
        assert_eq!(c.next_break(), Some(4.0));
        let c = f.cursor_at(4.0);
        assert_eq!(c.value(), 0.0);
        assert_eq!(c.next_break(), None);
    }

    #[test]
    #[should_panic(expected = "one longer")]
    fn new_rejects_mismatched_lengths() {
        StepFunction::new(vec![0.0, 1.0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn new_rejects_unsorted_breaks() {
        StepFunction::new(vec![0.0, 2.0, 1.0], vec![1.0, 2.0]);
    }
}
