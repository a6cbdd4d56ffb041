//! Picture-size estimators.
//!
//! At time `t_i` the algorithm knows the exact sizes of pictures
//! `i .. i+K−1` (that is what `K` means) but must *estimate* the sizes of
//! later pictures for its lookahead bounds. Theorem 1 only requires `S_i`
//! to be exact, so estimates may be arbitrarily wrong without endangering
//! the delay bound (paper §4.3) — they only affect smoothness.
//!
//! The paper's estimator exploits the repeating pattern: pictures `j` and
//! `j − N` have the same type, so `S_j ≈ S_{j−N}` unless a scene change
//! intervenes; before `j − N` exists, fixed per-type defaults are used
//! (§4.4: 200,000 / 100,000 / 20,000 bits for I / P / B — "far from being
//! accurate for some video sequences. But by Theorem 1, they do not need
//! to be accurate").

use smooth_mpeg::{GopPattern, PictureType};

/// Default cold-start estimates from the paper (§4.4), in bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefaultSizes {
    /// Estimate for I pictures.
    pub i_bits: f64,
    /// Estimate for P pictures.
    pub p_bits: f64,
    /// Estimate for B pictures.
    pub b_bits: f64,
}

impl DefaultSizes {
    /// The paper's values: I = 200,000, P = 100,000, B = 20,000 bits.
    pub const PAPER: DefaultSizes = DefaultSizes {
        i_bits: 200_000.0,
        p_bits: 100_000.0,
        b_bits: 20_000.0,
    };

    /// Default for the given type.
    pub fn for_type(&self, t: PictureType) -> f64 {
        match t {
            PictureType::I => self.i_bits,
            PictureType::P => self.p_bits,
            PictureType::B => self.b_bits,
        }
    }

    /// `Some(max default)` when every default is a nonnegative finite
    /// integer-valued `f64` — the precondition estimators built on these
    /// defaults need for [`SizeEstimator::integral_estimates`].
    pub fn integral_bound(&self) -> Option<f64> {
        let vals = [self.i_bits, self.p_bits, self.b_bits];
        if vals
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0 && v.fract() == 0.0)
        {
            Some(vals.iter().copied().fold(0.0, f64::max))
        } else {
            None
        }
    }
}

/// How an estimator's output for a fixed picture `j` can change as the
/// arrived prefix grows — the contract the incremental
/// [`crate::lookahead::LookaheadWindow`] uses to decide which cached
/// estimates to recompute when the arrived-watermark advances.
///
/// Declaring a variant is a promise about [`SizeEstimator::estimate`]: the
/// window engine will *not* recompute estimates the variant marks as
/// unchanged, so an estimator whose output shifts more often than declared
/// would silently produce schedules that differ from a naive per-picture
/// refill. When in doubt, keep the conservative default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalidation {
    /// `estimate(j, arrived, …)` may change whenever `arrived` grows at
    /// all. The engine re-estimates every unresolved slot each time the
    /// watermark advances — always correct, never faster than necessary.
    OnAnyArrival,
    /// `estimate(j, arrived, …)` changes only when a picture `x` with
    /// `x ≡ j (mod N)` joins `arrived` (the paper's pattern estimator:
    /// only a same-GOP-slot arrival can become the new `S_{j−mN}`
    /// source). The engine re-estimates only slots sharing a GOP slot
    /// with a newly arrived picture.
    ///
    /// This variant additionally promises that unresolved slots of one
    /// GOP slot all estimate to the **same value**: `estimate(j) ==
    /// estimate(j′)` whenever `j ≡ j′ (mod N)` and both are at or beyond
    /// the arrived prefix. The paper's rule has this shape inherently —
    /// the estimate is the most recent same-slot arrival, or a per-type
    /// default, both functions of the GOP slot alone — and the window
    /// engine exploits it by estimating each affected slot class once
    /// per arrival instead of once per slot.
    OnSameSlotArrival,
    /// `estimate(j, arrived, …)` never depends on `arrived` (oracle and
    /// fixed-default estimators). Cached estimates are never recomputed.
    Never,
}

/// A picture size as a history stores it: a `u64`, or the `u32` word a
/// session store narrows it to. Widening a word to `u64` is exact, so a
/// decision over `u32` words is the decision over the same sizes held as
/// `u64`, bit for bit.
pub trait SizeWord: Copy + Into<u64> {
    /// `sizes` as an estimator reads them.
    fn arrived(sizes: &[Self]) -> Arrived<'_>;

    /// The size as an `f64` (exact below 2⁵³, which every `u32` is).
    #[inline(always)]
    fn to_f64(self) -> f64 {
        let wide: u64 = self.into();
        wide as f64
    }
}

impl SizeWord for u64 {
    #[inline(always)]
    fn arrived(sizes: &[u64]) -> Arrived<'_> {
        Arrived::Wide(sizes)
    }
}

impl SizeWord for u32 {
    #[inline(always)]
    fn arrived(sizes: &[u32]) -> Arrived<'_> {
        Arrived::Narrow(sizes)
    }
}

/// The arrived sizes an estimator reads, in either word width: `u64`
/// sizes, or a session store's `u32` words read in place. Every read
/// widens to `u64`, so an estimate is the same bits over either.
#[derive(Debug, Clone, Copy)]
pub enum Arrived<'a> {
    /// Sizes held as `u64`.
    Wide(&'a [u64]),
    /// Sizes held as `u32` words.
    Narrow(&'a [u32]),
}

impl Arrived<'_> {
    /// Number of arrived pictures.
    #[inline(always)]
    pub fn len(&self) -> usize {
        match self {
            Arrived::Wide(s) => s.len(),
            Arrived::Narrow(s) => s.len(),
        }
    }

    /// Whether no picture has arrived.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The size of picture `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ len()`.
    #[inline(always)]
    pub fn get(&self, x: usize) -> u64 {
        match self {
            Arrived::Wide(s) => s[x],
            Arrived::Narrow(s) => u64::from(s[x]),
        }
    }
}

impl<'a> From<&'a [u64]> for Arrived<'a> {
    fn from(sizes: &'a [u64]) -> Self {
        Arrived::Wide(sizes)
    }
}

/// A size estimator consulted for pictures that have not yet arrived.
///
/// `arrived` holds the exact sizes of every picture that has completely
/// arrived at estimation time (`arrived.get(x)` = size of display picture
/// `x`, for `x < arrived.len()`); `j ≥ arrived.len()` is the picture being
/// estimated. The trait is object-safe: the smoothers also take it as
/// `&dyn SizeEstimator`.
pub trait SizeEstimator {
    /// Estimated size of picture `j`, in bits.
    fn estimate(&self, j: usize, arrived: Arrived<'_>, pattern: &GopPattern) -> f64;

    /// Resolves picture `i`'s lookahead: `out[k]` becomes the size of
    /// picture `i + k` for every `k < out.len()`, exact when it has
    /// arrived and [`estimate`](Self::estimate) otherwise — the naive
    /// refill [`crate::reference::fill_lookahead`] computes. An
    /// estimator may override this with a faster body of the same bits.
    fn resolve_ahead(&self, i: usize, arrived: Arrived<'_>, pattern: &GopPattern, out: &mut [f64]) {
        for (slot, j) in out.iter_mut().zip(i..) {
            *slot = if j < arrived.len() {
                arrived.get(j) as f64
            } else {
                self.estimate(j, arrived, pattern)
            };
        }
    }

    /// Short name for reports and ablation tables.
    fn name(&self) -> &'static str;

    /// When cached estimates must be recomputed (see [`Invalidation`]).
    /// The default is the always-correct [`Invalidation::OnAnyArrival`].
    fn invalidation(&self) -> Invalidation {
        Invalidation::OnAnyArrival
    }

    /// Opt-in contract for the smoother's order-free prefix-sum fast
    /// path. Return `Some(m)` **only if** every value [`estimate`]
    /// (Self::estimate) can return is a nonnegative *integer-valued*
    /// `f64` that is either one of the arrived sizes (`arrived[x] as
    /// f64`) or an integral constant at most `m`.
    ///
    /// When all lookahead slots are integer-valued and partial sums stay
    /// below 2⁵³, IEEE additions of those values are exact, so the
    /// smoother may reassociate its prefix sums (shorter dependency
    /// chains) without changing a single output bit. The default `None`
    /// keeps the strictly sequential summation.
    fn integral_estimates(&self) -> Option<f64> {
        None
    }

    /// Opt-in contract for history compaction in long-lived live
    /// sessions ([`crate::OnlineSmoother`] and the session engine).
    ///
    /// Returning `Some(w)` promises **shift invariance under pruning**:
    /// for every shift `Δ` that is a multiple of the GOP period `N` with
    /// `Δ + w ≤ arrived.len()`, and every `j ≥ arrived.len()`,
    ///
    /// ```text
    /// estimate(j, arrived, pattern)
    ///     == estimate(j − Δ, &arrived[Δ..], pattern)   // bit for bit
    /// ```
    ///
    /// i.e. the estimate depends only on `j`'s GOP slot and the trailing
    /// `w` arrived sizes, so a live session may drop its decided prefix
    /// (in whole-pattern steps) and keep only the last `w` sizes plus the
    /// undecided tail. The default `None` makes no such promise and
    /// forces full history — always correct, unbounded memory.
    fn history_window(&self, pattern: &GopPattern) -> Option<usize> {
        let _ = pattern;
        None
    }
}

/// The paper's estimator: `S_j ≈ S_{j−N}` (same picture type one pattern
/// back), walking back additional whole patterns if `j − N` has itself not
/// arrived, with per-type defaults at the start of the sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternEstimator {
    /// Cold-start defaults.
    pub defaults: DefaultSizes,
}

impl Default for PatternEstimator {
    fn default() -> Self {
        PatternEstimator {
            defaults: DefaultSizes::PAPER,
        }
    }
}

impl PatternEstimator {
    /// [`resolve_ahead`](SizeEstimator::resolve_ahead) over one word
    /// width (`w = visible.len()`):
    ///
    /// 1. an arrived picture, `j < w`, reads itself;
    /// 2. the first period past the watermark, `w ≤ j < w + N`, reads
    ///    one pattern back — `visible[j − N]`, which has arrived, or the
    ///    type default when `j < N`;
    /// 3. a later picture repeats the one a period before it: both
    ///    estimates come from the same most recent same-slot arrival (or
    ///    the same default). Only when `i > w` is that picture not in
    ///    `out`, and then it is estimated.
    ///
    /// A decision has `w > i`, so with `H ≤ N` its window is the two
    /// ring runs `[i, w)` and `[w − N, i + H − N)`, read in one loop: the
    /// split moves between decisions, and a loop per run mispredicts it.
    #[inline(always)]
    fn resolve_words<W: SizeWord>(
        &self,
        i: usize,
        visible: &[W],
        pattern: &GopPattern,
        out: &mut [f64],
    ) {
        let n = pattern.n();
        let w = visible.len();
        for (k, j) in (i..i + out.len()).enumerate() {
            out[k] = if j < w {
                visible[j].to_f64()
            } else if j < w + n {
                match j.checked_sub(n) {
                    Some(back) => visible[back].to_f64(),
                    None => self.defaults.for_type(pattern.type_at(j)),
                }
            } else if k >= n {
                out[k - n]
            } else {
                self.estimate(j, W::arrived(visible), pattern)
            };
        }
    }
}

impl SizeEstimator for PatternEstimator {
    /// O(1): the walk-back loop (`back = j − N, j − 2N, …` until an
    /// arrived picture is hit) visits exactly the indices congruent to
    /// `j (mod N)` that lie at least one pattern before `j`, and returns
    /// the **largest** one below `arrived.len()`. That index — the most
    /// recent arrived picture in `j`'s GOP slot — has a closed form, so
    /// no walk proportional to `j` is ever needed. The retained walk-back
    /// loop ([`crate::reference::walk_back_estimate`]) is the reference
    /// oracle the proptests compare against.
    ///
    /// Hot-path detail: the smoother only asks about slots at most a
    /// lookahead window past the arrived prefix, so the answer is
    /// usually a handful of patterns back. A bounded subtraction walk
    /// covers that for the cost of a few integer subtractions; the
    /// division-based closed form is kept for far-away queries, keeping
    /// the worst case O(1).
    fn estimate(&self, j: usize, arrived: Arrived<'_>, pattern: &GopPattern) -> f64 {
        let n = pattern.n();
        if j >= n && !arrived.is_empty() {
            // Largest index ≡ j (mod N) that is both ≤ j − N (at least
            // one whole pattern back) and < arrived.len() (arrived).
            let cap = (j - n).min(arrived.len() - 1);
            if j - cap <= 8 * n {
                let mut back = j - n;
                loop {
                    if back <= cap {
                        return arrived.get(back) as f64;
                    }
                    if back < n {
                        // back ≡ j (mod N) and back > cap: no arrived
                        // same-slot sample exists.
                        break;
                    }
                    back -= n;
                }
            } else {
                let slot = j % n;
                if cap >= slot {
                    let back = cap - (cap - slot) % n;
                    return arrived.get(back) as f64;
                }
            }
        }
        self.defaults.for_type(pattern.type_at(j))
    }

    /// The default's bits, read straight off the history (see
    /// `resolve_words`).
    #[inline]
    fn resolve_ahead(&self, i: usize, arrived: Arrived<'_>, pattern: &GopPattern, out: &mut [f64]) {
        match arrived {
            Arrived::Wide(s) => self.resolve_words(i, s, pattern, out),
            Arrived::Narrow(s) => self.resolve_words(i, s, pattern, out),
        }
    }

    fn name(&self) -> &'static str {
        "pattern"
    }

    fn invalidation(&self) -> Invalidation {
        // S_j is sourced from the most recent arrived picture of j's GOP
        // slot: only a same-slot arrival can change it.
        Invalidation::OnSameSlotArrival
    }

    fn integral_estimates(&self) -> Option<f64> {
        // Estimates are either `arrived[back] as f64` or one of the
        // defaults, so the contract holds exactly when the defaults are
        // integral.
        self.defaults.integral_bound()
    }

    fn history_window(&self, pattern: &GopPattern) -> Option<usize> {
        // For `j ≥ arrived.len()` the source index `cap − (cap − slot) % N`
        // with `cap = (j − N).min(len − 1)` always lies in
        // `[len − (2N − 1), len − 1]`: the most recent same-slot sample at
        // least one whole pattern back. The last `2N` sizes therefore pin
        // every reachable read, and a whole-pattern shift preserves slots,
        // distances, and the walk-back arithmetic exactly.
        Some(2 * pattern.n())
    }
}

/// Always returns the per-type default — an ablation showing how much the
/// pattern memory buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeDefaultEstimator {
    /// The per-type constants returned.
    pub defaults: DefaultSizes,
}

impl Default for TypeDefaultEstimator {
    fn default() -> Self {
        TypeDefaultEstimator {
            defaults: DefaultSizes::PAPER,
        }
    }
}

impl SizeEstimator for TypeDefaultEstimator {
    fn estimate(&self, j: usize, _arrived: Arrived<'_>, pattern: &GopPattern) -> f64 {
        self.defaults.for_type(pattern.type_at(j))
    }

    fn name(&self) -> &'static str {
        "type-default"
    }

    fn invalidation(&self) -> Invalidation {
        Invalidation::Never
    }

    fn history_window(&self, _pattern: &GopPattern) -> Option<usize> {
        // Reads nothing from `arrived`, and `type_at(j − Δ) == type_at(j)`
        // for any whole-pattern Δ.
        Some(0)
    }
}

/// An oracle with the full trace: returns exact sizes for pictures that
/// have not arrived. Models Ott et al.'s assumption that all sizes are
/// known a priori (paper §6) within this algorithm's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleEstimator {
    /// The complete size sequence.
    pub sizes: Vec<u64>,
}

impl SizeEstimator for OracleEstimator {
    fn estimate(&self, j: usize, _arrived: Arrived<'_>, pattern: &GopPattern) -> f64 {
        match self.sizes.get(j) {
            Some(&s) => s as f64,
            // Beyond the known trace, fall back to the pattern default.
            None => DefaultSizes::PAPER.for_type(pattern.type_at(j)),
        }
    }

    fn name(&self) -> &'static str {
        "oracle"
    }

    fn invalidation(&self) -> Invalidation {
        Invalidation::Never
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: Arrived<'static> = Arrived::Wide(&[]);

    fn pat9() -> GopPattern {
        GopPattern::new(3, 9).unwrap()
    }

    #[test]
    fn pattern_estimator_uses_one_pattern_back() {
        let est = PatternEstimator::default();
        let arrived: Vec<u64> = (0..12).map(|i| 1000 * (i as u64 + 1)).collect();
        // Picture 13 (a B at slot 4): one pattern back is picture 4,
        // arrived with size 5000.
        assert_eq!(est.estimate(13, arrived[..].into(), &pat9()), 5000.0);
        // Picture 9 (an I): one back is picture 0, size 1000.
        assert_eq!(est.estimate(9, arrived[..].into(), &pat9()), 1000.0);
    }

    #[test]
    fn pattern_estimator_walks_back_multiple_patterns() {
        let est = PatternEstimator::default();
        // Only pictures 0..4 arrived.
        let arrived: Vec<u64> = vec![7000; 5];
        // Picture 22 (slot 4): 22-9=13 not arrived, 13-9=4 arrived.
        assert_eq!(est.estimate(22, arrived[..].into(), &pat9()), 7000.0);
    }

    #[test]
    fn pattern_estimator_cold_start_defaults() {
        // Paper §4.4: I=200k, P=100k, B=20k before history exists.
        let est = PatternEstimator::default();
        let arrived: Vec<u64> = vec![];
        assert_eq!(est.estimate(0, arrived[..].into(), &pat9()), 200_000.0); // I
        assert_eq!(est.estimate(3, arrived[..].into(), &pat9()), 100_000.0); // P
        assert_eq!(est.estimate(1, arrived[..].into(), &pat9()), 20_000.0); // B

        // Second pattern, still nothing arrived: defaults again.
        assert_eq!(est.estimate(9, arrived[..].into(), &pat9()), 200_000.0);
        assert_eq!(est.estimate(12, arrived[..].into(), &pat9()), 100_000.0);
    }

    #[test]
    fn pattern_estimator_same_type_invariant() {
        // Whatever it returns is derived from a picture of the same type.
        let est = PatternEstimator::default();
        let pat = pat9();
        let arrived: Vec<u64> = (0..20).map(|i| 100 + i as u64).collect();
        for j in 20..60 {
            let e = est.estimate(j, arrived[..].into(), &pat);
            // Find which arrived picture it came from (if any).
            let src = (0..arrived.len()).find(|&x| arrived[x] as f64 == e);
            if let Some(x) = src {
                assert_eq!(pat.type_at(x), pat.type_at(j), "j={j} sourced from {x}");
            }
        }
    }

    #[test]
    fn type_default_ignores_history() {
        let est = TypeDefaultEstimator::default();
        let arrived: Vec<u64> = vec![999_999; 30];
        assert_eq!(est.estimate(36, arrived[..].into(), &pat9()), 200_000.0);
        assert_eq!(est.estimate(39, arrived[..].into(), &pat9()), 100_000.0);
        assert_eq!(est.estimate(37, arrived[..].into(), &pat9()), 20_000.0);
    }

    #[test]
    fn oracle_returns_truth() {
        let est = OracleEstimator {
            sizes: vec![11, 22, 33],
        };
        assert_eq!(est.estimate(0, NONE, &pat9()), 11.0);
        assert_eq!(est.estimate(2, NONE, &pat9()), 33.0);
        // Past the end: type default.
        assert_eq!(est.estimate(9, NONE, &pat9()), 200_000.0);
    }

    #[test]
    fn history_window_shift_invariance() {
        // The `history_window` contract, checked exhaustively on a small
        // grid: for every whole-pattern shift Δ keeping ≥ w sizes, the
        // shifted estimate is bit-identical.
        let pat = pat9();
        let n = pat.n();
        let est = PatternEstimator::default();
        let w = est.history_window(&pat).unwrap();
        assert_eq!(w, 2 * n);
        let arrived: Vec<u64> = (0..64).map(|i| 1_000 + 37 * i as u64).collect();
        for len in 1..=arrived.len() {
            let full = &arrived[..len];
            for j in len..len + 3 * n {
                let base = est.estimate(j, full.into(), &pat);
                let mut delta = n;
                while delta + w <= len {
                    let shifted = est.estimate(j - delta, full[delta..].into(), &pat);
                    assert_eq!(
                        base.to_bits(),
                        shifted.to_bits(),
                        "len={len} j={j} delta={delta}"
                    );
                    delta += n;
                }
            }
        }

        let td = TypeDefaultEstimator::default();
        assert_eq!(td.history_window(&pat), Some(0));
        for j in 10..40 {
            assert_eq!(
                td.estimate(j, arrived[..].into(), &pat),
                td.estimate(j - n, NONE, &pat)
            );
        }

        // The oracle indexes absolutely: no compaction promise.
        assert_eq!(OracleEstimator { sizes: vec![] }.history_window(&pat), None);
    }

    #[test]
    fn names() {
        assert_eq!(PatternEstimator::default().name(), "pattern");
        assert_eq!(TypeDefaultEstimator::default().name(), "type-default");
        assert_eq!(OracleEstimator { sizes: vec![] }.name(), "oracle");
    }
}
