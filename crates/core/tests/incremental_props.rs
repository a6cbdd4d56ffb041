//! Properties pinning the incremental lookahead engine to its naive
//! reference (see `smooth_core::reference`).
//!
//! PR 3's contract is that the O(1)-per-picture fast paths are **bit
//! identical** to the superseded per-picture refill + walk-back code, for
//! every trace, parameter set, and estimator. These properties quantify
//! over random inputs in three regimes — offline, online with a declared
//! length, and live streaming with an unknown length — plus the
//! closed-form pattern estimate on its own, a window renumbered by
//! [`LookaheadWindow::rebase`] after a whole-pattern prune, a live
//! session deciding over `u32` history words against the same sizes
//! held as `u64`, and the window-free
//! [`SizeEstimator::resolve_ahead`] a session store decides over.

use proptest::prelude::*;
use smooth_core::reference::{
    fill_lookahead, smooth_live_reference, smooth_reference_with, walk_back_estimate,
    ReferencePatternEstimator,
};
use smooth_core::{
    decide_live, prunable_prefix, smooth, smooth_streaming, smooth_with, Arrived, BlockLanes,
    LiveCursor, LiveParams, LookaheadWindow, OnlineSmoother, PatternEstimator, PictureSchedule,
    RateSelection, SizeEstimator, SizeHistory, SizeWord, SmootherParams, TypeDefaultEstimator,
};
use smooth_mpeg::{GopPattern, Resolution};
use smooth_trace::VideoTrace;

const TAU: f64 = 1.0 / 30.0;

/// Strategy: a random regular GOP pattern.
fn arb_pattern() -> impl Strategy<Value = GopPattern> {
    prop_oneof![
        Just((3usize, 9usize)),
        Just((2, 6)),
        Just((3, 12)),
        Just((1, 5)),
        Just((1, 1)),
        Just((4, 12)),
        Just((2, 2)),
    ]
    .prop_map(|(m, n)| GopPattern::new(m, n).expect("regular pattern"))
}

/// Strategy: a random trace over a random pattern, 1..150 pictures with
/// sizes spanning three orders of magnitude.
fn arb_trace() -> impl Strategy<Value = VideoTrace> {
    (arb_pattern(), 1usize..150)
        .prop_flat_map(|(pattern, len)| {
            (
                Just(pattern),
                proptest::collection::vec(1_000u64..1_000_000, len),
            )
        })
        .prop_map(|(pattern, sizes)| {
            VideoTrace::new("prop", pattern, Resolution::VGA, 30.0, sizes).expect("positive sizes")
        })
}

/// Strategy: feasible parameters with K >= 1 and H spanning well past the
/// pattern length (the window engine's interesting regimes are H < N,
/// H = N, and H >> N).
fn arb_params() -> impl Strategy<Value = SmootherParams> {
    (1usize..=5, 1usize..=40, 0.0f64..0.4).prop_map(|(k, h, extra_slack)| {
        let d = (k as f64 + 1.0) * TAU + extra_slack;
        SmootherParams::new(d, k, h, TAU).expect("feasible by construction")
    })
}

/// Strategy: one of the rate-selection policies.
fn arb_selection() -> impl Strategy<Value = RateSelection> {
    prop_oneof![
        Just(RateSelection::Basic),
        Just(RateSelection::MovingAverage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The closed-form O(1) pattern estimate equals the paper's literal
    /// walk-back loop for every (pattern, arrived prefix, slot).
    #[test]
    fn estimator_closed_form_equals_walk_back(
        pattern in arb_pattern(),
        arrived in proptest::collection::vec(1u64..1_000_000, 0..100),
        j in 0usize..220,
    ) {
        let est = PatternEstimator::default();
        let closed = est.estimate(j, arrived[..].into(), &pattern);
        let walked = walk_back_estimate(&est.defaults, j, arrived[..].into(), &pattern);
        prop_assert_eq!(closed.to_bits(), walked.to_bits(), "j={} n={}", j, pattern.n());
    }

    /// Offline: the window-engine smoother is bit-identical to the naive
    /// per-picture refill, for both the pattern and type-default
    /// estimators and both rate selections.
    #[test]
    fn offline_engine_matches_naive_reference(
        trace in arb_trace(),
        params in arb_params(),
        selection in arb_selection(),
    ) {
        let pat = PatternEstimator::default();
        let walk = ReferencePatternEstimator::default();
        prop_assert_eq!(
            smooth_with(&trace, params, &pat, selection),
            smooth_reference_with(&trace, params, &walk, selection)
        );
        let typed = TypeDefaultEstimator::default();
        prop_assert_eq!(
            smooth_with(&trace, params, &typed, selection),
            smooth_reference_with(&trace, params, &typed, selection)
        );
    }

    /// Online with a declared length: streaming through the incremental
    /// window equals both the offline engine and the naive reference.
    #[test]
    fn online_stored_matches_offline_and_reference(
        trace in arb_trace(),
        params in arb_params(),
    ) {
        let streamed = smooth_streaming(&trace, params);
        prop_assert_eq!(&streamed, &smooth(&trace, params));
        let walk = ReferencePatternEstimator::default();
        prop_assert_eq!(
            streamed,
            smooth_reference_with(&trace, params, &walk, RateSelection::Basic)
        );
    }

    /// Live streaming (unknown length until `finish`): the incremental
    /// window inside [`OnlineSmoother`] is bit-identical to the naive
    /// live reference loop.
    #[test]
    fn online_live_matches_naive_reference(
        trace in arb_trace(),
        params in arb_params(),
        selection in arb_selection(),
    ) {
        let mut online = OnlineSmoother::with_estimator(
            params,
            trace.pattern,
            PatternEstimator::default(),
            selection,
            None,
        );
        let mut schedule = Vec::with_capacity(trace.len());
        for &s in &trace.sizes {
            schedule.extend(online.push(s));
        }
        schedule.extend(online.finish());

        let walk = ReferencePatternEstimator::default();
        let reference = smooth_live_reference(&trace, params, &walk, selection);
        prop_assert_eq!(schedule.len(), reference.schedule.len());
        prop_assert_eq!(schedule, reference.schedule);
    }
}

/// Slides `window` and a fresh window side by side from picture `from`
/// over `steps` pictures of `sizes` (the arrived prefix at picture `i` is
/// `i + lead` long) and checks both against the naive refill. Returns
/// whether every slice matched bit for bit.
fn slides_like_a_refill(
    window: &mut LookaheadWindow,
    estimator: &dyn SizeEstimator,
    pattern: &GopPattern,
    sizes: &[u64],
    (from, steps, h, lead): (usize, usize, usize, usize),
) -> bool {
    let mut fresh = LookaheadWindow::new();
    let mut naive = Vec::new();
    let n = pattern.n();
    for i in from..(from + steps).min(sizes.len()) {
        let look = h.min(sizes.len() - i);
        let visible = &sizes[..(i + lead).min(sizes.len())];
        let est = |j| estimator.estimate(j, visible.into(), pattern);
        let inv = estimator.invalidation();
        let got = window.advance(i, look, visible, inv, n, est).to_vec();
        let want = fresh.advance(i, look, visible, inv, n, est).to_vec();
        fill_lookahead(&mut naive, i, look, visible, est);
        if got
            .iter()
            .map(|v| v.to_bits())
            .ne(want.iter().map(|v| v.to_bits()))
            || got
                .iter()
                .map(|v| v.to_bits())
                .ne(naive.iter().map(|v| v.to_bits()))
        {
            return false;
        }
        // `fresh` refills on every call: reset it so it never slides.
        fresh.reset();
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A window renumbered by `rebase` after the caller drops a whole
    /// number of GOP periods from the front of its history resolves
    /// exactly what a fresh refill of the shortened history resolves,
    /// on the first advance after the cut and on every slide after it.
    /// The cut is any whole-pattern prefix the pruning contract allows
    /// — below the next picture (the largest is one past the window's
    /// front) and leaving the estimator's history window retained.
    #[test]
    fn rebase_equals_a_fresh_refill(
        pattern in arb_pattern(),
        sizes in proptest::collection::vec(1_000u64..1_000_000, 20..160),
        h in 1usize..=40,
        lead in 1usize..=80,
        at in 0usize..1_000,
        pick in 0usize..1_000,
        type_default in any::<bool>(),
    ) {
        let pattern_est = PatternEstimator::default();
        let type_est = TypeDefaultEstimator::default();
        let estimator: &dyn SizeEstimator = if type_default { &type_est } else { &pattern_est };
        let n = pattern.n();
        let hist = estimator.history_window(&pattern).expect("bounded window");
        // Slide up to picture `i`, then cut.
        let i = at % (sizes.len() - 1);
        let mut window = LookaheadWindow::new();
        prop_assert!(slides_like_a_refill(
            &mut window, estimator, &pattern, &sizes, (0, i + 1, h, lead)
        ));
        let w = (i + lead).min(sizes.len());
        let max_cut = (i + 1).min(w.saturating_sub(hist));
        let cuts = max_cut / n;
        prop_assume!(cuts > 0);
        // Bias toward the largest cut, one past the window's front when
        // `i + 1` is a pattern multiple.
        let drop = n * if pick % 2 == 0 { cuts } else { 1 + pick % cuts };
        window.rebase(drop);
        let shifted = &sizes[drop..];
        prop_assert!(slides_like_a_refill(
            &mut window, estimator, &pattern, shifted, (i + 1 - drop, 2 * h + n, h, lead)
        ));
    }
}

/// The largest cut the pruning contract allows is one past the window's
/// front: the window then holds no picture below the cut, and the
/// renumbered window's first picture is the next one. It slides on —
/// one estimate for the one newly exposed slot, where a refill would
/// estimate every slot past the watermark — and matches a refill.
#[test]
fn rebase_one_past_the_front_slides_on() {
    let pattern = GopPattern::new(3, 9).expect("regular pattern");
    let sizes: Vec<u64> = (0..120).map(|x| 10_000 + (x * 7919) % 90_000).collect();
    // History window 0, so a one-arrival lead allows the cut.
    let estimator = TypeDefaultEstimator::default();
    let (h, lead) = (9, 1);
    let mut window = LookaheadWindow::new();
    // Front at picture 26: the cut at 27 = 3·9 is one past it.
    assert!(slides_like_a_refill(
        &mut window,
        &estimator,
        &pattern,
        &sizes,
        (0, 27, h, lead)
    ));
    window.rebase(27);
    let shifted = &sizes[27..];
    let calls = std::cell::Cell::new(0);
    window.advance(0, h, &shifted[..lead], estimator.invalidation(), 9, |j| {
        calls.set(calls.get() + 1);
        estimator.estimate(j, shifted[..lead].into(), &pattern)
    });
    assert_eq!(calls.get(), 1, "the first advance after the cut refilled");
    assert!(slides_like_a_refill(
        &mut window,
        &estimator,
        &pattern,
        shifted,
        (1, 40, h, lead)
    ));
}

/// A live session's decisions over `sizes`, held as words of type `W`:
/// pushed one at a time, every ready decision made through
/// [`decide_live`], the history pruned at every whole-pattern cut the
/// estimator allows (the window renumbered), and the stream ended after
/// the last push.
fn live_decisions<W: SizeWord>(
    sizes: &[W],
    params: &SmootherParams,
    pattern: GopPattern,
    estimator: &dyn SizeEstimator,
    selection: RateSelection,
) -> Vec<PictureSchedule> {
    let cfg = LiveParams {
        params,
        pattern,
        estimator,
        selection,
        total: None,
    };
    let hist = estimator.history_window(&pattern);
    let mut cursor = LiveCursor::new();
    let mut window = LookaheadWindow::new();
    let mut lanes = BlockLanes::default();
    let mut out = Vec::new();
    let mut base = 0;
    for pushed in 1..=sizes.len() + 1 {
        let ended = pushed > sizes.len();
        let tail = &sizes[base..pushed.min(sizes.len())];
        while let Some(d) = decide_live(
            &cfg,
            SizeHistory { base, tail },
            ended,
            &mut cursor,
            &mut window,
            &mut lanes,
        ) {
            out.push(d);
        }
        let cut = prunable_prefix(&cursor, hist, pattern.n());
        if cut > base {
            window.rebase(cut - base);
            base = cut;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Narrow history ≡ wide history: a live session deciding straight
    /// from `u32` size words (as the session engine's ring holds them)
    /// makes bit-for-bit the decisions it makes over the same sizes
    /// widened to `u64`, for sizes anywhere below 2³², with the pattern
    /// and type-default estimators called through `&dyn SizeEstimator`.
    #[test]
    fn narrow_history_decides_like_wide_history(
        pattern in arb_pattern(),
        narrow in proptest::collection::vec(1u32..=u32::MAX, 1..150),
        params in arb_params(),
        selection in arb_selection(),
        type_default in any::<bool>(),
    ) {
        let pattern_est = PatternEstimator::default();
        let type_est = TypeDefaultEstimator::default();
        let estimator: &dyn SizeEstimator = if type_default { &type_est } else { &pattern_est };
        let wide: Vec<u64> = narrow.iter().map(|&w| u64::from(w)).collect();
        let from_narrow = live_decisions(&narrow, &params, pattern, estimator, selection);
        let from_wide = live_decisions(&wide, &params, pattern, estimator, selection);
        prop_assert_eq!(from_narrow.len(), narrow.len());
        let bits = |d: &PictureSchedule| {
            (d.index, d.start.to_bits(), d.rate.to_bits(), d.depart.to_bits(), d.delay.to_bits())
        };
        prop_assert!(
            from_narrow.iter().map(bits).eq(from_wide.iter().map(bits)),
            "a u32 history decided differently from its u64 widening"
        );
    }
}

/// An estimator that keeps the trait's defaults, [`Invalidation`]
/// (`OnAnyArrival`) and [`SizeEstimator::resolve_ahead`] included: half
/// the last arrival plus the GOP slot. It reads only the last arrival
/// and the slot, so it keeps a one-size history window.
///
/// [`Invalidation`]: smooth_core::Invalidation
struct LastArrivalEstimator;

impl SizeEstimator for LastArrivalEstimator {
    fn estimate(&self, j: usize, arrived: Arrived<'_>, pattern: &GopPattern) -> f64 {
        let slot = (j % pattern.n()) as f64;
        match arrived.len() {
            0 => 1_000.0 + slot,
            len => arrived.get(len - 1) as f64 * 0.5 + slot,
        }
    }

    fn name(&self) -> &'static str {
        "last-arrival"
    }

    fn history_window(&self, _pattern: &GopPattern) -> Option<usize> {
        Some(1)
    }
}

/// `estimator.resolve_ahead` for picture `i` over the history `sizes`
/// with its first `base` sizes pruned, in `base`-shifted coordinates, as
/// `f64` bits.
fn resolved_bits<W: SizeWord>(
    estimator: &dyn SizeEstimator,
    pattern: &GopPattern,
    sizes: &[W],
    base: usize,
    i: usize,
    look: usize,
) -> Vec<u64> {
    let mut out = vec![f64::NAN; look];
    estimator.resolve_ahead(i - base, W::arrived(&sizes[base..]), pattern, &mut out);
    out.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The resolver a session store decides over equals the naive
    /// refill over `estimate` on the unpruned `u64` history, bit for
    /// bit, for the pattern estimator's override and the trait default
    /// (type-default and a last-arrival `OnAnyArrival` estimator), all
    /// through `&dyn`; over `u32` and `u64` words; with the history
    /// pruned at any whole-pattern cut the pruning contract allows.
    ///
    /// Shapes: `H` below, at and past `N` (where the pattern override
    /// repeats its own output a period back), cold starts at `i < N`
    /// (type defaults), a decision's arrived prefix `i + max(K, 1)` and
    /// more for `K` from 0, and a prefix that ends at or before `i`.
    #[test]
    fn resolver_equals_the_naive_refill(
        pattern in arb_pattern(),
        narrow in proptest::collection::vec(1u32..=u32::MAX, 0..150),
        which in 0usize..3,
        look in 0usize..=40,
        i_raw in 0usize..160,
        cold in any::<bool>(),
        k in 0usize..=5,
        late in 0usize..=8,
        behind in 0usize..8,
        pick in 0usize..1_000,
    ) {
        let pattern_est = PatternEstimator::default();
        let type_est = TypeDefaultEstimator::default();
        let estimator: &dyn SizeEstimator = match which {
            0 => &pattern_est,
            1 => &type_est,
            _ => &LastArrivalEstimator,
        };
        let n = pattern.n();
        let i = if cold { i_raw % (2 * n) } else { i_raw };
        // Most cases take a decision's arrived prefix; one in eight ends
        // at or before `i`.
        let w = if behind == 0 { i - pick % (i + 1) } else { i + k.max(1) + late }
            .min(narrow.len());
        let wide: Vec<u64> = narrow[..w].iter().map(|&s| u64::from(s)).collect();

        let mut naive = Vec::new();
        fill_lookahead(&mut naive, i, look, &wide, |j| {
            estimator.estimate(j, wide[..].into(), &pattern)
        });
        let naive: Vec<u64> = naive.iter().map(|v| v.to_bits()).collect();

        let hist = estimator.history_window(&pattern).expect("bounded window");
        let cuts = i.min(w.saturating_sub(hist)) / n;
        let base = if cuts == 0 { 0 } else { n * (pick % (cuts + 1)) };
        prop_assert_eq!(
            &resolved_bits(estimator, &pattern, &narrow[..w], base, i, look),
            &naive,
            "u32 words, base {}", base
        );
        prop_assert_eq!(
            &resolved_bits(estimator, &pattern, &wide, base, i, look),
            &naive,
            "u64 words, base {}", base
        );
    }
}
