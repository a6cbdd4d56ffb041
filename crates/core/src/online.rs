//! Streaming (transport-protocol) interface to the smoothing algorithm.
//!
//! The paper situates the algorithm inside a transport protocol fed by a
//! live encoder (Figure 1): pictures arrive one per period, and `notify`
//! tells the transmitter each picture's rate as soon as it can be
//! determined. [`OnlineSmoother`] is that interface: feed arrivals with
//! [`push`](OnlineSmoother::push), receive rate decisions incrementally,
//! and flush the tail with [`finish`](OnlineSmoother::finish).
//!
//! The offline [`crate::Smoother`] and this type share one decision
//! function, so for a stored video (known length) the streaming schedule
//! is **bit-identical** to the offline one — a property the test suite
//! pins down. For live capture (unknown length) the only difference is at
//! the very end of the sequence: until the encoder signals the end, the
//! lookahead extends past the final picture using estimates, which can
//! select slightly different rates for the last `H − 1` pictures (pinned
//! by `tests/live_tail_props.rs`). Theorem 1 is unaffected either way.
//!
//! ## Batched decisions and bounded memory
//!
//! The decision step itself is exposed as [`decide_live`], a free
//! function over explicit cursor state, so that a driver holding many
//! sessions (the `smooth-engine` session engine) can advance them all
//! through the same hot path without one heap-allocated smoother per
//! stream. It is the composition of [`live_ready`] (when is the next
//! picture decidable?) and [`decide_ready`] (decide it); a driver that
//! carries the [`Ready`] value between decisions tests each push with
//! one integer compare and inlines the decision body. Arrived history
//! is addressed *logically* through [`SizeHistory`]: a session that has
//! pruned its decided prefix passes `base > 0` and only the retained
//! tail, as `u64` sizes or as the `u32` words a session store keeps.
//! [`OnlineSmoother`] itself compacts its history this way whenever its
//! estimator declares a [`SizeEstimator::history_window`], so a live
//! session holds O(H + N + K + D/τ) sizes instead of every picture ever
//! pushed — with schedules bit-identical to full history (pinned by
//! proptests against [`crate::reference::smooth_live_reference`]).

use crate::estimate::{PatternEstimator, SizeEstimator, SizeWord};
use crate::lookahead::LookaheadWindow;
use crate::params::SmootherParams;
use crate::smoother::{
    decide_one, BlockLanes, DecideCtx, PictureSchedule, RateSelection, SmoothingResult,
};
use smooth_mpeg::GopPattern;

/// Per-session decision state for [`decide_live`]: everything one live
/// stream carries between decisions, small and `Copy`-able so batch
/// drivers can keep it in parallel arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveCursor {
    /// Decisions already emitted; the next decidable picture index.
    pub decided: usize,
    /// Departure time of the last decided picture (0.0 before the first).
    pub depart: f64,
    /// Rate of the last decided picture, if any.
    pub prev_rate: Option<f64>,
    /// High-water mark of the visible prefix length consulted so far;
    /// together with `decided` it bounds which history may be pruned
    /// (see [`prunable_prefix`]).
    pub watermark: usize,
}

impl LiveCursor {
    /// A fresh session: nothing decided, nothing consulted.
    pub fn new() -> Self {
        LiveCursor {
            decided: 0,
            depart: 0.0,
            prev_rate: None,
            watermark: 0,
        }
    }
}

impl Default for LiveCursor {
    fn default() -> Self {
        Self::new()
    }
}

/// A logically addressed view of a session's arrived sizes: picture `x`
/// (display order) has size `tail[x − base]`, for `base ≤ x < base +
/// tail.len()`. Sessions that never prune pass `base = 0` and the full
/// history; pruning sessions pass the retained suffix. The sizes are
/// `u64`, or the `u32` words of a session store read in place
/// ([`SizeWord`]): every read widens exactly, so the width changes no
/// decision bit.
///
/// `base` must be a multiple of the GOP period `N` and must satisfy the
/// bound from [`prunable_prefix`] — both are what keeps pruned schedules
/// bit-identical to full history (see
/// [`SizeEstimator::history_window`]).
#[derive(Debug, Clone, Copy)]
pub struct SizeHistory<'a, W = u64> {
    /// Logical index of `tail[0]` (number of pruned sizes).
    pub base: usize,
    /// Retained sizes, in display order.
    pub tail: &'a [W],
}

impl<W> SizeHistory<'_, W> {
    /// Total pictures pushed so far (pruned + retained).
    pub fn pushed(&self) -> usize {
        self.base + self.tail.len()
    }
}

/// The per-class (not per-session) configuration for [`decide_live`]:
/// many sessions sharing one `(params, pattern, estimator, selection)`
/// class borrow a single `LiveParams`.
pub struct LiveParams<'a, E: SizeEstimator + ?Sized> {
    /// Smoother parameters `(D, K, H)`.
    pub params: &'a SmootherParams,
    /// The GOP pattern.
    pub pattern: GopPattern,
    /// Size estimator for not-yet-arrived pictures.
    pub estimator: &'a E,
    /// Rate-selection policy.
    pub selection: RateSelection,
    /// Total length, if known up front (stored video).
    pub total: Option<usize>,
}

/// Readiness of a session's next decision, as [`live_ready`] derives it
/// from the cursor: picture `cursor.decided`'s start time `t_i` and how
/// many arrivals the decision consults. It changes only when a decision
/// advances the cursor (or the stream ends), so a driver can derive it
/// once per decision and test each push against `need` with one
/// integer compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ready {
    /// Start of service `t_i` (paper eq. 2).
    pub time: f64,
    /// Arrivals the decision needs in hand — also the visible prefix
    /// length it consults.
    pub need: usize,
    /// Lookahead pictures the bound scan covers: `H`, cut at the end of
    /// the stream when its length is known.
    pub look: usize,
}

/// Derives when picture `cursor.decided` becomes decidable — the one
/// place `t_i` and `need` are computed. Returns `None` once every
/// picture of a stream of known length is decided.
///
/// `need` is everything that will have arrived by `t_i`
/// ([`SmootherParams::arrived_by`]), at least `i + K`, and at least
/// `i + 1` — for `K = 0` picture `i` itself must be in hand because its
/// actual size sets the departure time — capped at the stream's length
/// when known (`ended` makes `pushed` that length). The decision may be
/// made once `pushed ≥ need`; at the end of a stream that always holds.
/// `pushed` is read only when `ended` is set.
///
/// [`SmootherParams::arrived_by`]: crate::params::SmootherParams::arrived_by
#[inline]
pub fn live_ready<E: SizeEstimator + ?Sized>(
    cfg: &LiveParams<'_, E>,
    pushed: usize,
    ended: bool,
    cursor: &LiveCursor,
) -> Option<Ready> {
    let params = cfg.params;
    let i = cursor.decided;
    // t_i is known once d_{i−1} is known (it is: i−1 decided).
    let time = params.start_time(i, cursor.depart);
    let mut need = params.arrived_by(time).max(i + params.k).max(i + 1);
    let mut look = params.h;
    if let Some(n) = if ended { Some(pushed) } else { cfg.total } {
        if i >= n {
            return None;
        }
        // n > i, so the cap keeps `need ≥ i + 1`.
        need = need.min(n);
        look = look.min(n - i);
    }
    Some(Ready { time, need, look })
}

/// Makes the decision [`live_ready`] found ready over its resolved
/// lookahead: runs the bound scan and rate selection, and advances
/// `cursor`. The body of the paper's `notify` step.
///
/// `ready` must be `live_ready`'s value for this `cursor` (and the same
/// `cfg` and end-of-stream state), and `history` must hold at least
/// `ready.need` pictures. `sizes_ahead` is `S_i .. S_{i+look−1}` for `i
/// = cursor.decided` and `look = ready.look`, resolved over the first
/// `ready.need` pictures of `history` in `base`-shifted coordinates —
/// by a [`LookaheadWindow`] ([`decide_live`]) or by the estimator's
/// [`resolve_ahead`](SizeEstimator::resolve_ahead) (a session store,
/// straight from its history). Inlined so a driver that
/// carries `ready` between decisions keeps the whole chain `t_i → d_i →
/// t_{i+1}` in registers; [`decide_live`] is the checked composition.
///
/// `lanes` is decision scratch a driver hoists across sessions.
#[inline(always)]
pub fn decide_ready<E: SizeEstimator + ?Sized, W: SizeWord>(
    cfg: &LiveParams<'_, E>,
    history: SizeHistory<'_, W>,
    ready: Ready,
    cursor: &mut LiveCursor,
    sizes_ahead: &[f64],
    lanes: &mut BlockLanes,
) -> PictureSchedule {
    let i = cursor.decided;
    debug_assert_eq!(sizes_ahead.len(), ready.look, "lookahead not resolved");
    debug_assert!(history.pushed() >= ready.need, "decision not ready");
    // Every read of the decision is at a logical index ≥ base: `size_i`
    // at `i ≥ decided ≥ base`, the lookahead at `j ≥ i`, and the
    // estimator (per its `history_window` promise) within the retained
    // suffix. Shifting every index by `base` — a multiple of N — keeps
    // GOP slots, and therefore every resolved size, bit-identical to the
    // unpruned computation.
    debug_assert!(history.base <= i, "pruned past the next undecided picture");
    debug_assert!(
        history.base % cfg.pattern.n() == 0,
        "prune not pattern-aligned"
    );
    cursor.watermark = cursor.watermark.max(ready.need);
    let ctx = DecideCtx {
        params: cfg.params,
        sizes_ahead,
        pattern_n: cfg.pattern.n(),
        selection: cfg.selection,
        i,
        start: ready.time,
        prev_rate: cursor.prev_rate,
        size_i: history.tail[i - history.base].into(),
        // Arrivals stream in, so the size bound needed for the
        // order-free scan is not known up front.
        exact_prefix: false,
    };
    let decision = decide_one(&ctx, lanes);
    cursor.depart = decision.depart;
    cursor.prev_rate = Some(decision.rate);
    cursor.decided += 1;
    decision
}

/// Attempts one live rate decision — [`live_ready`] then, if the
/// arrivals are in hand, [`decide_ready`]. The one decision function
/// shared by [`OnlineSmoother::push`] and the `smooth-engine` session
/// engine (which inlines the two halves to carry the readiness between
/// decisions).
///
/// Returns `Some` (and advances `cursor`) when picture
/// `cursor.decided`'s preconditions are met: its start time `t_i` has
/// enough arrivals in hand (`⌊t_i/τ⌋`, at least `i + K`, at least `i +
/// 1`), or the stream has `ended`. Returns `None` when the decision must
/// wait for more pushes (or everything is decided). Call in a loop to
/// drain; `need` is monotone across consecutive decisions, so `window`
/// slides instead of refilling.
///
/// `window` resolves the lookahead: it must see the same session on
/// every call, [`rebase`](LookaheadWindow::rebase)d by the pruned count
/// after each prune. `lanes` is as for [`decide_ready`].
pub fn decide_live<E: SizeEstimator + ?Sized, W: SizeWord>(
    cfg: &LiveParams<'_, E>,
    history: SizeHistory<'_, W>,
    ended: bool,
    cursor: &mut LiveCursor,
    window: &mut LookaheadWindow,
    lanes: &mut BlockLanes,
) -> Option<PictureSchedule> {
    let ready = live_ready(cfg, history.pushed(), ended, cursor)?;
    if history.pushed() < ready.need {
        return None; // wait for more pushes
    }
    let visible = &history.tail[..ready.need - history.base];
    let (estimator, pattern) = (cfg.estimator, cfg.pattern);
    let arrived = W::arrived(visible);
    let ahead = window.advance(
        cursor.decided - history.base,
        ready.look,
        visible,
        estimator.invalidation(),
        pattern.n(),
        |j| estimator.estimate(j, arrived, &pattern),
    );
    Some(decide_ready(cfg, history, ready, cursor, ahead, lanes))
}

/// How many leading sizes a session may prune right now: the largest
/// whole-pattern prefix below both `cursor.decided` (no decision will
/// read an earlier `size_i` or lookahead slot again) and
/// `cursor.watermark − w` (the estimator's declared
/// [`history_window`](SizeEstimator::history_window) stays fully
/// retained — `visible_len` is monotone, so every future estimate reads
/// within the last `w` of a prefix at least as long as the watermark).
///
/// Returns 0 when the estimator makes no compaction promise
/// (`history_window() == None`).
pub fn prunable_prefix(
    cursor: &LiveCursor,
    history_window: Option<usize>,
    pattern_n: usize,
) -> usize {
    let Some(w) = history_window else { return 0 };
    let cut = cursor.decided.min(cursor.watermark.saturating_sub(w));
    cut - cut % pattern_n.max(1)
}

/// Incremental smoother for a live or stored picture stream.
pub struct OnlineSmoother<E: SizeEstimator = PatternEstimator> {
    params: SmootherParams,
    pattern: GopPattern,
    estimator: E,
    selection: RateSelection,
    /// Total length, if known up front (stored video). Enables exact
    /// equivalence with the offline smoother.
    expected_total: Option<usize>,
    /// Logical index of `buf[0]`: sizes `0..base` have been pruned.
    base: usize,
    /// Retained sizes (display order, logical pictures
    /// `base..base + buf.len()`).
    buf: Vec<u64>,
    /// Decision state shared with [`decide_live`].
    cursor: LiveCursor,
    /// Incrementally maintained lookahead (see `DecideCtx::sizes_ahead`),
    /// in `base`-shifted coordinates.
    window: LookaheadWindow,
    /// Cached `estimator.history_window(&pattern)`.
    hist: Option<usize>,
    ended: bool,
}

impl OnlineSmoother<PatternEstimator> {
    /// Creates a live smoother with the paper's default estimator and
    /// basic rate selection.
    pub fn new(params: SmootherParams, pattern: GopPattern) -> Self {
        Self::with_estimator(
            params,
            pattern,
            PatternEstimator::default(),
            RateSelection::Basic,
            None,
        )
    }

    /// Creates a smoother for a stored video of known length; decisions
    /// match the offline [`crate::smooth`] exactly.
    pub fn for_stored(params: SmootherParams, pattern: GopPattern, total_pictures: usize) -> Self {
        Self::with_estimator(
            params,
            pattern,
            PatternEstimator::default(),
            RateSelection::Basic,
            Some(total_pictures),
        )
    }
}

impl<E: SizeEstimator> OnlineSmoother<E> {
    /// Fully customized construction.
    pub fn with_estimator(
        params: SmootherParams,
        pattern: GopPattern,
        estimator: E,
        selection: RateSelection,
        expected_total: Option<usize>,
    ) -> Self {
        let hist = estimator.history_window(&pattern);
        OnlineSmoother {
            params,
            pattern,
            estimator,
            selection,
            expected_total,
            base: 0,
            buf: Vec::new(),
            cursor: LiveCursor::new(),
            window: LookaheadWindow::new(),
            hist,
            ended: false,
        }
    }

    /// Number of pictures pushed so far.
    pub fn pictures_pushed(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Number of rate decisions emitted so far.
    pub fn pictures_decided(&self) -> usize {
        self.cursor.decided
    }

    /// Number of arrived sizes currently retained in memory. With a
    /// compaction-capable estimator this stays O(H + N + K + D/τ) for a
    /// live session no matter how many pictures are pushed; without one
    /// (e.g. [`crate::OracleEstimator`]) it equals
    /// [`pictures_pushed`](Self::pictures_pushed).
    pub fn retained(&self) -> usize {
        self.buf.len()
    }

    /// Allocated capacity of the retained-size buffer, for memory
    /// regression tests.
    pub fn retained_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Feeds the next picture's coded size (bits) and returns any newly
    /// decidable schedules (the paper's `notify` events), in display
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish), or past the
    /// declared `expected_total`.
    pub fn push(&mut self, size_bits: u64) -> Vec<PictureSchedule> {
        assert!(!self.ended, "push after finish()");
        if let Some(total) = self.expected_total {
            assert!(
                self.pictures_pushed() < total,
                "push beyond declared total {total}"
            );
        }
        self.buf.push(size_bits);
        self.drain()
    }

    /// Signals the end of the sequence (the paper's `seq_end`) and
    /// returns the remaining schedules.
    pub fn finish(&mut self) -> Vec<PictureSchedule> {
        self.ended = true;
        self.drain()
    }

    /// Emits every decision whose preconditions are now met, then prunes
    /// decided history the estimator no longer needs.
    fn drain(&mut self) -> Vec<PictureSchedule> {
        let mut out = Vec::new();
        let mut lanes = BlockLanes::default();
        let OnlineSmoother {
            params,
            pattern,
            estimator,
            selection,
            expected_total,
            base,
            buf,
            cursor,
            window,
            ended,
            ..
        } = self;
        let cfg = LiveParams {
            params,
            pattern: *pattern,
            estimator,
            selection: *selection,
            total: *expected_total,
        };
        loop {
            let history = SizeHistory {
                base: *base,
                tail: buf,
            };
            match decide_live(&cfg, history, *ended, cursor, window, &mut lanes) {
                Some(decision) => out.push(decision),
                None => break,
            }
        }
        self.compact();
        out
    }

    /// Drops the prunable prefix once it dominates the buffer, keeping
    /// the memmove amortized O(1) per push.
    fn compact(&mut self) {
        let cut = prunable_prefix(&self.cursor, self.hist, self.pattern.n());
        let drop = cut.saturating_sub(self.base);
        if drop == 0 || drop < self.buf.len() / 2 {
            return;
        }
        self.buf.drain(..drop);
        self.base = cut;
        // The window indexes `base`-shifted pictures; renumber it (its
        // cached values survive a whole-pattern shift).
        self.window.rebase(drop);
    }

    /// Collects all decisions made so far into a [`SmoothingResult`]-style
    /// container by re-running; prefer accumulating the schedules returned
    /// by [`push`](Self::push)/[`finish`](Self::finish) in streaming use.
    pub fn params(&self) -> &SmootherParams {
        &self.params
    }
}

/// Convenience: streams a whole trace through an [`OnlineSmoother`] with
/// known length and returns the result (equals [`crate::smooth`]).
pub fn smooth_streaming(
    trace: &smooth_trace::VideoTrace,
    params: SmootherParams,
) -> SmoothingResult {
    let mut online = OnlineSmoother::for_stored(params, trace.pattern, trace.len());
    let mut schedule = Vec::with_capacity(trace.len());
    for &s in &trace.sizes {
        schedule.extend(online.push(s));
    }
    schedule.extend(online.finish());
    SmoothingResult { params, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoother::smooth;
    use smooth_mpeg::{PictureType, Resolution};
    use smooth_trace::VideoTrace;

    fn trace(n: usize) -> VideoTrace {
        let pattern = GopPattern::new(3, 9).unwrap();
        let sizes: Vec<u64> = (0..n)
            .map(|i| match pattern.type_at(i) {
                PictureType::I => 190_000 + (i as u64 % 7) * 1000,
                PictureType::P => 80_000 + (i as u64 % 5) * 3000,
                PictureType::B => 17_000 + (i as u64 % 3) * 2000,
            })
            .collect();
        VideoTrace::new("online", pattern, Resolution::VGA, 30.0, sizes).unwrap()
    }

    #[test]
    fn stored_mode_matches_offline_exactly() {
        let t = trace(90);
        for (d, k, h) in [(0.1, 1, 9), (0.2, 1, 9), (0.2, 3, 9), (0.3, 1, 18)] {
            let params = SmootherParams::at_30fps(d, k, h).unwrap();
            let offline = smooth(&t, params);
            let streamed = smooth_streaming(&t, params);
            assert_eq!(offline, streamed, "divergence at D={d} K={k} H={h}");
        }
    }

    #[test]
    fn decisions_arrive_incrementally() {
        let t = trace(45);
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let mut online = OnlineSmoother::for_stored(params, t.pattern, t.len());
        let mut decided_after_each = Vec::new();
        for &s in &t.sizes {
            let newly = online.push(s);
            decided_after_each.push(newly.len());
        }
        let tail = online.finish();
        // Every picture got exactly one decision.
        let total: usize = decided_after_each.iter().sum::<usize>() + tail.len();
        assert_eq!(total, 45);
        // With K = 1 decisions flow during the stream, not only at the
        // end.
        assert!(decided_after_each.iter().sum::<usize>() > 30);
    }

    #[test]
    fn live_mode_diverges_only_near_the_end() {
        let t = trace(90);
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let offline = smooth(&t, params);

        let mut online = OnlineSmoother::new(params, t.pattern);
        let mut schedule = Vec::new();
        for &s in &t.sizes {
            schedule.extend(online.push(s));
        }
        schedule.extend(online.finish());
        assert_eq!(schedule.len(), 90);
        // Identical except possibly within the last H pictures, where the
        // live smoother cannot know the sequence is about to end.
        let h = params.h;
        for (i, (live, stored)) in schedule.iter().zip(&offline.schedule).enumerate() {
            if i >= 90 - h {
                break;
            }
            assert_eq!(live, stored, "early divergence at {i}");
        }
    }

    #[test]
    fn live_mode_still_satisfies_theorem1() {
        let t = trace(90);
        let params = SmootherParams::at_30fps(0.15, 1, 9).unwrap();
        let mut online = OnlineSmoother::new(params, t.pattern);
        let mut schedule = Vec::new();
        for &s in &t.sizes {
            schedule.extend(online.push(s));
        }
        schedule.extend(online.finish());
        let result = SmoothingResult { params, schedule };
        let report = crate::verify::check_theorem1(&result);
        assert!(report.holds(), "{report:?}");
    }

    #[test]
    fn k9_buffers_nine_before_first_decision() {
        let t = trace(27);
        let params = SmootherParams::at_30fps(0.4, 9, 9).unwrap();
        let mut online = OnlineSmoother::for_stored(params, t.pattern, t.len());
        let mut first_decision_at = None;
        for (idx, &s) in t.sizes.iter().enumerate() {
            if !online.push(s).is_empty() && first_decision_at.is_none() {
                first_decision_at = Some(idx);
            }
        }
        online.finish();
        // Pictures 0..K-1 = 0..8 must be in hand (and, because t_0 = 9τ
        // means 9 pictures have arrived by then, exactly 9 pushes).
        assert_eq!(first_decision_at, Some(8));
    }

    #[test]
    #[should_panic(expected = "push after finish")]
    fn push_after_finish_panics() {
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let mut online = OnlineSmoother::new(params, GopPattern::new(3, 9).unwrap());
        online.finish();
        online.push(1000);
    }

    #[test]
    #[should_panic(expected = "beyond declared total")]
    fn push_beyond_total_panics() {
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let mut online = OnlineSmoother::for_stored(params, GopPattern::new(3, 9).unwrap(), 1);
        online.push(1000);
        online.push(1000);
    }

    #[test]
    fn finish_without_pictures_is_empty() {
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let mut online = OnlineSmoother::new(params, GopPattern::new(3, 9).unwrap());
        assert!(online.finish().is_empty());
    }

    #[test]
    fn counters_track_progress() {
        let t = trace(18);
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let mut online = OnlineSmoother::for_stored(params, t.pattern, 18);
        for &s in &t.sizes {
            online.push(s);
        }
        assert_eq!(online.pictures_pushed(), 18);
        online.finish();
        assert_eq!(online.pictures_decided(), 18);
    }

    #[test]
    fn live_history_stays_bounded() {
        // A live session with the pattern estimator prunes its decided
        // prefix: after thousands of pushes the retained slice (and its
        // allocation) stays a small constant, not O(pushed).
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        let pattern = GopPattern::new(3, 9).unwrap();
        let mut online = OnlineSmoother::new(params, pattern);
        let t = trace(9);
        let mut max_retained = 0;
        for i in 0..5_000usize {
            online.push(t.sizes[i % 9]);
            max_retained = max_retained.max(online.retained());
        }
        assert_eq!(online.pictures_pushed(), 5_000);
        // Live bound: undecided tail ≤ max(⌈D/τ⌉, K) + slack, plus the
        // estimator window 2N and pattern-alignment slop — far below the
        // push count.
        assert!(max_retained < 128, "retained grew to {max_retained}");
        assert!(online.retained_capacity() < 256);
    }
}
