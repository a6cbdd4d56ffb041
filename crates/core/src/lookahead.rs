//! Incremental lookahead resolution: the O(1)-per-picture window engine.
//!
//! Every picture `i`, the smoothing algorithm needs the resolved sizes
//! `S_i .. S_{i+look−1}` — exact values for the arrived prefix, estimates
//! beyond it — as one contiguous `f64` slice for the interval-intersection
//! loop. The naive approach ([`crate::reference::fill_lookahead`])
//! rebuilds that slice from scratch every picture: O(H) work plus one
//! estimator call per unresolved slot, per picture.
//!
//! [`LookaheadWindow`] instead *slides*: between picture `i−1` and `i`
//! the window `[i−1, i−1+H)` and the window `[i, i+H)` share all but one
//! slot, and a shared slot's resolved value can only change in two ways:
//!
//! 1. it crossed the **arrived-watermark** — the picture arrived, so the
//!    estimate is replaced by the exact size (each slot crosses at most
//!    once, amortized O(1) per picture);
//! 2. a new arrival **invalidated its estimate** — which arrivals affect
//!    which estimates is the estimator's declared
//!    [`Invalidation`] contract: the paper's pattern estimator is only
//!    affected by a same-GOP-slot arrival (≤ ⌈H/N⌉ slots per arrival),
//!    oracle/fixed estimators never, arbitrary estimators conservatively
//!    on every arrival.
//!
//! So the steady-state per-picture cost is: drop one slot, resolve one
//! newly exposed slot, plus the (amortized O(1)) watermark crossings and
//! same-slot refreshes — independent of `H`. The interval-intersection
//! loop in [`crate::smoother`] remains O(H) per picture; it is the
//! paper's own algorithm and is excluded from the engine's cost bound.
//!
//! The window keeps its slots in a fixed storage of
//! [`window_capacity`]`(look)` values with a moving start offset, moved
//! back to the front whenever an append would run off the end (at most
//! two slot copies per advance), so the live region is always one
//! contiguous `&[f64]` —
//! exactly what `DecideCtx::sizes_ahead` wants. A caller that prunes
//! whole GOP periods off the history the window indexes renumbers it
//! with [`LookaheadWindow::rebase`] instead of refilling it. (A session
//! store holds no window at all: it resolves each decision's lookahead
//! straight from its history with
//! [`SizeEstimator::resolve_ahead`](crate::SizeEstimator::resolve_ahead).)
//!
//! **Bit-identity.** Every resolved value is the same pure function of
//! `(j, visible prefix)` the naive refill computes — exact slots are
//! `visible[j] as f64`, estimated slots are `estimate(j)` recomputed
//! whenever the declared invalidation says the inputs changed — so the
//! produced slices, and therefore the schedules, are bit-identical to
//! the reference implementation. The proptests in
//! `crates/core/tests/incremental_props.rs` pin this for offline, online
//! stored, and online live modes.

pub use crate::estimate::Invalidation;
use crate::estimate::SizeWord;

/// Slot storage a window of up to `look` live slots works in: `look`
/// plus a slack of `⌈look / 2⌉`, at least 4. The live window slides one
/// slot to the right per advance, so once every `slack` advances it
/// reaches the end of its storage and is copied back to the front:
/// `look / slack ≤ 2` slot copies per advance, so maintenance stays
/// O(1) per picture at any `H`, in a storage that never grows (14
/// slots at `H = 9`, 18 at `H = 12`). EXPERIMENTS.md, "Lean session
/// state", has the measurements.
pub const fn window_capacity(look: usize) -> usize {
    let slack = look.div_ceil(2);
    look + if slack < 4 { 4 } else { slack }
}

/// A lookahead window's position, without its slot storage: which
/// storage slots are live and which pictures and arrivals they reflect.
///
/// The default value is an empty window: its next advance refills.
#[derive(Debug, Default, Clone, Copy)]
struct WindowState {
    /// Start of the live window within the storage.
    lo: u32,
    /// Number of live slots; 0 forces a refill on the next advance.
    len: u32,
    /// The picture a sliding advance expects next (the live window's
    /// first picture is `next − 1`).
    next: usize,
    /// Arrived-prefix length (`visible.len()`) at the last advance.
    /// Slots `j < watermark` hold exact sizes; slots `j ≥ watermark`
    /// hold estimates.
    watermark: usize,
}

/// Full refill — the naive resolution, used for the first picture of a
/// run and as the fallback for non-sliding access. Kept out of line so
/// the inlined sliding fast path stays small.
#[cold]
#[inline(never)]
fn refill<'a, W: SizeWord>(
    state: &mut WindowState,
    slots: &'a mut [f64],
    i: usize,
    look: usize,
    visible: &[W],
    mut estimate: impl FnMut(usize) -> f64,
) -> &'a [f64] {
    assert!(
        look <= slots.len() && u32::try_from(slots.len()).is_ok(),
        "a {look}-slot lookahead does not fit a {}-slot window storage",
        slots.len()
    );
    *state = WindowState {
        lo: 0,
        len: look as u32,
        next: i + 1,
        watermark: visible.len(),
    };
    for (slot, j) in slots[..look].iter_mut().zip(i..) {
        *slot = if j < visible.len() {
            visible[j].to_f64()
        } else {
            estimate(j)
        };
    }
    &slots[..look]
}

/// Incrementally maintained lookahead window (see the module docs) that
/// owns its storage.
///
/// One instance serves one smoothing run at a time but is designed to be
/// **reused across runs** (and across traces, in batch mode): `advance`
/// detects non-successive picture indices and falls back to a full
/// refill, so a fresh run simply starts with its first picture. The
/// storage is sized once, to [`window_capacity`] of the longest
/// lookahead asked, and kept between runs — after warm-up the hot path
/// performs no allocations at all.
#[derive(Debug, Default)]
pub struct LookaheadWindow {
    state: WindowState,
    slots: Vec<f64>,
}

impl LookaheadWindow {
    /// Creates an empty window. Storage is allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all cached state; the next [`advance`](Self::advance)
    /// performs a full refill. Storage is retained.
    pub fn reset(&mut self) {
        self.state.len = 0;
    }

    /// Renumbers the window after its caller dropped the first `drop`
    /// pictures of the history it indexes: picture `j` becomes `j −
    /// drop`, so the next sliding advance expects `next − drop` and the
    /// watermark moves down by the same amount. The cached slot values
    /// stay: `drop` must be a whole number of GOP periods, and under an
    /// estimator's [`history_window`](crate::SizeEstimator::history_window)
    /// promise every resolved value depends only on `j mod N` and the
    /// retained sizes, which a whole-pattern shift leaves unchanged (the
    /// same argument that keeps pruned schedules bit-identical). A drop
    /// past the next expected picture or past the watermark leaves
    /// nothing to renumber, and resets.
    pub fn rebase(&mut self, drop: usize) {
        let state = &mut self.state;
        if drop > state.next || drop > state.watermark {
            state.len = 0;
        } else {
            state.next -= drop;
            state.watermark -= drop;
        }
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, cap: usize) {
        self.slots.reserve_exact(cap - self.slots.len());
        self.slots.resize(cap, 0.0);
    }

    /// Slides the window to picture `i` and returns the resolved sizes
    /// `S_i .. S_{i+look−1}` as a contiguous slice.
    ///
    /// * `look` — the window length; the storage grows to
    ///   [`window_capacity`]`(look)` slots the first time a longer
    ///   lookahead is asked, and copies at most two slots an advance to
    ///   stay contiguous.
    /// * `visible` — the arrived prefix (`visible[x]` is the exact size
    ///   of picture `x`, as `u64` or as a store's `u32` word); its length
    ///   is the arrived-watermark and must be non-decreasing across
    ///   successive calls of one run.
    /// * `invalidation` — the estimator's declared contract; governs
    ///   which cached estimates are recomputed.
    /// * `slot_modulus` — the GOP pattern period `N`, consulted only for
    ///   [`Invalidation::OnSameSlotArrival`].
    /// * `estimate` — resolves a not-yet-arrived picture `j`; must be a
    ///   pure function of `(j, visible)`.
    ///
    /// Calling with `i` not equal to the previous picture + 1 (a new
    /// run, a reset, or any non-sliding access) falls back to a full
    /// refill, which is exactly the naive
    /// [`crate::reference::fill_lookahead`].
    #[inline(always)]
    pub fn advance<W: SizeWord>(
        &mut self,
        i: usize,
        look: usize,
        visible: &[W],
        invalidation: Invalidation,
        slot_modulus: usize,
        mut estimate: impl FnMut(usize) -> f64,
    ) -> &[f64] {
        let cap = window_capacity(look);
        if self.slots.len() < cap {
            self.grow(cap);
        }
        let LookaheadWindow { state, slots } = self;
        let w1 = visible.len();
        let sliding = state.len > 0 && i == state.next && w1 >= state.watermark;
        if !sliding {
            return refill(state, slots, i, look, visible, estimate);
        }

        // 1. Drop the slot for picture i − 1.
        let mut lo = state.lo as usize + 1;
        let mut len = state.len as usize - 1;
        state.next = i + 1;

        // Live-window view: `win[j − i]` is picture `j`'s slot. The loops
        // below index it with `j < i + win.len()`, a bound the optimizer
        // can discharge, where the equivalent `slots[lo + …]` stores
        // each kept a checked add.
        let win = &mut slots[lo..lo + len];

        // 2. Estimate → exact for slots that crossed the watermark.
        let w0 = state.watermark;
        for j in w0.max(i)..w1.min(i + win.len()) {
            win[j - i] = visible[j].to_f64();
        }

        // 3. Recompute estimates the new arrivals invalidated (slots at
        //    or beyond the new watermark; slots below it are exact).
        if w1 > w0 {
            let est_from = w1.max(i);
            let est_to = i + win.len();
            match invalidation {
                Invalidation::Never => {}
                Invalidation::OnAnyArrival => {
                    for j in est_from..est_to {
                        win[j - i] = estimate(j);
                    }
                }
                Invalidation::OnSameSlotArrival => {
                    let n = slot_modulus.max(1);
                    if w1 - w0 >= n {
                        // Every GOP slot saw an arrival.
                        for j in est_from..est_to {
                            win[j - i] = estimate(j);
                        }
                    } else {
                        for x in w0..w1 {
                            // First j ≥ est_from with j ≡ x (mod n), by
                            // stepping (x is at most a window behind, so
                            // this beats an integer division).
                            let mut j = x;
                            while j < est_from {
                                j += n;
                            }
                            if j < est_to {
                                // One estimate serves the whole class:
                                // `OnSameSlotArrival` pins unresolved
                                // same-slot estimates equal.
                                let v = estimate(j);
                                while j < est_to {
                                    win[j - i] = v;
                                    j += n;
                                }
                            }
                        }
                    }
                }
            }
        }
        state.watermark = w1;

        // 4. Grow the back edge to the requested length. In steady state
        //    this appends exactly the one newly exposed slot; near the
        //    end of a finite trace `look` shrinks and nothing is
        //    appended. An append that would run past the storage first
        //    moves the live window to its front.
        if len < look {
            if lo + look > slots.len() {
                slots.copy_within(lo..lo + len, 0);
                lo = 0;
            }
            while len < look {
                let j = i + len;
                let v = if j < w1 {
                    visible[j].to_f64()
                } else if invalidation == Invalidation::OnSameSlotArrival
                    && slot_modulus >= 1
                    && j - i >= slot_modulus
                    && j - slot_modulus >= w1
                {
                    // The slot one GOP period back is in the window, is
                    // itself unresolved, and was brought current above —
                    // so under the `OnSameSlotArrival` class-equality
                    // promise its cached value *is* `estimate(j)`, for
                    // free.
                    slots[lo + (j - slot_modulus - i)]
                } else {
                    estimate(j)
                };
                slots[lo + len] = v;
                len += 1;
            }
        }
        len = len.min(look);

        state.lo = lo as u32;
        state.len = len as u32;
        &slots[lo..lo + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// Drives the window and the naive refill side by side over a
    /// synthetic arrival process and asserts slice equality each step.
    fn check_against_naive(
        sizes: &[u64],
        h: usize,
        n: usize,
        invalidation: Invalidation,
        arrived_at: impl Fn(usize) -> usize,
    ) {
        // Pure estimator honoring the declared invalidation: for
        // OnSameSlotArrival use the most recent same-slot arrival (the
        // pattern rule), for Never a constant, else a hash of the prefix.
        let estimate_with = |j: usize, visible: &[u64]| -> f64 {
            match invalidation {
                Invalidation::Never => (j % 7) as f64 + 1.0,
                Invalidation::OnSameSlotArrival => {
                    let mut back = j;
                    while back >= n {
                        back -= n;
                        if back < visible.len() {
                            return visible[back] as f64;
                        }
                    }
                    (j % n) as f64 + 0.5
                }
                Invalidation::OnAnyArrival => visible.len() as f64 * 1000.0 + (j % 11) as f64,
            }
        };

        let mut window = LookaheadWindow::new();
        let mut scratch = Vec::new();
        for i in 0..sizes.len() {
            let look = h.min(sizes.len() - i);
            let arrived = arrived_at(i).min(sizes.len());
            let visible = &sizes[..arrived];
            let got = window
                .advance(i, look, visible, invalidation, n, |j| {
                    estimate_with(j, visible)
                })
                .to_vec();
            reference::fill_lookahead(&mut scratch, i, look, visible, |j| {
                estimate_with(j, visible)
            });
            assert_eq!(got, scratch, "picture {i}");
        }
    }

    #[test]
    fn matches_naive_for_every_invalidation_mode() {
        let sizes: Vec<u64> = (0..200).map(|x| 1_000 + x * 37 % 5_000).collect();
        for inval in [
            Invalidation::OnAnyArrival,
            Invalidation::OnSameSlotArrival,
            Invalidation::Never,
        ] {
            // K=1-style watermark (one picture ahead).
            check_against_naive(&sizes, 9, 9, inval, |i| i + 1);
            // Bursty watermark: jumps several pictures at a time.
            check_against_naive(&sizes, 12, 9, inval, |i| (i / 5) * 7);
            // Watermark far ahead of the window.
            check_against_naive(&sizes, 6, 9, inval, |i| i + 40);
        }
    }

    #[test]
    fn window_shrinks_at_trace_end() {
        let sizes: Vec<u64> = (0..30).map(|x| 100 + x).collect();
        check_against_naive(&sizes, 9, 9, Invalidation::OnSameSlotArrival, |i| i + 1);
    }

    #[test]
    fn reset_forces_refill() {
        let sizes: Vec<u64> = (0..40).map(|x| 7 * x + 1).collect();
        let mut w = LookaheadWindow::new();
        let a = w
            .advance(0, 9, &sizes[..1], Invalidation::Never, 9, |_| 1.0)
            .to_vec();
        w.advance(1, 9, &sizes[..2], Invalidation::Never, 9, |_| 1.0);
        w.reset();
        let b = w
            .advance(0, 9, &sizes[..1], Invalidation::Never, 9, |_| 1.0)
            .to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn non_successive_access_falls_back_to_refill() {
        let sizes: Vec<u64> = (0..60).map(|x| x * x % 997).collect();
        let mut w = LookaheadWindow::new();
        let mut scratch = Vec::new();
        for &i in &[0usize, 1, 2, 10, 11, 5, 6, 7] {
            let visible = &sizes[..(i + 2).min(sizes.len())];
            let got = w
                .advance(i, 9, visible, Invalidation::OnAnyArrival, 9, |j| {
                    j as f64 + visible.len() as f64
                })
                .to_vec();
            reference::fill_lookahead(&mut scratch, i, 9, visible, |j| {
                j as f64 + visible.len() as f64
            });
            assert_eq!(got, scratch, "i={i}");
        }
    }
}
