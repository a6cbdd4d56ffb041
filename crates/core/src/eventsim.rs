//! Event-driven validation of the system model (paper §4.1).
//!
//! The paper's recursion uses two idealizations: pictures are treated as
//! fully arrived at `(i+1)τ` (0-based) even though the encoder may finish
//! earlier, and delays are measured from the nominal capture instant
//! `iτ` even though the first bit may arrive later. The paper argues
//! ("If either x or y were known and used instead, the delay of each
//! picture may be smaller … but the difference would be negligible.")
//!
//! This module *checks* that argument: it re-simulates a computed
//! schedule against an encoder whose per-picture encoding completion
//! times are randomized inside their allowed windows, measures the true
//! delays, and reports the gap to the model's delays.

use crate::smoother::{SmoothingResult, TIME_EPS};
use serde::{Deserialize, Serialize};
use smooth_rng::Rng;

/// Slots per timing-wheel level (64 — one occupancy word per level).
const WHEEL_SLOTS: u64 = 64;
/// log2([`WHEEL_SLOTS`]): the per-level shift.
const WHEEL_BITS: u32 = 6;
/// Highest representable level: `64^(l+1)` must not overflow the u64
/// delta shift (`6·(l+1) < 64`).
const WHEEL_MAX_LEVEL: usize = 9;

/// One wheel level: 64 slots of `(deadline, item)` entries plus an
/// occupancy bitmap (bit `s` set iff `slots[s]` is non-empty).
#[derive(Debug, Clone, Default)]
struct WheelLevel {
    slots: Vec<Vec<(u64, u64)>>,
    occupied: u64,
}

impl WheelLevel {
    fn new() -> Self {
        WheelLevel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }
}

/// A hierarchical timing wheel over integer tick deadlines — the
/// event-driven scheduler's core: `schedule` and `pop_due` are O(1)
/// amortized, so advancing a fleet costs O(sessions **due**), not
/// O(sessions live).
///
/// Layout (Varghese/Lauck): level `l` has 64 slots of width `64^l`
/// ticks. An item with deadline `d` is hashed to the lowest level whose
/// slot width covers `d − now`; when the wheel's position crosses a
/// level boundary, the corresponding higher-level slot **cascades** —
/// its items are re-hashed into lower levels — so by the time a
/// deadline comes due its items sit in level 0, where one bitmap scan
/// finds the earliest occupied slot.
///
/// Ordering contract (what the determinism proptests rely on):
/// [`pop_due`](Self::pop_due) yields deadlines in non-decreasing order,
/// every item of one deadline pops in one call, and the whole pop
/// sequence is a pure function of the call history — bit-identical
/// replay for identical schedules. Order *within* one deadline is
/// deterministic but not insertion order (a cascade can re-file an
/// early item behind a late direct insert); callers that care about
/// cross-item order within a tick must impose their own (the session
/// engine folds digests in session-id order, so it does not).
/// Scheduling a deadline at or before the current position clamps to
/// the current position rather than panicking — it pops on the next
/// call.
#[derive(Debug, Clone)]
pub struct TimingWheel {
    /// Current position: every deadline `< now` has been popped.
    now: u64,
    /// Scheduled items not yet popped.
    len: usize,
    /// Levels, created on demand as far-out deadlines arrive.
    levels: Vec<WheelLevel>,
    /// Emptied higher-level slot buffers, kept with their capacity: a
    /// cascade leaves its slot without a buffer, and the next item filed
    /// into an empty higher-level slot takes one from here, so a wheel in
    /// steady state stops allocating while holding buffers only for the
    /// slots in use.
    spare: Vec<Vec<(u64, u64)>>,
}

impl Default for TimingWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingWheel {
    /// An empty wheel positioned at tick 0.
    pub fn new() -> Self {
        TimingWheel {
            now: 0,
            len: 0,
            levels: vec![WheelLevel::new()],
            spare: Vec::new(),
        }
    }

    /// Scheduled items not yet popped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current position: every deadline `< now()` has been popped.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `item` for `deadline`. Deadlines at or before the
    /// current position are clamped to it (they pop on the next
    /// [`pop_due`](Self::pop_due)).
    pub fn schedule(&mut self, deadline: u64, item: u64) {
        let d = deadline.max(self.now);
        let delta = d - self.now;
        let mut level = 0usize;
        while level < WHEEL_MAX_LEVEL && (delta >> (WHEEL_BITS * (level as u32 + 1))) != 0 {
            level += 1;
        }
        while self.levels.len() <= level {
            self.levels.push(WheelLevel::new());
        }
        let slot = ((d >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS - 1)) as usize;
        let lv = &mut self.levels[level];
        let items = &mut lv.slots[slot];
        if items.capacity() == 0 {
            if let Some(buffer) = self.spare.pop() {
                *items = buffer;
            }
        }
        items.push((d, item));
        lv.occupied |= 1 << slot;
        self.len += 1;
    }

    /// Pops every item of the **earliest** pending deadline `d ≤ until`
    /// into `out` (appending, in scheduling order) and returns `Some(d)`
    /// after advancing the position to `d`. Returns `None` — and
    /// advances the position to `until` — when no pending deadline is
    /// due by `until`. Call in a loop to drain a window; items scheduled
    /// between calls (re-armed sessions) are picked up as long as their
    /// deadlines are not in the past.
    ///
    /// # Panics
    ///
    /// Panics if `until` is before the current position.
    pub fn pop_due(&mut self, until: u64, out: &mut Vec<u64>) -> Option<u64> {
        assert!(
            until >= self.now,
            "pop_due({until}) behind position {}",
            self.now
        );
        loop {
            if self.len == 0 {
                self.now = until;
                return None;
            }
            // Earliest level-0 slot at or after the current position
            // within the current 64-tick window.
            let wstart = self.now & !(WHEEL_SLOTS - 1);
            let idx = (self.now & (WHEEL_SLOTS - 1)) as u32;
            let mask = self.levels[0].occupied & (u64::MAX << idx);
            if mask != 0 {
                let s = mask.trailing_zeros();
                let d = wstart + u64::from(s);
                if d > until {
                    self.now = until;
                    return None;
                }
                let lv = &mut self.levels[0];
                let slot = &mut lv.slots[s as usize];
                debug_assert!(slot.iter().all(|&(dl, _)| dl == d));
                self.len -= slot.len();
                out.extend(slot.iter().map(|&(_, item)| item));
                slot.clear();
                lv.occupied &= !(1u64 << s);
                self.now = d;
                return Some(d);
            }
            // Level 0 is dry for the rest of this window: either the
            // window ends past `until` (nothing due) or we cross the
            // boundary and cascade the higher-level slots that cover it.
            let boundary = wstart + WHEEL_SLOTS;
            if until < boundary {
                self.now = until;
                return None;
            }
            self.cross_boundary(boundary);
        }
    }

    /// Advances the position to `boundary` (a multiple of 64) and
    /// cascades every higher-level slot whose window the crossing
    /// enters, highest level first so re-hashed items land relative to
    /// the new position.
    fn cross_boundary(&mut self, boundary: u64) {
        let old = self.now;
        self.now = boundary;
        let mut changed = 0usize;
        for l in 1..self.levels.len() {
            if (old >> (WHEEL_BITS * l as u32)) != (boundary >> (WHEEL_BITS * l as u32)) {
                changed = l;
            } else {
                break;
            }
        }
        for l in (1..=changed).rev() {
            let slot = ((boundary >> (WHEEL_BITS * l as u32)) & (WHEEL_SLOTS - 1)) as usize;
            let lv = &mut self.levels[l];
            if lv.occupied & (1 << slot) == 0 {
                continue;
            }
            let mut drained = std::mem::take(&mut lv.slots[slot]);
            lv.occupied &= !(1u64 << slot);
            self.len -= drained.len();
            for &(d, item) in &drained {
                debug_assert!(d >= boundary, "cascaded deadline {d} behind {boundary}");
                self.schedule(d, item);
            }
            drained.clear();
            self.spare.push(drained);
        }
    }
}

/// Comparison between modeled and event-simulated delays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSimReport {
    /// Per-picture true delay (measured from the actual first-bit arrival
    /// to the modeled departure), display order.
    pub true_delays: Vec<f64>,
    /// Largest amount by which a true delay *exceeds* the modeled delay.
    /// Positive values would falsify the model; expected ≤ ~[`TIME_EPS`].
    pub max_excess: f64,
    /// Mean (modeled − true) slack: how much the model over-states delay.
    pub mean_slack: f64,
    /// Pictures whose encoding had not finished by the time the server
    /// wanted to start sending them (would be starvation in a real
    /// system; must be zero when encoding finishes within the period).
    pub starvation_events: usize,
}

/// Re-simulates `result`'s schedule against randomized true arrival
/// times.
///
/// Picture `i`'s first bit arrives at `iτ + φ_i` and its encoding
/// completes at `iτ + ψ_i` with `0 ≤ φ_i ≤ ψ_i ≤ τ` (the paper's
/// assumption that encoding takes at most one period). The transmission
/// schedule (starts, rates, departures) is the one already computed; this
/// function measures the *true* delay `d_i − (iτ + φ_i)` and checks the
/// server never outruns the encoder.
pub fn validate_against_events(result: &SmoothingResult, seed: u64) -> EventSimReport {
    let tau = result.params.tau;
    let mut rng = Rng::seed_from_u64(seed);
    let mut true_delays = Vec::with_capacity(result.schedule.len());
    let mut max_excess = f64::NEG_INFINITY;
    let mut slack_sum = 0.0;
    let mut starvation = 0usize;

    for p in &result.schedule {
        let i = p.index as f64;
        // First bit somewhere in the first half of the period, encoding
        // complete by the period's end (uniformly random, ordered).
        let phi = rng.range_f64(0.0, 0.5 * tau);
        let psi = rng.range_f64(phi, tau);
        let arrival_start = i * tau + phi;
        let encoded_at = i * tau + psi;

        // True delay: first bit to last transmitted bit.
        let true_delay = p.depart - arrival_start;
        true_delays.push(true_delay);
        max_excess = max_excess.max(true_delay - p.delay);
        slack_sum += p.delay - true_delay;

        // Starvation check: the server begins sending picture i at
        // p.start; with K >= 1 the model guarantees p.start >= (i+K)τ ≥
        // encoded_at, so the whole picture is buffered in time.
        if p.start + TIME_EPS < encoded_at && result.params.k >= 1 {
            starvation += 1;
        }
    }

    EventSimReport {
        mean_slack: if true_delays.is_empty() {
            0.0
        } else {
            slack_sum / true_delays.len() as f64
        },
        true_delays,
        max_excess: if max_excess == f64::NEG_INFINITY {
            0.0
        } else {
            max_excess
        },
        starvation_events: starvation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SmootherParams;
    use crate::smoother::smooth;
    use smooth_trace::driving1;

    #[test]
    fn model_delays_upper_bound_true_delays() {
        // The paper's claim: measuring from the true (later) first-bit
        // arrival can only shrink delays, never grow them.
        let trace = driving1();
        let result = smooth(&trace, SmootherParams::at_30fps(0.2, 1, 9).unwrap());
        for seed in [1u64, 2, 3, 42] {
            let report = validate_against_events(&result, seed);
            assert!(
                report.max_excess <= TIME_EPS,
                "seed {seed}: a true delay exceeded the model by {}",
                report.max_excess
            );
            assert_eq!(report.starvation_events, 0, "seed {seed}");
            // The model over-states by at most half a period (φ ≤ τ/2).
            assert!(report.mean_slack >= 0.0);
            assert!(report.mean_slack <= 0.5 / 30.0 + 1e-9);
        }
    }

    #[test]
    fn true_delays_stay_within_bound_too() {
        let trace = driving1();
        let d = 0.1333;
        let result = smooth(&trace, SmootherParams::at_30fps(d, 1, 9).unwrap());
        let report = validate_against_events(&result, 7);
        assert!(report.true_delays.iter().all(|&x| x <= d + TIME_EPS));
        // And they are strictly positive: bits cannot leave before they
        // arrive (continuous service keeps the server behind the encoder).
        assert!(report.true_delays.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = driving1().truncated(45);
        let result = smooth(&trace, SmootherParams::at_30fps(0.2, 1, 9).unwrap());
        assert_eq!(
            validate_against_events(&result, 5),
            validate_against_events(&result, 5)
        );
        assert_ne!(
            validate_against_events(&result, 5).true_delays,
            validate_against_events(&result, 6).true_delays
        );
    }

    #[test]
    fn wheel_pops_in_deadline_order() {
        let mut w = TimingWheel::new();
        for (d, item) in [(5u64, 50u64), (1, 10), (70, 700), (5, 51), (4100, 41_000)] {
            w.schedule(d, item);
        }
        assert_eq!(w.len(), 5);
        let mut out = Vec::new();
        assert_eq!(w.pop_due(u64::MAX, &mut out), Some(1));
        assert_eq!(out, vec![10]);
        out.clear();
        assert_eq!(w.pop_due(u64::MAX, &mut out), Some(5));
        assert_eq!(out, vec![50, 51], "same-deadline items pop together");
        out.clear();
        assert_eq!(w.pop_due(u64::MAX, &mut out), Some(70));
        assert_eq!(out, vec![700]);
        out.clear();
        assert_eq!(w.pop_due(u64::MAX, &mut out), Some(4100));
        assert_eq!(out, vec![41_000]);
        out.clear();
        assert_eq!(w.pop_due(u64::MAX, &mut out), None);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_until_bounds_the_drain_and_advances_position() {
        let mut w = TimingWheel::new();
        w.schedule(10, 1);
        w.schedule(200, 2);
        let mut out = Vec::new();
        assert_eq!(w.pop_due(5, &mut out), None);
        assert_eq!(w.now(), 5);
        assert!(out.is_empty());
        assert_eq!(w.pop_due(10, &mut out), Some(10));
        assert_eq!(w.pop_due(199, &mut out), None);
        assert_eq!(w.now(), 199);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(10_000, &mut out), Some(200));
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_the_position() {
        let mut w = TimingWheel::new();
        let mut out = Vec::new();
        assert_eq!(w.pop_due(100, &mut out), None);
        w.schedule(40, 7); // behind the position: clamps to 100
        assert_eq!(w.pop_due(100, &mut out), Some(100));
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn wheel_rearms_during_drain_loop() {
        // The session-engine pattern: pop a deadline, re-arm the popped
        // item one period later, keep draining the same window.
        let mut w = TimingWheel::new();
        w.schedule(3, 1);
        w.schedule(5, 2);
        let mut seen = Vec::new();
        let mut out = Vec::new();
        while let Some(d) = w.pop_due(20, &mut out) {
            for item in out.drain(..) {
                seen.push((d, item));
                if d + 7 <= 20 {
                    w.schedule(d + 7, item);
                }
            }
        }
        assert_eq!(w.now(), 20);
        assert_eq!(
            seen,
            vec![(3, 1), (5, 2), (10, 1), (12, 2), (17, 1), (19, 2)]
        );
    }

    /// Randomized exerciser against a binary-heap reference: interleaved
    /// schedules (spanning several wheel levels) and bounded drains must
    /// agree with the heap on every (deadline → item multiset) pair.
    #[test]
    fn wheel_matches_heap_reference() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        for seed in [1u64, 7, 42, 0xdead] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut next_item = 0u64;
            let mut pos = 0u64;
            for _ in 0..400 {
                // A burst of schedules at mixed horizons (within-window,
                // next-level, far-out).
                let burst = (rng.range_f64(0.0, 4.0)) as usize;
                for _ in 0..burst {
                    let horizon = match (rng.range_f64(0.0, 3.0)) as u32 {
                        0 => 50.0,
                        1 => 4000.0,
                        _ => 300_000.0,
                    };
                    let d = pos + rng.range_f64(0.0, horizon) as u64;
                    wheel.schedule(d, next_item);
                    heap.push(Reverse((d.max(pos), next_item)));
                    next_item += 1;
                }
                // Drain a bounded window.
                let until = pos + rng.range_f64(0.0, 600.0) as u64;
                let mut out = Vec::new();
                while let Some(d) = wheel.pop_due(until, &mut out) {
                    let mut want = Vec::new();
                    while let Some(&Reverse((hd, hi))) = heap.peek() {
                        if hd != d {
                            break;
                        }
                        want.push(hi);
                        heap.pop();
                    }
                    let mut got = std::mem::take(&mut out);
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "seed {seed}: deadline {d} items diverged");
                    if let Some(&Reverse((hd, _))) = heap.peek() {
                        assert!(hd > d || hd > until, "seed {seed}: heap has earlier work");
                    }
                }
                if let Some(&Reverse((hd, _))) = heap.peek() {
                    assert!(hd > until, "seed {seed}: wheel left {hd} ≤ {until} behind");
                }
                assert_eq!(wheel.len(), heap.len(), "seed {seed}");
                pos = until;
                assert_eq!(wheel.now(), pos);
            }
        }
    }

    #[test]
    fn empty_schedule_is_trivial() {
        let trace = driving1().truncated(0);
        // truncated(0) clamps to 0 pictures; build via empty VideoTrace.
        let _ = trace;
        let result = SmoothingResult {
            params: SmootherParams::at_30fps(0.2, 1, 9).unwrap(),
            schedule: vec![],
        };
        let report = validate_against_events(&result, 1);
        assert_eq!(report.true_delays.len(), 0);
        assert_eq!(report.max_excess, 0.0);
    }
}
