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
