//! Algorithm parameters `(D, K, H)` and their feasibility conditions.
//!
//! The paper characterizes the algorithm by three parameters (§4.1):
//!
//! * `D` — the delay bound, in seconds, that every picture must satisfy;
//! * `K` — the number of complete pictures that must be buffered before the
//!   server may begin sending the next picture. Theorem 1 guarantees the
//!   delay bound if and only if `K ≥ 1`;
//! * `H` — the lookahead interval, in pictures, over which rate bounds are
//!   intersected to reduce the number of rate changes.
//!
//! Feasibility (paper eq. (1)): `D ≥ (K + 1)·τ`.

use crate::smoother::TIME_EPS;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors constructing [`SmootherParams`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// τ must be positive and finite.
    BadTau {
        /// Offending value.
        tau: f64,
    },
    /// D must be positive and finite.
    BadDelayBound {
        /// Offending value.
        d: f64,
    },
    /// H must be at least 1 (the algorithm always examines picture `i`
    /// itself).
    ZeroH,
    /// `D < (K + 1)·τ` — the delay bound cannot be satisfied
    /// (paper eq. (1)).
    Infeasible {
        /// Requested delay bound.
        d: f64,
        /// Minimum feasible bound `(K + 1)·τ`.
        minimum: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::BadTau { tau } => write!(f, "picture period {tau} must be positive"),
            ParamError::BadDelayBound { d } => write!(f, "delay bound {d} must be positive"),
            ParamError::ZeroH => write!(f, "lookahead H must be at least 1"),
            ParamError::Infeasible { d, minimum } => {
                write!(
                    f,
                    "delay bound {d} < (K+1)·tau = {minimum}: infeasible (paper eq. (1))"
                )
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Validated smoothing parameters.
///
/// Construct via [`SmootherParams::new`], which enforces eq. (1), or
/// [`SmootherParams::new_unchecked`] for deliberately infeasible
/// experiments (e.g. demonstrating delay violations at `K = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmootherParams {
    /// Delay bound `D` in seconds.
    pub delay_bound: f64,
    /// Pictures with known sizes before sending starts (`K`).
    pub k: usize,
    /// Lookahead interval in pictures (`H ≥ 1`).
    pub h: usize,
    /// Picture period τ in seconds (1/30 for all paper experiments).
    pub tau: f64,
    /// Optional rate granularity in bits/second: real channels allocate
    /// discrete rates (the H.261/ISDN world signalled `p × 64 kbit/s`).
    /// When set, each selected rate is snapped to a multiple of this
    /// grid *within the Theorem 1 bounds* — rounding up when the rounded
    /// rate still respects `r_U`, otherwise down, otherwise left exact —
    /// so the delay bound is never endangered. `None` (the default)
    /// reproduces the paper exactly.
    #[serde(default)]
    pub rate_grid_bps: Option<f64>,
}

impl SmootherParams {
    /// Creates validated parameters.
    pub fn new(delay_bound: f64, k: usize, h: usize, tau: f64) -> Result<Self, ParamError> {
        if !(tau.is_finite() && tau > 0.0) {
            return Err(ParamError::BadTau { tau });
        }
        if !(delay_bound.is_finite() && delay_bound > 0.0) {
            return Err(ParamError::BadDelayBound { d: delay_bound });
        }
        if h == 0 {
            return Err(ParamError::ZeroH);
        }
        let minimum = (k as f64 + 1.0) * tau;
        if delay_bound < minimum - 1e-12 {
            return Err(ParamError::Infeasible {
                d: delay_bound,
                minimum,
            });
        }
        Ok(SmootherParams {
            delay_bound,
            k,
            h,
            tau,
            rate_grid_bps: None,
        })
    }

    /// Creates parameters without the eq. (1) feasibility check (τ and D
    /// must still be positive). Useful for studying violations.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `delay_bound` is non-positive/non-finite or if
    /// `h == 0`.
    pub fn new_unchecked(delay_bound: f64, k: usize, h: usize, tau: f64) -> Self {
        assert!(tau.is_finite() && tau > 0.0, "bad tau {tau}");
        assert!(
            delay_bound.is_finite() && delay_bound > 0.0,
            "bad delay bound {delay_bound}"
        );
        assert!(h >= 1, "H must be >= 1");
        SmootherParams {
            delay_bound,
            k,
            h,
            tau,
            rate_grid_bps: None,
        }
    }

    /// Returns a copy with rate selections snapped to multiples of
    /// `grid_bps` (e.g. `64_000.0` for p x 64 kbit/s channels).
    ///
    /// # Panics
    ///
    /// Panics if `grid_bps` is not positive and finite.
    pub fn with_rate_grid(mut self, grid_bps: f64) -> Self {
        assert!(
            grid_bps.is_finite() && grid_bps > 0.0,
            "bad rate grid {grid_bps}"
        );
        self.rate_grid_bps = Some(grid_bps);
        self
    }

    /// Parameters at 30 pictures/s — the rate of every paper experiment.
    pub fn at_30fps(delay_bound: f64, k: usize, h: usize) -> Result<Self, ParamError> {
        Self::new(delay_bound, k, h, 1.0 / 30.0)
    }

    /// The paper's recommended configuration (§6): `K = 1`, `H = N`,
    /// `D = 0.2 s`.
    pub fn recommended(n: usize) -> Self {
        Self::at_30fps(0.2, 1, n).expect("0.2 s >= 2/30 s")
    }

    /// The constant-slack parameterization of Figures 5 (right) and 8:
    /// `D = slack + (K + 1)·τ` with `slack = 0.1333 s`.
    pub fn constant_slack(k: usize, h: usize, tau: f64) -> Self {
        let d = 0.1333 + (k as f64 + 1.0) * tau;
        Self::new(d, k, h, tau).expect("constant-slack D is feasible by construction")
    }

    /// Start of service for picture `i` given the previous departure
    /// `d_{i−1}` — eq. (2): `t_i = max(d_{i−1}, (i + K)·τ)`.
    ///
    /// The one source of truth for this formula: the offline smoother,
    /// the online smoother, the adaptive smoother, and `decide_one` all
    /// obtain `t_i` here instead of re-deriving it.
    ///
    /// Computed as a compare-select rather than `f64::max`: both
    /// operands are nonnegative (departures and `(i+K)·τ` with `τ > 0`)
    /// and never NaN, so the two agree bit for bit while the
    /// compare-select avoids `f64::max`'s NaN/−0 fixup instructions in
    /// the per-picture path.
    #[inline]
    pub fn start_time(&self, i: usize, prev_depart: f64) -> f64 {
        let earliest = (i + self.k) as f64 * self.tau;
        if prev_depart > earliest {
            prev_depart
        } else {
            earliest
        }
    }

    /// Pictures fully arrived by time `time`: the `j` with
    /// `(j + 1)·τ ≤ time`, with [`TIME_EPS`] of slack for the
    /// exact-boundary float case — `⌊(time + ε)/τ⌋`.
    ///
    /// The one source of truth for this formula: the offline, adaptive
    /// and live smoothers all derive their arrived-by-`t_i` watermark
    /// here. The `as usize` cast truncates toward zero and saturates
    /// negatives and NaN to 0 and overflow to `usize::MAX`, so it equals
    /// `.floor() as usize` for every f64 (pinned by a proptest over
    /// arbitrary bit patterns) — without the `floor` libcall baseline
    /// x86-64 needs.
    #[inline]
    pub fn arrived_by(&self, time: f64) -> usize {
        ((time + TIME_EPS) / self.tau) as usize
    }

    /// Slack above the feasibility minimum: `D − (K + 1)·τ`.
    pub fn slack(&self) -> f64 {
        self.delay_bound - (self.k as f64 + 1.0) * self.tau
    }

    /// `true` if eq. (1) holds.
    pub fn is_feasible(&self) -> bool {
        self.slack() >= -1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TAU: f64 = 1.0 / 30.0;

    #[test]
    fn accepts_paper_recommended() {
        let p = SmootherParams::recommended(9);
        assert_eq!(p.k, 1);
        assert_eq!(p.h, 9);
        assert!((p.delay_bound - 0.2).abs() < 1e-12);
        assert!(p.is_feasible());
    }

    #[test]
    fn rejects_infeasible_eq1() {
        // K = 5 needs D >= 6/30 = 0.2.
        let err = SmootherParams::at_30fps(0.19, 5, 9).unwrap_err();
        assert!(matches!(err, ParamError::Infeasible { .. }));
        // Exactly at the boundary is allowed.
        assert!(SmootherParams::at_30fps(0.2, 5, 9).is_ok());
    }

    #[test]
    fn rejects_degenerate_values() {
        assert!(matches!(
            SmootherParams::new(0.2, 1, 9, 0.0),
            Err(ParamError::BadTau { .. })
        ));
        assert!(matches!(
            SmootherParams::new(0.2, 1, 9, f64::NAN),
            Err(ParamError::BadTau { .. })
        ));
        assert!(matches!(
            SmootherParams::new(-0.1, 1, 9, TAU),
            Err(ParamError::BadDelayBound { .. })
        ));
        assert!(matches!(
            SmootherParams::new(0.2, 1, 0, TAU),
            Err(ParamError::ZeroH)
        ));
    }

    #[test]
    fn unchecked_allows_infeasible() {
        let p = SmootherParams::new_unchecked(0.04, 0, 9, TAU);
        assert!(p.is_feasible()); // K=0: minimum is tau = 0.0333
        let p2 = SmootherParams::new_unchecked(0.02, 0, 9, TAU);
        assert!(!p2.is_feasible());
    }

    #[test]
    #[should_panic(expected = "bad tau")]
    fn unchecked_still_rejects_zero_tau() {
        SmootherParams::new_unchecked(0.2, 1, 9, 0.0);
    }

    #[test]
    fn constant_slack_parameterization() {
        for k in 1..=12 {
            let p = SmootherParams::constant_slack(k, 9, TAU);
            assert!((p.slack() - 0.1333).abs() < 1e-12, "k={k}");
            assert!(p.is_feasible());
        }
    }

    /// Bit patterns that stress the cast: ±0, subnormals, the
    /// `(−1, 0)` band where truncation and `floor` part ways before
    /// saturating, integers and their neighbours, values at and past
    /// 2⁶⁴, ±∞ and NaN — plus arbitrary bits.
    fn edge_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            (0usize..16).prop_map(|i| {
                [
                    0.0,
                    -0.0,
                    f64::from_bits(1),
                    -f64::from_bits(1),
                    f64::MIN_POSITIVE,
                    -0.5,
                    -1.0,
                    -1.0 + f64::EPSILON,
                    3.0,
                    3.0 - 4.0 * f64::EPSILON,
                    18446744073709551616.0, // 2^64
                    18446744073709549568.0, // largest f64 below 2^64
                    f64::MAX,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                ][i]
            }),
            -1.0e6..1.0e6f64,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn cast_equals_floor_for_every_f64(x in edge_f64()) {
            prop_assert_eq!(x as usize, x.floor() as usize, "x = {:e} ({:#x})", x, x.to_bits());
        }

        #[test]
        fn arrived_by_equals_the_floor_formula(
            time in edge_f64(),
            tau in prop_oneof![Just(TAU), Just(1.0 / 24.0), Just(1.0 / 60.0), 1.0e-6..10.0f64],
        ) {
            let p = SmootherParams::new_unchecked(1.0, 1, 1, tau);
            prop_assert_eq!(p.arrived_by(time), ((time + TIME_EPS) / tau).floor() as usize);
        }
    }

    #[test]
    fn slack_formula() {
        let p = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        assert!((p.slack() - (0.2 - 2.0 / 30.0)).abs() < 1e-12);
    }
}
