//! # smooth-core
//!
//! The paper's primary contribution: **lossless smoothing of MPEG video**
//! (Lam, Chow & Yau, SIGCOMM '94). An encoder's output rate fluctuates by
//! an order of magnitude from picture to picture; this algorithm buffers
//! pictures at the sender and selects a sending rate `r_i` per picture so
//! that every picture's delay stays below a bound `D`, the sender never
//! idles, and the rate changes as rarely as possible — all without
//! discarding any information (hence *lossless*, in contrast to the lossy
//! quantizer/frame-dropping rate controls of §3.1).
//!
//! ## Quick start
//!
//! ```
//! use smooth_core::{smooth, SmootherParams};
//! use smooth_trace::sequences::driving1;
//!
//! let trace = driving1();
//! // The paper's recommended configuration: K = 1, H = N, D = 0.2 s.
//! let params = SmootherParams::recommended(trace.pattern.n());
//! let result = smooth(&trace, params);
//!
//! assert_eq!(result.delay_violations(), 0);   // Theorem 1, property (7)
//! assert!(result.continuous_service());        // Theorem 1, property (9)
//! ```
//!
//! ## Map of the crate
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`params`] | §4.1, eq. (1) | `(D, K, H)` with feasibility checks |
//! | [`smoother`] | §4.4, Fig. 2 | the algorithm, offline driver, results |
//! | [`estimate`] | §4.3–4.4 | pattern / oracle / default size estimators |
//! | [`lookahead`] | — | incremental O(1)-per-picture lookahead window |
//! | [`simd`] | — | explicit SSE2/AVX2 kernels with runtime dispatch |
//! | [`reference`] | — | naive refill/walk-back oracles for the tests |
//! | [`online`] | Fig. 1 | streaming `push`/`notify` interface |
//! | [`baseline`] | §3.2 | ideal smoothing, unsmoothed sender |
//! | [`ott`] | ref. \[8\] | a-priori optimal (taut-string) schedule |
//! | [`verify`] | §4.2, Thm. 1 | independent audit of every guarantee |

#![warn(missing_docs)]
// `unsafe` is denied everywhere except the explicit-SIMD kernels in
// [`simd`], which scope an `allow` and justify every block; nested
// unsafe operations always need their own block.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod adaptive;
pub mod baseline;
pub mod estimate;
pub mod eventsim;
pub mod lookahead;
pub mod lossy;
pub mod online;
pub mod ott;
pub mod params;
pub mod receiver;
pub mod reference;
pub mod simd;
pub mod smoother;
pub mod verify;

pub use adaptive::{same_type_estimate, smooth_adaptive};
pub use baseline::{ideal_rates, ideal_smooth, unsmoothed, BaselineResult, BaselineSchedule};
pub use estimate::{
    Arrived, DefaultSizes, Invalidation, OracleEstimator, PatternEstimator, SizeEstimator,
    SizeWord, TypeDefaultEstimator,
};
pub use eventsim::{validate_against_events, EventSimReport};
pub use lookahead::{window_capacity, LookaheadWindow};
pub use lossy::{cap_peak_with_quantizer, drop_b_pictures, BDropResult, QuantizerControlResult};
pub use online::{
    decide_live, decide_ready, live_ready, prunable_prefix, smooth_streaming, LiveCursor,
    LiveParams, OnlineSmoother, Ready, SizeHistory,
};
pub use ott::{ott_smooth, OttError};
pub use params::{ParamError, SmootherParams};
pub use receiver::{
    client_buffer_at_bound, min_playback_offset, simulate_receiver, ReceiverReport,
};
pub use simd::SimdLevel;
pub use smoother::{
    smooth, smooth_with, smooth_with_scratch, BlockLanes, PictureSchedule, RateSegment,
    RateSelection, SmoothScratch, Smoother, SmoothingResult, TIME_EPS,
};
pub use verify::{check_theorem1, theorem_applies, Theorem1Report};
