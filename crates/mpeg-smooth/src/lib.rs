//! # mpeg-smooth
//!
//! A production-quality Rust reproduction of
//! **"An Algorithm for Lossless Smoothing of MPEG Video"**
//! (Simon S. Lam, Simon Chow, David K. Y. Yau — ACM SIGCOMM '94).
//!
//! MPEG's interframe compression makes consecutive coded pictures differ
//! in size by an order of magnitude, so a constant picture rate produces
//! a wildly fluctuating bit rate. This workspace implements the paper's
//! sender-side **lossless smoothing algorithm** — which buffers pictures
//! and picks per-picture sending rates that provably respect a delay
//! bound `D` while keeping the server busy and the rate nearly constant —
//! together with every substrate needed to reproduce the paper's entire
//! evaluation.
//!
//! This umbrella crate re-exports the five member crates:
//!
//! * [`mpeg`] (`smooth-mpeg`) — picture types, GOP patterns, transmission
//!   reordering, a structural MPEG-1 bitstream writer/parser, and the
//!   calibrated synthetic encoder;
//! * [`trace`] (`smooth-trace`) — the four paper video sequences and
//!   trace I/O;
//! * [`core`] (`smooth-core`) — the smoothing algorithm, Theorem 1
//!   verification, ideal/a-priori/unsmoothed baselines, and a streaming
//!   interface;
//! * [`metrics`] (`smooth-metrics`) — step functions and the paper's four
//!   smoothness measures;
//! * [`netsim`] (`smooth-netsim`) — an ATM-style packetizer and
//!   finite-buffer multiplexer demonstrating the statistical-multiplexing
//!   motivation;
//! * [`engine`] (`smooth-engine`) — the million-session fleet engines:
//!   up to 1M concurrent live smoothing sessions advanced in lockstep
//!   picture ticks or on a timing wheel under churn, with bounded
//!   per-session memory (the `fleet` CLI subcommand drives both).
//!
//! ## Sixty seconds to smoothed video
//!
//! ```
//! use mpeg_smooth::prelude::*;
//!
//! // One of the paper's sequences (synthetic regeneration, see DESIGN.md).
//! let video = driving1();
//!
//! // The paper's recommended parameters: K = 1, H = N, D = 0.2 s.
//! let params = SmootherParams::recommended(video.pattern.n());
//! let result = smooth(&video, params);
//!
//! // Theorem 1 in action:
//! assert_eq!(result.delay_violations(), 0);
//! assert!(result.continuous_service());
//!
//! // And the point of it all — the peak network rate collapses:
//! let m = measure(&video, &result);
//! assert!(m.max_rate_bps < 0.5 * video.peak_picture_rate_bps());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

pub use smooth_core as core;
pub use smooth_engine as engine;
pub use smooth_metrics as metrics;
pub use smooth_mpeg as mpeg;
pub use smooth_netsim as netsim;
pub use smooth_trace as trace;

/// One-stop imports for applications.
pub mod prelude {
    pub use smooth_core::{
        check_theorem1, ideal_smooth, ott_smooth, smooth, smooth_streaming, smooth_with,
        unsmoothed, OnlineSmoother, PatternEstimator, RateSelection, SmootherParams,
        SmoothingResult,
    };
    pub use smooth_metrics::{measure, rate_function, SmoothnessMeasures, StepFunction};
    pub use smooth_mpeg::{GopPattern, PictureType, Resolution};
    pub use smooth_trace::{
        analyze,
        sequences::{backyard, driving1, driving2, paper_sequences, tennis},
        VideoTrace,
    };
}
