//! # smooth-metrics
//!
//! Rate-function analytics for the `mpeg-smooth` workspace: a first-class
//! [`StepFunction`] type for piecewise-constant rate functions, the four
//! quantitative smoothness measures of the paper's §5.2 (area difference,
//! rate changes, maximum rate, standard deviation), and delay statistics
//! for Figure 5-style comparisons.
//!
//! ```
//! use smooth_metrics::{measure, rate_function};
//! use smooth_core::{smooth, SmootherParams};
//! use smooth_trace::sequences::driving1;
//!
//! let trace = driving1();
//! let result = smooth(&trace, SmootherParams::recommended(9));
//! let m = measure(&trace, &result);
//! assert!(m.max_rate_bps < trace.peak_picture_rate_bps()); // smoother than raw
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod measures;
pub mod step;

pub use export::{load_result_json, save_result_json, schedule_to_csv, segments_to_csv, LoadError};
pub use measures::{
    area_difference, baseline_rate_function, delay_stats, measure, rate_function, DelayStats,
    SmoothnessMeasures,
};
pub use step::{StepCursor, StepFunction};
