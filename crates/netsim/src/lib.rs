//! # smooth-netsim
//!
//! Network substrate for the `mpeg-smooth` workspace: an ATM-style cell
//! packetizer, exact fluid and cell-granular finite-buffer FIFO
//! multiplexers, and the statistical-multiplexing experiment that
//! quantifies the paper's motivation — reducing the variance of VBR video
//! (by lossless smoothing) slashes the loss of a finite-buffer switch at
//! the same utilization (paper §1/§3, refs [10, 11]).
//!
//! There is one production fluid multiplexer, [`LiveMux`]: the session
//! engines stream decisions into its lanes, and [`FluidMux::run`] (behind
//! the X-mux experiment and `mpeg-smooth sweep --sources`) posts whole
//! step functions into them. The frozen oracles it is pinned to live in
//! the test-only `smooth-oracle` crate.
//!
//! ```
//! use smooth_netsim::{run_multiplex, MultiplexConfig, SourceMode};
//! use smooth_core::SmootherParams;
//! use smooth_trace::SequenceId;
//!
//! let base = MultiplexConfig {
//!     sequence: SequenceId::Driving1,
//!     pictures: 90,
//!     sources: 8,
//!     mode: SourceMode::Unsmoothed,
//!     capacity_bps: 20.0e6,
//!     buffer_bits: 1.0e6,
//!     seed: 7,
//! };
//! let raw = run_multiplex(&base);
//! let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
//! let smoothed = run_multiplex(&MultiplexConfig {
//!     mode: SourceMode::Smoothed { params }, ..base
//! });
//! assert!(smoothed.loss_ratio() <= raw.loss_ratio());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod livemux;
pub mod mux;
pub mod packetizer;
pub mod policer;
pub mod transport;

pub use experiment::{
    buffer_sweep, buffer_sweep_threaded, cyclic_wrap, run_multiplex, run_multiplex_threaded,
    source_rate_function, MultiplexConfig, MultiplexOutcome, SourceMode,
};
pub use livemux::{
    IngestCounts, LaneTable, LiveMux, LiveMuxStats, MuxCheckpoint, MuxConfig, SessionLane,
    TrafficDescriptor, MUX_MAX_SHARDS,
};
pub use mux::{CellMux, CellMuxStats, FluidMux, FluidMuxStats, QueueState};
pub use packetizer::{cell_times, merge_cell_streams, CELL_PAYLOAD_BITS, CELL_WIRE_BITS};
pub use policer::{min_bucket_for, PoliceStats, TokenBucket};
pub use transport::{
    lossy_session, packetize, reassemble, units_damaged, LossySessionReport, Packet,
};
