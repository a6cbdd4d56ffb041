//! # smooth-bench
//!
//! Experiment harness for the `mpeg-smooth` workspace: one generator per
//! paper figure/table ([`experiments`]), a tiny terminal/CSV [`table`]
//! layer, and the `experiments` binary that regenerates the whole
//! evaluation:
//!
//! ```sh
//! cargo run --release -p smooth-bench --bin experiments          # everything
//! cargo run --release -p smooth-bench --bin experiments fig6     # one figure
//! ```
//!
//! Performance is measured by one path only, the repository benchmark
//! (`src/bin/benchmark/`, declared by the root `BENCHMARK.json`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use table::Table;
