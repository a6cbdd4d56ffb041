//! # smooth-oracle
//!
//! The frozen reference implementations the production link aggregator
//! ([`smooth_netsim::LiveMux`]) is pinned to, bit for bit. Only tests
//! depend on this crate: nothing here is fast or meant to ship.
//!
//! * [`RateSweep`] / [`sweep_cursors`] — the serial k-way-merge sweep
//!   over materialized step functions, O(T·log S);
//! * [`mux::reference`] — the quadratic materialize-then-resample loop
//!   the sweep is itself pinned to;
//! * [`materialize_schedules`] — runs a lockstep fleet to completion and
//!   returns every session's schedule as a step function, the input the
//!   fused fleet-to-link path is compared against;
//! * [`scanref::run_scan`] — the brute-force scan-all replay of a churn
//!   trace the timing-wheel `DynamicEngine` is pinned to.
//!
//! The mux oracles share the canonical [`smooth_sweep::SumTree`] summation
//! order and the [`smooth_netsim::QueueState`] stepper with the
//! production path, which is what makes bit identity an achievable spec.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mux;
pub mod scanref;
pub mod sweep;

pub use mux::{materialize_schedules, reference};
pub use sweep::{sweep_cursors, RateSweep};
