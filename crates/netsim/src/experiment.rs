//! The statistical-multiplexing experiment (DESIGN.md exp. **X-mux**).
//!
//! The paper motivates smoothing with the observation — demonstrated by
//! its references [10, 11] — that a finite-buffer packet switch carries
//! variance-reduced traffic with far less loss. This module builds that
//! experiment: `n` independent VBR video sources (seed variants of a
//! paper sequence, phase-staggered so their I pictures don't align by
//! construction) feed one finite-buffer multiplexer, either raw or
//! smoothed with the paper's algorithm, and we measure the loss ratio.

use crate::mux::{FluidMux, FluidMuxStats};
use serde::{Deserialize, Serialize};
use smooth_core::{smooth, SmootherParams};
use smooth_metrics::{baseline_rate_function, rate_function, StepFunction};
use smooth_rng::Rng;
use smooth_trace::{generate, SequenceId, VideoTrace};

/// How each source's rate function is produced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SourceMode {
    /// Raw encoder output: each picture sent in its own period
    /// ([`smooth_core::unsmoothed`]).
    Unsmoothed,
    /// Smoothed with the paper's algorithm at the given parameters.
    Smoothed {
        /// Parameters for the smoother.
        params: SmootherParams,
    },
}

/// Configuration of one multiplexing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplexConfig {
    /// Which paper sequence the sources are variants of.
    pub sequence: SequenceId,
    /// Number of pictures per source.
    pub pictures: usize,
    /// Number of sources feeding the switch.
    pub sources: usize,
    /// Raw or smoothed sources.
    pub mode: SourceMode,
    /// Output link capacity, bits/second.
    pub capacity_bps: f64,
    /// Switch buffer, bits.
    pub buffer_bits: f64,
    /// Seed for source variants and phase offsets.
    pub seed: u64,
}

/// One run's outcome, bundling the mux stats with the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiplexOutcome {
    /// Raw multiplexer statistics.
    pub stats: FluidMuxStats,
    /// Sum of the sources' long-run mean rates, bits/second.
    pub offered_mean_bps: f64,
    /// Offered mean divided by capacity.
    pub nominal_load: f64,
}

impl MultiplexOutcome {
    /// Fraction of offered bits lost.
    pub fn loss_ratio(&self) -> f64 {
        self.stats.loss_ratio()
    }
}

/// Builds the rate function of one source under `mode`.
pub fn source_rate_function(trace: &VideoTrace, mode: SourceMode) -> StepFunction {
    match mode {
        SourceMode::Unsmoothed => baseline_rate_function(&smooth_core::unsmoothed(trace)),
        SourceMode::Smoothed { params } => rate_function(&smooth(trace, params)),
    }
}

/// Wraps `f` cyclically into `[0, period)` with a phase shift of `offset`
/// seconds: `g(t) = Σ_k f(t − offset + k·period)`.
///
/// This turns a finite video's rate function into the steady state of a
/// source looping that video — the standard way to build an ensemble of
/// *independent, stationary* VBR sources from one trace. (Without the
/// wrap, every source's scene changes would line up in wall-clock time
/// and the "statistical" in statistical multiplexing would be gone.)
pub fn cyclic_wrap(f: &StepFunction, offset: f64, period: f64) -> StepFunction {
    assert!(period > 0.0, "period must be positive");
    // Collect folded sub-pieces in [0, period).
    let mut folded: Vec<(f64, f64, f64)> = Vec::new();
    for (s, e, v) in f.pieces() {
        if e <= s || v == 0.0 {
            continue;
        }
        let (mut s, e) = (s + offset, e + offset);
        // Normalize the start into [0, period).
        let shift = (s / period).floor() * period;
        s -= shift;
        let e = e - shift;
        // Split across wrap boundaries.
        let mut a = s;
        while a < e - 1e-15 {
            let k = (a / period).floor();
            let seg_end = e.min((k + 1.0) * period);
            folded.push((a - k * period, seg_end - k * period, v));
            a = seg_end;
        }
    }
    // Sweep: sum overlapping contributions.
    let mut cuts: Vec<f64> = vec![0.0, period];
    for &(a, b, _) in &folded {
        cuts.push(a);
        cuts.push(b);
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let mut breaks = Vec::with_capacity(cuts.len());
    let mut values = Vec::with_capacity(cuts.len());
    breaks.push(cuts[0]);
    for w in cuts.windows(2) {
        let mid = 0.5 * (w[0] + w[1]);
        let v: f64 = folded
            .iter()
            .filter(|&&(a, b, _)| a <= mid && mid < b)
            .map(|&(_, _, v)| v)
            .sum();
        values.push(v);
        breaks.push(w[1]);
    }
    StepFunction::new(breaks, values)
}

/// Runs one multiplexing experiment with the default worker count
/// ([`smooth_sweep::default_threads`]).
///
/// Each source is a seed variant of the configured sequence, looped
/// cyclically with a uniformly random phase (drawn from `cfg.seed`), so
/// the ensemble behaves like independent stationary viewers — scene
/// changes and I pictures do not line up across sources.
pub fn run_multiplex(cfg: &MultiplexConfig) -> MultiplexOutcome {
    run_multiplex_threaded(cfg, smooth_sweep::default_threads())
}

/// [`run_multiplex`] with an explicit worker count. The outcome is
/// bit-identical for every `threads`: all RNG draws (source variants,
/// phase offsets) and the `offered_mean` summation stay in source order
/// on the calling thread; the per-source smoothing fans out with results
/// collected back in source order, and the multiplexer's shard plan is
/// fixed by the source count alone ([`FluidMux::run`]).
pub fn run_multiplex_threaded(cfg: &MultiplexConfig, threads: usize) -> MultiplexOutcome {
    let (inputs, offered_mean, period) = multiplex_inputs_threaded(cfg, threads);
    let stats = FluidMux {
        capacity_bps: cfg.capacity_bps,
        buffer_bits: cfg.buffer_bits,
    }
    .run(&inputs, 0.0, period, threads);
    MultiplexOutcome {
        stats,
        offered_mean_bps: offered_mean,
        nominal_load: offered_mean / cfg.capacity_bps,
    }
}

/// Builds the source-rate ensemble of a multiplexing run:
/// `(inputs, offered_mean_bps, period)`. Bit-identical for every
/// `threads` — all RNG draws stay in source order on the calling thread;
/// only the per-source smoothing fans out.
fn multiplex_inputs_threaded(
    cfg: &MultiplexConfig,
    threads: usize,
) -> (Vec<StepFunction>, f64, f64) {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut inputs = Vec::with_capacity(cfg.sources);
    let mut offered_mean = 0.0;
    let mut period: f64 = 0.0;

    let mut traces: Vec<_> = Vec::with_capacity(cfg.sources);
    for s in 0..cfg.sources {
        let trace = generate(cfg.sequence, cfg.pictures, rng.fork(s as u64).next_u64());
        offered_mean += trace.mean_rate_bps();
        period = period.max(trace.duration());
        traces.push(trace);
    }
    let raw: Vec<StepFunction> = smooth_sweep::par_map(threads, &traces, |_, trace| {
        source_rate_function(trace, cfg.mode)
    });
    for f in &raw {
        let offset = rng.range_f64(0.0, period);
        inputs.push(cyclic_wrap(f, offset, period));
    }
    (inputs, offered_mean, period)
}

/// Sweeps buffer sizes at a fixed capacity with the default worker count,
/// returning `(buffer_bits, unsmoothed_loss, smoothed_loss)` rows — the
/// X-mux table.
pub fn buffer_sweep(
    base: &MultiplexConfig,
    params: SmootherParams,
    buffers: &[f64],
) -> Vec<(f64, f64, f64)> {
    buffer_sweep_threaded(base, params, buffers, smooth_sweep::default_threads())
}

/// [`buffer_sweep`] with an explicit worker count. Each buffer point is
/// an independent pair of runs, so the sweep fans out across points
/// (each run kept serial inside to avoid nested thread explosions) and
/// rows come back in `buffers` order.
pub fn buffer_sweep_threaded(
    base: &MultiplexConfig,
    params: SmootherParams,
    buffers: &[f64],
    threads: usize,
) -> Vec<(f64, f64, f64)> {
    smooth_sweep::par_map(threads, buffers, |_, &buffer_bits| {
        let raw = run_multiplex_threaded(
            &MultiplexConfig {
                buffer_bits,
                mode: SourceMode::Unsmoothed,
                ..*base
            },
            1,
        );
        let smoothed = run_multiplex_threaded(
            &MultiplexConfig {
                buffer_bits,
                mode: SourceMode::Smoothed { params },
                ..*base
            },
            1,
        );
        (buffer_bits, raw.loss_ratio(), smoothed.loss_ratio())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> MultiplexConfig {
        MultiplexConfig {
            sequence: SequenceId::Driving1,
            pictures: 120,
            sources: 8,
            mode: SourceMode::Unsmoothed,
            // 8 sources at ~2.1 Mbps mean: nominal load ~0.85 on 20 Mbps,
            // with a small ATM-scale buffer (0.25 Mbit ~ 590 cells) -
            // the regime where picture-scale burstiness, not scene-scale
            // rate, drives loss.
            capacity_bps: 20.0e6,
            buffer_bits: 0.25e6,
            seed: 42,
        }
    }

    fn smoothing() -> SmootherParams {
        SmootherParams::at_30fps(0.2, 1, 9).expect("feasible")
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_multiplex(&base_cfg());
        let b = run_multiplex(&base_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn multiplex_parallel_matches_serial_exactly() {
        let serial = run_multiplex_threaded(&base_cfg(), 1);
        for threads in [2, 4, 16] {
            let parallel = run_multiplex_threaded(&base_cfg(), threads);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn buffer_sweep_parallel_matches_serial_exactly() {
        // Bit-identical rows (f64 ==, no tolerance) for any worker count.
        let buffers = [0.0, 0.25e6, 1.0e6, 4.0e6];
        let serial = buffer_sweep_threaded(&base_cfg(), smoothing(), &buffers, 1);
        for threads in [2, 8] {
            let parallel = buffer_sweep_threaded(&base_cfg(), smoothing(), &buffers, threads);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn smoothing_cuts_loss_at_equal_resources() {
        let raw = run_multiplex(&base_cfg());
        let smoothed = run_multiplex(&MultiplexConfig {
            mode: SourceMode::Smoothed {
                params: smoothing(),
            },
            ..base_cfg()
        });
        assert!(
            raw.loss_ratio() > 0.0,
            "config should stress the switch: raw loss {}",
            raw.loss_ratio()
        );
        assert!(
            smoothed.loss_ratio() < 0.5 * raw.loss_ratio(),
            "smoothing should cut loss substantially: raw {} vs smoothed {}",
            raw.loss_ratio(),
            smoothed.loss_ratio()
        );
    }

    #[test]
    fn loss_monotone_in_buffer_for_both_modes() {
        let buffers = [0.0, 0.25e6, 1.0e6, 4.0e6];
        let rows = buffer_sweep(&base_cfg(), smoothing(), &buffers);
        for w in rows.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "raw loss must fall with buffer");
            assert!(
                w[1].2 <= w[0].2 + 1e-9,
                "smoothed loss must fall with buffer"
            );
        }
        // Smoothed never loses more than raw at the same buffer.
        for (buf, raw, smoothed) in rows {
            assert!(smoothed <= raw + 1e-12, "buffer {buf}: {smoothed} > {raw}");
        }
    }

    #[test]
    fn overprovisioned_link_never_loses() {
        let cfg = MultiplexConfig {
            capacity_bps: 200.0e6,
            ..base_cfg()
        };
        assert_eq!(run_multiplex(&cfg).loss_ratio(), 0.0);
    }

    #[test]
    fn nominal_load_reflects_sources() {
        let out = run_multiplex(&base_cfg());
        // 8 driving sources at ~2.1-2.5 Mbps on 20 Mbps.
        assert!(
            (0.6..1.1).contains(&out.nominal_load),
            "load {}",
            out.nominal_load
        );
        let fewer = run_multiplex(&MultiplexConfig {
            sources: 4,
            ..base_cfg()
        });
        assert!(fewer.nominal_load < out.nominal_load);
    }

    #[test]
    fn more_sources_more_loss() {
        let few = run_multiplex(&MultiplexConfig {
            sources: 6,
            ..base_cfg()
        });
        let many = run_multiplex(&MultiplexConfig {
            sources: 10,
            ..base_cfg()
        });
        assert!(many.loss_ratio() >= few.loss_ratio());
    }
}
