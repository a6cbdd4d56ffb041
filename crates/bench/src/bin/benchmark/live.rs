//! The live loop: a churn trace cut into fixed tick slices, each fed
//! to [`DynamicEngine::run_trace_fused`] when it falls due.
//!
//! Step `i` covers trace ticks `(s·i − 1, s·i + s − 1]` for slice width
//! `s`, so replaying every slice in order is the whole trace. Paced, step
//! `i` is due `i / rate` seconds after the loop starts (open loop: a late
//! step runs as soon as the one before it ends, and none are skipped).
//! Between steps the loop spins rather than sleeps, as a server with a
//! core of its own would: on a virtual machine a sleeping core halts, the
//! host may hand it to another tenant, and getting it back (with cold
//! caches) added about an eighth to each step's latency.
//! Unpaced, the steps run back to back, as the timed passes and the
//! equality test against one batch `run_trace_fused` feed them.

use std::time::Instant;

use smooth_engine::{ChurnTrace, DynamicEngine, EngineError, LiveMux, SizeSource};

use crate::spans::{maybe, Tracer};

/// Cuts `trace` into consecutive slices of `width` ticks; the last one
/// ends at the trace horizon.
pub fn slices(trace: &ChurnTrace, width: u64) -> Vec<ChurnTrace> {
    assert!(width > 0, "slice width must be positive");
    let steps = (trace.horizon + 1).div_ceil(width);
    let mut lo = 0;
    (0..steps)
        .map(|i| {
            let horizon = (i * width + width - 1).min(trace.horizon);
            let hi = lo + trace.events[lo..].partition_point(|(t, _)| *t <= horizon);
            let events = trace.events[lo..hi].to_vec();
            lo = hi;
            ChurnTrace {
                events,
                horizon,
                peak_live: trace.peak_live,
            }
        })
        .collect()
}

/// When each step was due, started and ended, in seconds from the loop
/// start.
#[derive(Debug, Default)]
pub struct StepTimes {
    pub due: Vec<f64>,
    pub start: Vec<f64>,
    pub end: Vec<f64>,
}

impl StepTimes {
    /// Due-to-completion latency of each step, in ms.
    pub fn latency_ms(&self) -> Vec<f64> {
        diff_ms(&self.end, &self.due)
    }

    /// Start-to-completion service time of each step, in ms.
    pub fn service_ms(&self) -> Vec<f64> {
        diff_ms(&self.end, &self.start)
    }

    /// How late each step started, in ms.
    pub fn lag_ms(&self) -> Vec<f64> {
        diff_ms(&self.start, &self.due)
    }

    /// Steps that ended after the next step was due.
    pub fn deadline_misses(&self) -> usize {
        self.end
            .iter()
            .zip(self.due.iter().skip(1))
            .filter(|(end, next_due)| end > next_due)
            .count()
    }
}

fn diff_ms(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| (x - y) * 1e3).collect()
}

/// Feeds every slice to `engine` and `mux` in order, at `rate` steps per
/// second when given, back to back otherwise. With a tracer, each step
/// is a `live.step` span.
pub fn drive<S: SizeSource>(
    engine: &mut DynamicEngine,
    mux: &mut LiveMux,
    source: &S,
    slices: &[ChurnTrace],
    workers: usize,
    rate: Option<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Result<StepTimes, EngineError> {
    let mut times = StepTimes::default();
    let origin = Instant::now();
    for (i, slice) in slices.iter().enumerate() {
        let due = rate.map_or(0.0, |r| i as f64 / r);
        while origin.elapsed().as_secs_f64() < due {
            std::hint::spin_loop();
        }
        let start = origin.elapsed().as_secs_f64();
        maybe(&mut tracer, "live.step", || {
            engine.run_trace_fused(source, slice, workers, mux)
        })?;
        let end = origin.elapsed().as_secs_f64();
        times.due.push(if rate.is_some() { due } else { start });
        times.start.push(start);
        times.end.push(end);
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_engine::{churn_trace, ChurnSpec};

    #[test]
    fn slices_partition_the_trace() {
        let t = churn_trace(&ChurnSpec {
            seed: 11,
            initial: 300,
            weights: vec![1, 1],
            periods: vec![20, 10],
            ticks_per_sec: 600,
            horizon: 1200,
            churn_ppm_per_sec: 50_000,
        });
        let s = slices(&t, 10);
        assert_eq!(s.len(), 121);
        assert_eq!(s[0].horizon, 9);
        assert_eq!(s[120].horizon, 1200);
        let flat: Vec<_> = s.iter().flat_map(|x| x.events.iter().copied()).collect();
        assert_eq!(flat, t.events);
        for (i, x) in s.iter().enumerate() {
            let lo = i as u64 * 10;
            assert!(x
                .events
                .iter()
                .all(|(tick, _)| *tick >= lo && *tick <= x.horizon));
        }
    }

    #[test]
    fn misses_count_steps_ending_after_the_next_due_time() {
        let t = StepTimes {
            due: vec![0.0, 1.0, 2.0],
            start: vec![0.0, 1.5, 2.5],
            end: vec![1.5, 2.5, 2.5625],
        };
        assert_eq!(t.deadline_misses(), 2);
        assert_eq!(t.latency_ms(), vec![1500.0, 1500.0, 562.5]);
    }
}
