//! The materializing fleet-to-link **test oracle**: runs a
//! [`SessionEngine`] fleet to completion and returns every session's
//! rate schedule as a [`StepFunction`], built by a streaming replica of
//! the offline pipeline `rate_segments` ∘ `StepFunction::from_segments`
//! (same `TIME_EPS` merge, same `1e-12` gap threshold, in the same
//! order — so the breakpoint/value arrays are bit-identical to the
//! offline pipeline's, pinned by tests).
//!
//! Multiplexing those functions through [`smooth_netsim::RateSweep::run`]
//! is the reference [`crate::LiveMux`] is pinned to bit for bit
//! (`livemux_props`). It costs O(pictures) memory per session, so it is
//! an oracle, never a production path.

use smooth_core::{PictureSchedule, RateSegment, TIME_EPS};
use smooth_metrics::StepFunction;

use crate::{SessionEngine, SizeSource};

/// Streaming replica of `rate_segments` ∘ `StepFunction::from_segments`
/// for one session: decisions go in, the step function's breakpoint and
/// value arrays come out, bit-identical to the offline pipeline.
#[derive(Debug, Clone, Default)]
struct SessionBuilder {
    /// End of the last *raw* (pre-merge) segment — the previous
    /// picture's departure, which gates zero-rate gap insertion.
    prev_end: Option<f64>,
    /// The pending merged segment (maximal so far, not yet emitted).
    cur: Option<RateSegment>,
    breaks: Vec<f64>,
    values: Vec<f64>,
}

impl SessionBuilder {
    /// One decision: replicate `rate_segments`' gap insertion, then its
    /// equal-rate merge, emitting only segments that can no longer grow.
    fn decision(&mut self, d: &PictureSchedule) {
        if let Some(prev_end) = self.prev_end {
            if d.start > prev_end + TIME_EPS {
                self.raw(RateSegment {
                    start: prev_end,
                    end: d.start,
                    rate: 0.0,
                });
            }
        }
        self.raw(RateSegment {
            start: d.start,
            end: d.depart,
            rate: d.rate,
        });
        self.prev_end = Some(d.depart);
    }

    fn raw(&mut self, seg: RateSegment) {
        if let Some(cur) = &mut self.cur {
            if cur.rate == seg.rate && (seg.start - cur.end).abs() <= TIME_EPS {
                cur.end = seg.end;
                return;
            }
            let done = *cur;
            self.cur = Some(seg);
            self.emit(done);
        } else {
            self.cur = Some(seg);
        }
    }

    /// Streaming `StepFunction::from_segments`: same `1e-12` gap pieces,
    /// same skip of non-advancing segments.
    fn emit(&mut self, seg: RateSegment) {
        if self.breaks.is_empty() {
            self.breaks.push(seg.start);
        }
        let last = *self.breaks.last().expect("non-empty");
        if seg.start > last + 1e-12 {
            self.values.push(0.0);
            self.breaks.push(seg.start);
        }
        if seg.end > *self.breaks.last().expect("non-empty") {
            self.values.push(seg.rate);
            self.breaks.push(seg.end);
        }
    }

    /// End of stream: flush the pending segment; a session that never
    /// decided anything becomes [`StepFunction::zero`]'s arrays.
    fn finish(&mut self) {
        if let Some(cur) = self.cur.take() {
            self.emit(cur);
        }
        if self.breaks.is_empty() {
            self.breaks.extend([0.0, 0.0]);
            self.values.push(0.0);
        }
    }
}

/// Runs a fresh fleet `pictures` lockstep ticks plus the end-of-stream
/// drain and returns each session's rate schedule as a
/// [`StepFunction`] (built by the streaming transform above), indexed by
/// session id.
///
/// # Panics
///
/// Panics if `engine` was already ticked or finished.
pub fn materialize_schedules<S: SizeSource>(
    mut engine: SessionEngine,
    source: S,
    pictures: u64,
) -> Vec<StepFunction> {
    assert!(
        engine.ticks() == 0 && !engine.is_finished(),
        "materialize_schedules needs a fresh engine"
    );
    let mut builders = vec![SessionBuilder::default(); engine.session_count()];
    for _ in 0..pictures {
        engine.tick_serial_with(&source, &mut |sid, d| builders[sid as usize].decision(d));
    }
    engine.finish_serial_with(&source, &mut |sid, d| builders[sid as usize].decision(d));
    builders
        .into_iter()
        .map(|mut b| {
            b.finish();
            StepFunction::new(b.breaks, b.values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveMux, MuxConfig, SessionClass, SyntheticFleet};
    use smooth_core::{OnlineSmoother, SmootherParams, SmoothingResult};
    use smooth_mpeg::GopPattern;
    use smooth_netsim::RateSweep;

    fn fleet_setup(sessions: usize) -> (SessionEngine, SyntheticFleet) {
        let pattern = GopPattern::new(3, 9).unwrap();
        let class = SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern);
        let mut engine = SessionEngine::with_shard_size(vec![class], 7);
        engine.add_sessions(0, sessions);
        (engine, SyntheticFleet { seed: 99, pattern })
    }

    /// The streaming builder must reproduce the offline
    /// `rate_segments` → `from_segments` pipeline bit-for-bit.
    #[test]
    fn builder_matches_offline_pipeline_bitwise() {
        let (_, fleet) = fleet_setup(1);
        let pattern = fleet.pattern;
        let params = SmootherParams::at_30fps(0.2, 1, 9).unwrap();
        for pictures in [1usize, 5, 27, 100] {
            let mut online = OnlineSmoother::new(params, pattern);
            let mut builder = SessionBuilder::default();
            let mut schedule = Vec::new();
            for p in 0..pictures {
                for d in online.push(fleet.size(0, p as u64)) {
                    builder.decision(&d);
                    schedule.push(d);
                }
            }
            for d in online.finish() {
                builder.decision(&d);
                schedule.push(d);
            }
            builder.finish();
            let offline_result = SmoothingResult { params, schedule };
            let offline = StepFunction::from_segments(&offline_result.rate_segments());
            let streamed = StepFunction::new(builder.breaks, builder.values);
            assert_eq!(
                offline.breakpoints().len(),
                streamed.breakpoints().len(),
                "pictures={pictures}"
            );
            for (a, b) in offline.breakpoints().iter().zip(streamed.breakpoints()) {
                assert_eq!(a.to_bits(), b.to_bits(), "pictures={pictures}");
            }
            for ((_, _, a), (_, _, b)) in offline.pieces().zip(streamed.pieces()) {
                assert_eq!(a.to_bits(), b.to_bits(), "pictures={pictures}");
            }
        }
    }

    /// Windows that clip the schedules, collapse to a point, or run
    /// past both ends: the fused aggregate equals the oracle sweep.
    #[test]
    fn partial_window_and_degenerate_window_agree() {
        let sweep = RateSweep {
            capacity_bps: 10.0e6,
            buffer_bits: 0.2e6,
        };
        let (engine, fleet) = fleet_setup(6);
        let inputs = materialize_schedules(engine, fleet, 30);
        for (a, b) in [(0.3, 0.9), (0.5, 0.5), (-1.0, 2.0)] {
            let want = sweep.run(&inputs, a, b);
            let (mut engine, fleet) = fleet_setup(6);
            let mut mux = LiveMux::new(
                6,
                7,
                MuxConfig {
                    capacity_bps: sweep.capacity_bps,
                    buffer_bits: sweep.buffer_bits,
                    t_start: a,
                    t_end: b,
                    descriptor_rho_bps: 1.5e6,
                },
            );
            let got = engine
                .run_fused(&fleet, 30, 1, &mut mux)
                .expect("fresh engine");
            assert_eq!(
                want.served_bits.to_bits(),
                got.mux.served_bits.to_bits(),
                "window [{a}, {b}]"
            );
            assert_eq!(want.utilization.to_bits(), got.mux.utilization.to_bits());
        }
    }
}
