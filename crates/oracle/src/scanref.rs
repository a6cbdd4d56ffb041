//! Brute-force "scan all sessions" reference for the dynamic engine.
//!
//! **Frozen** — like `smooth_core::reference` and [`crate::mux::reference`],
//! this module is the trusted oracle the churn proptests compare the
//! timing-wheel [`DynamicEngine`](smooth_engine::DynamicEngine) against, and
//! must stay the obviously-correct transliteration of the event rules:
//!
//! * Time is walked **tick by tick** from 0 to the horizon — no wheel,
//!   no deadline index.
//! * At each tick, the trace's churn events apply first (in trace
//!   order), then **every live session is scanned** and the ones whose
//!   next arrival equals the tick are fed — O(sessions live) per tick,
//!   the cost the wheel exists to avoid.
//! * Each session is a plain [`smooth_core::OnlineSmoother`] — the
//!   heap-per-session representation the engines replaced — so the
//!   comparison also pins the dynamic engine's compact store against
//!   the original wide state machine.
//!
//! A session's first picture arrives `1 + phase mod τ` ticks after its
//! join; a leave ends the stream (tail drain) at the event tick, before
//! that tick's arrivals.

use smooth_core::{OnlineSmoother, PatternEstimator, PictureSchedule};

use smooth_engine::{ChurnEvent, ChurnTrace, DynamicClass, SizeSource};

/// The engine's 64-bit FNV-1a digest fold, copied so the oracle shares
/// no code with the engine it checks.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
fn fnv(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x100000001b3)
}

/// The reference run's observable outcome, shaped like the engine's:
/// per-session digests by session id, the fleet digest folded over them
/// in id order, and the total decision count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRun {
    /// Per-session decision digests, by session id.
    pub session_digests: Vec<u64>,
    /// Fleet digest (FNV fold of `session_digests` in order).
    pub digest: u64,
    /// Total decisions across all sessions.
    pub decisions: u64,
}

struct ScanSession {
    online: OnlineSmoother<PatternEstimator>,
    stream: u64,
    period: u64,
    next_arrival: u64,
    pushed: u64,
    digest: u64,
    live: bool,
}

fn fold(digest: &mut u64, d: &PictureSchedule) {
    *digest = fnv(*digest, d.index as u64);
    *digest = fnv(*digest, d.start.to_bits());
    *digest = fnv(*digest, d.rate.to_bits());
    *digest = fnv(*digest, d.depart.to_bits());
}

/// Replays `trace` by brute force (see the module docs) and, when
/// `finish` is set, ends every still-live session at the horizon — the
/// analogue of [`DynamicEngine::finish`](smooth_engine::DynamicEngine::finish).
pub fn run_scan<S: SizeSource>(
    classes: &[DynamicClass],
    trace: &ChurnTrace,
    source: &S,
    finish: bool,
) -> ScanRun {
    let mut sessions: Vec<ScanSession> = Vec::new();
    let mut decisions = 0u64;
    let mut i = 0;
    for t in 0..=trace.horizon {
        // Churn first: joins and leaves at this tick, in trace order.
        while i < trace.events.len() && trace.events[i].0 == t {
            match trace.events[i].1 {
                ChurnEvent::Join {
                    class,
                    stream,
                    phase,
                } => {
                    let c = &classes[class as usize];
                    sessions.push(ScanSession {
                        online: OnlineSmoother::with_estimator(
                            c.class.params,
                            c.class.pattern,
                            c.class.estimator,
                            c.class.selection,
                            None,
                        ),
                        stream,
                        period: c.period_ticks,
                        next_arrival: t + 1 + (phase % c.period_ticks),
                        pushed: 0,
                        digest: FNV_OFFSET,
                        live: true,
                    });
                }
                ChurnEvent::Leave { sid } => {
                    let s = &mut sessions[sid as usize];
                    assert!(s.live, "leave of a departed session in the trace");
                    for d in s.online.finish() {
                        fold(&mut s.digest, &d);
                        decisions += 1;
                    }
                    s.live = false;
                }
            }
            i += 1;
        }
        // Then scan every session for an arrival at this tick.
        for s in sessions.iter_mut() {
            if s.live && s.next_arrival == t {
                let size = source.size(s.stream, s.pushed);
                for d in s.online.push(size) {
                    fold(&mut s.digest, &d);
                    decisions += 1;
                }
                s.pushed += 1;
                s.next_arrival += s.period;
            }
        }
    }
    if finish {
        for s in sessions.iter_mut() {
            if s.live {
                for d in s.online.finish() {
                    fold(&mut s.digest, &d);
                    decisions += 1;
                }
                s.live = false;
            }
        }
    }
    let session_digests: Vec<u64> = sessions.iter().map(|s| s.digest).collect();
    let mut digest = FNV_OFFSET;
    for &x in &session_digests {
        digest = fnv(digest, x);
    }
    ScanRun {
        session_digests,
        digest,
        decisions,
    }
}
