//! Scale smoke test: one million concurrent live sessions.
//!
//! The tentpole claim — a single process advancing a megasession fleet
//! in lockstep ticks with bounded per-session memory — asserted end to
//! end: 1M sessions × 32 pictures decide inside the CI budget (release
//! builds only; debug builds run a 10k-session variant with no runtime
//! budget), every session's history stays inside its fixed ring slot,
//! the memory the fleet makes resident is the per-session state the
//! engine reports (release builds on Linux), and a sharded multi-thread
//! run of a 100k sub-fleet reproduces the serial digests bit for bit.

use std::sync::Mutex;
use std::time::Instant;

use smooth_core::SmootherParams;
use smooth_engine::{SessionClass, SessionEngine, SyntheticFleet};
use smooth_mpeg::GopPattern;

/// Held by each test for its whole run: the resident-memory check reads
/// process-wide counters, which a fleet built concurrently by the other
/// test would inflate.
static ONE_FLEET_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A `/proc/self/status` field (`VmRSS`, `VmHWM`) in bytes.
fn status_bytes(field: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn paper_class() -> SessionClass {
    let pattern = GopPattern::new(3, 9).unwrap();
    SessionClass::new(SmootherParams::at_30fps(0.2, 1, 9).unwrap(), pattern)
}

#[test]
fn million_session_fleet_decides_within_budget() {
    // A poisoned lock only means the other test failed; the guard
    // protects no data.
    let _alone = ONE_FLEET_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let rss0 = status_bytes("VmRSS");
    let sessions: usize = if cfg!(debug_assertions) {
        10_000
    } else {
        1_000_000
    };
    let ticks = 32u64;
    let class = paper_class();
    let pattern = class.pattern;
    let mut engine = SessionEngine::new(vec![class]);
    engine.add_sessions(0, sessions);
    let fleet = SyntheticFleet {
        seed: 0x5e551045,
        pattern,
    };

    let cap = engine.class_ring_cap(0);
    let t0 = Instant::now();
    for _ in 0..ticks {
        engine.tick(&fleet, 1);
    }
    engine.finish(&fleet, 1);
    let wall = t0.elapsed().as_secs_f64();

    // Lockstep completeness: every session decided every picture.
    assert_eq!(engine.decisions(), sessions as u64 * ticks);

    // Bounded memory: the per-session slot is Theorem 1's live bound
    // (a lead of 5 pictures at D/τ = 6, the 18-size estimator window and
    // N − 1 = 8 of pattern alignment), and no session ever outgrew it.
    assert!(cap <= 31, "ring cap {cap} exceeds the live bound");
    assert!(engine.max_retained() < cap);

    // The state the engine reports is the memory the fleet holds: the
    // process's resident peak grew by at most 1/8 more than the
    // reported per-session bytes (the rest is per-shard scratch).
    if !cfg!(debug_assertions) {
        if let (Some(rss0), Some(hwm)) = (rss0, status_bytes("VmHWM")) {
            let reported = engine.state_bytes_per_session(0);
            let resident = hwm.saturating_sub(rss0) / sessions;
            assert!(
                resident <= reported + reported / 8,
                "{resident} resident bytes a session against {reported} reported"
            );
        }
    }

    // Runtime budget, release only: 32M decisions well inside a minute.
    if !cfg!(debug_assertions) {
        assert!(
            wall < 60.0,
            "{sessions} sessions x {ticks} ticks took {wall:.1} s — budget is 60 s"
        );
    }
}

#[test]
fn sharded_parallel_subfleet_reproduces_serial_digests() {
    let _alone = ONE_FLEET_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let sessions: usize = if cfg!(debug_assertions) {
        5_000
    } else {
        100_000
    };
    let ticks = 32u64;
    let class = paper_class();
    let pattern = class.pattern;
    let fleet = SyntheticFleet {
        seed: 0x5e551045,
        pattern,
    };

    let mut serial = SessionEngine::new(vec![class.clone()]);
    serial.add_sessions(0, sessions);
    for _ in 0..ticks {
        serial.tick(&fleet, 1);
    }
    serial.finish(&fleet, 1);

    let mut sharded = SessionEngine::new(vec![class]);
    sharded.add_sessions(0, sessions);
    for _ in 0..ticks {
        sharded.tick(&fleet, 4);
    }
    sharded.finish(&fleet, 4);

    assert_eq!(serial.digest(), sharded.digest());
    assert_eq!(serial.session_digests(), sharded.session_digests());
    assert_eq!(serial.decisions(), sharded.decisions());

    // The session-major batched driver (what the throughput harness
    // times) reproduces the lockstep bits too.
    let mut batched = SessionEngine::new(vec![paper_class()]);
    batched.add_sessions(0, sessions);
    batched.run(&fleet, ticks, true, 4);
    assert_eq!(serial.digest(), batched.digest());
    assert_eq!(serial.session_digests(), batched.session_digests());
    assert_eq!(serial.decisions(), batched.decisions());
}
