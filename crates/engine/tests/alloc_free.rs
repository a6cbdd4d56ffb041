//! A live step allocates nothing: once a churn-free fused fleet is warm,
//! stepping it one 10-tick slice at a time through `run_trace_fused` —
//! the flush, the lane hooks and the mux ingest — makes no heap
//! allocation at all. Every buffer those layers use is kept
//! across calls.
//!
//! "Warm" means the buffers have seen their high-water marks. A buffer
//! still grows the first time the fleet needs more room than ever
//! before, so the fleet here is periodic: every stream repeats one GOP
//! of sizes, so after one period of all the classes together (12 s) its
//! decisions and events repeat too, and the warm-up covers that period
//! twice.
//!
//! A counting global allocator sees every allocation of the process, so
//! this binary holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use smooth_engine::{
    fps_class, ChurnEvent, ChurnTrace, DynamicEngine, LiveMux, MuxConfig, SizeSource, TICKS_PER_SEC,
};

/// Counts allocations (and growing reallocations) while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SLICE: u64 = 10;

/// Streams that repeat one (3, 12) GOP of sizes, each stream at its own
/// scale.
struct Periodic;

impl SizeSource for Periodic {
    fn size(&self, stream: u64, picture: u64) -> u64 {
        let base = match picture % 12 {
            0 => 200_000,
            p if p % 3 == 0 => 90_000,
            p => 20_000 + 1_000 * p,
        };
        base + 1_500 * (stream % 7)
    }
}

/// The slice of ticks `(end - SLICE, end]`: no churn, just the clock.
fn slice(end: u64, peak_live: usize) -> ChurnTrace {
    ChurnTrace {
        events: Vec::new(),
        horizon: end,
        peak_live,
    }
}

#[test]
fn steady_state_fused_slices_do_not_allocate() {
    const SESSIONS: usize = 300;
    // Twice the fleet's joint period: 2 × 12 s of 10-tick slices.
    const WARM_SLICES: u64 = 2 * 12 * TICKS_PER_SEC / SLICE;
    const MEASURED_SLICES: u64 = 100;
    let classes = vec![fps_class(24), fps_class(25), fps_class(30), fps_class(60)];
    let source = Periodic;
    let horizon = (WARM_SLICES + MEASURED_SLICES + 1) * SLICE;
    let cfg = MuxConfig {
        capacity_bps: 1.2e6 * SESSIONS as f64,
        buffer_bits: 4.0e5,
        t_start: 0.0,
        t_end: horizon as f64 / TICKS_PER_SEC as f64,
        descriptor_rho_bps: 1.5e6,
    };
    let mut engine = DynamicEngine::new(classes.clone(), SESSIONS, 64).unwrap();
    let mut mux = LiveMux::with_joins(SESSIONS, 64, cfg);
    // Every session joins at tick 0, on a spread of phases and classes.
    let joins = ChurnTrace {
        events: (0..SESSIONS as u64)
            .map(|s| {
                (
                    0,
                    ChurnEvent::Join {
                        class: (s % 4) as u16,
                        stream: s,
                        phase: s * 7,
                    },
                )
            })
            .collect(),
        horizon: SLICE - 1,
        peak_live: SESSIONS,
    };
    engine
        .run_trace_fused(&source, &joins, 1, &mut mux)
        .unwrap();
    let mut end = SLICE - 1;
    for _ in 0..WARM_SLICES {
        end += SLICE;
        engine
            .run_trace_fused(&source, &slice(end, SESSIONS), 1, &mut mux)
            .unwrap();
    }
    let slices: Vec<ChurnTrace> = (1..=MEASURED_SLICES)
        .map(|k| slice(end + k * SLICE, SESSIONS))
        .collect();
    let before = engine.decisions();

    ARMED.store(true, Ordering::Relaxed);
    for s in &slices {
        engine.run_trace_fused(&source, s, 1, &mut mux).unwrap();
    }
    ARMED.store(false, Ordering::Relaxed);

    let decided = engine.decisions() - before;
    assert!(decided > 10_000, "the measured slices decided {decided}");
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "heap allocations in {MEASURED_SLICES} steady-state slices"
    );
}
