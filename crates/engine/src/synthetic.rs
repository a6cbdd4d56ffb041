//! Deterministic synthetic picture sizes for session fleets.

use crate::SizeSource;
use smooth_mpeg::{GopPattern, PictureType};

/// A fleet of synthetic VBR sources: picture sizes are a pure splitmix64
/// hash of `(seed, session, picture)` shaped to the bench suite's I/P/B
/// levels (~180k/80k/16k bits plus jitter), so any tick of any session
/// can re-derive its size with no stored trace — and any two runs with
/// the same seed see identical streams, which is what the determinism
/// proptests and the BENCH provenance need.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticFleet {
    /// Fleet seed; every session derives its stream from it.
    pub seed: u64,
    /// GOP pattern shared by the fleet (picture type schedule).
    pub pattern: GopPattern,
}

impl SizeSource for SyntheticFleet {
    fn size(&self, session: u64, picture: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(session.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(picture.wrapping_mul(0xD1B54A32D192ED03));
        // splitmix64 finalizer.
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let jitter = z >> 48;
        match self.pattern.type_at(picture as usize) {
            PictureType::I => 180_000 + jitter,
            PictureType::P => 80_000 + jitter / 2,
            PictureType::B => 16_000 + jitter / 8,
        }
    }
}

/// splitmix64: the fleet's counter-based generator — every draw is a
/// pure function of `(seed, counter)`, so a trace is reproducible from
/// its spec alone.
fn splitmix(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(counter.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(0x2545F4914F6CDD1D);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    z
}

/// One churn event, anchored to a scheduler tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A session joins: class, size-source stream id, and arrival phase
    /// (its first picture arrives `1 + phase mod τ` ticks later).
    Join {
        /// Class id of the joining session.
        class: u16,
        /// Size-source stream id (decoupled from the session id).
        stream: u64,
        /// Arrival phase within the class period.
        phase: u64,
    },
    /// Session `sid` departs (engine-assigned id: the `n`-th join in
    /// trace order gets sid `n`).
    Leave {
        /// Departing session id.
        sid: u64,
    },
}

/// A pre-resolved, fully deterministic arrival/departure process: the
/// same spec always yields the same events, and replaying the events
/// yields the same fleet — the determinism witness for the dynamic
/// engine's churn tests and benches.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTrace {
    /// Events sorted by tick (ties in emission order: joins before
    /// leaves within a tick).
    pub events: Vec<(u64, ChurnEvent)>,
    /// Last scheduler tick of the run.
    pub horizon: u64,
    /// Peak concurrent live sessions — the capacity the replaying
    /// engine needs.
    pub peak_live: usize,
}

impl ChurnTrace {
    /// Total sessions the trace ever joins — session ids are issued
    /// densely in join order, so this is the lane capacity a
    /// [`crate::LiveMux::with_joins`] aggregator needs to cover every
    /// id the fused replay will touch.
    pub fn total_joins(&self) -> usize {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Join { .. }))
            .count()
    }
}

/// Parameters of a [`churn_trace`]: a fleet ramped in over the first
/// second, then symmetric join/leave churn at a fixed rate until the
/// horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Trace seed.
    pub seed: u64,
    /// Initial fleet size, ramped in over the first simulated second.
    pub initial: usize,
    /// Per-class weights for the class of each joining session.
    pub weights: Vec<u32>,
    /// Per-class picture periods in ticks (for phase draws); same
    /// length and order as the engine's class list.
    pub periods: Vec<u64>,
    /// Scheduler ticks per simulated second.
    pub ticks_per_sec: u64,
    /// Last tick of the trace.
    pub horizon: u64,
    /// Join rate — and, symmetrically, leave rate — in parts-per-
    /// million of `initial` per second; `10_000` is 1 %/s churn.
    pub churn_ppm_per_sec: u64,
}

/// Generates the deterministic churn trace for `spec`: `initial` joins
/// staggered over the first second (classes weighted, phases hashed),
/// then, from the second second on, joins and leaves accumulated by
/// exact integer arithmetic at `churn_ppm_per_sec` — no floats, so the
/// event list is a pure function of the spec on every platform. Within
/// a tick joins precede leaves; leave victims are drawn uniformly from
/// the live fleet.
///
/// # Panics
///
/// Panics on an empty or all-zero weight list, a weight/period length
/// mismatch, a zero tick rate, or when `initial × churn_ppm_per_sec`
/// leaves no `u64` headroom for the per-tick accumulators (which add it
/// to a value below `10⁶ × ticks_per_sec`).
pub fn churn_trace(spec: &ChurnSpec) -> ChurnTrace {
    assert!(!spec.weights.is_empty(), "at least one class weight");
    assert_eq!(
        spec.weights.len(),
        spec.periods.len(),
        "one period per class weight"
    );
    assert!(spec.ticks_per_sec > 0, "positive tick rate");
    let total_weight: u64 = spec.weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total_weight > 0, "class weights must not all be zero");
    // Steady churn runs `num/denom` events per tick (below).
    let denom = 1_000_000 * spec.ticks_per_sec;
    let num = (spec.initial as u64)
        .checked_mul(spec.churn_ppm_per_sec)
        .filter(|n| n.checked_add(denom).is_some())
        .expect("initial x churn_ppm_per_sec overflows the u64 churn accumulators");

    let mut gen = ChurnGen {
        spec,
        total_weight,
        events: Vec::new(),
        live: Vec::new(),
        next_sid: 0,
        draws: 0,
    };

    // Ramp the initial fleet in over the first second.
    let ramp = spec.ticks_per_sec.min(spec.horizon + 1);
    for i in 0..spec.initial {
        let tick = (i as u64 * ramp) / (spec.initial as u64).max(1);
        gen.join(tick);
    }
    let mut peak = gen.live.len();

    // Steady churn from the second second on: exact integer
    // accumulators, `num/denom` events per tick.
    let mut acc_join = 0u64;
    let mut acc_leave = 0u64;
    for t in spec.ticks_per_sec..=spec.horizon {
        acc_join += num;
        while acc_join >= denom {
            acc_join -= denom;
            gen.join(t);
        }
        peak = peak.max(gen.live.len());
        acc_leave += num;
        while acc_leave >= denom && !gen.live.is_empty() {
            acc_leave -= denom;
            let victim = (gen.draw() % gen.live.len() as u64) as usize;
            let sid = gen.live.swap_remove(victim);
            gen.events.push((t, ChurnEvent::Leave { sid }));
        }
    }
    ChurnTrace {
        events: gen.events,
        horizon: spec.horizon,
        peak_live: peak,
    }
}

/// Generator state of [`churn_trace`].
struct ChurnGen<'a> {
    spec: &'a ChurnSpec,
    total_weight: u64,
    events: Vec<(u64, ChurnEvent)>,
    live: Vec<u64>,
    next_sid: u64,
    draws: u64,
}

impl ChurnGen<'_> {
    fn draw(&mut self) -> u64 {
        let v = splitmix(self.spec.seed, self.draws);
        self.draws += 1;
        v
    }

    fn join(&mut self, tick: u64) {
        let mut pick = self.draw() % self.total_weight;
        let mut class = 0usize;
        for (c, &w) in self.spec.weights.iter().enumerate() {
            if pick < u64::from(w) {
                class = c;
                break;
            }
            pick -= u64::from(w);
        }
        let phase = self.draw() % self.spec.periods[class];
        self.events.push((
            tick,
            ChurnEvent::Join {
                class: class as u16,
                stream: self.next_sid,
                phase,
            },
        ));
        self.live.push(self.next_sid);
        self.next_sid += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_deterministic_and_type_shaped() {
        let pattern = GopPattern::new(3, 9).unwrap();
        let fleet = SyntheticFleet { seed: 42, pattern };
        for s in 0..10u64 {
            for p in 0..30u64 {
                let a = fleet.size(s, p);
                assert_eq!(a, fleet.size(s, p));
                match pattern.type_at(p as usize) {
                    PictureType::I => assert!((180_000..246_000).contains(&a)),
                    PictureType::P => assert!((80_000..113_000).contains(&a)),
                    PictureType::B => assert!((16_000..25_000).contains(&a)),
                }
            }
        }
        // Different sessions see different streams.
        let distinct = (0..50u64)
            .map(|s| fleet.size(s, 0))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 40);
    }

    /// A churn rate whose accumulator arithmetic would wrap is refused
    /// up front instead of silently generating a different trace.
    #[test]
    #[should_panic(expected = "overflows the u64 churn accumulators")]
    fn churn_rate_overflow_panics() {
        churn_trace(&ChurnSpec {
            seed: 1,
            initial: 10,
            weights: vec![1],
            periods: vec![20],
            ticks_per_sec: 600,
            horizon: 1200,
            churn_ppm_per_sec: u64::MAX / 10,
        });
    }
}
