//! The three workloads, each in an untraced form (the end-to-end
//! metrics) and a traced form (the per-layer metrics).
//!
//! Every workload calls only public entry points of the library crates;
//! the layers are timed from outside, around those calls. See the
//! README beside this file for why each workload exists and which metric
//! each layer should move.

use std::time::Instant;

use smooth_core::{
    check_theorem1, smooth_with_scratch, PictureSchedule, SmoothScratch, SmootherParams,
};
use smooth_engine::{
    churn_trace, fps_class, mux_digest, ChurnEvent, ChurnSpec, ChurnTrace, DynamicClass,
    DynamicEngine, LiveMux, LiveMuxStats, MuxConfig, SessionClass, SessionEngine, SyntheticFleet,
    TrafficDescriptor, FUSED_CHUNK, TICKS_PER_SEC,
};
use smooth_mpeg::GopPattern;
use smooth_trace::{generate, SequenceId, VideoTrace};

use crate::live;
use crate::spans::{maybe, Span, Tracer};
use crate::stats::{median, min_into, status_mib, tail, Summary};

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["lockstep_2k", "sliced_5k", "offline_paper"];

/// Fleet and churn seeds of the existing suites; `--seed 0` maps to them.
const FLEET_SEED: u64 = 0x5e55be7c;
const CHURN_SEED: u64 = 0xC_0041_7E57;
/// Encoder-noise seed base of the offline sequences.
const TRACE_SEED: u64 = 0x1994;

/// Digests of the default seed: fleet (engine decisions, or offline
/// schedules) and link aggregate. A run on seed 0 that lands elsewhere
/// is wrong. `lockstep_2k` pins its 32-tick traced fleet (the digest
/// `mpeg-smooth sessions --sessions 2048 --pictures 32` prints) and, as
/// `lockstep_2k job`, the one-chunk fleet of its timed jobs.
const PINS: [(&str, u64, Option<u64>); 4] = [
    ("lockstep_2k", 0x458caa450f5f331b, Some(0x7fbfa163cc478120)),
    (
        "lockstep_2k job",
        0xb29c5122c39f0ef7,
        Some(0x1e03de3cb31f927b),
    ),
    ("sliced_5k", 0xbee4cca2b4bb0c26, Some(0x0def40612067ed6f)),
    ("offline_paper", 0xd75d29dfc9bbb858, None),
];

/// Seconds of measured time per workload run (`run_seconds` in
/// BENCHMARK.json): as long as 22 runs of each of the three workloads
/// fit in the benchmark's hour with a margin. The more repeats of a job
/// a run has, the likelier one of them ran clear of the host's other
/// tenants.
pub const RUN_SECONDS: u64 = 40;

/// Paper delay bound D, seconds.
const DELAY_BOUND: f64 = 0.2;
/// Link sizing per session: ~0.9 load against the synthetic fleets'
/// ~1.45 Mbps mean, ~2 kbit of buffer, and ρ at the capacity share.
const CAPACITY_PER_SESSION: f64 = 1.6e6;
const BUFFER_PER_SESSION: f64 = 2.0e3;
/// Timed batch jobs per run at least, however long each takes. Every
/// batch run first does one more, a warm-up that counts toward the run's
/// seconds but not its statistics: the first job in a process also pays
/// for fresh pages and growing buffers, and is about a tenth slower.
const MIN_JOBS: usize = 3;
/// The tail quantile of step times: a pass has 121 steps after its
/// ramp-in, which leave twelve beyond their p90 and too few for a p95.
const TAIL: f64 = 0.9;

/// Deepest a Theorem 1 slack may dip below zero (float noise).
const SLACK_TOLERANCE: f64 = 1e-9;

/// Maps the run seed onto a workload's base seed (seed 0 is the base).
fn derive(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One reported number with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    /// Whether the samples repeat one measurement (jobs, set-ups), so
    /// their spread is noise; otherwise they are a distribution (step
    /// latencies) that the value summarizes.
    pub repeats: bool,
}

impl Metric {
    fn over(name: impl Into<String>, unit: &'static str, value: f64, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            repeats: true,
        }
    }

    fn dist(name: impl Into<String>, unit: &'static str, value: f64, samples: Vec<f64>) -> Self {
        Metric {
            repeats: false,
            ..Self::over(name, unit, value, samples)
        }
    }

    fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self::over(name, unit, value, vec![value])
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workers: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check that did not hold.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Further layer numbers, printed but not named in BENCHMARK.json.
    pub detail: Vec<Metric>,
    /// `(name, value)` digests, printed for comparing two builds.
    pub digests: Vec<(&'static str, u64)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn new(workers: usize) -> Self {
        Outcome {
            workers,
            ..Outcome::default()
        }
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Records `(fleet, mux)` for printing and, for a `pinned` run (the
    /// default seed), checks them against the pins named `name`.
    fn pin(&mut self, name: &str, pinned: bool, fleet: u64, mux: Option<u64>) {
        self.digests.push(("fleet_digest", fleet));
        if let Some(m) = mux {
            self.digests.push(("mux_digest", m));
        }
        if !pinned {
            return;
        }
        let (_, pin_fleet, pin_mux) = PINS
            .iter()
            .find(|p| p.0 == name)
            .expect("every fleet is pinned");
        self.check(
            fleet == *pin_fleet,
            format!("fleet_digest {fleet:016x} != pinned {pin_fleet:016x}"),
        );
        if let (Some(m), Some(pin)) = (mux, pin_mux) {
            self.check(
                m == *pin,
                format!("mux_digest {m:016x} != pinned {pin:016x}"),
            );
        }
    }

    pub fn is_correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `workload` for about `seconds` of measured time; traced runs
/// report the per-layer metrics instead of the end-to-end ones.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    let i = WORKLOADS.iter().position(|w| *w == workload)?;
    Some(match (i, traced) {
        (0, false) => Lockstep::job(seed).measure(seconds),
        (0, true) => fastest_trace(seconds, || Lockstep::standard(seed).trace()),
        (1, false) => Sliced::standard(seed).measure(seconds),
        (1, true) => fastest_trace(seconds, || Sliced::standard(seed).trace()),
        (_, false) => Offline::standard(seed).measure(seconds),
        (_, true) => fastest_trace(seconds, || Offline::standard(seed).trace()),
    })
}

/// Repeats a traced decomposition, which returns its outcome and the
/// walls of its timed parts, while one more fits in `seconds` (at least
/// [`MIN_JOBS`] times), and reports the repeat whose slowest part came
/// closest to that part's fastest wall over all repeats: the repeat the
/// host's other tenants disturbed least in every part, so that its parts
/// compare with one another (see "How a run measures" in the README).
/// Memory readings are the first repeat's, since later ones reuse pages
/// it left resident. A check that failed in any repeat fails the run.
fn fastest_trace(seconds: f64, mut once: impl FnMut() -> (Outcome, Vec<f64>)) -> Outcome {
    let began = Instant::now();
    let mut runs: Vec<(Outcome, Vec<f64>)> = Vec::new();
    let mut fastest = Vec::new();
    loop {
        let spent = elapsed(began);
        if runs.len() >= MIN_JOBS && spent + spent / runs.len() as f64 > seconds {
            break;
        }
        let (out, parts) = once();
        assert!(
            min_into(&mut fastest, &parts),
            "every repeat times the same parts"
        );
        runs.push((out, parts));
    }
    let repeats = runs.len();
    let lag = |parts: &[f64]| {
        parts
            .iter()
            .zip(&fastest)
            .map(|(p, f)| p / f)
            .fold(0.0, f64::max)
    };
    let best = (0..repeats)
        .min_by(|&a, &b| lag(&runs[a].1).total_cmp(&lag(&runs[b].1)))
        .expect("at least one repeat");
    let memory: Vec<Metric> = runs[0]
        .0
        .metrics
        .iter()
        .chain(&runs[0].0.detail)
        .filter(|m| m.unit == "MiB")
        .cloned()
        .collect();
    let (mut attempted, mut failed) = (0, 0);
    let mut failures = Vec::new();
    for (out, _) in &runs {
        attempted += out.attempted;
        failed += out.failed;
        failures.extend(out.failures.iter().cloned());
    }
    let mut best = runs.swap_remove(best).0;
    for m in best.metrics.iter_mut().chain(&mut best.detail) {
        if let Some(first) = memory.iter().find(|f| f.name == m.name) {
            *m = first.clone();
        }
    }
    failures.sort();
    failures.dedup();
    best.attempted = attempted;
    best.failed = failed;
    best.failures = failures;
    best.detail
        .push(Metric::one("trace.repeats", "count", repeats as f64));
    best
}

/// The jobs of a closed-loop batch run: one untimed warm-up, then timed
/// repeats of the same deterministic work until the run's seconds have
/// passed.
struct Jobs {
    began: Instant,
    seconds: f64,
    done: usize,
    walls: Vec<f64>,
    /// `VmHWM` when the warm-up ended, in MiB: the workload's peak done
    /// once. Later repeats raise it only by what the allocator's
    /// fragmentation from repeating it costs, which varies from run to
    /// run (about 2.5 % over a 12 s `sliced_5k` run).
    peak_rss_mb: f64,
}

impl Jobs {
    fn new(seconds: f64) -> Self {
        Jobs {
            began: Instant::now(),
            seconds,
            done: 0,
            walls: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    /// Whether the run needs another job: the warm-up and [`MIN_JOBS`]
    /// timed ones at least, then more while one more, at the pace so far
    /// (set-ups and checks included), ends within the run's seconds.
    fn more(&self) -> bool {
        let spent = elapsed(self.began);
        self.done <= MIN_JOBS || spent + spent / self.done as f64 <= self.seconds
    }

    /// Counts a finished job; unless it was the warm-up, keeps its wall
    /// time and returns true.
    fn add(&mut self, wall: f64) -> bool {
        self.done += 1;
        if self.done == 1 {
            self.peak_rss_mb = status_mib("VmHWM");
        } else {
            self.walls.push(wall);
        }
        self.done > 1
    }

    fn peak_rss(&self) -> Metric {
        Metric::one("peak_rss_mb", "MiB", self.peak_rss_mb)
    }

    /// The end-to-end metrics of a batch run, from its fastest job (see
    /// "How a run measures" in the README); the records keep every job's
    /// wall. A batch step is one job, so `step_p50_ms` is that job's
    /// latency: the same measurement as `decisions_per_s`, inverted.
    fn metrics(&self, decisions_per_job: u64, setups: &[f64]) -> Vec<Metric> {
        let fastest = self.walls.iter().copied().fold(f64::INFINITY, f64::min);
        let per_s = |w: &f64| decisions_per_job as f64 / w;
        let ms = |w: &f64| w * 1e3;
        vec![
            Metric::over(
                "decisions_per_s",
                "decisions/s",
                per_s(&fastest),
                self.walls.iter().map(per_s).collect(),
            ),
            Metric::over(
                "step_p50_ms",
                "ms",
                ms(&fastest),
                self.walls.iter().map(ms).collect(),
            ),
            Metric::over("setup_s", "s", median(setups), setups.to_vec()),
        ]
    }
}

/// The `q` tail when at least ten samples lie beyond it, else the
/// median: a traced batch run has one service sample.
fn tail_or_median(samples: &[f64], q: f64) -> f64 {
    tail(samples, q).unwrap_or_else(|| median(samples))
}

/// The per-layer metrics every traced run reports. Layers a workload
/// does not reach report 0 (counts and shares only; every time is
/// measured).
#[derive(Debug, Default)]
struct Layers {
    setup_s: f64,
    inputs_s: f64,
    decisions: u64,
    decide_s: f64,
    fused_s: f64,
    mux_s: f64,
    lookahead_mean: f64,
    state_bytes: f64,
    slot_reuse: f64,
    shard_skew: f64,
    service_ms: Vec<f64>,
    busy_share: f64,
    deadline_misses: usize,
    rss_growth_mb: f64,
    traced_s: f64,
    untraced_s: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let per = |s: f64| s * 1e9 / self.decisions as f64;
        vec![
            Metric::one("setup.build_s", "s", self.setup_s),
            Metric::one("setup.inputs_share", "ratio", self.inputs_s / self.setup_s),
            Metric::one("decide.ns_per_decision", "ns", per(self.decide_s)),
            Metric::one("fused.ns_per_decision", "ns", per(self.fused_s)),
            Metric::one("livemux.overhead_share", "ratio", self.mux_s / self.fused_s),
            Metric::one("core.lookahead_used_mean", "pictures", self.lookahead_mean),
            Metric::one("state.bytes_per_session", "B", self.state_bytes),
            Metric::one("dynamic.slot_reuse", "ratio", self.slot_reuse),
            Metric::one("dynamic.shard_load_skew", "ratio", self.shard_skew),
            Metric::dist(
                "step.service_p50_ms",
                "ms",
                median(&self.service_ms),
                self.service_ms.clone(),
            ),
            Metric::dist(
                "step.service_p90_ms",
                "ms",
                tail_or_median(&self.service_ms, TAIL),
                self.service_ms.clone(),
            ),
            Metric::one("step.busy_share", "ratio", self.busy_share),
            Metric::one("step.deadline_misses", "count", self.deadline_misses as f64),
            Metric::one("mem.rss_growth_mb", "MiB", self.rss_growth_mb),
            Metric::one(
                "trace.overhead",
                "ratio",
                self.traced_s / self.untraced_s - 1.0,
            ),
        ]
    }
}

/// Schedules seen through a decision sink: the work per decision and
/// the Theorem 1 slack `D − delay`.
#[derive(Debug, Clone, Copy)]
struct Seen {
    decisions: u64,
    lookahead: u64,
    min_slack: f64,
}

impl Default for Seen {
    fn default() -> Self {
        Seen {
            decisions: 0,
            lookahead: 0,
            min_slack: f64::INFINITY,
        }
    }
}

impl Seen {
    fn add(&mut self, d: &PictureSchedule) {
        self.decisions += 1;
        self.lookahead += d.lookahead_used as u64;
        self.min_slack = self.min_slack.min(DELAY_BOUND - d.delay);
    }

    fn lookahead_mean(&self) -> f64 {
        self.lookahead as f64 / self.decisions as f64
    }
}

/// Sanity of a link aggregate: bits are conserved and every (σ, ρ)
/// descriptor is a finite envelope.
fn check_link(out: &mut Outcome, stats: &LiveMuxStats, descriptors: &[TrafficDescriptor]) {
    let m = stats.mux;
    let balance = m.arrived_bits - m.served_bits - m.lost_bits - m.final_queue_bits;
    out.check(m.arrived_bits > 0.0, "link saw traffic");
    out.check(
        balance.abs() <= 1e-9 * m.arrived_bits,
        format!("link bits conserved (imbalance {balance} bits)"),
    );
    out.check(
        (0.0..=1.0).contains(&m.utilization),
        "link utilization within [0, 1]",
    );
    out.check(
        descriptors
            .iter()
            .all(|d| d.sigma.is_finite() && d.sigma >= 0.0),
        "every (sigma, rho) descriptor is finite",
    );
}

fn link(sessions: usize, t_end: f64) -> MuxConfig {
    MuxConfig {
        capacity_bps: CAPACITY_PER_SESSION * sessions as f64,
        buffer_bits: BUFFER_PER_SESSION * sessions as f64,
        t_start: 0.0,
        t_end,
        descriptor_rho_bps: CAPACITY_PER_SESSION,
    }
}

fn elapsed(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// lockstep_2k
// ---------------------------------------------------------------------

/// A fixed fleet of paper-class sessions advanced in lockstep ticks and
/// fused into the link aggregator.
struct Lockstep {
    sessions: usize,
    ticks: u64,
    seed: u64,
}

/// A finished fused pass: decisions, fleet digest, link digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FleetResult {
    decisions: u64,
    fleet: u64,
    mux: u64,
}

/// What the traced replay counted.
#[derive(Debug, Default)]
struct ReplayCounts {
    seen: Seen,
    ingest_calls: u64,
    empty_ingests: u64,
    events: u64,
}

impl Lockstep {
    const WORKERS: usize = 1;
    /// Half an engine shard: 0.8 MB of session state (404 B a session),
    /// which with the aggregator stays in the core's own 2 MiB cache. A
    /// store that has to live in the cache the host's other tenants share
    /// is timed at their mercy (see "How a run measures" in the README,
    /// which also says why jobs are short: one takes about 3 ms).
    const SESSIONS: usize = 2_048;
    /// Rounds of a traced decomposition. A pass takes about 10 ms, short
    /// enough for the host to disturb any one of them; each part is taken
    /// at its fastest round so that the parts add up and compare.
    const TRACE_ROUNDS: usize = 5;

    /// The traced fleet: 32 ticks, four fused chunks, as
    /// `mpeg-smooth sessions --sessions 2048 --pictures 32` runs it.
    fn standard(seed: u64) -> Self {
        Lockstep {
            sessions: Self::SESSIONS,
            ticks: 32,
            seed,
        }
    }

    /// A timed job: the same fleet for one fused chunk of ticks, which
    /// streams the whole store once per tick, as the 32-tick run does.
    fn job(seed: u64) -> Self {
        Lockstep {
            ticks: FUSED_CHUNK,
            ..Self::standard(seed)
        }
    }

    /// The name of this fleet's digests in [`PINS`].
    fn pin_name(&self) -> &'static str {
        if self.ticks == FUSED_CHUNK {
            "lockstep_2k job"
        } else {
            "lockstep_2k"
        }
    }

    fn fleet(&self) -> SyntheticFleet {
        SyntheticFleet {
            seed: derive(FLEET_SEED, self.seed),
            pattern: paper_pattern(),
        }
    }

    /// A fresh engine with its sessions placed.
    fn engine(&self) -> SessionEngine {
        let mut engine = SessionEngine::new(vec![paper_class()]);
        engine.add_sessions_placed(0, self.sessions, Self::WORKERS);
        engine
    }

    /// A fresh engine and its link aggregator.
    fn build(&self, tracer: &mut Option<&mut Tracer>) -> (SessionEngine, LiveMux) {
        let engine = maybe(tracer, "engine.setup", || self.engine());
        let cfg = link(self.sessions, (self.ticks as f64 + 60.0) / 30.0);
        let mux = maybe(tracer, "livemux.setup", || {
            LiveMux::new(self.sessions, engine.shard_size(), cfg)
        });
        (engine, mux)
    }

    /// `SessionEngine::run_fused` on a fresh fleet, checked; returns the
    /// result and the call's seconds.
    fn fused(
        &self,
        out: &mut Outcome,
        engine: &mut SessionEngine,
        mux: &mut LiveMux,
    ) -> (FleetResult, f64) {
        let fleet = self.fleet();
        let t0 = Instant::now();
        let stats = engine.run_fused(&fleet, self.ticks, Self::WORKERS, mux);
        let wall = elapsed(t0);
        let mut r = FleetResult {
            decisions: engine.decisions(),
            fleet: engine.digest(),
            mux: 0,
        };
        match stats {
            Ok(stats) => {
                let descriptors = mux.descriptors();
                check_link(out, &stats, &descriptors);
                r.mux = mux_digest(&stats, &descriptors);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, format!("run_fused: {e}"));
            }
        }
        out.check(
            r.decisions == self.sessions as u64 * self.ticks,
            format!(
                "every session decided every picture ({} decisions)",
                r.decisions
            ),
        );
        (r, wall)
    }

    /// The first shard's sessions, re-run alone through the per-tick
    /// path, must decide exactly as they did inside the batched fleet.
    fn check_sessions(&self, out: &mut Outcome, engine: &SessionEngine) {
        let n = self.sessions.min(engine.shard_size());
        let mut small = SessionEngine::new(vec![paper_class()]);
        small.add_sessions(0, n);
        let fleet = self.fleet();
        for _ in 0..self.ticks {
            small.tick(&fleet, 1);
        }
        small.finish(&fleet, 1);
        out.check(
            engine.session_digests()[..n] == small.session_digests()[..],
            "batched sessions equal the per-tick path",
        );
    }

    fn measure(&self, seconds: f64) -> Outcome {
        let mut out = Outcome::new(Self::WORKERS);
        let mut jobs = Jobs::new(seconds);
        let mut setups = Vec::new();
        let mut first = None;
        while jobs.more() {
            let t0 = Instant::now();
            let (mut engine, mut mux) = self.build(&mut None);
            setups.push(elapsed(t0));
            let (r, wall) = self.fused(&mut out, &mut engine, &mut mux);
            out.attempted += 1;
            jobs.add(wall);
            if first.is_none() {
                self.check_sessions(&mut out, &engine);
            }
            let first = *first.get_or_insert(r);
            out.check(r == first, "every repeat lands on the same digests");
        }
        let r = first.expect("at least one job");
        out.pin(self.pin_name(), self.seed == 0, r.fleet, Some(r.mux));
        out.metrics = jobs.metrics(r.decisions, &setups);
        out.metrics.push(jobs.peak_rss());
        out
    }

    /// Decomposes the fused pass by replaying it call by call: serial
    /// ticks collect each tick's decisions, which are then pushed into
    /// the aggregator, ingested every `FUSED_CHUNK` ticks and finished.
    fn replay(
        &self,
        engine: &mut SessionEngine,
        mux: &mut LiveMux,
        t: &mut Tracer,
    ) -> (ReplayCounts, u64) {
        fn ingest(mux: &mut LiveMux, t: &mut Tracer, counts: &mut ReplayCounts) {
            let n = t.span("livemux.ingest", || {
                mux.ingest(Lockstep::WORKERS, f64::INFINITY)
            });
            counts.ingest_calls += 1;
            counts.empty_ingests += u64::from(n == 0);
            counts.events += n;
        }
        let fleet = self.fleet();
        let mut counts = ReplayCounts::default();
        let mut buf: Vec<(u64, PictureSchedule)> = Vec::with_capacity(self.sessions);
        // Tick `ticks + 1` is the end-of-stream drain.
        for tick in 1..=self.ticks + 1 {
            buf.clear();
            if tick <= self.ticks {
                t.span("engine.tick", || {
                    engine.tick_serial_with(&fleet, &mut |sid, d| buf.push((sid, *d)))
                });
            } else {
                t.span("engine.tick", || {
                    engine.finish_serial_with(&fleet, &mut |sid, d| buf.push((sid, *d)))
                });
            }
            for (_, d) in &buf {
                counts.seen.add(d);
            }
            t.span("livemux.push", || {
                for (sid, d) in &buf {
                    mux.push_decision(*sid, d);
                }
            });
            if tick % FUSED_CHUNK == 0 && tick <= self.ticks {
                ingest(mux, t, &mut counts);
            }
        }
        let fin = t.begin("livemux.finish");
        for sid in 0..self.sessions as u64 {
            mux.finish_session(sid);
        }
        ingest(mux, t, &mut counts);
        let stats = mux.finalize();
        t.end(fin);
        (counts, mux_digest(&stats, &mux.descriptors()))
    }

    /// One traced decomposition, made of [`Self::TRACE_ROUNDS`] rounds of
    /// the fused pass, the bare engine and the replay, with every part
    /// taken at its fastest round; returns it and the walls of its timed
    /// parts.
    fn trace(&self) -> (Outcome, Vec<f64>) {
        let mut out = Outcome::new(Self::WORKERS);
        let fleet = self.fleet();
        let mut fastest = Vec::new();
        // Memory is read in the first round, before later ones reuse the
        // pages it left resident; spans and counts come from the last.
        let mut first_rss_growth = None;
        let mut last = None;
        for round in 0..Self::TRACE_ROUNDS {
            let mut t = Tracer::new(WORKLOADS[0]);

            // The untraced reference pass.
            let (mut engine, mut mux) = self.build(&mut None);
            let rss0 = status_mib("VmRSS");
            let (fused, fused_s) = self.fused(&mut out, &mut engine, &mut mux);
            let rss_growth = status_mib("VmHWM") - rss0;
            if round == 0 {
                self.check_sessions(&mut out, &engine);
            }
            drop((engine, mux));

            // Ablation: the bare engine, no aggregation.
            let mut engine = self.engine();
            let run = t.begin("engine.run");
            engine.run(&fleet, self.ticks, true, Self::WORKERS);
            let run_s = t.end(run);
            out.check(
                engine.digest() == fused.fleet,
                "bare run equals the fused fleet",
            );
            let state_bytes = engine.state_bytes_per_session(0);
            drop(engine);

            // The call-by-call replay.
            let setup = t.begin("setup");
            let (mut engine, mut mux) = self.build(&mut Some(&mut t));
            let setup_s = t.end(setup);
            let replay = t.begin("replay");
            let (counts, replay_mux) = self.replay(&mut engine, &mut mux, &mut t);
            let replay_s = t.end(replay);
            out.check(
                engine.digest() == fused.fleet,
                "replay fleet equals the fused fleet",
            );
            out.check(
                replay_mux == fused.mux,
                "replay mux_digest equals the fused one",
            );
            out.check(
                counts.seen.min_slack >= -SLACK_TOLERANCE,
                format!(
                    "Theorem 1 holds in the fleet (min slack {})",
                    counts.seen.min_slack
                ),
            );
            out.attempted += 3;
            let parts = [
                fused_s,
                run_s,
                replay_s,
                setup_s,
                t.total("engine.setup"),
                t.total("livemux.setup"),
                t.total("engine.tick"),
                t.total("livemux.push"),
                t.total("livemux.ingest"),
                t.self_time("livemux.finish"),
            ];
            min_into(&mut fastest, &parts);
            first_rss_growth.get_or_insert(rss_growth);
            last = Some((t, counts, fused, state_bytes));
        }
        let (t, counts, fused, state_bytes) = last.expect("at least one round");
        let rss_growth = first_rss_growth.expect("at least one round");
        let &[fused_s, run_s, replay_s, setup_s, engine_setup_s, mux_setup_s, tick_s, push_s, ingest_s, finish_s] =
            fastest.as_slice()
        else {
            unreachable!("every round times the same ten parts")
        };
        out.pin(
            self.pin_name(),
            self.seed == 0,
            fused.fleet,
            Some(fused.mux),
        );

        let decisions = fused.decisions;
        let per = |s: f64| s * 1e9 / decisions as f64;
        out.detail = vec![
            Metric::one("engine.setup_s", "s", engine_setup_s),
            Metric::one("engine.run_s", "s", run_s),
            Metric::one("engine.ns_per_decision", "ns", per(run_s)),
            Metric::one("engine.state_bytes_per_session", "B", state_bytes as f64),
            Metric::one("engine.tick_serial_s", "s", tick_s),
            Metric::one("livemux.setup_s", "s", mux_setup_s),
            Metric::one("livemux.push_ns_per_decision", "ns", per(push_s)),
            Metric::one("livemux.ingest_s", "s", ingest_s),
            Metric::one("livemux.ingest_calls", "count", counts.ingest_calls as f64),
            Metric::one(
                "livemux.empty_ingest_share",
                "ratio",
                counts.empty_ingests as f64 / counts.ingest_calls as f64,
            ),
            Metric::one(
                "livemux.events_per_decision",
                "ratio",
                counts.events as f64 / decisions as f64,
            ),
            Metric::one("livemux.finish_s", "s", finish_s),
            Metric::one(
                "livemux.layer_sum_residual",
                "ratio",
                (run_s + push_s + ingest_s + finish_s) / fused_s - 1.0,
            ),
            Metric::one("livemux.fused_overhead_s.lockstep", "s", fused_s - run_s),
            Metric::one(
                "core.lookahead_used_mean.lockstep",
                "pictures",
                counts.seen.lookahead_mean(),
            ),
            Metric::one(
                "core.theorem1_min_slack_s.lockstep",
                "s",
                counts.seen.min_slack,
            ),
            Metric::one("trace.wall_s", "s", replay_s),
            Metric::one("trace.untraced_s", "s", fused_s),
        ];
        out.metrics = Layers {
            setup_s,
            inputs_s: 0.0,
            decisions,
            decide_s: run_s,
            fused_s,
            mux_s: fused_s - run_s,
            lookahead_mean: counts.seen.lookahead_mean(),
            state_bytes: state_bytes as f64,
            service_ms: vec![fused_s * 1e3],
            busy_share: 1.0,
            rss_growth_mb: rss_growth,
            traced_s: replay_s,
            untraced_s: fused_s,
            ..Layers::default()
        }
        .metrics();
        out.spans = t.spans().to_vec();
        (out, vec![fused_s, run_s, replay_s])
    }
}

fn paper_pattern() -> GopPattern {
    GopPattern::new(3, 9).expect("(3, 9) is a valid pattern")
}

/// The paper's recommended class: D = 0.2 s, K = 1, H = 9 on
/// IBBPBBPBB at 30 fps.
fn paper_class() -> SessionClass {
    SessionClass::new(
        SmootherParams::at_30fps(DELAY_BOUND, 1, 9).expect("D = 0.2 s is feasible"),
        paper_pattern(),
    )
}

// ---------------------------------------------------------------------
// sliced_5k
// ---------------------------------------------------------------------

/// A churning fleet on the timing wheel: equal-weight 24/25/30/60 fps
/// classes, ramped in over the first second, then symmetric join and
/// leave churn.
struct Churn {
    sessions: usize,
    seconds: u64,
    churn_ppm_per_sec: u64,
    seed: u64,
    workers: usize,
}

impl Churn {
    const SHARD_SIZE: usize = 4096;

    fn classes() -> Vec<DynamicClass> {
        [24u64, 25, 30, 60].iter().map(|&f| fps_class(f)).collect()
    }

    fn churn_trace(&self) -> ChurnTrace {
        let classes = Self::classes();
        churn_trace(&ChurnSpec {
            seed: derive(CHURN_SEED, self.seed),
            initial: self.sessions,
            weights: vec![1; classes.len()],
            periods: classes.iter().map(|c| c.period_ticks).collect(),
            ticks_per_sec: TICKS_PER_SEC,
            horizon: TICKS_PER_SEC * self.seconds,
            churn_ppm_per_sec: self.churn_ppm_per_sec,
        })
    }

    fn source(&self) -> SyntheticFleet {
        SyntheticFleet {
            seed: derive(CHURN_SEED, self.seed),
            pattern: Self::classes()[0].class.pattern,
        }
    }

    fn engine(trace: &ChurnTrace) -> DynamicEngine {
        DynamicEngine::new(Self::classes(), trace.peak_live, Self::SHARD_SIZE)
            .expect("the standard mix is a valid engine")
    }

    /// A fresh engine and aggregator sized for `trace`.
    fn build(
        &self,
        trace: &ChurnTrace,
        tracer: &mut Option<&mut Tracer>,
    ) -> (DynamicEngine, LiveMux) {
        let engine = maybe(tracer, "dynamic.setup", || Self::engine(trace));
        let mux = maybe(tracer, "livemux.setup", || {
            LiveMux::with_joins(
                trace.total_joins(),
                Self::SHARD_SIZE,
                link(self.sessions, self.seconds as f64),
            )
        });
        (engine, mux)
    }

    /// Checks a finished fused replay and reads off its result.
    fn result(
        out: &mut Outcome,
        engine: &DynamicEngine,
        mux: &LiveMux,
        stats: &LiveMuxStats,
    ) -> FleetResult {
        let descriptors = mux.descriptors();
        check_link(out, stats, &descriptors);
        FleetResult {
            decisions: engine.decisions(),
            fleet: engine.digest(),
            mux: mux_digest(stats, &descriptors),
        }
    }

    /// `run_trace_fused` + `finish_fused` on a fresh engine; returns the
    /// result.
    fn fused(
        &self,
        out: &mut Outcome,
        trace: &ChurnTrace,
        engine: &mut DynamicEngine,
        mux: &mut LiveMux,
    ) -> FleetResult {
        let source = self.source();
        let ran = engine.run_trace_fused(&source, trace, self.workers, mux);
        let stats = engine.finish_fused(&source, self.workers, mux);
        if ran.is_err() {
            out.failed += 1;
            out.check(false, "run_trace_fused rejected its trace");
        }
        Self::result(out, engine, mux, &stats)
    }

    /// Churn counters of a replayed engine, and its slot reuse and shard
    /// load skew (per-layer metrics).
    fn churn_detail(engine: &DynamicEngine, trace: &ChurnTrace) -> (Vec<Metric>, f64, f64) {
        let leaves = trace
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Leave { .. }))
            .count();
        let loads = engine.shard_loads();
        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        let skew = *loads.iter().max().expect("at least one shard") as f64 / mean;
        let reuse = engine.joined() as f64 / engine.allocated_slots() as f64;
        let detail = vec![
            Metric::one("dynamic.joins", "count", engine.joined() as f64),
            Metric::one("dynamic.leaves", "count", leaves as f64),
            Metric::one(
                "dynamic.state_bytes_per_slot",
                "B",
                engine.state_bytes_per_slot() as f64,
            ),
        ];
        (detail, reuse, skew)
    }

    /// The bare replay (`run_trace` + `finish`) on a fresh engine.
    fn bare(
        &self,
        out: &mut Outcome,
        trace: &ChurnTrace,
        t: &mut Tracer,
        fleet: u64,
    ) -> (f64, DynamicEngine) {
        let mut engine = Self::engine(trace);
        let src = self.source();
        let open = t.begin("dynamic.run_trace");
        if engine.run_trace(&src, trace, self.workers).is_err() {
            out.failed += 1;
            out.check(false, "run_trace rejected its trace");
        }
        engine.finish(&src, self.workers);
        let s = t.end(open);
        out.check(
            engine.digest() == fleet,
            "bare replay equals the fused fleet",
        );
        (s, engine)
    }
}

/// The churning fleet fed one 10-tick slice at a time through
/// `run_trace_fused`, as a live server steps it.
///
/// A pass builds a fresh engine and aggregator, feeds the first second
/// of slices (the ramp-in, where the fleet joins) untimed, then the other
/// 121 steps, then drains. Timed passes feed the steps back to back, and a
/// run takes each step at its fastest pass (see "How a run measures" in
/// the README). The traced run paces them in real time, one due every
/// 1/60 s, for the latency, lag and missed-deadline view.
struct Sliced {
    churn: Churn,
}

/// A pass: its steps' times and its final state.
struct Pass {
    times: live::StepTimes,
    /// Decisions made during the steps after the ramp-in.
    decisions: u64,
    result: FleetResult,
    /// Seconds of the ramp-in, the step loop and the final drain.
    ramp_s: f64,
    wall: f64,
    drain_s: f64,
    rss_growth_mb: f64,
}

impl Pass {
    /// Seconds the engine worked on the steps after the ramp-in.
    fn served_s(&self) -> f64 {
        self.times.service_ms().iter().sum::<f64>() / 1e3
    }

    /// Seconds the engine worked: ramp-in, steps and drain.
    fn busy_s(&self) -> f64 {
        self.ramp_s + self.served_s() + self.drain_s
    }
}

/// A built pass: the whole trace, its slices, engine, aggregator, and the
/// seconds building them took.
type PassSetup = (ChurnTrace, Vec<ChurnTrace>, DynamicEngine, LiveMux, f64);

impl Sliced {
    const SLICE_TICKS: u64 = 10;
    const STEPS_PER_SEC: u64 = TICKS_PER_SEC / Self::SLICE_TICKS;
    /// Seconds of trace a pass serves: one of ramp-in, then 121 steps.
    const TRACE_SECONDS: u64 = 3;

    /// One worker: a step on two would need both of the machine's cores
    /// clear of other tenants at once, and waits for the slower one.
    /// 5,000 sessions (2.8 MB of slots) keep a step near 0.7 ms; at
    /// 20,000 (11 MB) the runs spread about 1.5 times as wide.
    fn standard(seed: u64) -> Self {
        Sliced {
            churn: Churn {
                sessions: 5_000,
                seconds: Self::TRACE_SECONDS,
                churn_ppm_per_sec: 50_000,
                seed,
                workers: 1,
            },
        }
    }

    fn build(&self, tracer: &mut Option<&mut Tracer>) -> PassSetup {
        let t0 = Instant::now();
        let trace = maybe(tracer, "synthetic.churn_trace", || self.churn.churn_trace());
        let (engine, mux) = self.churn.build(&trace, tracer);
        let steps = maybe(tracer, "live.slice", || {
            live::slices(&trace, Self::SLICE_TICKS)
        });
        (trace, steps, engine, mux, elapsed(t0))
    }

    /// The ramp-in, the steps (back to back, or `paced` at 60 a second),
    /// then the final drain.
    fn pass(
        &self,
        out: &mut Outcome,
        steps: &[ChurnTrace],
        engine: &mut DynamicEngine,
        mux: &mut LiveMux,
        paced: bool,
        tracer: Option<&mut Tracer>,
    ) -> Pass {
        let c = &self.churn;
        let source = c.source();
        let (ramp, stepped) = steps.split_at(Self::STEPS_PER_SEC as usize);
        let rss0 = status_mib("VmRSS");
        let t0 = Instant::now();
        let ramped = live::drive(engine, mux, &source, ramp, c.workers, None, None);
        let ramp_s = elapsed(t0);
        let before = engine.decisions();
        let t1 = Instant::now();
        let rate = paced.then_some(Self::STEPS_PER_SEC as f64);
        let times = ramped
            .and_then(|_| live::drive(engine, mux, &source, stepped, c.workers, rate, tracer))
            .unwrap_or_else(|_| {
                out.failed += 1;
                out.check(false, "a step was rejected");
                live::StepTimes::default()
            });
        let wall = elapsed(t1);
        let decisions = engine.decisions() - before;
        let rss_growth_mb = status_mib("VmRSS") - rss0;
        out.attempted += steps.len() as u64;
        let t2 = Instant::now();
        let stats = engine.finish_fused(&source, c.workers, mux);
        let drain_s = elapsed(t2);
        Pass {
            times,
            decisions,
            result: Churn::result(out, engine, mux, &stats),
            ramp_s,
            wall,
            drain_s,
            rss_growth_mb,
        }
    }

    /// Passes with the steps back to back, each on a fresh build, while
    /// one more fits in the run's seconds; every step at its fastest pass.
    fn measure(&self, seconds: f64) -> Outcome {
        let c = &self.churn;
        let mut out = Outcome::new(c.workers);
        let mut passes = Jobs::new(seconds);
        let mut service = Vec::new();
        let (mut setups, mut rates) = (Vec::new(), Vec::new());
        let mut last: Option<Pass> = None;
        while passes.more() {
            let (_, steps, mut engine, mut mux, setup) = self.build(&mut None);
            setups.push(setup);
            let run = self.pass(&mut out, &steps, &mut engine, &mut mux, false, None);
            if passes.add(run.served_s()) {
                out.check(
                    min_into(&mut service, &run.times.service_ms()),
                    "every pass serves the same steps",
                );
                rates.push(run.decisions as f64 / run.served_s());
            }
            if let Some(prev) = &last {
                out.check(
                    (run.result, run.decisions) == (prev.result, prev.decisions),
                    "every pass lands on the same digests",
                );
            }
            last = Some(run);
        }
        let run = last.expect("at least one pass");
        out.pin(
            WORKLOADS[1],
            c.seed == 0,
            run.result.fleet,
            Some(run.result.mux),
        );
        let served_s = service.iter().sum::<f64>() / 1e3;
        out.metrics = vec![
            Metric::over(
                "decisions_per_s",
                "decisions/s",
                run.decisions as f64 / served_s,
                rates,
            ),
            Metric::dist("step_p50_ms", "ms", median(&service), service.clone()),
            Metric::over("setup_s", "s", median(&setups), setups),
            passes.peak_rss(),
        ];
        out.detail = vec![
            Metric::dist(
                "sliced.step_p90_ms",
                "ms",
                tail_or_median(&service, TAIL),
                service,
            ),
            Metric::one("sliced.passes", "count", passes.walls.len() as f64),
        ];
        out
    }

    /// One traced decomposition; returns it and the walls of its timed
    /// parts.
    fn trace(&self) -> (Outcome, Vec<f64>) {
        let c = &self.churn;
        let mut out = Outcome::new(c.workers);
        let mut t = Tracer::new(WORKLOADS[1]);

        // Untraced passes, the steps back to back as timed runs feed
        // them and paced in real time; then the paced pass traced.
        let mut untraced = |paced: bool| {
            let (_, steps, mut engine, mut mux, _) = self.build(&mut None);
            self.pass(&mut out, &steps, &mut engine, &mut mux, paced, None)
        };
        let (hot, plain) = (untraced(false), untraced(true));
        let (trace, steps, mut engine, mut mux, setup_s) = self.build(&mut Some(&mut t));
        let inputs_s = t.total("synthetic.churn_trace");
        let pass_span = t.begin("live.pass");
        let run = self.pass(&mut out, &steps, &mut engine, &mut mux, true, Some(&mut t));
        t.end(pass_span);
        out.check(
            run.result == plain.result && run.result == hot.result,
            "paced, unpaced and traced passes are equal",
        );
        let state_bytes = engine.state_bytes_per_slot() as f64;
        drop((engine, mux));

        // Ablations on the whole trace: one batch fused call (which must
        // land on the sliced pass's digests), then the bare engine.
        let (mut engine, mut mux) = c.build(&trace, &mut None);
        let open = t.begin("live.batch_fused");
        let batch = c.fused(&mut out, &trace, &mut engine, &mut mux);
        let batch_s = t.end(open);
        out.check(
            batch == run.result,
            "sliced pass equals one batch run_trace_fused",
        );
        drop((engine, mux));
        let (bare_s, engine) = c.bare(&mut out, &trace, &mut t, run.result.fleet);
        let (mut detail, reuse, skew) = Churn::churn_detail(&engine, &trace);
        out.pin(
            WORKLOADS[1],
            c.seed == 0,
            run.result.fleet,
            Some(run.result.mux),
        );

        let service = run.times.service_ms();
        let lag = run.times.lag_ms();
        let latency = run.times.latency_ms();
        detail.extend([
            Metric::dist(
                "live.latency_p50_ms",
                "ms",
                median(&latency),
                latency.clone(),
            ),
            Metric::dist(
                "live.latency_p90_ms",
                "ms",
                tail_or_median(&latency, TAIL),
                latency,
            ),
            Metric::dist(
                "live.generator_lag_ms.p90",
                "ms",
                tail_or_median(&lag, TAIL),
                lag,
            ),
            Metric::one("live.ramp_s", "s", run.ramp_s),
            Metric::one(
                "live.gap_cost",
                "ratio",
                plain.served_s() / hot.served_s() - 1.0,
            ),
            Metric::one("livemux.final_drain_s", "s", run.drain_s),
            Metric::one("livemux.rss_growth_mb", "MiB", run.rss_growth_mb),
            Metric::one("synthetic.churn_trace_s", "s", inputs_s),
            Metric::one("dynamic.setup_s", "s", t.total("dynamic.setup")),
            Metric::one("livemux.setup_s", "s", t.total("livemux.setup")),
            Metric::one("dynamic.run_trace_s", "s", bare_s),
            Metric::one(
                "dynamic.ns_per_decision",
                "ns",
                bare_s * 1e9 / run.result.decisions as f64,
            ),
            Metric::one("sliced.overhead_s", "s", hot.busy_s() - batch_s),
            Metric::one("livemux.fused_overhead_s.live", "s", batch_s - bare_s),
            Metric::one("trace.wall_s", "s", run.busy_s()),
            Metric::one("trace.untraced_s", "s", plain.busy_s()),
        ]);
        out.detail = detail;
        out.metrics = Layers {
            setup_s,
            inputs_s,
            decisions: run.result.decisions,
            decide_s: bare_s,
            fused_s: batch_s,
            mux_s: batch_s - bare_s,
            state_bytes,
            slot_reuse: reuse,
            shard_skew: skew,
            service_ms: service.clone(),
            busy_share: service.iter().sum::<f64>() / 1e3 / run.wall,
            deadline_misses: run.times.deadline_misses(),
            rss_growth_mb: run.rss_growth_mb,
            traced_s: run.busy_s(),
            untraced_s: plain.busy_s(),
            ..Layers::default()
        }
        .metrics();
        out.spans = t.spans().to_vec();
        let parts = vec![hot.busy_s(), plain.busy_s(), run.busy_s(), batch_s, bare_s];
        (out, parts)
    }
}

// ---------------------------------------------------------------------
// offline_paper
// ---------------------------------------------------------------------

/// The paper's algorithm on one stream at a time: the four paper
/// sequences, smoothed at two lookahead depths.
struct Offline {
    pictures: usize,
    seed: u64,
}

/// One round over every (sequence, H) pair.
#[derive(Debug, Default)]
struct Round {
    /// Per-H seconds, pictures and schedules seen.
    by_h: [(f64, Seen); 2],
    digest: u64,
}

impl Round {
    /// Seconds in `smooth_with_scratch`, and schedules it made.
    fn totals(&self) -> (f64, u64) {
        let [(a, x), (b, y)] = self.by_h;
        (a + b, x.decisions + y.decisions)
    }
}

impl Offline {
    const H: [usize; 2] = [9, 32];

    /// Pictures per sequence: a round of eight calls takes about 6 ms,
    /// and each call's trace and schedule fit in the core's own cache
    /// (at 25,000 pictures, runs spread about 1.5 times as wide).
    fn standard(seed: u64) -> Self {
        Offline {
            pictures: 8_000,
            seed,
        }
    }

    fn sequences(&self, tracer: &mut Option<&mut Tracer>) -> Vec<VideoTrace> {
        SequenceId::ALL
            .iter()
            .map(|&id| {
                maybe(tracer, "trace.generate", || {
                    generate(id, self.pictures, derive(TRACE_SEED, self.seed))
                })
            })
            .collect()
    }

    /// Smooths every sequence at every H and folds each schedule into
    /// the round digest, untimed. An audited round also checks every
    /// result against Theorem 1 and counts the lookahead it used; a
    /// round with the same digest made the same schedules.
    fn round(
        &self,
        out: &mut Outcome,
        seqs: &[VideoTrace],
        scratch: &mut SmoothScratch,
        tracer: &mut Option<&mut Tracer>,
        audit: bool,
    ) -> Round {
        let mut round = Round {
            digest: FNV_OFFSET,
            ..Round::default()
        };
        for v in seqs {
            for (k, &h) in Self::H.iter().enumerate() {
                let params =
                    SmootherParams::new(DELAY_BOUND, 1, h, v.tau()).expect("D = 0.2 s is feasible");
                let t0 = Instant::now();
                let r = maybe(tracer, "core.smooth", || {
                    smooth_with_scratch(v, params, scratch)
                });
                round.by_h[k].0 += elapsed(t0);
                let seen = &mut round.by_h[k].1;
                if audit {
                    out.check(
                        check_theorem1(&r).holds(),
                        format!("Theorem 1 holds on {} at H={h}", v.name),
                    );
                    r.schedule.iter().for_each(|d| seen.add(d));
                } else {
                    seen.decisions += r.schedule.len() as u64;
                }
                for d in &r.schedule {
                    round.digest = fnv(fnv(round.digest, d.start.to_bits()), d.rate.to_bits());
                }
            }
        }
        round
    }

    /// Rounds, each on freshly generated sequences, while one more fits
    /// in the run's seconds.
    fn measure(&self, seconds: f64) -> Outcome {
        let mut out = Outcome::new(1);
        let mut scratch = SmoothScratch::new();
        let mut jobs = Jobs::new(seconds);
        let mut setups = Vec::new();
        let mut first = None;
        let mut decisions = 0;
        while jobs.more() {
            let t0 = Instant::now();
            let seqs = self.sequences(&mut None);
            setups.push(elapsed(t0));
            let audit = out.attempted == 0;
            let r = self.round(&mut out, &seqs, &mut scratch, &mut None, audit);
            let (wall, made) = r.totals();
            out.attempted += 1;
            jobs.add(wall);
            decisions = made;
            let first = *first.get_or_insert(r.digest);
            out.check(r.digest == first, "every round lands on the same schedules");
        }
        out.pin(
            WORKLOADS[2],
            self.seed == 0,
            first.expect("at least one round"),
            None,
        );
        out.metrics = jobs.metrics(decisions, &setups);
        out.metrics.push(jobs.peak_rss());
        out
    }

    /// One traced decomposition; returns it and the walls of its timed
    /// parts.
    fn trace(&self) -> (Outcome, Vec<f64>) {
        let mut out = Outcome::new(1);
        let mut t = Tracer::new(WORKLOADS[2]);
        let mut scratch = SmoothScratch::new();
        let setup = t.begin("setup");
        let seqs = self.sequences(&mut Some(&mut t));
        let setup_s = t.end(setup);
        let rss0 = status_mib("VmRSS");
        let plain = self.round(&mut out, &seqs, &mut scratch, &mut None, false);
        let rss_growth = status_mib("VmHWM") - rss0;
        let traced = self.round(&mut out, &seqs, &mut scratch, &mut Some(&mut t), true);
        out.check(
            traced.digest == plain.digest,
            "traced round equals the untraced one",
        );
        out.attempted = 2;
        out.pin(WORKLOADS[2], self.seed == 0, plain.digest, None);

        let (untraced_s, decisions) = plain.totals();
        let slack = traced.by_h[0].1.min_slack.min(traced.by_h[1].1.min_slack);
        let mut lookahead = Seen::default();
        for (k, &h) in Self::H.iter().enumerate() {
            let (s, seen) = traced.by_h[k];
            out.detail.push(Metric::one(
                format!("core.ns_per_picture.h{h}"),
                "ns",
                s * 1e9 / seen.decisions as f64,
            ));
            out.detail.push(Metric::one(
                format!("core.lookahead_used_mean.h{h}"),
                "pictures",
                seen.lookahead_mean(),
            ));
            lookahead.decisions += seen.decisions;
            lookahead.lookahead += seen.lookahead;
        }
        out.check(
            slack >= -SLACK_TOLERANCE,
            format!("Theorem 1 slack {slack} below zero"),
        );
        out.detail.extend([
            Metric::one("core.theorem1_min_slack_s", "s", slack),
            Metric::one("trace.generate_s", "s", setup_s),
            Metric::one("trace.wall_s", "s", t.total("core.smooth")),
            Metric::one("trace.untraced_s", "s", untraced_s),
        ]);
        let smooth_s = t.total("core.smooth");
        out.metrics = Layers {
            setup_s,
            inputs_s: setup_s,
            decisions,
            decide_s: smooth_s,
            fused_s: untraced_s,
            mux_s: 0.0,
            lookahead_mean: lookahead.lookahead_mean(),
            service_ms: vec![untraced_s * 1e3],
            busy_share: 1.0,
            rss_growth_mb: rss_growth,
            traced_s: smooth_s,
            untraced_s,
            ..Layers::default()
        }
        .metrics();
        out.spans = t.spans().to_vec();
        (out, vec![setup_s, untraced_s, smooth_s])
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the eight bytes of `x`.
fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Names of the per-layer metrics, in report order.
#[cfg(test)]
pub fn layer_names() -> Vec<String> {
    let layers = Layers {
        setup_s: 1.0,
        decisions: 1,
        fused_s: 1.0,
        service_ms: vec![1.0],
        untraced_s: 1.0,
        ..Layers::default()
    };
    layers.metrics().into_iter().map(|m| m.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Lockstep {
        Lockstep {
            sessions: 600,
            ticks: 16,
            seed,
        }
    }

    fn fused(l: &Lockstep) -> FleetResult {
        let mut out = Outcome::default();
        let (mut engine, mut mux) = l.build(&mut None);
        let (r, _) = l.fused(&mut out, &mut engine, &mut mux);
        assert!(out.is_correct(), "{:?}", out.failures);
        r
    }

    #[test]
    fn lockstep_replay_equals_run_fused() {
        let l = small(0);
        let want = fused(&l);
        let (mut engine, mut mux) = l.build(&mut None);
        let mut t = Tracer::new("test");
        let (counts, mux_digest) = l.replay(&mut engine, &mut mux, &mut t);
        assert_eq!(engine.digest(), want.fleet);
        assert_eq!(mux_digest, want.mux);
        assert_eq!(counts.seen.decisions, want.decisions);
        assert_eq!(counts.ingest_calls, 3);
        assert!(counts.seen.min_slack >= -SLACK_TOLERANCE);
    }

    fn small_churn(workers: usize) -> Churn {
        Churn {
            sessions: 2_000,
            seconds: 3,
            churn_ppm_per_sec: 50_000,
            seed: 0,
            workers,
        }
    }

    #[test]
    fn unpaced_live_slices_equal_one_batch_run() {
        let c = small_churn(2);
        let trace = c.churn_trace();
        let run = |sliced: bool| {
            let mut out = Outcome::default();
            let (mut engine, mut mux) = c.build(&trace, &mut None);
            if sliced {
                let steps = live::slices(&trace, Sliced::SLICE_TICKS);
                live::drive(&mut engine, &mut mux, &c.source(), &steps, 2, None, None).unwrap();
            } else {
                engine
                    .run_trace_fused(&c.source(), &trace, 2, &mut mux)
                    .unwrap();
            }
            let stats = engine.finish_fused(&c.source(), 2, &mut mux);
            let r = Churn::result(&mut out, &engine, &mux, &stats);
            assert!(out.is_correct(), "{:?}", out.failures);
            r
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn traced_runs_report_their_least_disturbed_repeat_and_every_failure() {
        // The first repeat has the shortest total, but its second part
        // ran at 1.9 times its fastest; the second repeat is within 1.5
        // times the fastest in both parts.
        let mut parts = [vec![1.0, 1.9], vec![1.5, 1.5], vec![3.0, 1.0]].into_iter();
        let mut n = 0;
        let out = fastest_trace(0.0, || {
            n += 1;
            let mut out = Outcome::new(1);
            out.attempted = 1;
            out.check(n != 3, "third repeat fails");
            out.metrics = vec![
                Metric::one("t_s", "s", n as f64),
                Metric::one("rss_mb", "MiB", 10.0 * n as f64),
            ];
            (out, parts.next().expect("three repeats"))
        });
        // MIN_JOBS repeats, however short the run.
        assert_eq!(out.attempted, MIN_JOBS as u64);
        assert_eq!(out.metrics[0].value, 2.0);
        assert_eq!(out.metrics[1].value, 10.0);
        assert_eq!(out.failures, ["third repeat fails"]);
    }

    #[test]
    fn another_seed_changes_digests_not_decisions() {
        let (a, b) = (fused(&small(0)), fused(&small(1)));
        assert_eq!(a.decisions, 600 * 16);
        assert_eq!(a.decisions, b.decisions);
        assert_ne!(a.fleet, b.fleet);
        assert_ne!(a.mux, b.mux);
    }

    #[test]
    fn batch_runs_report_their_fastest_timed_job() {
        let mut jobs = Jobs::new(0.0);
        // The first job is the warm-up.
        let timed: Vec<bool> = [0.5, 2.0, 1.0, 1.5].map(|w| jobs.add(w)).into();
        assert_eq!(timed, [false, true, true, true]);
        let metrics = jobs.metrics(10, &[0.5]);
        assert_eq!(metrics[0].value, 10.0);
        assert_eq!(metrics[1].value, 1000.0);
        let mut names: Vec<_> = metrics.into_iter().map(|m| m.name).collect();
        names.push(jobs.peak_rss().name);
        let want: Vec<_> = crate::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn seed_zero_is_the_suites_seed() {
        assert_eq!(derive(FLEET_SEED, 0), FLEET_SEED);
        assert_ne!(derive(FLEET_SEED, 1), FLEET_SEED);
    }
}
