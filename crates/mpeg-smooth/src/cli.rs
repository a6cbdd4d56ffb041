//! The `mpeg-smooth` command-line tool.
//!
//! Thin, dependency-free argument handling over the library:
//!
//! ```text
//! mpeg-smooth generate --sequence driving1 --out trace.csv
//! mpeg-smooth analyze  --trace trace.csv
//! mpeg-smooth smooth   --trace trace.csv --d 0.2 --k 1 --h 9 \
//!                      [--policy basic|moving-average] \
//!                      [--schedule out.csv] [--segments out.csv] [--json out.json]
//! mpeg-smooth sweep    --trace trace.csv --d 0.1,0.2,0.3 [--k 1,3] [--h 9,18] \
//!                      [--threads N] [--csv out.csv] \
//!                      [--sources N] [--capacity-mbps C] [--buffer-kbit B] [--mux-seed S]
//! mpeg-smooth verify   --trace trace.csv --d 0.2 --k 1 --h 9
//! mpeg-smooth fleet    [--sessions N] [--pictures P | --seconds S [--churn-ppm R]]
//!                      [--classes 24:1,25:1,30:1,60:1] [--seed S] [--threads N]
//!                      [--mux-capacity-mbps C [--mux-buffer-kbit B]]
//! ```
//!
//! `fleet` prints the decision digest on a stable machine-parsable line
//! — `fleet_digest=<16 hex digits>` — the determinism witness scripts
//! can grep for, identical for every thread count.
//!
//! All functions take an output sink so the test suite can drive the CLI
//! without spawning processes.

use smooth_core::{check_theorem1, smooth_with, PatternEstimator, RateSelection, SmootherParams};
use smooth_engine::{
    churn_trace, ChurnSpec, DynamicClass, DynamicEngine, LiveMux, LiveMuxStats, MuxConfig,
    SessionEngine, SyntheticFleet, SESSIONS_PER_SHARD, TICKS_PER_SEC,
};
use smooth_metrics::{measure, schedule_to_csv, segments_to_csv};
use smooth_trace::{
    analyze, autocorrelation, generate, load_csv, save_csv, SequenceId, VideoTrace,
};
use std::fmt;
use std::io::Write;

/// CLI failure, carrying the message shown to the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed `--key value` options. Sub-commands take no positional
/// arguments, so any are rejected up front.
struct Options {
    pairs: Vec<(String, String)>,
    consumed: Vec<bool>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("option --{key} requires a value")))?;
                pairs.push((key.to_string(), value.clone()));
            } else {
                return Err(err(format!("unexpected argument {a:?}")));
            }
        }
        let consumed = vec![false; pairs.len()];
        Ok(Options { pairs, consumed })
    }

    fn take(&mut self, key: &str) -> Option<String> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == key && !self.consumed[i] {
                self.consumed[i] = true;
                return Some(v.clone());
            }
        }
        None
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, CliError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| err(format!("--{key}: cannot parse {v:?}"))),
        }
    }

    fn finish(&self) -> Result<(), CliError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.consumed[i] {
                return Err(err(format!("unknown option --{k}")));
            }
        }
        Ok(())
    }
}

const USAGE: &str = "\
mpeg-smooth - lossless smoothing of MPEG video (Lam/Chow/Yau, SIGCOMM '94)

usage:
  mpeg-smooth generate --sequence <driving1|driving2|tennis|backyard>
                       [--pictures N] [--seed S] --out <trace.csv>
  mpeg-smooth analyze  --trace <trace.csv>
  mpeg-smooth smooth   --trace <trace.csv> --d <seconds> [--k K] [--h H]
                       [--policy basic|moving-average] [--grid <bps>]
                       [--schedule <out.csv>] [--segments <out.csv>] [--json <out.json>]
  mpeg-smooth sweep    --trace <trace.csv> --d <d1,d2,...> [--k <k1,k2,...>]
                       [--h <h1,h2,...>] [--threads N] [--csv <out.csv>]
                       [--sources N] [--capacity-mbps C] [--buffer-kbit B] [--mux-seed S]
  mpeg-smooth verify   --trace <trace.csv> --d <seconds> [--k K] [--h H]
  mpeg-smooth fleet    [--sessions N] [--pictures P | --seconds S [--churn-ppm R]]
                       [--classes <fps:weight,...>] [--seed S] [--threads N]
                       [--mux-capacity-mbps C [--mux-buffer-kbit B]]
  mpeg-smooth help
  mpeg-smooth <command> --help
";

/// The lines of [`USAGE`] that describe `command`, or `None` for an
/// unknown command.
fn command_usage(command: &str) -> Option<String> {
    let head = format!("  mpeg-smooth {command} ");
    let mut lines = USAGE.lines().skip_while(|line| !line.starts_with(&head));
    let first = lines.next()?;
    let mut text = format!("usage:\n{first}\n");
    for line in lines.take_while(|line| !line.starts_with("  mpeg-smooth ")) {
        text.push_str(line);
        text.push('\n');
    }
    Some(text)
}

/// Runs the CLI. Returns the process exit code.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let Some((command, rest)) = args.split_first() else {
        let _ = write!(out, "{USAGE}");
        return Ok(2);
    };
    // Every option takes a value, so a flag sits at an even position.
    if rest.iter().step_by(2).any(|a| a == "--help" || a == "-h") {
        if let Some(usage) = command_usage(command) {
            let _ = write!(out, "{usage}");
            return Ok(0);
        }
    }
    match command.as_str() {
        "generate" => cmd_generate(rest, out),
        "analyze" => cmd_analyze(rest, out),
        "smooth" => cmd_smooth(rest, out),
        "sweep" => cmd_sweep(rest, out),
        "verify" => cmd_verify(rest, out),
        "fleet" => cmd_fleet(rest, out),
        "help" | "--help" | "-h" => {
            let _ = write!(out, "{USAGE}");
            Ok(0)
        }
        other => Err(err(format!(
            "unknown command {other:?}; try `mpeg-smooth help`"
        ))),
    }
}

fn sequence_by_name(name: &str) -> Result<SequenceId, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "driving1" => SequenceId::Driving1,
        "driving2" => SequenceId::Driving2,
        "tennis" => SequenceId::Tennis,
        "backyard" => SequenceId::Backyard,
        other => return Err(err(format!("unknown sequence {other:?}"))),
    })
}

fn default_pictures(id: SequenceId) -> usize {
    match id {
        SequenceId::Backyard => 360,
        _ => 300,
    }
}

fn canonical_seed(id: SequenceId) -> u64 {
    match id {
        SequenceId::Driving1 | SequenceId::Driving2 => 0xD1,
        SequenceId::Tennis => 0x7E,
        SequenceId::Backyard => 0xBA,
    }
}

fn cmd_generate(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let mut opts = Options::parse(args)?;
    let name = opts
        .take("sequence")
        .ok_or_else(|| err("generate requires --sequence"))?;
    let id = sequence_by_name(&name)?;
    let pictures = opts
        .take_parsed::<usize>("pictures")?
        .unwrap_or_else(|| default_pictures(id));
    let seed = opts
        .take_parsed::<u64>("seed")?
        .unwrap_or_else(|| canonical_seed(id));
    let path = opts
        .take("out")
        .ok_or_else(|| err("generate requires --out"))?;
    opts.finish()?;

    let trace = generate(id, pictures, seed);
    save_csv(&trace, &path).map_err(|e| err(format!("writing {path}: {e}")))?;
    let _ = writeln!(
        out,
        "wrote {} ({} pictures, pattern {}, {:.2} Mbps mean) to {path}",
        trace.name,
        trace.len(),
        trace.pattern,
        trace.mean_rate_bps() / 1e6
    );
    Ok(0)
}

fn load_trace(opts: &mut Options) -> Result<VideoTrace, CliError> {
    let path = opts
        .take("trace")
        .ok_or_else(|| err("missing --trace <file.csv>"))?;
    load_csv(&path).map_err(|e| err(format!("loading {path}: {e}")))
}

fn cmd_analyze(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let mut opts = Options::parse(args)?;
    let trace = load_trace(&mut opts)?;
    opts.finish()?;

    let st = analyze(&trace);
    let _ = writeln!(
        out,
        "sequence : {} ({} pictures, pattern {})",
        trace.name,
        trace.len(),
        trace.pattern
    );
    let _ = writeln!(
        out,
        "I        : n={:4} mean={:9.0} min={:8} max={:8}",
        st.i.count, st.i.mean, st.i.min, st.i.max
    );
    let _ = writeln!(
        out,
        "P        : n={:4} mean={:9.0} min={:8} max={:8}",
        st.p.count, st.p.mean, st.p.min, st.p.max
    );
    let _ = writeln!(
        out,
        "B        : n={:4} mean={:9.0} min={:8} max={:8}",
        st.b.count, st.b.mean, st.b.min, st.b.max
    );
    let _ = writeln!(
        out,
        "rates    : mean {:.3} Mbps, peak {:.3} Mbps ({:.1}x)",
        st.mean_rate_bps / 1e6,
        st.peak_rate_bps / 1e6,
        st.peak_to_mean
    );
    let n = trace.pattern.n();
    let acf = autocorrelation(&trace, &[n, 2 * n]);
    if let Some(&(_, r)) = acf.first() {
        let _ = writeln!(out, "acf      : r(N)={r:.3}");
    }
    Ok(0)
}

/// Shared parameter parsing for `smooth` and `verify`.
fn params_from(opts: &mut Options, tau: f64) -> Result<SmootherParams, CliError> {
    let d = opts
        .take_parsed::<f64>("d")?
        .ok_or_else(|| err("missing --d <seconds> (the delay bound)"))?;
    let k = opts.take_parsed::<usize>("k")?.unwrap_or(1);
    let h = opts.take_parsed::<usize>("h")?.unwrap_or(0);
    // H defaults to N, but N is the caller's: 0 sentinel resolved there.
    SmootherParams::new(d, k, h.max(1), tau)
        .map_err(|e| err(e.to_string()))
        .map(|mut p| {
            if h == 0 {
                p.h = 0; // resolved by caller to N
            }
            p
        })
}

fn cmd_smooth(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let mut opts = Options::parse(args)?;
    let trace = load_trace(&mut opts)?;
    let mut params = params_from(&mut opts, trace.tau())?;
    if params.h == 0 {
        params.h = trace.pattern.n();
    }
    if let Some(grid) = opts.take_parsed::<f64>("grid")? {
        if !(grid.is_finite() && grid > 0.0) {
            return Err(err(format!("--grid must be a positive rate, got {grid}")));
        }
        params = params.with_rate_grid(grid);
    }
    let policy = match opts.take("policy").as_deref() {
        None | Some("basic") => RateSelection::Basic,
        Some("moving-average") => RateSelection::MovingAverage,
        Some(other) => return Err(err(format!("unknown policy {other:?}"))),
    };
    let schedule_path = opts.take("schedule");
    let segments_path = opts.take("segments");
    let json_path = opts.take("json");
    opts.finish()?;

    let estimator = PatternEstimator::default();
    let result = smooth_with(&trace, params, &estimator, policy);
    let report = check_theorem1(&result);
    let m = measure(&trace, &result);

    let _ = writeln!(
        out,
        "smoothed {} pictures: D={:.4}s K={} H={} policy={:?}",
        trace.len(),
        params.delay_bound,
        params.k,
        params.h,
        policy
    );
    let _ = writeln!(
        out,
        "max delay {:.4}s ({} violations), {} rate changes, peak {:.3} Mbps, SD {:.1} kbps",
        report.max_delay,
        report.delay_violations,
        m.rate_changes,
        m.max_rate_bps / 1e6,
        m.std_dev_bps / 1e3
    );

    if let Some(p) = schedule_path {
        std::fs::write(&p, schedule_to_csv(&result))
            .map_err(|e| err(format!("writing {p}: {e}")))?;
        let _ = writeln!(out, "schedule -> {p}");
    }
    if let Some(p) = segments_path {
        std::fs::write(&p, segments_to_csv(&result.rate_segments()))
            .map_err(|e| err(format!("writing {p}: {e}")))?;
        let _ = writeln!(out, "segments -> {p}");
    }
    if let Some(p) = json_path {
        smooth_metrics::save_result_json(&result, &p)
            .map_err(|e| err(format!("writing {p}: {e}")))?;
        let _ = writeln!(out, "result -> {p}");
    }
    Ok(0)
}

/// Parses a comma-separated list option (`--d 0.1,0.2,0.3`).
fn take_list<T: std::str::FromStr>(
    opts: &mut Options,
    key: &str,
) -> Result<Option<Vec<T>>, CliError> {
    let Some(raw) = opts.take(key) else {
        return Ok(None);
    };
    let mut values = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        values.push(
            part.parse::<T>()
                .map_err(|_| err(format!("--{key}: cannot parse {part:?}")))?,
        );
    }
    if values.is_empty() {
        return Err(err(format!("--{key}: empty list")));
    }
    Ok(Some(values))
}

fn cmd_sweep(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let mut opts = Options::parse(args)?;
    let trace = load_trace(&mut opts)?;
    let ds = take_list::<f64>(&mut opts, "d")?
        .ok_or_else(|| err("sweep requires --d <d1,d2,...> (delay bounds)"))?;
    let ks = take_list::<usize>(&mut opts, "k")?.unwrap_or_else(|| vec![1]);
    let hs = take_list::<usize>(&mut opts, "h")?.unwrap_or_else(|| vec![trace.pattern.n()]);
    let threads = smooth_sweep::resolve_threads(opts.take_parsed::<usize>("threads")?);
    let csv_path = opts.take("csv");
    let sources = opts.take_parsed::<usize>("sources")?;
    let capacity_mbps = opts.take_parsed::<f64>("capacity-mbps")?;
    let buffer_kbit = opts.take_parsed::<f64>("buffer-kbit")?;
    let mux_seed = opts.take_parsed::<u64>("mux-seed")?.unwrap_or(42);
    opts.finish()?;
    if sources.is_none() && (capacity_mbps.is_some() || buffer_kbit.is_some()) {
        return Err(err(
            "--capacity-mbps/--buffer-kbit only apply with --sources",
        ));
    }
    if sources == Some(0) {
        return Err(err("--sources: must be at least 1"));
    }
    // The mux link, checked before any smoothing runs.
    let link = match sources {
        Some(n) => {
            let capacity_bps = capacity_mbps
                .map(|c| c * 1e6)
                .unwrap_or_else(|| 1.1 * trace.mean_rate_bps() * n as f64);
            let buffer_bits = buffer_kbit.unwrap_or(100.0) * 1e3;
            check_link(capacity_bps, buffer_bits, "capacity-mbps", "buffer-kbit")?;
            Some((n, capacity_bps, buffer_bits))
        }
        None => None,
    };

    // Cross product d × k × h; infeasible combinations (slack below
    // (K+1)τ) are skipped, not fatal — a sweep mixes K values on purpose.
    let mut grid: Vec<SmootherParams> = Vec::new();
    let mut skipped = 0usize;
    for &d in &ds {
        for &k in &ks {
            for &h in &hs {
                match SmootherParams::new(d, k, h.max(1), trace.tau()) {
                    Ok(p) => grid.push(p),
                    Err(_) => skipped += 1,
                }
            }
        }
    }
    if grid.is_empty() {
        return Err(err("sweep: every combination is infeasible"));
    }

    let estimator = PatternEstimator::default();
    let jobs: Vec<smooth_sweep::SweepJob<'_>> = grid
        .iter()
        .map(|&params| smooth_sweep::SweepJob {
            trace: &trace,
            params,
        })
        .collect();
    let t0 = std::time::Instant::now();
    let results = smooth_sweep::smooth_jobs(threads, &jobs, &estimator, RateSelection::Basic);
    let wall = t0.elapsed().as_secs_f64();
    let pictures = (grid.len() * trace.len()) as f64;
    let pps = if wall > 0.0 { pictures / wall } else { 0.0 };

    // Throughput shares the thread-count line: the thread-invariance test
    // strips lines containing "thread(s)", and wall time is the one thing
    // allowed to vary between runs.
    let _ = writeln!(
        out,
        "sweep: {} configs x {} pictures on {threads} thread(s){}, {pps:.0} pictures/s",
        grid.len(),
        trace.len(),
        if skipped > 0 {
            format!(" ({skipped} infeasible skipped)")
        } else {
            String::new()
        }
    );
    let header = [
        "D (s)",
        "K",
        "H",
        "max delay (s)",
        "violations",
        "rate changes",
        "peak Mbps",
        "SD kbps",
    ];
    let _ = writeln!(out, "{}", header.join(","));
    let mut csv = String::new();
    csv.push_str(&header.join(","));
    csv.push('\n');
    for (params, result) in grid.iter().zip(&results) {
        let m = measure(&trace, result);
        let line = format!(
            "{:.4},{},{},{:.4},{},{},{:.3},{:.1}",
            params.delay_bound,
            params.k,
            params.h,
            result.max_delay(),
            result.delay_violations(),
            m.rate_changes,
            m.max_rate_bps / 1e6,
            m.std_dev_bps / 1e3
        );
        let _ = writeln!(out, "{line}");
        csv.push_str(&line);
        csv.push('\n');
    }
    if let Some(p) = csv_path {
        std::fs::write(&p, csv).map_err(|e| err(format!("writing {p}: {e}")))?;
        let _ = writeln!(out, "sweep -> {p}");
    }

    // The mux-scale knob: feed each smoothed schedule to a finite-buffer
    // switch as `--sources` phase-staggered looping copies, through the
    // fluid multiplexer (one LiveMux step-function lane per copy). Stats
    // are bit-identical for every thread count (the shard plan is fixed
    // by the source count), so only the events/s line carries
    // "thread(s)" for the invariance tests to strip.
    if let Some((n, capacity_bps, buffer_bits)) = link {
        use smooth_metrics::rate_function;
        use smooth_netsim::{cyclic_wrap, FluidMux};
        use smooth_rng::Rng;

        let period = trace.duration();
        let _ = writeln!(
            out,
            "mux: {n} phase-staggered copies per config, capacity {:.2} Mbps, buffer {:.0} kbit",
            capacity_bps / 1e6,
            buffer_bits / 1e3
        );
        let header = [
            "D (s)",
            "K",
            "H",
            "loss ratio",
            "utilization",
            "max queue kbit",
        ];
        let _ = writeln!(out, "{}", header.join(","));
        let fluid = FluidMux {
            capacity_bps,
            buffer_bits,
        };
        let t0 = std::time::Instant::now();
        let mut events = 0u64;
        for (params, result) in grid.iter().zip(&results) {
            let f = rate_function(result);
            let mut rng = Rng::seed_from_u64(mux_seed);
            let ensemble: Vec<smooth_metrics::StepFunction> = (0..n)
                .map(|_| cyclic_wrap(&f, rng.range_f64(0.0, period), period))
                .collect();
            events += ensemble
                .iter()
                .map(|g| g.breakpoints().len() as u64)
                .sum::<u64>();
            let stats = fluid.run(&ensemble, 0.0, period, threads);
            let _ = writeln!(
                out,
                "{:.4},{},{},{:.6},{:.4},{:.1}",
                params.delay_bound,
                params.k,
                params.h,
                stats.loss_ratio(),
                stats.utilization,
                stats.max_queue_bits / 1e3
            );
        }
        let wall = t0.elapsed().as_secs_f64();
        let eps = if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "mux: {events} events on {threads} thread(s), {eps:.0} events/s"
        );
    }
    Ok(0)
}

/// The lowest picture rate [`smooth_engine::fps_class`] admits: its
/// `D = 0.2 s` must cover the smoother's `(K + 1)τ = 2/fps`.
const MIN_CLASS_FPS: u64 = 10;

/// Parses a `--classes` fps mix (`24:1,25:1,30:2`; the weight defaults
/// to 1) into [`smooth_engine::fps_class`] classes plus their weights.
/// Each fps must divide the scheduler clock ([`TICKS_PER_SEC`] = 600
/// ticks/s) so picture periods are whole ticks, and be at least
/// [`MIN_CLASS_FPS`].
fn parse_classes(raw: &str) -> Result<(Vec<DynamicClass>, Vec<u32>), CliError> {
    let mut classes = Vec::new();
    let mut weights = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (fps_str, weight_str) = match part.split_once(':') {
            Some((f, w)) => (f, Some(w)),
            None => (part, None),
        };
        let fps: u64 = fps_str
            .parse()
            .map_err(|_| err(format!("--classes: cannot parse fps {fps_str:?}")))?;
        if fps == 0 || TICKS_PER_SEC % fps != 0 {
            return Err(err(format!(
                "--classes: fps {fps} does not divide the {TICKS_PER_SEC} ticks/s clock \
                 (try 24, 25, 30, or 60)"
            )));
        }
        if fps < MIN_CLASS_FPS {
            return Err(err(format!(
                "--classes: fps {fps} is below {MIN_CLASS_FPS}: the 0.2 s delay bound \
                 must cover two picture periods"
            )));
        }
        let weight: u32 = match weight_str {
            None => 1,
            Some(w) => w
                .parse()
                .map_err(|_| err(format!("--classes: cannot parse weight {w:?}")))?,
        };
        if weight == 0 {
            return Err(err("--classes: weights must be at least 1"));
        }
        classes.push(smooth_engine::fps_class(fps));
        weights.push(weight);
    }
    if classes.is_empty() {
        return Err(err("--classes: empty list"));
    }
    Ok((classes, weights))
}

/// The fleet's class when `--classes` is not given: the paper's
/// recommended smoother (30 fps, `D = 0.2 s`, `K = 1`, `H = N = 9`) on
/// its (3, 9) GOP pattern, 20 ticks per picture on the scheduler clock.
fn paper_class() -> DynamicClass {
    let pattern = smooth_mpeg::GopPattern::new(3, 9).expect("(3,9) is valid");
    let params = SmootherParams::at_30fps(0.2, 1, 9).expect("0.2 s is feasible");
    DynamicClass {
        class: smooth_engine::SessionClass::new(params, pattern),
        period_ticks: TICKS_PER_SEC / 30,
    }
}

/// Splits `total` sessions across classes proportionally to `weights`
/// (largest-remainder, so the counts sum exactly to `total`).
fn split_by_weight(total: usize, weights: &[u32]) -> Vec<usize> {
    let sum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|&w| (total as u64 * u64::from(w) / sum) as usize)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let n = counts.len();
    let mut i = 0;
    while assigned < total {
        counts[i % n] += 1;
        assigned += 1;
        i += 1;
    }
    counts
}

/// Parses the fused-mux link flags of `fleet`: `--mux-capacity-mbps`
/// switches the fused fleet-to-link path on, and `--mux-buffer-kbit`
/// (default 500) sizes the link buffer. Returns
/// `(capacity_bps, buffer_bits)` when the fused path is requested.
fn take_mux_link(opts: &mut Options) -> Result<Option<(f64, f64)>, CliError> {
    let capacity = opts.take_parsed::<f64>("mux-capacity-mbps")?;
    let buffer = opts.take_parsed::<f64>("mux-buffer-kbit")?;
    let Some(c) = capacity else {
        if buffer.is_some() {
            return Err(err("--mux-buffer-kbit: requires --mux-capacity-mbps"));
        }
        return Ok(None);
    };
    let link = (c * 1.0e6, buffer.unwrap_or(500.0) * 1.0e3);
    check_link(link.0, link.1, "mux-capacity-mbps", "mux-buffer-kbit")?;
    Ok(Some(link))
}

/// The link check shared by every mux flag pair: the capacity
/// (bits/second) must be finite and positive, the buffer (bits)
/// non-negative and not NaN. An infinite buffer is a valid lossless
/// queue; an infinite capacity would make utilization NaN.
fn check_link(
    capacity_bps: f64,
    buffer_bits: f64,
    capacity_flag: &str,
    buffer_flag: &str,
) -> Result<(), CliError> {
    if !(capacity_bps.is_finite() && capacity_bps > 0.0) {
        return Err(err(format!(
            "--{capacity_flag}: must be positive and finite"
        )));
    }
    if buffer_bits.is_nan() || buffer_bits < 0.0 {
        return Err(err(format!("--{buffer_flag}: must be non-negative")));
    }
    Ok(())
}

/// Prints the fused run's outcome: link stats, peak, and the
/// machine-parsable `mux_digest=` witness (next to `fleet_digest=`).
fn report_mux(out: &mut dyn Write, stats: &LiveMuxStats, mux: &LiveMux) {
    let c = mux.config();
    let _ = writeln!(
        out,
        "mux: {:.1} Mbit/s link, {:.0} kbit buffer, window [{:.3}, {:.3}]s, rho {:.0} bit/s",
        c.capacity_bps / 1e6,
        c.buffer_bits / 1e3,
        c.t_start,
        c.t_end,
        c.descriptor_rho_bps
    );
    let _ = writeln!(
        out,
        "mux: utilization {:.4}, lost {:.0} bits, peak {:.3} Mbit/s, max queue {:.0} bits",
        stats.mux.utilization,
        stats.mux.lost_bits,
        stats.peak_rate_bps / 1e6,
        stats.mux.max_queue_bits
    );
    let _ = writeln!(
        out,
        "mux_digest={:016x}",
        smooth_engine::mux_digest(stats, &mux.descriptors())
    );
}

/// The setup `fleet` shares between its two engines.
struct Fleet {
    classes: Vec<DynamicClass>,
    weights: Vec<u32>,
    sessions: usize,
    /// The one size source, on the first class's GOP pattern.
    src: SyntheticFleet,
    threads: usize,
    /// `(capacity_bps, buffer_bits)` of the fused link, if any.
    link: Option<(f64, f64)>,
}

/// What either engine reports for `fleet`'s shared output tail.
struct FleetRun {
    decisions: u64,
    digest: u64,
    max_retained: usize,
    slot_bytes: usize,
    /// Seconds spent deciding (and aggregating, when fused).
    wall: f64,
    mux: Option<(LiveMuxStats, LiveMux)>,
}

/// `fleet`: run a fleet of concurrent live smoothing sessions on
/// synthetic picture sizes and report the decision digest — the
/// determinism witness, identical for every thread count and echoed on
/// the machine-parsable `fleet_digest=` line. `--pictures` runs a fixed
/// fleet in lockstep ([`SessionEngine`]); `--seconds` replays a seeded
/// churn trace on the dynamic engine ([`DynamicEngine`]). With
/// `--mux-capacity-mbps` every decision also streams into the online
/// link aggregate ([`LiveMux`]), which adds the `mux_digest=` line.
fn cmd_fleet(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let mut opts = Options::parse(args)?;
    let sessions = opts.take_parsed::<usize>("sessions")?.unwrap_or(10_000);
    let pictures = opts.take_parsed::<u64>("pictures")?;
    let seconds = opts.take_parsed::<u64>("seconds")?;
    let churn_ppm = opts.take_parsed::<u64>("churn-ppm")?;
    let classes_raw = opts.take("classes");
    let seed = opts.take_parsed::<u64>("seed")?.unwrap_or(0x5e55be7c);
    let threads = smooth_sweep::resolve_threads(opts.take_parsed::<usize>("threads")?);
    let link = take_mux_link(&mut opts)?;
    opts.finish()?;
    if sessions == 0 {
        return Err(err("--sessions: must be at least 1"));
    }
    let (classes, weights) = match classes_raw.as_deref() {
        Some(raw) => parse_classes(raw)?,
        None => (vec![paper_class()], vec![1]),
    };
    let fleet = Fleet {
        src: SyntheticFleet {
            seed,
            pattern: classes[0].class.pattern,
        },
        classes,
        weights,
        sessions,
        threads,
        link,
    };
    let run = match (pictures, seconds) {
        (Some(_), Some(_)) => {
            return Err(err(
                "--pictures and --seconds exclude each other: --pictures runs a lockstep \
                 fleet, --seconds replays a churn trace",
            ))
        }
        (_, None) if churn_ppm.is_some() => {
            return Err(err("--churn-ppm: requires --seconds"));
        }
        (pictures, None) => {
            let pictures = pictures.unwrap_or(32);
            if pictures == 0 {
                return Err(err("--pictures: must be at least 1"));
            }
            fleet.header(
                out,
                &format!("{sessions} sessions x {pictures} pictures in lockstep"),
            );
            fleet.lockstep(out, pictures)?
        }
        (None, Some(seconds)) => {
            let churn_ppm = churn_ppm.unwrap_or(10_000);
            if seconds == 0 {
                return Err(err("--seconds: must be at least 1"));
            }
            if TICKS_PER_SEC.checked_mul(seconds).is_none() {
                return Err(err("--seconds: too long for the tick clock"));
            }
            // `churn_trace`'s per-tick accumulators add sessions x ppm to
            // a value under 10^6 x TICKS_PER_SEC.
            if (sessions as u64)
                .checked_mul(churn_ppm)
                .and_then(|n| n.checked_add(1_000_000 * TICKS_PER_SEC))
                .is_none()
            {
                return Err(err("--churn-ppm: too high for --sessions"));
            }
            // `churn_trace` ramps the fleet in over the first second and
            // churns from its last tick to the horizon.
            let churn = match seconds - 1 {
                0 => {
                    format!("{churn_ppm} ppm/s churn for one tick only (it starts after the ramp)")
                }
                rest => format!("{churn_ppm} ppm/s churn for {rest}s"),
            };
            fleet.header(
                out,
                &format!("{sessions} initial sessions ramped in over 1s, then {churn}"),
            );
            fleet.churn(out, seconds, churn_ppm)?
        }
    };

    let rate = if run.wall > 0.0 {
        run.decisions as f64 / run.wall
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "decisions: {} (digest {:016x}, max retained {}, {} B/slot)",
        run.decisions, run.digest, run.max_retained, run.slot_bytes
    );
    let _ = writeln!(out, "fleet_digest={:016x}", run.digest);
    if let Some((stats, mux)) = &run.mux {
        report_mux(out, stats, mux);
    }
    // Only this line may vary between runs; the determinism tests strip
    // lines containing "thread(s)".
    let _ = writeln!(
        out,
        "throughput: {rate:.0} decisions/s on {threads} thread(s) ({:.3}s)",
        run.wall
    );
    Ok(0)
}

impl Fleet {
    /// Prints the run's first two lines: the workload and the class mix.
    fn header(&self, out: &mut dyn Write, workload: &str) {
        let mix: Vec<String> = self
            .classes
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| {
                let p = &c.class.params;
                format!(
                    "{}fps:{w} (D={:.4}s K={} H={} pattern {})",
                    TICKS_PER_SEC / c.period_ticks,
                    p.delay_bound,
                    p.k,
                    p.h,
                    c.class.pattern
                )
            })
            .collect();
        let _ = writeln!(out, "fleet: {workload} (seed {:#x})", self.src.seed);
        let _ = writeln!(out, "classes: {}", mix.join(", "));
    }

    /// The fused link over the window `[0, t_end]`, if one is set; ρ is
    /// the fleet's fair share of the capacity.
    fn mux_config(&self, t_end: f64) -> Option<MuxConfig> {
        self.link.map(|(capacity_bps, buffer_bits)| MuxConfig {
            capacity_bps,
            buffer_bits,
            t_start: 0.0,
            t_end,
            descriptor_rho_bps: capacity_bps / self.sessions as f64,
        })
    }

    /// `fleet --pictures`: the sessions split over the classes by
    /// weight, every session fed `pictures` pictures in session-major
    /// batches (or fused with the link). Only the run is timed.
    fn lockstep(&self, out: &mut dyn Write, pictures: u64) -> Result<FleetRun, CliError> {
        let counts = split_by_weight(self.sessions, &self.weights);
        let split: Vec<String> = self
            .classes
            .iter()
            .zip(&counts)
            .map(|(c, n)| format!("{}fps x {n}", TICKS_PER_SEC / c.period_ticks))
            .collect();
        let _ = writeln!(out, "split: {}", split.join(", "));
        let mut engine = SessionEngine::new(self.classes.iter().map(|c| c.class.clone()).collect());
        for (i, &n) in counts.iter().enumerate() {
            engine.add_sessions(i, n);
        }
        // Lockstep ticks land every class's τ, so the widest period
        // spans the run.
        let max_period_ticks = self.classes.iter().map(|c| c.period_ticks).max();
        let t_end =
            pictures as f64 * max_period_ticks.expect("non-empty") as f64 / TICKS_PER_SEC as f64;

        let t0 = std::time::Instant::now();
        let mux = match self.mux_config(t_end) {
            None => {
                engine.run(&self.src, pictures, true, self.threads);
                None
            }
            Some(cfg) => {
                let mut mux = LiveMux::new(self.sessions, engine.shard_size(), cfg);
                let stats = engine
                    .run_fused(&self.src, pictures, self.threads, &mut mux)
                    .map_err(|e| err(e.to_string()))?;
                Some((stats, mux))
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        Ok(FleetRun {
            wall,
            decisions: engine.decisions(),
            digest: engine.digest(),
            max_retained: engine.max_retained(),
            slot_bytes: engine.state_bytes_per_session(0),
            mux,
        })
    }

    /// `fleet --seconds`: a churn trace of `seconds` simulated seconds
    /// replayed through the event-driven engine (or fused with the
    /// link). Only the replay is timed.
    fn churn(
        &self,
        out: &mut dyn Write,
        seconds: u64,
        churn_ppm: u64,
    ) -> Result<FleetRun, CliError> {
        let trace = churn_trace(&ChurnSpec {
            seed: self.src.seed,
            initial: self.sessions,
            weights: self.weights.clone(),
            periods: self.classes.iter().map(|c| c.period_ticks).collect(),
            ticks_per_sec: TICKS_PER_SEC,
            horizon: TICKS_PER_SEC * seconds,
            churn_ppm_per_sec: churn_ppm,
        });
        let _ = writeln!(
            out,
            "churn: {} events, peak {} live",
            trace.events.len(),
            trace.peak_live
        );
        let mut engine =
            DynamicEngine::new(self.classes.clone(), trace.peak_live, SESSIONS_PER_SHARD)
                .map_err(|e| err(e.to_string()))?;
        let mut mux = self
            .mux_config(seconds as f64)
            .map(|cfg| LiveMux::with_joins(trace.total_joins(), SESSIONS_PER_SHARD, cfg));
        let t0 = std::time::Instant::now();
        let stats = match &mut mux {
            None => {
                engine
                    .run_trace(&self.src, &trace, self.threads)
                    .map_err(|e| err(e.to_string()))?;
                None
            }
            Some(mux) => {
                engine
                    .run_trace_fused(&self.src, &trace, self.threads, mux)
                    .map_err(|e| err(e.to_string()))?;
                Some(engine.finish_fused(&self.src, self.threads, mux))
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let _ = writeln!(
            out,
            "sessions: {} joined, {} live at horizon, {} slots resident",
            engine.joined(),
            engine.live_sessions(),
            engine.allocated_slots()
        );
        Ok(FleetRun {
            wall,
            decisions: engine.decisions(),
            digest: engine.digest(),
            max_retained: engine.max_retained(),
            slot_bytes: engine.state_bytes_per_slot(),
            mux: stats.zip(mux),
        })
    }
}

fn cmd_verify(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let mut opts = Options::parse(args)?;
    let trace = load_trace(&mut opts)?;
    let mut params = params_from(&mut opts, trace.tau())?;
    if params.h == 0 {
        params.h = trace.pattern.n();
    }
    opts.finish()?;

    let estimator = PatternEstimator::default();
    let result = smooth_with(&trace, params, &estimator, RateSelection::Basic);
    let report = check_theorem1(&result);
    let _ = writeln!(
        out,
        "Theorem 1 audit: {} pictures, max delay {:.4}s (bound {:.4}s)",
        report.pictures, report.max_delay, params.delay_bound
    );
    let _ =
        writeln!(
        out,
        "delay violations: {}  start-bound violations: {}  continuous service: {}  rate bounds: {}",
        report.delay_violations,
        report.start_bound_violations,
        report.continuous_service,
        if report.rate_bound_violations == 0 { "ok" } else { "VIOLATED" }
    );
    if report.holds() {
        let _ = writeln!(out, "PASS");
        Ok(0)
    } else {
        let _ = writeln!(out, "FAIL");
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&args, &mut out).unwrap_or_else(|e| panic!("cli error: {e}"));
        (code, String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mpeg_smooth_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_empty() {
        let (code, text) = run_cli(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("usage:"));
        let (code, _) = run_cli(&[]);
        assert_eq!(code, 2);
    }

    /// `<command> --help` (or `-h`, in any flag position) prints that
    /// command's usage and exits 0 instead of asking for a value.
    #[test]
    fn command_help_prints_its_usage() {
        for command in ["generate", "analyze", "smooth", "sweep", "verify", "fleet"] {
            for flag in ["--help", "-h"] {
                let (code, text) = run_cli(&[command, flag]);
                assert_eq!(code, 0, "{command} {flag}: {text}");
                assert!(
                    text.starts_with(&format!("usage:\n  mpeg-smooth {command} ")),
                    "{text}"
                );
                assert_eq!(text.matches("mpeg-smooth ").count(), 1, "{text}");
            }
        }
        let (code, text) = run_cli(&["fleet", "--sessions", "10", "--help"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("--churn-ppm R"), "{text}");
        // A value that happens to read `-h` is still a value.
        let args: Vec<String> = ["generate", "--out", "-h"].map(String::from).to_vec();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let args = vec!["frobnicate".to_string()];
        let mut out = Vec::new();
        assert!(run(&args, &mut out).is_err());
    }

    #[test]
    fn generate_analyze_smooth_verify_roundtrip() {
        let trace_path = tmp("toolchain.csv");
        let (code, text) = run_cli(&[
            "generate",
            "--sequence",
            "driving1",
            "--pictures",
            "90",
            "--out",
            &trace_path,
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("Driving1"));

        let (code, text) = run_cli(&["analyze", "--trace", &trace_path]);
        assert_eq!(code, 0);
        assert!(text.contains("peak"), "{text}");
        assert!(text.contains("acf"), "{text}");

        let sched = tmp("schedule.csv");
        let json = tmp("result.json");
        let (code, text) = run_cli(&[
            "smooth",
            "--trace",
            &trace_path,
            "--d",
            "0.2",
            "--schedule",
            &sched,
            "--json",
            &json,
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.contains("0 violations") || text.contains("(0 violations)"),
            "{text}"
        );
        let csv = std::fs::read_to_string(&sched).expect("schedule file");
        assert_eq!(csv.lines().count(), 91);
        let loaded = smooth_metrics::load_result_json(&json).expect("json");
        assert_eq!(loaded.schedule.len(), 90);

        let (code, text) = run_cli(&["verify", "--trace", &trace_path, "--d", "0.2"]);
        assert_eq!(code, 0);
        assert!(text.contains("PASS"), "{text}");
    }

    #[test]
    fn smooth_rejects_infeasible_params() {
        let trace_path = tmp("infeasible.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "backyard",
            "--pictures",
            "48",
            "--out",
            &trace_path,
        ]);
        let args: Vec<String> = ["smooth", "--trace", &trace_path, "--d", "0.01"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        let e = run(&args, &mut out).unwrap_err();
        assert!(e.0.contains("infeasible"), "{e}");
    }

    #[test]
    fn unknown_option_is_reported() {
        let args: Vec<String> = ["analyze", "--trace", "x.csv", "--wat", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        let e = run(&args, &mut out).unwrap_err();
        // --trace fails first (missing file) or --wat is reported; both
        // are errors. Accept either but require an error message.
        assert!(!e.0.is_empty());
    }

    #[test]
    fn moving_average_policy_accepted() {
        let trace_path = tmp("ma.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "tennis",
            "--pictures",
            "90",
            "--out",
            &trace_path,
        ]);
        let (code, text) = run_cli(&[
            "smooth",
            "--trace",
            &trace_path,
            "--d",
            "0.2",
            "--policy",
            "moving-average",
        ]);
        assert_eq!(code, 0);
        assert!(text.contains("MovingAverage"), "{text}");
    }

    #[test]
    fn grid_option_snaps_rates() {
        let trace_path = tmp("grid.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "driving1",
            "--pictures",
            "90",
            "--out",
            &trace_path,
        ]);
        let json = tmp("grid_result.json");
        let (code, _) = run_cli(&[
            "smooth",
            "--trace",
            &trace_path,
            "--d",
            "0.2",
            "--grid",
            "64000",
            "--json",
            &json,
        ]);
        assert_eq!(code, 0);
        let result = smooth_metrics::load_result_json(&json).expect("json");
        let on_grid = result
            .schedule
            .iter()
            .filter(|p| (p.rate / 64_000.0 - (p.rate / 64_000.0).round()).abs() < 1e-9)
            .count();
        assert!(
            on_grid * 10 >= result.schedule.len() * 8,
            "{on_grid}/{}",
            result.schedule.len()
        );
    }

    #[test]
    fn sweep_runs_grid_and_writes_csv() {
        let trace_path = tmp("sweep.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "driving1",
            "--pictures",
            "90",
            "--out",
            &trace_path,
        ]);
        let csv_path = tmp("sweep_out.csv");
        let (code, text) = run_cli(&[
            "sweep",
            "--trace",
            &trace_path,
            "--d",
            "0.1,0.2,0.3",
            "--k",
            "1,3",
            "--threads",
            "4",
            "--csv",
            &csv_path,
        ]);
        assert_eq!(code, 0, "{text}");
        // 3 x 2 combos, minus the infeasible (0.1, K=3): slack < 4τ.
        assert!(text.contains("5 configs"), "{text}");
        assert!(text.contains("1 infeasible skipped"), "{text}");
        let csv = std::fs::read_to_string(&csv_path).expect("sweep csv");
        assert_eq!(csv.lines().count(), 6, "{csv}");
    }

    #[test]
    fn sweep_output_is_thread_count_invariant() {
        let trace_path = tmp("sweep_det.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "tennis",
            "--pictures",
            "120",
            "--out",
            &trace_path,
        ]);
        let base = ["sweep", "--trace", &trace_path, "--d", "0.15,0.2,0.3"];
        let run_with = |threads: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            run_cli(&args)
        };
        let (code, serial) = run_with("1");
        assert_eq!(code, 0);
        for threads in ["2", "8"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            // Byte-identical apart from the reported thread count line.
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.contains("thread(s)"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&serial), strip(&parallel), "threads={threads}");
        }
    }

    #[test]
    fn sweep_sources_knob_reports_mux_loss() {
        let trace_path = tmp("sweep_mux.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "driving1",
            "--pictures",
            "90",
            "--out",
            &trace_path,
        ]);
        let (code, text) = run_cli(&[
            "sweep",
            "--trace",
            &trace_path,
            "--d",
            "0.1,0.3",
            "--sources",
            "12",
            "--buffer-kbit",
            "50",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.contains("12 phase-staggered copies"),
            "missing mux header: {text}"
        );
        assert!(text.contains("loss ratio,utilization"), "{text}");
        assert!(text.contains("events/s"), "{text}");
        // The looser delay bound smooths harder, so the mux block must
        // produce one row per feasible config.
        let mux_rows = text
            .lines()
            .skip_while(|l| !l.contains("phase-staggered"))
            .filter(|l| l.starts_with("0.1") || l.starts_with("0.3"))
            .count();
        assert_eq!(mux_rows, 2, "{text}");
    }

    #[test]
    fn sweep_sources_output_is_thread_count_invariant() {
        let trace_path = tmp("sweep_mux_det.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "tennis",
            "--pictures",
            "90",
            "--out",
            &trace_path,
        ]);
        let base = [
            "sweep",
            "--trace",
            &trace_path,
            "--d",
            "0.2",
            "--sources",
            "150",
        ];
        let run_with = |threads: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            run_cli(&args)
        };
        let (code, serial) = run_with("1");
        assert_eq!(code, 0);
        for threads in ["3", "8"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.contains("thread(s)"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&serial), strip(&parallel), "threads={threads}");
        }
    }

    #[test]
    fn sweep_mux_options_require_sources() {
        let trace_path = tmp("sweep_mux_req.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "driving1",
            "--pictures",
            "48",
            "--out",
            &trace_path,
        ]);
        for extra in [
            vec!["--capacity-mbps", "20"],
            vec!["--buffer-kbit", "100"],
            vec!["--sources", "0"],
        ] {
            let mut args = vec!["sweep", "--trace", &trace_path, "--d", "0.2"];
            args.extend(extra.iter().copied());
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            assert!(run(&args, &mut out).is_err(), "{args:?}");
        }
    }

    #[test]
    fn sweep_rejects_bad_lists() {
        let trace_path = tmp("sweep_bad.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "driving1",
            "--pictures",
            "48",
            "--out",
            &trace_path,
        ]);
        for args in [
            vec!["sweep", "--trace", trace_path.as_str()],
            vec!["sweep", "--trace", &trace_path, "--d", "abc"],
            vec!["sweep", "--trace", &trace_path, "--d", "0.001"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            assert!(run(&args, &mut out).is_err(), "{args:?}");
        }
    }

    /// Strips the one line allowed to vary between runs.
    fn strip_timing(s: &str) -> String {
        s.lines()
            .filter(|l| !l.contains("thread(s)"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn fleet_digest(text: &str) -> &str {
        let line = text
            .lines()
            .find(|l| l.starts_with("fleet_digest="))
            .expect("fleet_digest line");
        let hex = line.strip_prefix("fleet_digest=").unwrap();
        assert_eq!(hex.len(), 16, "{line}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{line}");
        hex
    }

    fn assert_rejected(args: &[&str]) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        assert!(run(&args, &mut out).is_err(), "{args:?}");
    }

    #[test]
    fn sessions_reports_fleet_and_digest() {
        let (code, text) = run_cli(&[
            "fleet",
            "--sessions",
            "500",
            "--pictures",
            "20",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.contains("500 sessions x 20 pictures in lockstep"),
            "{text}"
        );
        // The paper class when no --classes is given.
        assert!(
            text.contains("classes: 30fps:1 (D=0.2000s K=1 H=9 pattern IBBPBBPBB)"),
            "{text}"
        );
        // Lockstep completeness: every session decides every picture.
        assert!(text.contains("decisions: 10000"), "{text}");
        assert!(text.contains("B/slot"), "{text}");
        fleet_digest(&text);
    }

    #[test]
    fn sessions_output_is_thread_count_invariant() {
        let base = ["fleet", "--sessions", "300", "--pictures", "25"];
        let run_with = |threads: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            run_cli(&args)
        };
        let (code, serial) = run_with("1");
        assert_eq!(code, 0);
        for threads in ["2", "8"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            assert_eq!(
                strip_timing(&serial),
                strip_timing(&parallel),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sessions_seed_changes_the_digest() {
        let digest_of = |seed: &str| {
            let (code, text) = run_cli(&[
                "fleet",
                "--sessions",
                "64",
                "--pictures",
                "15",
                "--seed",
                seed,
                "--threads",
                "1",
            ]);
            assert_eq!(code, 0, "{text}");
            fleet_digest(&text).to_string()
        };
        assert_ne!(digest_of("1"), digest_of("2"));
        assert_eq!(digest_of("7"), digest_of("7"));
    }

    #[test]
    fn sessions_classes_mix_reports_split_and_fleet_digest() {
        let (code, text) = run_cli(&[
            "fleet",
            "--sessions",
            "100",
            "--pictures",
            "12",
            "--threads",
            "1",
            "--classes",
            "24:1,30:3",
        ]);
        assert_eq!(code, 0, "{text}");
        // Largest-remainder split of 100 over weights 1:3.
        assert!(text.contains("split: 24fps x 25, 30fps x 75"), "{text}");
        fleet_digest(&text);
    }

    /// A lockstep `--classes` mix feeds each session the picture types
    /// of the pattern its class smooths: `--classes 30:1` is exactly a
    /// `SessionEngine` of `fps_class(30)` on a (3, 12) source.
    #[test]
    fn lockstep_classes_feed_the_class_pattern() {
        let (code, text) = run_cli(&[
            "fleet",
            "--sessions",
            "40",
            "--pictures",
            "30",
            "--threads",
            "1",
            "--classes",
            "30:1",
        ]);
        assert_eq!(code, 0, "{text}");
        let class = smooth_engine::fps_class(30).class;
        let src = SyntheticFleet {
            seed: 0x5e55be7c,
            pattern: smooth_mpeg::GopPattern::new(3, 12).unwrap(),
        };
        let mut engine = SessionEngine::new(vec![class]);
        engine.add_sessions(0, 40);
        engine.run(&src, 30, true, 1);
        assert_eq!(fleet_digest(&text), format!("{:016x}", engine.digest()));
    }

    #[test]
    fn churn_reports_fleet_and_digest() {
        let (code, text) = run_cli(&[
            "fleet",
            "--sessions",
            "300",
            "--seconds",
            "1",
            "--churn-ppm",
            "100000",
            "--classes",
            "24:1,25:1,30:1,60:1",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "{text}");
        // A one-second trace is all ramp but its last tick: the header
        // must not promise a second of churn `churn_trace` never
        // schedules.
        assert!(
            text.contains(
                "300 initial sessions ramped in over 1s, then 100000 ppm/s churn for one tick only"
            ),
            "{text}"
        );
        assert!(text.contains("classes: 24fps:1 ("), "{text}");
        assert!(text.contains(", 60fps:1 ("), "{text}");
        assert!(text.contains("joined"), "{text}");
        fleet_digest(&text);
    }

    /// Enough sessions for two engine shards and two mux blocks.
    const TWO_SHARDS: &str = "4500";

    #[test]
    fn churn_output_is_thread_count_invariant() {
        let base = [
            "fleet",
            "--sessions",
            TWO_SHARDS,
            "--seconds",
            "2",
            "--churn-ppm",
            "200000",
        ];
        let run_with = |threads: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            run_cli(&args)
        };
        let (code, serial) = run_with("1");
        assert_eq!(code, 0);
        for threads in ["2", "8"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            assert_eq!(
                strip_timing(&serial),
                strip_timing(&parallel),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fused_sessions_prints_mux_digest_and_is_thread_invariant() {
        let base = [
            "fleet",
            "--sessions",
            "150",
            "--pictures",
            "12",
            "--mux-capacity-mbps",
            "200",
            "--mux-buffer-kbit",
            "700",
        ];
        let run_with = |threads: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            run_cli(&args)
        };
        let (code, serial) = run_with("1");
        assert_eq!(code, 0, "{serial}");
        fleet_digest(&serial);
        let digest_line = serial
            .lines()
            .find(|l| l.starts_with("mux_digest="))
            .expect("mux_digest line");
        let hex = digest_line.strip_prefix("mux_digest=").unwrap();
        assert_eq!(hex.len(), 16, "{digest_line}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{digest_line}");
        for threads in ["2", "5"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            assert_eq!(
                strip_timing(&serial),
                strip_timing(&parallel),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fused_churn_prints_mux_digest_and_is_thread_invariant() {
        let base = [
            "fleet",
            "--sessions",
            TWO_SHARDS,
            "--seconds",
            "2",
            "--churn-ppm",
            "200000",
            "--mux-capacity-mbps",
            "5400",
        ];
        let run_with = |threads: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            run_cli(&args)
        };
        let (code, serial) = run_with("1");
        assert_eq!(code, 0, "{serial}");
        assert!(serial.contains("mux_digest="), "{serial}");
        fleet_digest(&serial);
        for threads in ["2", "8"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            assert_eq!(
                strip_timing(&serial),
                strip_timing(&parallel),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn mux_link_flags_are_validated() {
        let fail = |args: &[&str], needle: &str| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let e = run(&args, &mut out).unwrap_err();
            assert!(e.0.contains(needle), "{e}");
        };
        fail(
            &["fleet", "--sessions", "10", "--mux-buffer-kbit", "500"],
            "requires --mux-capacity-mbps",
        );
        fail(
            &["fleet", "--sessions", "10", "--mux-capacity-mbps", "0"],
            "must be positive",
        );
        fail(
            &[
                "fleet",
                "--sessions",
                "10",
                "--seconds",
                "2",
                "--mux-capacity-mbps",
                "100",
                "--mux-buffer-kbit",
                "-3",
            ],
            "must be non-negative",
        );
        // Non-finite links: an infinite capacity would report NaN
        // utilization, a NaN buffer is no size at all.
        for capacity in ["inf", "NaN"] {
            fail(
                &["fleet", "--sessions", "10", "--mux-capacity-mbps", capacity],
                "--mux-capacity-mbps: must be positive and finite",
            );
        }
        fail(
            &[
                "fleet",
                "--sessions",
                "10",
                "--seconds",
                "2",
                "--mux-capacity-mbps",
                "100",
                "--mux-buffer-kbit",
                "NaN",
            ],
            "--mux-buffer-kbit: must be non-negative",
        );
        // An infinite buffer is a lossless queue.
        let (code, text) = run_cli(&[
            "fleet",
            "--sessions",
            "10",
            "--pictures",
            "8",
            "--mux-capacity-mbps",
            "100",
            "--mux-buffer-kbit",
            "inf",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("mux: utilization 0."), "{text}");
        assert!(text.contains("lost 0 bits"), "{text}");

        // `sweep --sources` takes its link through the same check.
        let trace_path = tmp("sweep_link.csv");
        run_cli(&[
            "generate",
            "--sequence",
            "driving1",
            "--pictures",
            "48",
            "--out",
            &trace_path,
        ]);
        let sweep = |extra: &[&str]| {
            let mut args = vec![
                "sweep",
                "--trace",
                &trace_path,
                "--d",
                "0.2",
                "--sources",
                "4",
            ];
            args.extend(extra.iter().copied());
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            run(&args, &mut out).map(|_| String::from_utf8(out).expect("utf-8"))
        };
        for (extra, needle) in [
            (
                ["--capacity-mbps", "NaN"],
                "--capacity-mbps: must be positive and finite",
            ),
            (
                ["--capacity-mbps", "inf"],
                "--capacity-mbps: must be positive and finite",
            ),
            (
                ["--capacity-mbps", "0"],
                "--capacity-mbps: must be positive and finite",
            ),
            (
                ["--buffer-kbit", "NaN"],
                "--buffer-kbit: must be non-negative",
            ),
            (
                ["--buffer-kbit", "-1"],
                "--buffer-kbit: must be non-negative",
            ),
        ] {
            let e = sweep(&extra).unwrap_err();
            assert!(e.0.contains(needle), "{extra:?}: {e}");
        }
        let text = sweep(&["--buffer-kbit", "inf"]).expect("an infinite buffer is valid");
        assert!(text.contains("loss ratio,utilization"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn churn_rejects_degenerate_options() {
        for args in [
            vec!["fleet", "--seconds", "2", "--sessions", "0"],
            vec!["fleet", "--seconds", "0"],
            vec!["fleet", "--seconds", "2", "--classes", "17:1"],
            vec!["fleet", "--seconds", "2", "--classes", "30:0"],
            vec!["fleet", "--seconds", "2", "--classes", ""],
            vec!["fleet", "--seconds", "2", "--classes", "abc"],
            vec!["fleet", "--seconds", "2", "--wat", "1"],
            // The tuning knobs are not options: digests never depend on
            // them (churn_props sweeps shard sizes and trace cuts).
            vec!["fleet", "--seconds", "2", "--shard-size", "32"],
            vec!["fleet", "--seconds", "2", "--batch", "7"],
            // One workload at a time, and churn only on the dynamic engine.
            vec!["fleet", "--pictures", "8", "--seconds", "2"],
            vec!["fleet", "--churn-ppm", "100"],
            vec!["fleet", "--pictures", "8", "--churn-ppm", "100"],
            // 600 ticks/s x seconds overflows u64; so does sessions x
            // ppm, or it leaves no headroom for `churn_trace`'s
            // accumulators.
            vec![
                "fleet",
                "--sessions",
                "10",
                "--seconds",
                "30744573456182587",
            ],
            vec![
                "fleet",
                "--sessions",
                "10",
                "--seconds",
                "2",
                "--churn-ppm",
                "18446744073709551615",
            ],
            vec![
                "fleet",
                "--sessions",
                "10",
                "--seconds",
                "2",
                "--churn-ppm",
                "1844674407370955161",
            ],
        ] {
            assert_rejected(&args);
        }
    }

    #[test]
    fn sessions_rejects_degenerate_counts() {
        for args in [
            vec!["fleet", "--sessions", "0"],
            vec!["fleet", "--pictures", "0"],
            vec!["fleet", "--sessions", "abc"],
            vec!["fleet", "--wat", "1"],
            vec!["fleet", "--repeats", "3"],
            vec!["fleet", "--max-threads", "2"],
        ] {
            assert_rejected(&args);
        }
    }

    /// `fps_class`'s `D = 0.2 s` needs two picture periods, so a class
    /// below 10 fps is a `--classes` error on either engine, not a
    /// panic.
    #[test]
    fn classes_below_ten_fps_are_rejected() {
        for fps in ["1", "2", "3", "4", "5", "6", "8"] {
            let classes = format!("{fps}:1");
            for workload in [["--pictures", "4"], ["--seconds", "1"]] {
                let mut args = vec!["fleet", "--sessions", "4", "--classes", &classes];
                args.extend(workload);
                let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
                let mut out = Vec::new();
                let e = run(&args, &mut out).unwrap_err();
                assert!(e.0.starts_with("--classes: fps"), "{args:?}: {e}");
            }
        }
        let (code, text) = run_cli(&[
            "fleet",
            "--sessions",
            "4",
            "--pictures",
            "4",
            "--classes",
            "10:1",
        ]);
        assert_eq!(code, 0, "{text}");
    }

    /// The three fleet commands `fleet` replaced are gone.
    #[test]
    fn retired_fleet_commands_are_unknown() {
        for command in ["sessions", "churn", "scale"] {
            let args = vec![command.to_string()];
            let mut out = Vec::new();
            let e = run(&args, &mut out).unwrap_err();
            assert!(e.0.contains("unknown command"), "{e}");
        }
    }

    #[test]
    fn generate_requires_sequence_and_out() {
        for args in [
            vec!["generate", "--out", "/tmp/x.csv"],
            vec!["generate", "--sequence", "tennis"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            assert!(run(&args, &mut out).is_err());
        }
    }
}
