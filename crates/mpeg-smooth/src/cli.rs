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
//! mpeg-smooth sessions [--sessions N] [--pictures N] [--threads N] [--seed S]
//!                      [--classes 24:1,30:2]
//! mpeg-smooth churn    [--sessions N] [--seconds S] [--churn-ppm P] [--threads N]
//!                      [--seed S] [--classes 24:1,25:1,30:1,60:1] [--shard-size N]
//!                      [--batch B]
//! mpeg-smooth scale    [--sessions N] [--pictures N] [--repeats R]
//!                      [--max-threads T]
//! ```
//!
//! The fleet commands (`sessions`, `churn`) print the decision digest on
//! a stable machine-parsable line — `fleet_digest=<16 hex digits>` — the
//! determinism witness scripts can grep for, identical for every thread
//! count.
//!
//! All functions take an output sink so the test suite can drive the CLI
//! without spawning processes.

use smooth_core::{check_theorem1, smooth_with, PatternEstimator, RateSelection, SmootherParams};
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
  mpeg-smooth sessions [--sessions N] [--pictures N] [--threads N] [--seed S]
                       [--classes <fps:weight,...>]
                       [--mux-capacity-mbps C [--mux-buffer-kbit B]]
  mpeg-smooth churn    [--sessions N] [--seconds S] [--churn-ppm P] [--threads N]
                       [--seed S] [--classes <fps:weight,...>] [--shard-size N]
                       [--batch B]
                       [--mux-capacity-mbps C [--mux-buffer-kbit B]]
  mpeg-smooth scale    [--sessions N] [--pictures N] [--repeats R]
                       [--max-threads T]
  mpeg-smooth help
";

/// Runs the CLI. Returns the process exit code.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    let Some((command, rest)) = args.split_first() else {
        let _ = write!(out, "{USAGE}");
        return Ok(2);
    };
    match command.as_str() {
        "generate" => cmd_generate(rest, out),
        "analyze" => cmd_analyze(rest, out),
        "smooth" => cmd_smooth(rest, out),
        "sweep" => cmd_sweep(rest, out),
        "verify" => cmd_verify(rest, out),
        "sessions" => cmd_sessions(rest, out),
        "churn" => cmd_churn(rest, out),
        "scale" => cmd_scale(rest, out),
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

/// Parses a `--classes` fps mix (`24:1,25:1,30:2`; the weight defaults
/// to 1) into [`smooth_engine::fps_class`] classes plus their weights.
/// Each fps must divide the scheduler clock
/// ([`smooth_engine::TICKS_PER_SEC`] = 600 ticks/s) so picture periods
/// are whole ticks.
fn parse_classes(raw: &str) -> Result<(Vec<smooth_engine::DynamicClass>, Vec<u32>), CliError> {
    use smooth_engine::{fps_class, TICKS_PER_SEC};

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
        let weight: u32 = match weight_str {
            None => 1,
            Some(w) => w
                .parse()
                .map_err(|_| err(format!("--classes: cannot parse weight {w:?}")))?,
        };
        if weight == 0 {
            return Err(err("--classes: weights must be at least 1"));
        }
        classes.push(fps_class(fps));
        weights.push(weight);
    }
    if classes.is_empty() {
        return Err(err("--classes: empty list"));
    }
    Ok((classes, weights))
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

/// Parses the fused-mux link flags shared by `sessions` and `churn`:
/// `--mux-capacity-mbps` switches the fused fleet-to-link path on, and
/// `--mux-buffer-kbit` (default 500) sizes the link buffer. Returns
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
fn report_mux(
    out: &mut dyn Write,
    stats: &smooth_engine::LiveMuxStats,
    mux: &smooth_engine::LiveMux,
) {
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

/// `sessions`: advance a fleet of concurrent live smoothing sessions
/// (synthetic picture sizes, the paper-recommended class — or a
/// `--classes` fps mix) through the session engine and report aggregate
/// throughput plus the decision digest — the determinism witness,
/// identical for every thread count and echoed on the machine-parsable
/// `fleet_digest=` line.
fn cmd_sessions(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    use smooth_engine::{SessionClass, SessionEngine, SyntheticFleet};

    let mut opts = Options::parse(args)?;
    let sessions = opts.take_parsed::<usize>("sessions")?.unwrap_or(10_000);
    let pictures = opts.take_parsed::<u64>("pictures")?.unwrap_or(32);
    let threads = smooth_sweep::resolve_threads(opts.take_parsed::<usize>("threads")?);
    let seed = opts.take_parsed::<u64>("seed")?.unwrap_or(0x5e55be7c);
    let classes_raw = opts.take("classes");
    let mux_link = take_mux_link(&mut opts)?;
    opts.finish()?;
    if sessions == 0 {
        return Err(err("--sessions: must be at least 1"));
    }
    if pictures == 0 {
        return Err(err("--pictures: must be at least 1"));
    }

    let pattern = smooth_mpeg::GopPattern::new(3, 9).expect("(3,9) is valid");
    let fleet = SyntheticFleet { seed, pattern };
    let mut engine;
    // Widest picture period in the mix, for the fused measurement
    // window (lockstep ticks land every class's τ on it).
    let mut max_period_ticks = 20u64;
    match classes_raw.as_deref() {
        None => {
            // The paper-recommended single class at 30 fps.
            let params = SmootherParams::at_30fps(0.2, 1, 9).expect("0.2 s is feasible");
            let class = SessionClass::new(params, pattern);
            engine = SessionEngine::new(vec![class]);
            engine.add_sessions(0, sessions);
            let cap = engine.class_ring_cap(0);
            let _ = writeln!(
                out,
                "sessions: {sessions} concurrent x {pictures} pictures (seed {seed:#x})"
            );
            let _ = writeln!(
                out,
                "class: D={:.4}s K={} H={} pattern {pattern}, ring slot {cap} sizes/session",
                params.delay_bound, params.k, params.h
            );
        }
        Some(raw) => {
            // A heterogeneous fps mix: one engine class per entry,
            // sessions split proportionally to the weights. Lockstep
            // ticks feed every class; the per-class τ shapes the
            // smoother's delay budget.
            let (mix, weights) = parse_classes(raw)?;
            let counts = split_by_weight(sessions, &weights);
            max_period_ticks = mix.iter().map(|c| c.period_ticks).max().expect("non-empty");
            engine = SessionEngine::new(mix.iter().map(|c| c.class.clone()).collect());
            for (i, &n) in counts.iter().enumerate() {
                engine.add_sessions(i, n);
            }
            let _ = writeln!(
                out,
                "sessions: {sessions} concurrent x {pictures} pictures (seed {seed:#x})"
            );
            let desc: Vec<String> = mix
                .iter()
                .zip(&counts)
                .map(|(c, n)| format!("{}fps x {n}", TICKS_PER_SEC_FPS / c.period_ticks))
                .collect();
            let _ = writeln!(out, "classes: {}", desc.join(", "));
        }
    }

    let mut fused = None;
    let t0 = std::time::Instant::now();
    match mux_link {
        None => {
            engine.run(&fleet, pictures, true, threads);
        }
        Some((capacity_bps, buffer_bits)) => {
            // Fused fleet-to-link: decisions stream straight into the
            // online aggregator — no materialized schedules, no
            // second pass. ρ defaults to the per-session fair share.
            let cfg = smooth_engine::MuxConfig {
                capacity_bps,
                buffer_bits,
                t_start: 0.0,
                t_end: pictures as f64 * max_period_ticks as f64 / TICKS_PER_SEC_FPS as f64,
                descriptor_rho_bps: capacity_bps / sessions as f64,
            };
            let mut mux = smooth_engine::LiveMux::new(sessions, engine.shard_size(), cfg);
            let stats = engine
                .run_fused(&fleet, pictures, threads, &mut mux)
                .map_err(|e| err(e.to_string()))?;
            fused = Some((stats, mux));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let decisions = engine.decisions();
    let rate = if wall > 0.0 {
        decisions as f64 / wall
    } else {
        0.0
    };

    let _ = writeln!(
        out,
        "decisions: {decisions} (digest {:016x}, max retained {})",
        engine.digest(),
        engine.max_retained()
    );
    let _ = writeln!(out, "fleet_digest={:016x}", engine.digest());
    if let Some((stats, mux)) = &fused {
        report_mux(out, stats, mux);
    }
    // Only this line may vary between runs; the determinism tests strip
    // lines containing "thread(s)".
    let _ = writeln!(
        out,
        "throughput: {rate:.0} decisions/s on {threads} thread(s) ({wall:.3}s)"
    );
    Ok(0)
}

/// [`smooth_engine::TICKS_PER_SEC`], locally named so the fps-back
/// calculation (`600 / period_ticks`) reads as what it is.
const TICKS_PER_SEC_FPS: u64 = smooth_engine::TICKS_PER_SEC;

/// `churn`: replay a seeded arrival/departure process through the
/// event-driven [`smooth_engine::DynamicEngine`] — heterogeneous
/// picture clocks on the timing wheel, live slot recycling — and report
/// fleet stats plus the decision digest (`fleet_digest=`, identical for
/// every thread count, shard size, and `--batch` arrival-batch quantum).
fn cmd_churn(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    use smooth_engine::{churn_trace, ChurnSpec, DynamicEngine, SyntheticFleet, TICKS_PER_SEC};

    let mut opts = Options::parse(args)?;
    let sessions = opts.take_parsed::<usize>("sessions")?.unwrap_or(10_000);
    let seconds = opts.take_parsed::<u64>("seconds")?.unwrap_or(2);
    let churn_ppm = opts.take_parsed::<u64>("churn-ppm")?.unwrap_or(10_000);
    let threads = smooth_sweep::resolve_threads(opts.take_parsed::<usize>("threads")?);
    let seed = opts.take_parsed::<u64>("seed")?.unwrap_or(0xC_0041_7E57);
    let shard_size = opts.take_parsed::<usize>("shard-size")?.unwrap_or(4096);
    let batch = opts
        .take_parsed::<u64>("batch")?
        .unwrap_or(smooth_engine::ARRIVAL_BATCH);
    let classes_raw = opts
        .take("classes")
        .unwrap_or_else(|| "24:1,25:1,30:1,60:1".to_string());
    let mux_link = take_mux_link(&mut opts)?;
    opts.finish()?;
    if sessions == 0 {
        return Err(err("--sessions: must be at least 1"));
    }
    if seconds == 0 {
        return Err(err("--seconds: must be at least 1"));
    }
    let horizon = TICKS_PER_SEC
        .checked_mul(seconds)
        .ok_or_else(|| err("--seconds: too long for the tick clock"))?;
    // `churn_trace`'s per-tick accumulators add sessions x ppm to a
    // value under 10^6 x TICKS_PER_SEC.
    if (sessions as u64)
        .checked_mul(churn_ppm)
        .and_then(|n| n.checked_add(1_000_000 * TICKS_PER_SEC))
        .is_none()
    {
        return Err(err("--churn-ppm: too high for --sessions"));
    }
    if shard_size == 0 {
        return Err(err("--shard-size: must be at least 1"));
    }
    if batch == 0 || batch > 1 << 20 {
        return Err(err("--batch: must be in 1..=1048576"));
    }

    let (classes, weights) = parse_classes(&classes_raw)?;
    let trace = churn_trace(&ChurnSpec {
        seed,
        initial: sessions,
        weights: weights.clone(),
        periods: classes.iter().map(|c| c.period_ticks).collect(),
        ticks_per_sec: TICKS_PER_SEC,
        horizon,
        churn_ppm_per_sec: churn_ppm,
    });
    let src = SyntheticFleet {
        seed,
        pattern: classes[0].class.pattern,
    };
    let desc: Vec<String> = classes
        .iter()
        .zip(&weights)
        .map(|(c, w)| format!("{}fps:{w}", TICKS_PER_SEC / c.period_ticks))
        .collect();
    let _ = writeln!(
        out,
        "churn: {sessions} initial x {seconds}s at {churn_ppm} ppm/s (seed {seed:#x})"
    );
    let _ = writeln!(
        out,
        "classes: {} | {} events, peak {} live",
        desc.join(","),
        trace.events.len(),
        trace.peak_live
    );

    let mut engine = DynamicEngine::new(classes.clone(), trace.peak_live, shard_size)
        .map_err(|e| err(e.to_string()))?;
    engine.set_arrival_batch(batch);
    // Fused churn-to-link: the wheel drain and the online aggregation
    // advance together; the window covers the trace and ρ is the
    // initial fleet's fair share.
    let mut mux = mux_link.map(|(capacity_bps, buffer_bits)| {
        let cfg = smooth_engine::MuxConfig {
            capacity_bps,
            buffer_bits,
            t_start: 0.0,
            t_end: seconds as f64,
            descriptor_rho_bps: capacity_bps / sessions as f64,
        };
        smooth_engine::LiveMux::with_joins(trace.total_joins(), shard_size, cfg)
    });
    // Only the event-driven replay is timed.
    let t0 = std::time::Instant::now();
    let stats = match &mut mux {
        None => {
            engine
                .run_trace(&src, &trace, threads)
                .map_err(|e| err(e.to_string()))?;
            None
        }
        Some(mux) => {
            engine
                .run_trace_fused(&src, &trace, threads, mux)
                .map_err(|e| err(e.to_string()))?;
            Some(engine.finish_fused(&src, threads, mux))
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let decisions = engine.decisions();
    let rate = if wall > 0.0 {
        decisions as f64 / wall
    } else {
        0.0
    };

    let _ = writeln!(
        out,
        "fleet: {} joined, {} live at horizon, {} slots resident ({} B/slot)",
        engine.joined(),
        engine.live_sessions(),
        engine.allocated_slots(),
        engine.state_bytes_per_slot()
    );
    let _ = writeln!(
        out,
        "decisions: {decisions} (digest {:016x})",
        engine.digest()
    );
    let _ = writeln!(out, "fleet_digest={:016x}", engine.digest());
    if let (Some(stats), Some(mux)) = (&stats, &mux) {
        report_mux(out, stats, mux);
    }
    // Only this line may vary between runs; the determinism tests strip
    // lines containing "thread(s)".
    let _ = writeln!(
        out,
        "throughput: {rate:.0} decisions/s on {threads} thread(s) ({wall:.3}s)"
    );
    Ok(0)
}

/// `scale`: regenerate the cores-vs-throughput curve standalone — the
/// megasession engine at a 1, 2, 4, … worker ladder with cache-aware
/// shard placement (first-touch construction by the advancing worker,
/// static shard→thread striping, best-effort CPU pinning). Each rung
/// prints one `T=<workers>:` line with its fastest and median wall of
/// `--repeats` runs and the (rung-invariant) decision digest.
fn cmd_scale(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    use smooth_engine::{SessionClass, SessionEngine, SyntheticFleet};

    let mut opts = Options::parse(args)?;
    let sessions = opts.take_parsed::<usize>("sessions")?.unwrap_or(1_000_000);
    let pictures = opts.take_parsed::<u64>("pictures")?.unwrap_or(32);
    let repeats = opts.take_parsed::<usize>("repeats")?.unwrap_or(3);
    let max_threads = opts
        .take_parsed::<usize>("max-threads")?
        .unwrap_or_else(smooth_sweep::logical_cores);
    opts.finish()?;
    if sessions == 0 {
        return Err(err("--sessions: must be at least 1"));
    }
    if pictures == 0 {
        return Err(err("--pictures: must be at least 1"));
    }
    if repeats == 0 {
        return Err(err("--repeats: must be at least 1"));
    }
    if max_threads == 0 {
        return Err(err("--max-threads: must be at least 1"));
    }

    // The worker ladder: powers of two up to the cap, cap included.
    let mut ladder = Vec::new();
    let mut t = 1;
    while t < max_threads {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max_threads);

    let pattern = smooth_mpeg::GopPattern::new(3, 9).expect("(3,9) is valid");
    let params = SmootherParams::at_30fps(0.2, 1, 9).expect("0.2 s is feasible");
    let class = SessionClass::new(params, pattern);
    let fleet = SyntheticFleet {
        seed: 0x5e55be7c,
        pattern,
    };
    let pinned = smooth_sweep::pinning_supported();
    let _ = writeln!(
        out,
        "scale: {sessions} sessions x {pictures} pictures, ladder {ladder:?} \
         ({} physical / {} logical cores, pinning {})",
        smooth_sweep::physical_cores(),
        smooth_sweep::logical_cores(),
        if pinned { "on" } else { "unavailable" }
    );

    for &threads in &ladder {
        let mut walls = Vec::with_capacity(repeats);
        let mut decisions = 0u64;
        let mut digest = 0u64;
        for _ in 0..repeats {
            let mut engine = SessionEngine::new(vec![class.clone()]);
            engine.add_sessions_placed(0, sessions, threads);
            let t0 = std::time::Instant::now();
            engine.run_pinned(&fleet, pictures, true, threads);
            walls.push(t0.elapsed().as_secs_f64());
            decisions = engine.decisions();
            digest = engine.digest();
        }
        walls.sort_by(f64::total_cmp);
        let mid = walls.len() / 2;
        let median = if walls.len() % 2 == 1 {
            walls[mid]
        } else {
            0.5 * (walls[mid - 1] + walls[mid])
        };
        let min = walls[0];
        let rate = if min > 0.0 {
            decisions as f64 / min
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "T={threads}: {rate:.0} decisions/s ({decisions} decisions, {min:.3}s min, \
             {median:.3}s median, digest {digest:016x})",
        );
    }
    Ok(0)
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

    #[test]
    fn sessions_reports_fleet_and_digest() {
        let (code, text) = run_cli(&[
            "sessions",
            "--sessions",
            "500",
            "--pictures",
            "20",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("500 concurrent x 20 pictures"), "{text}");
        // Lockstep completeness: every session decides every picture.
        assert!(text.contains("decisions: 10000"), "{text}");
        assert!(text.contains("digest"), "{text}");
        assert!(text.contains("ring slot"), "{text}");
    }

    #[test]
    fn sessions_output_is_thread_count_invariant() {
        let base = ["sessions", "--sessions", "300", "--pictures", "25"];
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
    fn sessions_seed_changes_the_digest() {
        let digest_line = |seed: &str| {
            let (code, text) = run_cli(&[
                "sessions",
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
            text.lines()
                .find(|l| l.contains("digest"))
                .expect("digest line")
                .to_string()
        };
        assert_ne!(digest_line("1"), digest_line("2"));
        assert_eq!(digest_line("7"), digest_line("7"));
    }

    #[test]
    fn sessions_classes_mix_reports_split_and_fleet_digest() {
        let (code, text) = run_cli(&[
            "sessions",
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
        assert!(text.contains("classes: 24fps x 25, 30fps x 75"), "{text}");
        let digest_line = text
            .lines()
            .find(|l| l.starts_with("fleet_digest="))
            .expect("fleet_digest line");
        let hex = digest_line.strip_prefix("fleet_digest=").unwrap();
        assert_eq!(hex.len(), 16, "{digest_line}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{digest_line}");
    }

    #[test]
    fn churn_reports_fleet_and_digest() {
        let (code, text) = run_cli(&[
            "churn",
            "--sessions",
            "300",
            "--seconds",
            "1",
            "--churn-ppm",
            "100000",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("300 initial x 1s"), "{text}");
        assert!(
            text.contains("classes: 24fps:1,25fps:1,30fps:1,60fps:1"),
            "{text}"
        );
        assert!(text.contains("joined"), "{text}");
        let digest_line = text
            .lines()
            .find(|l| l.starts_with("fleet_digest="))
            .expect("fleet_digest line");
        let hex = digest_line.strip_prefix("fleet_digest=").unwrap();
        assert_eq!(hex.len(), 16, "{digest_line}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{digest_line}");
    }

    #[test]
    fn churn_output_is_thread_count_invariant() {
        let base = [
            "churn",
            "--sessions",
            "200",
            "--seconds",
            "2",
            "--churn-ppm",
            "200000",
            "--shard-size",
            "32",
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
    fn churn_output_is_batch_invariant() {
        let base = [
            "churn",
            "--sessions",
            "200",
            "--seconds",
            "2",
            "--churn-ppm",
            "200000",
            "--shard-size",
            "32",
        ];
        let run_with = |batch: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--batch", batch]);
            run_cli(&args)
        };
        let (code, reference) = run_with("1");
        assert_eq!(code, 0);
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("thread(s)"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for batch in ["2", "7", "16", "64"] {
            let (code, batched) = run_with(batch);
            assert_eq!(code, 0);
            assert_eq!(strip(&reference), strip(&batched), "batch={batch}");
        }
    }

    #[test]
    fn fused_sessions_prints_mux_digest_and_is_thread_invariant() {
        let base = [
            "sessions",
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
        assert!(serial.contains("fleet_digest="), "{serial}");
        let digest_line = serial
            .lines()
            .find(|l| l.starts_with("mux_digest="))
            .expect("mux_digest line");
        let hex = digest_line.strip_prefix("mux_digest=").unwrap();
        assert_eq!(hex.len(), 16, "{digest_line}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{digest_line}");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("thread(s)"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for threads in ["2", "5"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            assert_eq!(strip(&serial), strip(&parallel), "threads={threads}");
        }
    }

    #[test]
    fn fused_churn_prints_mux_digest_and_is_thread_invariant() {
        let base = [
            "churn",
            "--sessions",
            "150",
            "--seconds",
            "2",
            "--churn-ppm",
            "200000",
            "--shard-size",
            "32",
            "--mux-capacity-mbps",
            "180",
        ];
        let run_with = |threads: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            run_cli(&args)
        };
        let (code, serial) = run_with("1");
        assert_eq!(code, 0, "{serial}");
        assert!(serial.contains("mux_digest="), "{serial}");
        assert!(serial.contains("fleet_digest="), "{serial}");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("thread(s)"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for threads in ["2", "8"] {
            let (code, parallel) = run_with(threads);
            assert_eq!(code, 0);
            assert_eq!(strip(&serial), strip(&parallel), "threads={threads}");
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
            &["sessions", "--sessions", "10", "--mux-buffer-kbit", "500"],
            "requires --mux-capacity-mbps",
        );
        fail(
            &["sessions", "--sessions", "10", "--mux-capacity-mbps", "0"],
            "must be positive",
        );
        fail(
            &[
                "churn",
                "--sessions",
                "10",
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
                &[
                    "sessions",
                    "--sessions",
                    "10",
                    "--mux-capacity-mbps",
                    capacity,
                ],
                "--mux-capacity-mbps: must be positive and finite",
            );
        }
        fail(
            &[
                "churn",
                "--sessions",
                "10",
                "--mux-capacity-mbps",
                "100",
                "--mux-buffer-kbit",
                "NaN",
            ],
            "--mux-buffer-kbit: must be non-negative",
        );
        // An infinite buffer is a lossless queue.
        let (code, text) = run_cli(&[
            "sessions",
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
            vec!["churn", "--sessions", "0"],
            vec!["churn", "--seconds", "0"],
            vec!["churn", "--shard-size", "0"],
            vec!["churn", "--batch", "0"],
            vec!["churn", "--batch", "1048577"],
            vec!["churn", "--classes", "17:1"],
            vec!["churn", "--classes", "30:0"],
            vec!["churn", "--classes", ""],
            vec!["churn", "--classes", "abc"],
            vec!["churn", "--wat", "1"],
            // 600 ticks/s x seconds overflows u64; so does sessions x
            // ppm, or it leaves no headroom for `churn_trace`'s
            // accumulators.
            vec![
                "churn",
                "--sessions",
                "10",
                "--seconds",
                "30744573456182587",
            ],
            vec![
                "churn",
                "--sessions",
                "10",
                "--seconds",
                "2",
                "--churn-ppm",
                "18446744073709551615",
            ],
            vec![
                "churn",
                "--sessions",
                "10",
                "--seconds",
                "2",
                "--churn-ppm",
                "1844674407370955161",
            ],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            assert!(run(&args, &mut out).is_err(), "{args:?}");
        }
    }

    #[test]
    fn sessions_rejects_degenerate_counts() {
        for args in [
            vec!["sessions", "--sessions", "0"],
            vec!["sessions", "--pictures", "0"],
            vec!["sessions", "--sessions", "abc"],
            vec!["sessions", "--wat", "1"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            assert!(run(&args, &mut out).is_err(), "{args:?}");
        }
    }

    #[test]
    fn scale_reports_the_ladder() {
        let (code, text) = run_cli(&[
            "scale",
            "--sessions",
            "400",
            "--pictures",
            "10",
            "--repeats",
            "1",
            "--max-threads",
            "3",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("ladder [1, 2, 3]"), "{text}");
        assert!(text.contains("T=1:"), "{text}");
        assert!(text.contains("T=3:"), "{text}");
        assert!(text.contains("4000 decisions"), "{text}");
    }

    #[test]
    fn scale_digest_is_thread_count_invariant() {
        let digest_of = |max: &str| {
            let (code, text) = run_cli(&[
                "scale",
                "--sessions",
                "200",
                "--pictures",
                "8",
                "--repeats",
                "1",
                "--max-threads",
                max,
            ]);
            assert_eq!(code, 0, "{text}");
            text.lines()
                .filter_map(|l| l.split("digest ").nth(1))
                .map(|d| d.trim_end_matches(')').to_string())
                .collect::<Vec<_>>()
        };
        let serial = digest_of("1");
        assert_eq!(serial.len(), 1);
        let ladder = digest_of("4");
        assert_eq!(ladder.len(), 3); // T = 1, 2, 4
        for d in &ladder {
            assert_eq!(d, &serial[0]);
        }
    }

    #[test]
    fn scale_rejects_degenerate_options() {
        for args in [
            vec!["scale", "--sessions", "0"],
            vec!["scale", "--pictures", "0"],
            vec!["scale", "--repeats", "0"],
            vec!["scale", "--max-threads", "0"],
            vec!["scale", "--wat", "1"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            assert!(run(&args, &mut out).is_err(), "{args:?}");
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
