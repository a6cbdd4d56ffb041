//! `benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1|FILE]
//! benchmark all [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]
//! ```
//!
//! One workload run prints each metric as `workload.metric=value unit
//! (n=samples)`, one `record: {json}` line per metric, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace` the per-layer
//! ones. A run whose outputs fail a check exits with code 1. `all` runs
//! every workload in a child process of its own (a fresh allocator and
//! its own peak RSS), echoes their lines and, with `--out`, writes every
//! record to one report. `--trace FILE` also appends the spans, one JSON
//! object a line, to FILE.

mod live;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use serde::{Deserialize, Serialize};

use crate::workloads::{Metric, Outcome, WORKLOADS};

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1|FILE]
       benchmark all [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]
workloads: lockstep_2k, sliced_5k, offline_paper";

/// The end-to-end metrics with the share of the parent's median by which
/// each may worsen (as in BENCHMARK.json); a run whose samples spread
/// wider than that, (max − min) / median, is flagged noisy.
const END_TO_END: [(&str, f64); 4] = [
    ("decisions_per_s", 0.25),
    ("step_p50_ms", 0.25),
    ("setup_s", 0.25),
    ("peak_rss_mb", 0.10),
];

#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    On,
    File(String),
}

#[derive(Debug, PartialEq)]
struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        all: false,
        workload: None,
        seed: 0,
        seconds: workloads::RUN_SECONDS as f64,
        trace: Trace::Off,
        out: None,
    };
    while let Some(flag) = argv.next() {
        if flag == "all" {
            args.all = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    _ => Trace::File(value),
                }
            }
            "--out" => args.out = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match (&args.workload, args.all) {
        (Some(w), false) if WORKLOADS.contains(&w.as_str()) => Ok(args),
        (Some(w), false) => Err(format!("unknown workload {w}")),
        (None, true) => Ok(args),
        _ => Err("name one --workload, or all".into()),
    }
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(args) if args.all => run_all(&args),
        Ok(args) => run_one(&args),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Where and on what a record was measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Provenance {
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    commit: String,
    /// Whether `git status --porcelain` listed anything; `None` outside
    /// a git checkout.
    dirty: Option<bool>,
    nproc: usize,
    simd: String,
}

impl Provenance {
    fn read() -> Self {
        let git = |args: &[&str]| -> Option<String> {
            if !std::path::Path::new(".git").exists() {
                return None;
            }
            let out = Command::new("git")
                .args(args)
                .stdin(Stdio::null())
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        Provenance {
            commit: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            dirty: git(&["status", "--porcelain"]).map(|s| !s.is_empty()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: smooth_core::simd::active_level().as_str().to_string(),
        }
    }
}

/// One metric of one workload run, as `all` collects and reports it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Record {
    workload: String,
    metric: String,
    /// `end_to_end`, `per_layer` or `detail`.
    kind: String,
    unit: String,
    value: f64,
    n: usize,
    min: f64,
    median: f64,
    max: f64,
    /// (max − min) / median of repeated measurements above the metric's
    /// bound; `None` for metrics without a bound and for distributions.
    noisy: Option<bool>,
    seed: u64,
    workers: usize,
    provenance: Provenance,
}

fn record(
    workload: &str,
    kind: &str,
    m: &Metric,
    workers: usize,
    args: &Args,
    prov: &Provenance,
) -> Record {
    let s = m.summary();
    let bound = END_TO_END
        .iter()
        .find(|(n, _)| *n == m.name)
        .map(|(_, b)| *b);
    Record {
        workload: workload.into(),
        metric: m.name.clone(),
        kind: kind.into(),
        unit: m.unit.into(),
        value: m.value,
        n: s.n,
        min: s.min,
        median: s.median,
        max: s.max,
        noisy: bound
            .filter(|_| kind == "end_to_end" && m.repeats)
            .map(|b| (s.max - s.min) > b * s.median.abs()),
        seed: args.seed,
        workers,
        provenance: prov.clone(),
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.is_correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &Args) -> ExitCode {
    let workload = args.workload.as_deref().expect("parse checked");
    let traced = args.trace != Trace::Off;
    let mut out =
        workloads::run(workload, args.seed, args.seconds, traced).expect("parse checked the name");
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.failures
                .push(format!("{} is not a finite number", m.name));
        }
    }
    let prov = Provenance::read();
    let kind = if traced { "per_layer" } else { "end_to_end" };
    for (name, d) in &out.digests {
        println!("{workload}.{name}={d:016x}");
    }
    let mut records = Vec::new();
    for (kind, metrics) in [(kind, &out.metrics), ("detail", &out.detail)] {
        for m in metrics {
            let r = record(workload, kind, m, out.workers, args, &prov);
            let noisy = if r.noisy == Some(true) { " noisy" } else { "" };
            println!(
                "{workload}.{}={} {} (n={}){noisy}",
                m.name, m.value, m.unit, r.n
            );
            records.push(r);
        }
    }
    for r in &records {
        println!(
            "record: {}",
            serde_json::to_string(r).expect("records serialize")
        );
    }
    for f in &out.failures {
        eprintln!("{workload}: check failed: {f}");
    }
    if let Trace::File(path) = &args.trace {
        if let Err(e) = append_spans(path, &out.spans) {
            eprintln!("benchmark: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&out));
    if out.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_spans(path: &str, spans: &[spans::Span]) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = std::io::BufWriter::new(f);
    for s in spans {
        writeln!(
            w,
            "{}",
            serde_json::to_string(s).map_err(std::io::Error::other)?
        )?;
    }
    w.flush()
}

/// Every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match &args.trace {
        Trace::Off => "0".to_string(),
        Trace::On => "1".to_string(),
        Trace::File(p) => {
            if let Err(e) = std::fs::File::create(p) {
                eprintln!("benchmark: {p}: {e}");
                return ExitCode::FAILURE;
            }
            p.clone()
        }
    };
    let mut records: Vec<Record> = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", &trace])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("benchmark: {w}: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        for line in stdout.lines() {
            match line.strip_prefix("record: ") {
                Some(json) => match serde_json::from_str::<Record>(json) {
                    Ok(r) => records.push(r),
                    Err(e) => {
                        eprintln!("benchmark: {w}: unreadable record: {e}");
                        ok = false;
                    }
                },
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        if !child.status.success() {
            eprintln!("benchmark: {w} failed ({})", child.status);
            ok = false;
        }
    }
    if let Some(path) = &args.out {
        let json = serde_json::to_string_pretty(&records).expect("records serialize");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("benchmark: {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload sliced_5k --seed 7 --seconds 18 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sliced_5k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 18.0, Trace::On));
        let a = args("all --trace spans.json --out r.json").unwrap();
        assert!(a.all);
        assert_eq!(a.trace, Trace::File("spans.json".into()));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sliced_5k --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("all --workload sliced_5k").is_err());
    }

    /// The repository root: the nearest directory above this crate's
    /// manifest that holds BENCHMARK.json. The sources build both as
    /// smooth-bench's binary and as a package of their own, whose
    /// manifests sit at different depths.
    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest")
            .to_path_buf()
    }

    #[derive(Deserialize)]
    struct Spec {
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Bounded>,
        per_layer: Vec<Named>,
    }

    #[derive(Deserialize)]
    struct Named {
        name: String,
    }

    #[derive(Deserialize)]
    struct Bounded {
        name: String,
        bound: f64,
    }

    fn spec() -> Spec {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json reads");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn constants_match_benchmark_json() {
        let spec = spec();
        assert_eq!(spec.run_seconds, workloads::RUN_SECONDS);
        let names: Vec<_> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        let bounds: Vec<_> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.bound))
            .collect();
        assert_eq!(bounds, END_TO_END);
        let layers: Vec<_> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(layers, workloads::layer_names());
    }

    /// The `[profile.release]` lines of a manifest, comments dropped.
    fn release_profile(manifest: &std::path::Path) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).expect("manifest reads");
        text.lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }

    #[test]
    fn standalone_build_uses_the_workspace_release_profile() {
        let root = repo_root();
        let own = root.join(&spec().paths[0]).join("Cargo.toml");
        let workspace = release_profile(&root.join("Cargo.toml"));
        assert!(
            !workspace.is_empty(),
            "the workspace sets a release profile"
        );
        assert_eq!(release_profile(&own), workspace);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut out = Outcome::default();
        out.metrics.push(Metric {
            name: "setup_s".into(),
            unit: "s",
            value: 0.8127,
            samples: vec![0.8127],
            repeats: true,
        });
        assert_eq!(
            result_line(&out),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }
}
