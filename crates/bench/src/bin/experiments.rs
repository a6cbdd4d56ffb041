//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! experiments [names...] [--csv-dir DIR] [--series] [--threads N]
//! ```
//!
//! With no names, runs everything. Series tables (thousands of rows,
//! meant for plotting) are written to CSV but elided on the terminal
//! unless `--series` is given.
//!
//! Sweep-heavy figures fan out over `--threads` workers (default: all
//! cores; output is bit-identical for any value). Performance is measured
//! by the repository benchmark (`crates/bench/src/bin/benchmark/`), not
//! here.

use smooth_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    let mut csv_dir = String::from("results");
    let mut print_series = false;
    let mut threads_opt: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv-dir" => {
                csv_dir = it.next().unwrap_or_else(|| {
                    eprintln!("--csv-dir requires a value");
                    std::process::exit(2);
                })
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--threads requires a value");
                    std::process::exit(2);
                });
                threads_opt = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads: cannot parse {v:?}");
                    std::process::exit(2);
                }));
            }
            "--series" => print_series = true,
            "--help" | "-h" => {
                println!("usage: experiments [names...] [--csv-dir DIR] [--series] [--threads N]");
                println!(
                    "names: {}",
                    experiments::all()
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                return;
            }
            other => names.push(other.to_string()),
        }
    }

    smooth_sweep::set_default_threads(smooth_sweep::resolve_threads(threads_opt));

    let all = experiments::all();
    let selected: Vec<&experiments::Experiment> = if names.is_empty() {
        all.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                all.iter().find(|(name, _)| name == n).unwrap_or_else(|| {
                    eprintln!(
                        "unknown experiment {n:?}; known: {}",
                        all.iter().map(|(x, _)| *x).collect::<Vec<_>>().join(" ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };

    for &&(name, gen) in &selected {
        println!("==================== {name} ====================");
        for table in gen() {
            match table.save_csv(&csv_dir) {
                Ok(path) => {
                    let is_series = table.title.contains("series");
                    if is_series && !print_series {
                        println!(
                            "## {} -> {} ({} rows, printed to CSV only)",
                            table.title,
                            path.display(),
                            table.rows.len()
                        );
                    } else {
                        print!("{}", table.render());
                        println!("   -> {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("failed to write CSV for {}: {e}", table.title);
                    print!("{}", table.render());
                }
            }
            println!();
        }
    }
}
