//! Print the experiment tables (see the README's experiment index) and write
//! their machine-readable companions (`BENCH_E*.json`).
//!
//! ```text
//! cargo run -p pardfs-bench --release --bin experiments -- all          # quick scale
//! cargo run -p pardfs-bench --release --bin experiments -- all --full  # recorded scale
//! cargo run -p pardfs-bench --release --bin experiments -- e10 e11 --tiny  # CI smoke
//! cargo run -p pardfs-bench --release --bin experiments -- e3 e5       # selected tables
//! cargo run -p pardfs-bench --release --bin experiments -- all --threads 4
//! ```
//!
//! Experiments that carry [`pardfs_bench::BenchRecord`] rows (E1, E2, E10,
//! E11, E12, E15) also emit `BENCH_<id>.json` into the current directory
//! (override with `--json-dir <dir>`), so the perf trajectory is recorded as
//! data, not just prose. All but E1 have a committed baseline at the
//! repository root, which `bench_gate` checks fresh runs against.
//!
//! `--threads N` sizes the global worker pool (equivalent to running with
//! `PARDFS_THREADS=N`); E2 ignores it — that experiment sweeps its own
//! explicit pools.

use pardfs_bench::experiments::{Scale, EXPERIMENTS};
use pardfs_bench::Table;
use std::path::PathBuf;

fn main() {
    // One pass over the arguments: flags (and their values) are consumed
    // here, everything else is an experiment id.
    let mut scale = Scale::Quick;
    let mut json_dir = PathBuf::from(".");
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--tiny" => scale = Scale::Tiny,
            "--json-dir" => match args.next() {
                Some(dir) => json_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--json-dir requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--threads" => match args.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(threads) if threads >= 1 => {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build_global()
                        .unwrap_or_else(|e| {
                            eprintln!("--threads: cannot size the global pool: {e}");
                            std::process::exit(2);
                        });
                }
                _ => {
                    eprintln!("--threads requires a positive integer argument");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag}; use --full, --tiny, --threads <n> or --json-dir <dir>"
                );
                std::process::exit(2);
            }
            id => selected.push(id.to_lowercase()),
        }
    }
    if let Some(unknown) = selected
        .iter()
        .find(|s| *s != "all" && !EXPERIMENTS.iter().any(|(id, _)| id == s))
    {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment id {unknown}; use {} or all",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id || s == "all");
    let tables: Vec<Table> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| want(id))
        .map(|(_, run)| run(scale))
        .collect();
    for t in &tables {
        println!("{}", t.render());
    }
    for t in &tables {
        let Some(json) = t.records_json() else {
            continue;
        };
        let path = json_dir.join(format!("BENCH_{}.json", t.id));
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {} ({} records)", path.display(), t.records.len()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
