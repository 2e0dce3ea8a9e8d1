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
//! Experiments that carry [`pardfs_bench::BenchRecord`] rows (E1, E2, E9,
//! E10, E11, E12, E13, E14, E15, E17) also emit `BENCH_<id>.json` into the current directory
//! (override with `--json-dir <dir>`), so the perf trajectory is recorded as
//! data, not just prose.
//!
//! `--threads N` sizes the global worker pool (equivalent to running with
//! `PARDFS_THREADS=N`); E2 ignores it — that experiment sweeps its own
//! explicit pools.

use pardfs_bench::experiments as exp;
use pardfs_bench::experiments::Scale;
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
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id || s == "all");

    let mut tables: Vec<Table> = Vec::new();
    if want("e1") {
        tables.push(exp::e1_update_time(scale));
    }
    if want("e2") {
        tables.push(exp::e2_scalability(scale));
    }
    if want("e3") {
        tables.push(exp::e3_query_rounds(scale));
    }
    if want("e3b") {
        tables.push(exp::e3b_ablation(scale));
    }
    if want("e4") {
        tables.push(exp::e4_fault_tolerant(scale));
    }
    if want("e5") {
        tables.push(exp::e5_streaming(scale));
    }
    if want("e6") {
        tables.push(exp::e6_congest(scale));
    }
    if want("e7") {
        tables.push(exp::e7_preprocess(scale));
    }
    if want("e8") {
        tables.push(exp::e8_update_kinds(scale));
    }
    if want("e9") {
        tables.push(exp::e9_backend_matrix(scale));
    }
    if want("e10") {
        tables.push(exp::e10_rebuild_policy(scale));
    }
    if want("e11") {
        tables.push(exp::e11_index_patching(scale));
    }
    if want("e12") {
        tables.push(exp::e12_scenarios(scale));
    }
    if want("e13") {
        tables.push(exp::e13_serving_throughput(scale));
    }
    if want("e14") {
        tables.push(exp::e14_durability_overhead(scale));
    }
    if want("e15") {
        tables.push(exp::e15_checkpoint_open(scale));
    }
    if want("e17") {
        tables.push(exp::e17_write_amplification(scale));
    }

    if tables.is_empty() {
        eprintln!(
            "unknown experiment id; use e1 e2 e3 e3b e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e17 or all"
        );
        std::process::exit(2);
    }
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
