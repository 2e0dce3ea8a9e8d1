//! `perfbench`: the seeded end-to-end benchmark of the served pardfs stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload edge-churn --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run generates its inputs from `--seed` (the graph, the update stream
//! and the reader's query stream), sets up the default stack
//! (`MaintainerBuilder::new(Backend::Parallel)` served through `Server`),
//! drives it closed-loop for about `--seconds`, checks every output, and
//! prints one JSON object as the last line of standard output. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` serves the first 1000 epochs
//! untraced and then again with spans around every layer boundary, reports
//! the per-layer metrics and writes the spans under `.perfbench-out/`.
//! `README.md` describes the workloads, `metrics.rs` every metric.

mod check;
mod inputs;
mod metrics;
mod run;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <edge-churn|edge-churn-reads|mixed-durable> \
                     --seed <u64> --seconds <u64> [--trace <0|1>]";

/// Where runs keep their durability directories and span files, relative to
/// the directory the benchmark is started from.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = inputs::Spec::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let out = Path::new(OUT_DIR);
    let provenance = metrics::provenance(args.seed);
    let hooks = run::Hooks::default();
    let result = if args.trace {
        run::traced(spec, args.seed, out, hooks, &provenance)
    } else {
        let window = Duration::from_secs(args.seconds);
        run::measured(spec, args.seed, window, out, hooks)
    };
    match result {
        Ok(report) => {
            report.print(spec.name, &provenance);
            if report.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
