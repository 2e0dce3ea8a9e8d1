//! The metric vocabulary, and the report a run prints.
//!
//! `BENCHMARK.json` declares the same names, units and directions; the
//! self-test keeps the two in step. `about` says what each end-to-end metric
//! measures and, for each per-layer metric, which end-to-end metric on which
//! workload it is expected to move, so later changes can cite both by name.

use crate::stats::ratio;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One declared metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    pub about: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, about: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        about,
    }
}

const fn higher(name: &'static str, unit: &'static str, about: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        about,
    }
}

/// Reported by untraced runs (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s", "initial graph to epoch 0 published (serve_single, or serve_durable with its initial checkpoint); median of the run's set-ups"),
    lower("commit_p50_ms", "ms", "per epoch: WriteHandle::submit to Server::commit returning with the snapshot published"),
    lower("commit_p99_ms", "ms", "as commit_p50_ms; a run commits >= 1000 epochs, so >= 10 lie beyond it"),
    lower("read_p50_us", "us", "one request: ReadHandle::snapshot plus 64 same_component, 63 forest_parent and 1 forest_roots queries on random vertices; the median of the rounds' medians"),
    lower("read_p99_us", "us", "as read_p50_us; the median of the rounds' 99th percentiles"),
    higher("reads_per_s", "1/s", "queries answered per second of the read window"),
    lower("recover_s", "s", "MaintainerBuilder::recover on the directory a round leaves behind, recovered fingerprint checked; median"),
    lower("peak_rss_mb", "MiB", "peak resident set of the process that ran the workload"),
];

/// Reported by traced runs (`--trace 1`), on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    lower("serve.commit_self_ms.p50", "ms", "serve.commit minus core.apply_batch -> commit_p50_ms on edge-churn"),
    lower("serve.commit_self_ms.p99", "ms", "serve.commit minus core.apply_batch -> commit_p50_ms on edge-churn"),
    lower("serve.capture_ms.p50", "ms", "Snapshot::capture re-timed on the post-commit state -> commit_p50_ms on edge-churn"),
    lower("serve.acquire_ns.p50", "ns", "ReadHandle::snapshot -> read_p50_us, read_p99_us, reads_per_s on edge-churn-reads"),
    lower("serve.acquire_ns.p99", "ns", "ReadHandle::snapshot -> read_p50_us, read_p99_us, reads_per_s on edge-churn-reads"),
    lower("serve.query_ns.mean", "ns", "serve.read minus serve.acquire, per query -> read_p50_us, read_p99_us, reads_per_s on edge-churn-reads"),
    higher("serve.epochs", "count", "epochs committed in the traced rounds"),
    higher("serve.updates_per_epoch", "count", "updates per committed epoch"),
    lower("core.apply_ms.p50", "ms", "DfsMaintainer::apply_batch, timed by a pass-through decorator -> commit_p50_ms on edge-churn"),
    lower("core.apply_ms.p99", "ms", "DfsMaintainer::apply_batch -> commit_p99_ms on edge-churn"),
    lower("core.apply_ms.sum", "ms", "DfsMaintainer::apply_batch over 1000 epochs: the writer's mean cost, which the reroot tail dominates -> commit_p99_ms on edge-churn"),
    lower("core.reroot_ms.sum", "ms", "UpdateStats::reroot_micros -> commit_p99_ms on edge-churn"),
    lower("core.reroot_ms.max", "ms", "UpdateStats::reroot_micros -> commit_p99_ms on edge-churn"),
    lower("core.maintain_ms.sum", "ms", "UpdateStats::rebuild_micros (tree index and D) -> commit_p99_ms on edge-churn"),
    lower("core.reroot_frac", "ratio", "share of updates relinking >= 1 vertex; the others still pay the O(n) parent copy -> commit_p50_ms on edge-churn"),
    lower("core.query_sets.mean", "count", "sequential D query sets per update -> commit_p99_ms on edge-churn"),
    lower("core.query_sets.max", "count", "sequential D query sets per update -> commit_p99_ms on edge-churn"),
    lower("core.relinked.mean", "count", "vertices relinked per update -> commit_p99_ms on edge-churn"),
    lower("core.d_queries.sum", "count", "vertex queries issued to D -> commit_p99_ms on edge-churn"),
    lower("query.d_rebuilds", "count", "policy-triggered D rebuilds -> commit_p99_ms: edge-churn drifts without one, mixed-durable rebuilds"),
    lower("query.d_rebuild_ms.sum", "ms", "time in those rebuilds -> commit_p99_ms on edge-churn versus mixed-durable"),
    lower("query.overlay_peak", "count", "largest overlay pending on D -> commit_p99_ms on edge-churn versus mixed-durable"),
    lower("query.d_build_ms", "ms", "StructureD::build re-timed on the set-up graph -> setup_s, recover_s"),
    lower("tree.clone_ms.p50", "ms", "the TreeIndex clone of the capture -> commit_p50_ms on edge-churn"),
    lower("tree.fingerprint_ms.p50", "ms", "TreeIndex::fingerprint of the capture -> commit_p50_ms on edge-churn"),
    higher("tree.patches", "count", "index patches spliced -> commit_p50_ms, commit_p99_ms on mixed-durable"),
    lower("tree.fallbacks", "count", "index fallback rebuilds -> commit_p50_ms, commit_p99_ms on mixed-durable"),
    higher("tree.patch_frac", "ratio", "patches / (patches + full rebuilds) -> commit_p50_ms, commit_p99_ms on mixed-durable"),
    lower("tree.touched_per_patch", "count", "vertices recomputed per splice -> commit_p50_ms, commit_p99_ms on mixed-durable"),
    lower("tree.build_ms", "ms", "TreeIndex::build re-timed on the set-up graph -> setup_s"),
    lower("seq.static_dfs_ms", "ms", "static_dfs re-timed on the set-up graph -> setup_s"),
    lower("wal.log_ms.p50", "ms", "serve.commit self time minus serve.capture: WAL append, fsync, checkpoints, publish -> commit_p50_ms, commit_p99_ms on mixed-durable"),
    lower("wal.log_ms.p99", "ms", "as wal.log_ms.p50 -> commit_p50_ms, commit_p99_ms on mixed-durable"),
    lower("wal.ckpt_commit_ms.p50", "ms", "commit latency at epochs where the checkpoint fires -> commit_p50_ms, commit_p99_ms on mixed-durable"),
    lower("wal.disk_bytes", "bytes", "durability directory at restart -> recover_s"),
    lower("wal.ckpt_bytes", "bytes", "latest checkpoint -> recover_s"),
    lower("wal.recover_open_ms", "ms", "CheckpointView::parse and materialize, re-timed -> recover_s"),
    lower("wal.recover_build_ms", "ms", "MaintainerBuilder::build_from_state, re-timed -> recover_s"),
    lower("wal.replayed_records", "count", "WAL records recovery replayed -> recover_s"),
    lower("graph.adjacency_words", "words", "adjacency arena of the final augmented graph -> peak_rss_mb"),
    lower("trace.overhead_frac", "ratio", "writer time of the traced rounds over the same rounds untraced, minus 1"),
];

/// One measured value and the number of samples behind it.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

impl Value {
    pub fn new(name: &'static str, value: f64, samples: u64) -> Self {
        Value {
            name,
            value,
            samples,
        }
    }
}

/// What a run prints.
pub struct Report {
    pub defs: &'static [MetricDef],
    pub values: Vec<Value>,
    /// Operations attempted: commits, read requests and recoveries.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Failed final-state checks; any of them makes the run exit non-zero.
    pub errors: Vec<String>,
    /// Printed as comments before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// A report of `values`, which must hold every metric of `defs`.
    pub fn new(defs: &'static [MetricDef], values: Vec<Value>) -> Self {
        for def in defs {
            assert!(
                values.iter().any(|v| v.name == def.name),
                "metric {} was not measured",
                def.name
            );
        }
        Report {
            defs,
            values,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn value(&self, name: &str) -> Option<&Value> {
        self.values.iter().find(|v| v.name == name)
    }

    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Comment lines, one line per metric with its unit and sample count,
    /// and the JSON result as the last line.
    pub fn print(&self, workload: &str, provenance: &str) {
        println!("# perfbench {workload}");
        println!("# provenance {provenance}");
        for note in &self.notes {
            println!("# {note}");
        }
        for def in self.defs {
            if let Some(v) = self.value(def.name) {
                println!(
                    "{:<26} {:>18} {:<6} n={:<9} {:<6} # {}",
                    def.name, v.value, def.unit, v.samples, def.better, def.about
                );
            }
        }
        println!(
            "{:<26} {:>18} {:<6} failed={} attempted={}",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            println!("# FINAL-STATE CHECK FAILED: {e}");
        }
        println!("{}", self.json());
    }

    /// The result object: `correct`, `attempted`, `failed`, and every
    /// metric of `defs` with its value and unit.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, def) in self.defs.iter().enumerate() {
            let value = self.value(def.name).map_or(f64::NAN, |v| v.value);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The run's provenance, as a JSON object: host cores, executor workers,
/// the `PARDFS_THREADS` override, the seed and the source revision.
pub fn provenance(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("PARDFS_THREADS").map_or("null".to_string(), |t| json_string(&t));
    format!(
        "{{\"nproc\": {nproc}, \"executor_workers\": {}, \"PARDFS_THREADS\": {threads}, \"seed\": {seed}, \"git_rev\": {}}}",
        rayon::current_num_threads(),
        json_string(&git_revision())
    )
}

fn git_revision() -> String {
    // Ask git only inside a git checkout: elsewhere it would search the
    // parent directories for one.
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
