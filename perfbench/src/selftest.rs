//! The benchmark's self-test at a tiny scale:
//! `cargo test --manifest-path perfbench/Cargo.toml`.

use crate::inputs::{self, Spec, WORKLOADS};
use crate::metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use crate::run::{self, Hooks};
use std::path::PathBuf;
use std::time::Duration;

/// Both shapes of round — durable with a concurrent reader, in-memory with
/// a read phase after the writer — at a size that runs in well under a
/// second.
const TINY: [Spec; 2] = [
    Spec {
        name: "tiny-reads-durable",
        n: 48,
        m: 160,
        edges_only: false,
        batch: 2,
        commits: 21,
        round_secs: 1.0,
        reader: true,
        durable: true,
    },
    Spec {
        name: "tiny-edges",
        n: 48,
        m: 160,
        edges_only: true,
        batch: 1,
        commits: 20,
        round_secs: 1.0,
        reader: false,
        durable: false,
    },
];

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../.perfbench-out/selftest")
        .join(test)
}

fn assert_every_metric(report: &Report, defs: &[MetricDef]) {
    assert_eq!(report.values.len(), defs.len());
    let json = report.json();
    for def in defs {
        let v = report
            .value(def.name)
            .unwrap_or_else(|| panic!("{} is missing", def.name));
        assert!(v.value.is_finite(), "{} = {}", def.name, v.value);
        let entry = json
            .split(&format!("\"{}\": {{\"value\": ", def.name))
            .nth(1)
            .unwrap_or_else(|| panic!("{} is missing from {json}", def.name));
        let entry = entry.split('}').next().unwrap_or_default();
        assert!(
            entry.ends_with(&format!("\"unit\": \"{}\"", def.unit)),
            "{} is printed without its unit {}: {entry}",
            def.name,
            def.unit
        );
    }
}

#[test]
fn every_end_to_end_metric_appears_with_its_unit_and_the_checks_pass() {
    for spec in &TINY {
        let report = run::measured(spec, 3, Duration::ZERO, &out_dir("e2e"), Hooks::default())
            .expect("tiny run");
        assert_every_metric(&report, END_TO_END);
        assert!(
            report.errors.is_empty(),
            "{}: {:?}",
            spec.name,
            report.errors
        );
        assert_eq!(report.failed, 0, "{}", spec.name);
        assert!(report.correct());
        for def in END_TO_END {
            let v = report.value(def.name).expect("checked above");
            assert!(v.value > 0.0, "{}: {} = {}", spec.name, def.name, v.value);
        }
    }
}

#[test]
fn every_per_layer_metric_appears_in_the_traced_run() {
    for spec in &TINY {
        let report = run::traced(spec, 5, &out_dir("trace"), Hooks::default(), "{}")
            .expect("tiny traced run");
        assert_every_metric(&report, PER_LAYER);
        assert!(report.correct(), "{}", spec.name);
        let epochs = report.value("serve.epochs").expect("checked above").value;
        assert!(epochs >= 1000.0, "{}: {epochs} epochs traced", spec.name);
    }
}

#[test]
fn a_flipped_same_component_answer_counts_as_a_failure() {
    let flip = Hooks {
        flip_one_answer: true,
    };
    for spec in &TINY {
        let report =
            run::measured(spec, 3, Duration::ZERO, &out_dir("flip"), flip).expect("tiny run");
        assert!(
            report.failed_frac() > 0.0,
            "{}: the flipped answer went unnoticed",
            spec.name
        );
        assert!(!report.correct());
        assert!(report.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let field = |object: &str, key: &str| -> Option<String> {
        let rest = object.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest.split('"').next()?.to_string())
    };
    let declared: Vec<(String, String, String)> = text
        .split('{')
        .filter_map(|o| Some((field(o, "name")?, field(o, "unit")?, field(o, "better")?)))
        .collect();
    let ours: Vec<(String, String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect();
    assert_eq!(declared, ours);
    let workloads: Vec<String> = text
        .split('{')
        .filter(|o| o.contains("\"why\""))
        .filter_map(|o| field(o, "name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn inputs_follow_the_seed() {
    let spec = &TINY[0];
    let a = inputs::generate(spec, 1).expect("inputs");
    let b = inputs::generate(spec, 1).expect("inputs");
    let c = inputs::generate(spec, 2).expect("inputs");
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.pairs, b.pairs);
    assert_ne!(a.batches, c.batches);
}
