//! The benchmark's own contract: the declaration is well-formed, the names
//! the harness prints are exactly the declared ones, and a smoke run of
//! every workload in both modes ends correct.

use sae_benchmark::decl::{Declaration, BENCHMARK_JSON};
use sae_benchmark::workload::Workload;
use sae_benchmark::{report, run, Options};
use serde_json::Value;
use std::collections::HashSet;
use std::path::PathBuf;

const LAYERS_JSON: &str = include_str!("../layers.json");

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn declaration_meets_the_driver_contract() {
    let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let decl = Declaration::embedded().expect("declaration loads");
    assert!((1..=60).contains(&decl.run_seconds));
    assert!((2..=8).contains(&decl.workloads.len()));
    assert!((1..=16).contains(&decl.end_to_end.len()));
    assert!((1..=128).contains(&decl.per_layer.len()));

    let mut seen = HashSet::new();
    for w in doc["workloads"].as_array().expect("workloads") {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w["why"].as_str().expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for name in &decl.workloads {
        assert!(name_ok(name) && seen.insert(name.clone()), "{name}");
    }
    for m in doc["end_to_end"].as_array().expect("end_to_end") {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
    }
    for m in doc["per_layer"].as_array().expect("per_layer") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in decl.end_to_end.iter().chain(&decl.per_layer) {
        assert!(
            name_ok(&m.name) && seen.insert(m.name.clone()),
            "{}",
            m.name
        );
        assert!(unit_ok(&m.unit), "{}: unit {}", m.name, m.unit);
    }
    // The issue's rule: a bound is never widened past 0.10; a metric that
    // cannot hold it leaves the end-to-end set instead.
    for m in &decl.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.10, "{}: bound {bound}", m.name);
    }
    let setup = decl.end_to_end_metric("setup_s").expect("setup_s declared");
    assert!(setup.unit == "s" && setup.lower_is_better);
    let widest = decl
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the largest bound"
    );

    let strings = |key: &str| -> Vec<&str> {
        doc[key]
            .as_array()
            .expect("an array")
            .iter()
            .map(|v| v.as_str().expect("a string"))
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
}

#[test]
fn declared_workloads_are_the_gated_harness_workloads() {
    let decl = Declaration::embedded().expect("declaration loads");
    let gated: Vec<&str> = Workload::ALL
        .iter()
        .filter(|w| w.gated())
        .map(|w| w.name())
        .collect();
    assert_eq!(decl.workloads, gated);
}

#[test]
fn expected_movement_covers_every_layer_metric_with_declared_names() {
    let decl = Declaration::embedded().expect("declaration loads");
    let doc = serde_json::from_str(LAYERS_JSON).expect("layers.json parses");
    let entries = doc["expected_movement"].as_array().expect("entries");
    let listed: Vec<&str> = entries
        .iter()
        .map(|e| e["metric"].as_str().expect("metric"))
        .collect();
    let declared: Vec<&str> = decl.per_layer.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(listed, declared);
    for e in entries {
        for moved in e["moves"].as_array().expect("moves") {
            let moved = moved.as_str().expect("a name");
            assert!(decl.end_to_end_metric(moved).is_some(), "{moved}");
        }
        let mut claimed = HashSet::new();
        for key in ["on", "not_on"] {
            for w in e[key].as_array().expect("workload list") {
                let w = w.as_str().expect("a name");
                assert!(Workload::parse(w).is_some(), "{w}");
                assert!(claimed.insert(w), "{w} both moves and does not");
            }
        }
        assert_eq!(
            claimed.len(),
            Workload::ALL.len(),
            "every workload predicted"
        );
    }
}

/// One smoke run; every run gets a data root and a trace file of its own,
/// since tests run in parallel within one process.
fn smoke(workload: Workload, trace: bool) {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 2,
        trace,
        smoke: true,
        data_root: Some(root.clone()),
        trace_out: Some(root.join("trace.json")),
    };
    let decl = Declaration::embedded().expect("declaration loads");
    let outcome = run(&opts).expect("the run completes");
    assert!(outcome.correct, "{}: not correct", workload.name());
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    // `result` refuses any name that is measured but not declared, or
    // declared but not measured.
    let declared = decl.metrics(trace);
    let result = outcome
        .result(declared)
        .expect("names match the declaration");
    let parsed = serde_json::from_str(&result.render()).expect("result parses");
    assert_eq!(keys(&parsed), ["correct", "attempted", "failed", "metrics"]);
    let printed: Vec<&str> = keys(&parsed["metrics"]);
    let expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(printed, expected);
    if trace {
        let spans = std::fs::read_to_string(root.join("trace.json")).expect("trace written");
        let spans = serde_json::from_str(&spans).expect("trace parses");
        assert!(!spans["spans"].as_array().expect("spans").is_empty());
        let metric = |name: &str| parsed["metrics"][name]["value"].as_f64().expect(name);
        let sum =
            metric("net.blocking_path_us_per_query") + metric("net.transport_self_us_per_query");
        assert!((sum - metric("net.query_us")).abs() < 1e-6 * metric("net.query_us"));
        assert!(metric("trace.overhead_ratio") > 0.0);
    } else {
        for m in &decl.end_to_end {
            let value = parsed["metrics"][m.name.as_str()]["value"]
                .as_f64()
                .expect("a value");
            assert!(value > 0.0, "{} must never be 0", m.name);
        }
    }
    report(&opts, &outcome, &decl, None).expect("the report renders");
    // The run directory is gone, and the root the run created with it unless
    // the trace file keeps it.
    let left: Vec<_> = std::fs::read_dir(&root)
        .map(|entries| entries.map(|e| e.expect("entry").file_name()).collect())
        .unwrap_or_default();
    assert_eq!(left.is_empty(), !trace, "left behind: {left:?}");
    assert!(
        left.iter().all(|n| n == "trace.json"),
        "left behind: {left:?}"
    );
}

#[test]
fn smoke_net_point() {
    smoke(Workload::NetPoint, false);
}

#[test]
fn smoke_net_wide() {
    smoke(Workload::NetWide, false);
}

#[test]
fn smoke_local_scan() {
    smoke(Workload::LocalScan, false);
}

#[test]
fn smoke_durable_mix() {
    smoke(Workload::DurableMix, false);
}

#[test]
fn smoke_traced_net_point() {
    smoke(Workload::NetPoint, true);
}

#[test]
fn smoke_traced_net_wide() {
    smoke(Workload::NetWide, true);
}

#[test]
fn smoke_traced_local_scan() {
    smoke(Workload::LocalScan, true);
}

#[test]
fn smoke_traced_durable_mix() {
    smoke(Workload::DurableMix, true);
}

#[test]
fn a_data_dir_that_holds_a_deployment_is_refused() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("occupied");
    std::fs::create_dir_all(&root).expect("root");
    std::fs::write(root.join("MANIFEST"), b"x").expect("marker");
    let opts = Options {
        workload: Workload::LocalScan,
        seed: 1,
        seconds: 1,
        trace: false,
        smoke: true,
        data_root: Some(root.clone()),
        trace_out: None,
    };
    let err = run(&opts).expect_err("refused").to_string();
    assert!(err.contains("already holds a deployment"), "{err}");
    assert!(
        root.join("MANIFEST").exists(),
        "the occupied root is untouched"
    );
}
