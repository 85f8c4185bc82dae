//! Self-test corpus: every rule must fire on its bad fixture, stay quiet on
//! its good twin, and the waiver machinery must suppress exactly what it
//! annotates. A final test runs the analyzer over the real workspace tree
//! with the real config, pinning the "gate is green" invariant in `cargo
//! test` as well as in CI.

use sae_analyzer::Report;
use std::path::{Path, PathBuf};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn run_corpus(config: &str) -> Report {
    let root = corpus_root();
    sae_analyzer::run_with_config_file(&root.join(config), &root).expect("corpus scan runs")
}

#[test]
fn bad_fixtures_fire_exactly_their_rule() {
    let report = run_corpus("bad.toml");
    let expected = [
        ("bad/r1_lock_order.rs", "lock-order"),
        ("bad/r2_hold_sync.rs", "hold-across-sync"),
        ("bad/r3_commit_panic.rs", "panic-free-commit"),
        ("bad/r4_unwrap.rs", "no-unwrap-in-lib"),
        ("bad/r5_stringly.rs", "typed-errors"),
        ("bad/r6_unsafe.rs", "unsafe-audit"),
        ("bad/r6_unsafe_unlisted.rs", "unsafe-audit"),
    ];
    assert_eq!(
        report.findings.len(),
        expected.len(),
        "unexpected finding set:\n{}",
        report.render_human()
    );
    for (file, rule) in expected {
        let hits: Vec<_> = report.findings.iter().filter(|f| f.file == file).collect();
        assert_eq!(hits.len(), 1, "expected exactly one finding for {file}");
        assert_eq!(hits[0].rule, rule, "wrong rule for {file}");
        assert!(hits[0].waived.is_none(), "{file} must not be waived");
    }
    assert!(report.stale_waivers.is_empty());
}

#[test]
fn good_fixtures_stay_quiet() {
    let report = run_corpus("good.toml");
    assert!(
        report.findings.is_empty(),
        "good fixtures must be quiet:\n{}",
        report.render_human()
    );
    assert_eq!(report.violations(), 0);
}

#[test]
fn waiver_suppresses_exactly_one_finding_and_is_reported() {
    let report = run_corpus("waiver.toml");
    assert_eq!(report.findings.len(), 2, "{}", report.render_human());
    assert_eq!(report.violations(), 1, "{}", report.render_human());
    assert_eq!(report.waived(), 1, "{}", report.render_human());
    assert_eq!(report.waivers_declared, 1);
    assert!(report.stale_waivers.is_empty());
    let human = report.render_human();
    assert!(
        human.contains("1 waived"),
        "summary must report the waiver:\n{human}"
    );
    assert!(human.contains("1 waiver(s) declared"), "{human}");
}

#[test]
fn workspace_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sae_analyzer::run_with_config_file(&root.join("analyzer.toml"), &root)
        .expect("workspace scan runs");
    assert_eq!(
        report.violations(),
        0,
        "the workspace must pass its own gate:\n{}",
        report.render_human()
    );
    assert!(
        report.stale_waivers.is_empty(),
        "stale waivers in the tree:\n{}",
        report.render_human()
    );
}
