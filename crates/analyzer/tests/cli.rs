//! End-to-end CLI tests: the binary's exit codes follow the convention
//! shared with the `experiments` CLI (0 clean, 1 findings, 2 usage error).

use std::path::{Path, PathBuf};
use std::process::Command;

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn check(config: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sae-analyzer"))
        .arg("check")
        .arg("--config")
        .arg(corpus_root().join(config))
        .arg("--root")
        .arg(corpus_root())
        .arg("--quiet")
        .arg("--json")
        .arg("-")
        .output()
        .expect("analyzer binary runs")
}

#[test]
fn clean_tree_exits_zero() {
    let out = check("good.toml");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"violations\": 0"), "{json}");
}

#[test]
fn findings_exit_one() {
    let out = check("bad.toml");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"violations\": 7"), "{json}");
}

#[test]
fn usage_errors_exit_two() {
    let bin = env!("CARGO_BIN_EXE_sae-analyzer");
    for args in [
        vec!["check", "--bogus"],
        vec!["frobnicate"],
        vec![],
        vec!["check", "--config"],
    ] {
        let out = Command::new(bin).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
    }
}

#[test]
fn missing_config_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_sae-analyzer"))
        .args(["check", "--config", "/nonexistent/analyzer.toml"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
