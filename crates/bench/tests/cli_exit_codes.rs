//! The experiments CLI shares the analyzer's exit-code convention: 0 for a
//! clean run, 1 for verification findings, 2 for usage errors. Running a real
//! experiment is too slow for a unit gate, so this only drives the usage
//! paths end to end; the 0/1 split is covered by `Cli::parse` unit tests and
//! the experiment crates' own verification asserts.

use std::process::Command;

#[test]
fn usage_errors_exit_two() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    for args in [
        vec![],
        vec!["frobnicate"],
        vec!["--smoke"],
        vec!["fig5", "--bogus"],
        vec!["fig5", "--zipf"],
        vec!["fig5", "--json"],
        vec!["fig5", "--full-scale", "--smoke"],
        vec!["throughput"],
        vec!["sharded-throughput", "--smoke"],
        vec!["durability", "--smoke"],
        vec!["wal", "--smoke"],
        vec!["net", "--smoke"],
        vec!["group-commit", "--smoke"],
        vec!["replicas", "--smoke"],
        vec!["fanout", "--smoke"],
    ] {
        let out = Command::new(bin).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}
