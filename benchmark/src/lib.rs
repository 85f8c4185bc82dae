//! # sae-benchmark
//!
//! The repository's benchmark: one command runs one workload once against a
//! fixed deployment shape and prints every declared metric by name with its
//! unit, plus `attempted` / `failed` / `correct`. `--trace 0` gives the
//! end-to-end metrics a user of the system sees ([`e2e`]); `--trace 1` gives
//! the per-layer metrics ([`layers`]), measured from outside through each
//! crate's public functions with in-memory spans ([`trace`]). Names, units,
//! directions and bounds live in `BENCHMARK.json` ([`decl`]); `README.md`
//! defines every metric and says why each workload exists.

#![deny(missing_docs)]

pub mod agree;
pub mod check;
pub mod decl;
pub mod deploy;
pub mod e2e;
pub mod harness;
pub mod layers;
pub mod pin;
pub mod stats;
pub mod trace;
pub mod workload;

use decl::{Declaration, MetricDecl};
use serde::{Content, Serialize};
use std::path::PathBuf;
use workload::Workload;

/// A report or result: a tree in the `serde` shim's data model, rendered by
/// `serde_json` (maps keep insertion order, so metrics print in declaration
/// order).
#[derive(Clone, Debug, PartialEq)]
pub struct Tree(pub Content);

impl Serialize for Tree {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Tree {
    /// Compact single-line JSON.
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("rendering a tree to a string cannot fail")
    }
}

/// A map node from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Content); N]) -> Content {
    Content::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The harness's error type: any layer's typed error, or a message.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// One run's command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Every input is a pure function of this.
    pub seed: u64,
    /// Length of the measured window (untraced run).
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Shrinks every phase so tests finish quickly.
    pub smoke: bool,
    /// Root under which the run's fresh data directory is created.
    pub data_root: Option<PathBuf>,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// No operation failed and every gate of the run passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value)` of every metric of the run's mode.
    pub metrics: Vec<(String, f64)>,
    /// Phase-by-phase detail for the report (not part of the result line).
    pub phases: Content,
}

impl Outcome {
    /// The result object the contract asks for — exactly `correct`,
    /// `attempted`, `failed` and `metrics` — after checking that the metrics
    /// measured are exactly the ones `declared`, each once.
    pub fn result(&self, declared: &[MetricDecl]) -> Res<Tree> {
        let mut metrics = Vec::with_capacity(declared.len());
        for decl in declared {
            let mut found = self.metrics.iter().filter(|(name, _)| *name == decl.name);
            let (Some((_, value)), None) = (found.next(), found.next()) else {
                return Err(
                    format!("declared metric `{}` not measured exactly once", decl.name).into(),
                );
            };
            if !value.is_finite() {
                return Err(format!("metric `{}` is not a finite number", decl.name).into());
            }
            metrics.push((
                decl.name.clone(),
                obj([
                    ("value", value.to_content()),
                    ("unit", decl.unit.to_content()),
                ]),
            ));
        }
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(name, _)| !declared.iter().any(|d| d.name == *name))
        {
            return Err(
                format!("measured metric `{name}` is not declared in BENCHMARK.json").into(),
            );
        }
        Ok(Tree(obj([
            ("correct", self.correct.to_content()),
            ("attempted", self.attempted.to_content()),
            ("failed", self.failed.to_content()),
            ("metrics", Content::Map(metrics)),
        ])))
    }
}

/// Runs one workload once in the mode `opts` asks for.
pub fn run(opts: &Options) -> Res<Outcome> {
    let sizes = if opts.smoke {
        harness::Sizes::smoke()
    } else {
        harness::Sizes::full()
    };
    if opts.trace {
        layers::run(opts, &sizes)
    } else {
        e2e::run(opts, &sizes)
    }
}

/// The full report of a run, one JSON object: the options, the environment,
/// the result and the phase detail. `agree` reads sets of these. `pinned_cpu`
/// is what [`pin::pin_to_one_cpu`] returned for this process.
pub fn report(
    opts: &Options,
    outcome: &Outcome,
    decl: &Declaration,
    pinned_cpu: Option<usize>,
) -> Res<Tree> {
    Ok(Tree(obj([
        ("workload", opts.workload.name().to_content()),
        ("seed", opts.seed.to_content()),
        ("seconds", opts.seconds.to_content()),
        ("trace", opts.trace.to_content()),
        ("smoke", opts.smoke.to_content()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_content(),
        ),
        ("pinned_cpu", pinned_cpu.to_content()),
        ("result", outcome.result(decl.metrics(opts.trace))?.0),
        ("phases", outcome.phases.clone()),
    ])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(names: &[&str]) -> Outcome {
        Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: names.iter().map(|n| (n.to_string(), 1.5)).collect(),
            phases: Content::Null,
        }
    }

    #[test]
    fn result_holds_exactly_the_declared_metrics() {
        let decl = Declaration::embedded().expect("BENCHMARK.json parses");
        let names: Vec<&str> = decl.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let line = outcome(&names)
            .result(&decl.end_to_end)
            .expect("exact match")
            .render();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));

        // Declared but not measured, measured but not declared, measured twice.
        assert!(outcome(&names[1..]).result(&decl.end_to_end).is_err());
        let mut extra = names.clone();
        extra.push("not_declared");
        assert!(outcome(&extra).result(&decl.end_to_end).is_err());
        let mut twice = names.clone();
        twice.push(names[0]);
        assert!(outcome(&twice).result(&decl.end_to_end).is_err());
    }
}
