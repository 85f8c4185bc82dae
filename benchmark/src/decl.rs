//! The benchmark's declaration: `BENCHMARK.json` at the repository root,
//! compiled in. It is the single list of workload and metric names, units,
//! directions and regression bounds; the harness looks units up here and
//! refuses to print a result whose metric names differ from the declared
//! ones, and `agree` takes its bounds from here.

use crate::Res;
use serde_json::Value;

/// `BENCHMARK.json` as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening of the median, as a share of the
    /// reference median. End-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Declaration {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// What a user of the system sees.
    pub end_to_end: Vec<MetricDecl>,
    /// Single-layer metrics of the traced run.
    pub per_layer: Vec<MetricDecl>,
    /// Length of the measured window the driver asks for.
    pub run_seconds: u64,
}

impl Declaration {
    /// The compiled-in declaration.
    pub fn embedded() -> Res<Declaration> {
        Declaration::parse(BENCHMARK_JSON)
    }

    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Res<Declaration> {
        let doc = serde_json::from_str(text)?;
        let list = |key: &str| -> Res<&Vec<Value>> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array").into())
        };
        let text_of = |v: &Value, key: &str| -> Res<String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without a string `{key}`").into())
        };
        let metrics = |key: &str| -> Res<Vec<MetricDecl>> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = text_of(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("BENCHMARK.json: better = `{better}`").into());
                    }
                    Ok(MetricDecl {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: better == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declaration {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Res<_>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` must be a whole number")?,
        })
    }

    /// The metrics a run of the given mode must report: per-layer when
    /// traced, end-to-end otherwise.
    pub fn metrics(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The declared end-to-end metric called `name`.
    pub fn end_to_end_metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}
