//! `sae-benchmark agree <setA> <setB>`: do two sets of runs tell the same
//! story? Each set is a file of run reports, one JSON object per line (what
//! `--report` appends). For every (workload, end-to-end metric) pair the
//! medians of the two sets may differ by at most the metric's bound from
//! `BENCHMARK.json`. The table it prints — medians, quartile spreads, the
//! gap and its direction — is also the parent/change table a later issue
//! needs: pass the parent's set first. A workload that is in the sets but
//! not in `BENCHMARK.json` (`durable_mix`) gets its rows too, marked
//! `report only` and never counted as a disagreement.

use crate::decl::Declaration;
use crate::stats::{median, quartiles};
use crate::Res;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Values of one metric on one workload, in file order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// Runs in each set.
    pub runs: (usize, usize),
    /// Median of each set.
    pub medians: (f64, f64),
    /// Interquartile range over median of each set (0 with one run).
    pub spreads: (f64, f64),
    /// `(median B − median A) / median A`.
    pub gap: f64,
    /// Whether B's median is on the worse side of A's.
    pub worse: bool,
    /// The metric's declared bound.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists the workload.
    pub gated: bool,
}

impl Row {
    /// Whether the two medians are within the bound of each other.
    pub fn agrees(&self) -> bool {
        self.gap.abs() <= self.bound
    }
}

/// Collects the end-to-end metric values of the untraced reports in `text`.
pub fn parse_set(text: &str) -> Res<Samples> {
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let report = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if report.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let workload = report
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: report without a workload", n + 1))?;
        let metrics = report
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: report without result.metrics", n + 1))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} without a value", n + 1))?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

fn spread(values: &[f64], med: f64) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / med)
}

/// Compares two sets, one row per (workload, declared end-to-end metric):
/// the declared workloads in declaration order, then any other workload of
/// the sets. A pair present in only one set is an error.
pub fn compare(decl: &Declaration, a: &Samples, b: &Samples) -> Res<Vec<Row>> {
    let mut rows = Vec::new();
    let undeclared: BTreeSet<&String> = a
        .keys()
        .chain(b.keys())
        .map(|(workload, _)| workload)
        .filter(|w| !decl.workloads.contains(w))
        .collect();
    for workload in decl.workloads.iter().chain(undeclared) {
        for metric in &decl.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (va, vb) = match (a.get(&key), b.get(&key)) {
                (Some(va), Some(vb)) => (va, vb),
                (None, None) => continue,
                _ => {
                    return Err(
                        format!("{workload}/{} is in only one of the sets", metric.name).into(),
                    )
                }
            };
            let (ma, mb) = (
                median(va).ok_or("empty sample")?,
                median(vb).ok_or("empty sample")?,
            );
            let gap = (mb - ma) / ma;
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                runs: (va.len(), vb.len()),
                medians: (ma, mb),
                spreads: (spread(va, ma), spread(vb, mb)),
                gap,
                worse: if metric.lower_is_better {
                    gap > 0.0
                } else {
                    gap < 0.0
                },
                bound: metric.bound.ok_or("end-to-end metric without a bound")?,
                gated: decl.workloads.contains(workload),
            });
        }
    }
    if rows.is_empty() {
        return Err("the sets share no (workload, metric) pair".into());
    }
    Ok(rows)
}

/// The comparison as a Markdown table.
pub fn table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | runs | median A | median B | IQR/med A | IQR/med B | gap | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let verdict = match (r.gated, r.agrees(), r.worse) {
            (false, _, _) => "report only",
            (true, true, _) => "agree",
            (true, false, true) => "B WORSE",
            (true, false, false) => "B BETTER",
        };
        out.push_str(&format!(
            "| {} | {} | {}+{} | {:.6} | {:.6} | {:.2}% | {:.2}% | {:+.2}% | {:.0}% | {} |\n",
            r.workload,
            r.metric,
            r.runs.0,
            r.runs.1,
            r.medians.0,
            r.medians.1,
            r.spreads.0 * 100.0,
            r.spreads.1 * 100.0,
            r.gap * 100.0,
            r.bound * 100.0,
            verdict,
        ));
    }
    out
}

/// Reads both files, prints the table, and reports whether every pair
/// agrees.
pub fn run(decl: &Declaration, path_a: &str, path_b: &str) -> Res<bool> {
    let a = parse_set(&std::fs::read_to_string(path_a)?)?;
    let b = parse_set(&std::fs::read_to_string(path_b)?)?;
    let rows = compare(decl, &a, &b)?;
    print!("{}", table(&rows));
    let gated = rows.iter().filter(|r| r.gated).count();
    let disagreeing = rows.iter().filter(|r| r.gated && !r.agrees()).count();
    println!(
        "{disagreeing} of {gated} gated (workload, metric) pairs differ by more than their bound"
    );
    Ok(disagreeing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A declaration of the fixture's own, so the test does not move with the
    /// real bounds: two workloads, two metrics, both bounded at 10 %.
    fn fixture_decl() -> Declaration {
        Declaration::parse(
            r#"{"run_seconds": 10,
                "workloads": [{"name": "net_point", "why": ""}, {"name": "local_scan", "why": ""}],
                "end_to_end": [
                  {"name": "verified_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
                  {"name": "query_p50_us", "unit": "us", "better": "lower", "bound": 0.10}],
                "per_layer": []}"#,
        )
        .expect("fixture declaration parses")
    }

    /// A set of five runs of two workloads; `slow` scales net_point's p50.
    fn fixture(slow: f64) -> String {
        let mut out = String::new();
        for (i, jitter) in [0.0, 0.004, -0.003, 0.002, -0.001].iter().enumerate() {
            // durable_mix is not declared: reported, never judged.
            for (workload, p50) in [
                ("net_point", 120.0 * slow),
                ("local_scan", 400.0),
                ("durable_mix", 30.0 * slow * slow),
            ] {
                out.push_str(&format!(
                    "{{\"workload\":\"{workload}\",\"seed\":{i},\"trace\":false,\"result\":{{\"correct\":true,\
                     \"attempted\":10,\"failed\":0,\"metrics\":{{\
                     \"query_p50_us\":{{\"value\":{},\"unit\":\"us\"}},\
                     \"verified_ops_per_s\":{{\"value\":{},\"unit\":\"1/s\"}}}}}}}}\n",
                    p50 * (1.0 + jitter),
                    8000.0 * (1.0 - jitter),
                ));
            }
            // A traced report in the same file is not an end-to-end sample.
            out.push_str(
                "{\"workload\":\"net_point\",\"trace\":true,\"result\":{\"metrics\":{\
                 \"query_p50_us\":{\"value\":1,\"unit\":\"us\"}}}}\n",
            );
        }
        out
    }

    #[test]
    fn identical_sets_agree_and_a_slowdown_is_flagged() {
        let decl = fixture_decl();
        let a = parse_set(&fixture(1.0)).expect("fixture parses");
        assert_eq!(a[&("net_point".into(), "query_p50_us".into())].len(), 5);

        let same = compare(&decl, &a, &a).expect("comparable");
        assert_eq!(same.len(), 6);
        assert!(same.iter().all(|r| r.agrees() && r.gap == 0.0));
        assert_eq!(same.iter().filter(|r| r.gated).count(), 4);

        let b = parse_set(&fixture(1.15)).expect("fixture parses");
        let rows = compare(&decl, &a, &b).expect("comparable");
        let flagged: Vec<&Row> = rows.iter().filter(|r| r.gated && !r.agrees()).collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!(
            (flagged[0].workload.as_str(), flagged[0].metric.as_str()),
            ("net_point", "query_p50_us")
        );
        assert!(flagged[0].worse && (flagged[0].gap - 0.15).abs() < 1e-9);
        assert!(table(&rows).contains("B WORSE"));
        let unjudged = rows.last().expect("durable_mix rows come last");
        assert!(!unjudged.gated && !unjudged.agrees());
        assert!(table(&rows).contains("| +32.25% | 10% | report only |"));

        // The same gap the other way round is flagged too, as better.
        let back = compare(&decl, &b, &a).expect("comparable");
        assert!(back.iter().any(|r| r.gated && !r.agrees() && !r.worse));
    }

    #[test]
    fn a_pair_missing_from_one_set_is_an_error() {
        let decl = fixture_decl();
        let a = parse_set(&fixture(1.0)).expect("fixture parses");
        let mut b = a.clone();
        b.remove(&("local_scan".to_string(), "query_p50_us".to_string()));
        assert!(compare(&decl, &a, &b).is_err());
        assert!(parse_set("not json\n").is_err());
    }
}
