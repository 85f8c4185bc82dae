//! Pretty-printers that lay the measured rows out like the paper's figures.

use crate::experiments::{
    AblationRow, ComparisonRow, FanoutRow, GroupCommitRow, MemoryAblationRow, ReplicaRow, UpdateRow,
};
use serde::Serialize;

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

fn by_distribution<'a>(rows: &'a [ComparisonRow], dist: &str) -> Vec<&'a ComparisonRow> {
    rows.iter().filter(|r| r.distribution == dist).collect()
}

/// Figure 5: communication overhead (authentication bytes) vs n.
pub fn print_fig5(rows: &[ComparisonRow]) {
    header("Figure 5 — Communication overhead vs n (bytes of authentication information)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>18} {:>18} {:>10}",
            "n", "SAE TE-client [B]", "TOM SP-client [B]", "ratio"
        );
        for r in subset {
            println!(
                "  {:>10} {:>18} {:>18} {:>9.0}x",
                r.n,
                r.sae.auth_bytes,
                r.tom.auth_bytes,
                r.tom.auth_bytes as f64 / r.sae.auth_bytes.max(1) as f64
            );
        }
    }
}

/// Figure 6: query processing time (charged ms at 10 ms per node access) vs n.
pub fn print_fig6(rows: &[ComparisonRow]) {
    header("Figure 6 — Query processing time vs n (ms, 10 ms per node access)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>12} {:>12} {:>12} {:>14}",
            "n", "SP_TOM [ms]", "SP_SAE [ms]", "TE_SAE [ms]", "SP saving [%]"
        );
        for r in subset {
            let saving = 100.0 * (r.tom.sp_charged_ms - r.sae.sp_charged_ms) / r.tom.sp_charged_ms;
            println!(
                "  {:>10} {:>12.1} {:>12.1} {:>12.1} {:>14.1}",
                r.n, r.tom.sp_charged_ms, r.sae.sp_charged_ms, r.sae.te_charged_ms, saving
            );
        }
    }
}

/// Figure 7: client verification time vs n (wall-clock ms).
pub fn print_fig7(rows: &[ComparisonRow]) {
    header("Figure 7 — Verification time at the client vs n (wall-clock ms)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>16} {:>16} {:>14}",
            "n", "Client_SAE [ms]", "Client_TOM [ms]", "avg |RS|"
        );
        for r in subset {
            println!(
                "  {:>10} {:>16.3} {:>16.3} {:>14}",
                r.n, r.sae.client_verify_ms, r.tom.client_verify_ms, r.sae.result_cardinality
            );
        }
    }
}

/// Figure 8: storage cost vs n (MB per party).
pub fn print_fig8(rows: &[ComparisonRow]) {
    header("Figure 8 — Storage cost vs n (MB)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>14} {:>14} {:>14}",
            "n", "SP_TOM [MB]", "SP_SAE [MB]", "TE_SAE [MB]"
        );
        for r in subset {
            println!(
                "  {:>10} {:>14.1} {:>14.1} {:>14.1}",
                r.n,
                r.tom_storage.sp_total_mb(),
                r.sae_storage.sp_total_mb(),
                r.sae_storage.te_mb()
            );
        }
    }
}

/// Ablation E5: XB-Tree vs sequential scan at the TE.
pub fn print_ablation_scan(rows: &[AblationRow]) {
    header("Ablation E5 — VT generation: XB-Tree vs sequential scan of T");
    println!(
        "  {:>10} {:>16} {:>16} {:>14} {:>14}",
        "n", "XB accesses", "scan accesses", "XB [ms]", "scan [ms]"
    );
    for r in rows {
        println!(
            "  {:>10} {:>16} {:>16} {:>14.1} {:>14.1}",
            r.n,
            r.xbtree_node_accesses,
            r.scan_node_accesses,
            r.xbtree_charged_ms,
            r.scan_charged_ms
        );
    }
}

/// Ablation E6: update maintenance cost per index.
pub fn print_ablation_updates(rows: &[UpdateRow]) {
    header("Ablation E6 — node accesses per insert+delete pair");
    println!(
        "  {:>10} {:>18} {:>18} {:>18}",
        "n", "SAE SP (B+-Tree)", "SAE TE (XB-Tree)", "TOM SP (MB-Tree)"
    );
    for r in rows {
        println!(
            "  {:>10} {:>18.1} {:>18.1} {:>18.1}",
            r.n,
            r.sae_sp_accesses_per_update,
            r.te_accesses_per_update,
            r.tom_sp_accesses_per_update
        );
    }
}

/// Ablation E7: file-backed vs in-memory TE index (wall-clock).
pub fn print_ablation_memory(rows: &[MemoryAblationRow]) {
    header("Ablation E7 — VT generation wall-clock: disk-based vs main-memory XB-Tree");
    println!("  {:>10} {:>14} {:>14}", "n", "disk [ms]", "memory [ms]");
    for r in rows {
        println!("  {:>10} {:>14.2} {:>14.2}", r.n, r.disk_ms, r.memory_ms);
    }
}

/// Experiment E11: durable write throughput and fsyncs-per-op under each
/// durability policy, with the post-reopen crash-consistency verdict.
pub fn print_group_commit(rows: &[GroupCommitRow]) {
    header("Experiment E11 — group commit: durable write qps + fsyncs/op vs policy");
    println!(
        "  {:>15} {:>7} {:>8} {:>6} {:>11} {:>10} {:>10} {:>8} {:>10} {:>9} {:>9}",
        "policy",
        "shards",
        "writers",
        "ops",
        "writes/s",
        "p50 [ms]",
        "p99 [ms]",
        "fsyncs",
        "fsyncs/op",
        "speedup",
        "verified"
    );
    for r in rows {
        println!(
            "  {:>15} {:>7} {:>8} {:>6} {:>11.0} {:>10.2} {:>10.2} {:>8} {:>10.2} {:>8.2}x {:>9}",
            r.policy,
            r.shards,
            r.threads,
            r.ops,
            r.writes_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.fsyncs,
            r.fsyncs_per_op,
            r.speedup_vs_immediate,
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Prints the E14 replica table.
pub fn print_replicas(rows: &[ReplicaRow]) {
    header("Experiment E14 — trustless read replicas: verified qps vs replica count");
    println!(
        "  {:>8} {:>9} {:>7} {:>7} {:>10} {:>9} {:>9} {:>8} {:>9} {:>9} {:>9} {:>5}",
        "replicas",
        "endpoints",
        "threads",
        "queries",
        "qps",
        "p50 ms",
        "p95 ms",
        "speedup",
        "verified",
        "byzantine",
        "failovers",
        "stale"
    );
    for r in rows {
        println!(
            "  {:>8} {:>9} {:>7} {:>7} {:>10.0} {:>9.3} {:>9.3} {:>7.2}x {:>9} {:>9} {:>9} {:>5}",
            r.replicas,
            r.endpoints,
            r.threads,
            r.queries,
            r.qps,
            r.p50_ms,
            r.p95_ms,
            r.speedup,
            if r.all_verified { "all" } else { "NO" },
            if r.byzantine_routed_around {
                "routed"
            } else {
                "MISSED"
            },
            r.failovers,
            if r.stale_routed_around {
                "routed"
            } else {
                "MISSED"
            }
        );
    }
}

/// Prints the E16 fan-out and hedge table.
pub fn print_fanout(rows: &[FanoutRow]) {
    header("Experiment E16 — concurrent fan-out and hedged reads: latency by dispatch mode");
    println!(
        "  {:>10} {:>6} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>9} {:>8}",
        "leg",
        "shards",
        "endpoints",
        "queries",
        "mean ms",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "ratio",
        "hedges",
        "failovers",
        "verified"
    );
    for r in rows {
        println!(
            "  {:>10} {:>6} {:>9} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6.2}x {:>6} {:>9} {:>8}",
            r.leg,
            r.shards,
            r.endpoints,
            r.queries,
            r.mean_ms,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.ratio_vs_baseline,
            r.hedges,
            r.failovers,
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Serializes comparison rows to pretty JSON (for plotting outside Rust).
pub fn rows_to_json(rows: &[ComparisonRow]) -> String {
    report_to_json(rows)
}

/// Serializes any experiment row slice to pretty JSON (for the CI bench
/// artifacts and plotting outside Rust).
pub fn report_to_json<T: Serialize>(rows: &[T]) -> String {
    serde_json::to_string_pretty(rows).expect("rows serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_comparison, ExperimentConfig};
    use sae_workload::KeyDistribution;

    #[test]
    fn printers_do_not_panic_and_json_round_trips() {
        let config = ExperimentConfig {
            cardinalities: vec![1_000],
            distributions: vec![KeyDistribution::unf()],
            queries_per_config: 5,
            ..ExperimentConfig::scaled()
        };
        let rows = run_comparison(&config);
        print_fig5(&rows);
        print_fig6(&rows);
        print_fig7(&rows);
        print_fig8(&rows);
        let json = rows_to_json(&rows);
        assert!(json.contains("\"UNF\""));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.as_array().unwrap().len() == 1);
    }
}
