//! Pretty-printers that lay the measured rows out like the paper's figures.

use crate::experiments::{AblationRow, ComparisonRow, MemoryAblationRow, UpdateRow};

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

/// Serializes comparison rows to pretty JSON (for plotting outside Rust).
pub fn rows_to_json(rows: &[ComparisonRow]) -> String {
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
