//! # sae-bench
//!
//! The experiment harness that regenerates the evaluation section of the
//! paper (Figures 5–8) plus the ablations listed in the repository README
//! ("Reproducing the paper's figures").
//!
//! The heavy lifting lives in [`experiments`]: for every `(distribution,
//! cardinality)` configuration it builds one SAE deployment and one TOM
//! deployment over the same synthetic dataset, runs the paper's query
//! workload (100 uniform range queries of 0.5 % extent) against both, and
//! collects the per-party costs. The `experiments` binary prints one table
//! per figure; the wall-clock cost of a verified query and a durable write
//! is measured by the standalone benchmark in `benchmark/`.
//!
//! Scale: by default the harness runs the paper's configuration at 1/10 of
//! the cardinalities (10 K – 100 K records) so the whole suite finishes in CI
//! time; `--full-scale` switches to the paper's 100 K – 1 M.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod experiments;
pub mod report;

pub use experiments::{
    run_ablation_memory, run_ablation_scan, run_ablation_updates, run_comparison, AblationRow,
    ComparisonRow, ExperimentConfig, MemoryAblationRow, SignatureScheme, UpdateRow,
};
pub use report::{
    print_ablation_memory, print_ablation_scan, print_ablation_updates, print_fig5, print_fig6,
    print_fig7, print_fig8, rows_to_json,
};
