//! Experiment drivers: build SAE and TOM side by side and measure them.

use sae_core::{QueryMetrics, SaeSystem, StorageBreakdown, TomSystem};
use sae_crypto::signer::{Signer, Verifier};
use sae_crypto::{HashAlgorithm, MacSigner, RsaSigner};
use sae_storage::{CostModel, FilePager, MemPager, SharedPageStore};
use sae_workload::{paper, Dataset, DatasetSpec, KeyDistribution, QueryWorkload, Record};
use sae_xbtree::XbTree;
use serde::Serialize;
use std::sync::Arc;

/// Which signature scheme the TOM data owner uses in an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignatureScheme {
    /// Textbook RSA (as in the paper; slower key setup).
    Rsa,
    /// HMAC-based MAC (fast; used for quick runs and unit-style checks).
    Mac,
}

/// Configuration of one experiment sweep.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Dataset cardinalities to sweep (the `n` axis of every figure).
    pub cardinalities: Vec<usize>,
    /// Key distributions to run (UNF and/or SKW).
    pub distributions: Vec<KeyDistribution>,
    /// Number of range queries per configuration.
    pub queries_per_config: usize,
    /// Query extent as a fraction of the key domain.
    pub query_extent: f64,
    /// Encoded record size in bytes.
    pub record_size: usize,
    /// Base RNG seed (dataset and workload seeds are derived from it).
    pub seed: u64,
    /// Signature scheme for the TOM baseline.
    pub signature: SignatureScheme,
}

impl ExperimentConfig {
    /// The paper's configuration at 1/10 cardinality (CI-friendly).
    pub fn scaled() -> Self {
        ExperimentConfig {
            cardinalities: paper::SCALED_CARDINALITIES.to_vec(),
            distributions: vec![KeyDistribution::unf(), KeyDistribution::skw()],
            queries_per_config: paper::QUERIES_PER_EXPERIMENT,
            query_extent: paper::QUERY_EXTENT_FRACTION,
            record_size: paper::RECORD_SIZE,
            seed: 2009,
            signature: SignatureScheme::Mac,
        }
    }

    /// The paper's full-scale configuration (100 K – 1 M records).
    pub fn full_scale() -> Self {
        ExperimentConfig {
            cardinalities: paper::CARDINALITIES.to_vec(),
            signature: SignatureScheme::Rsa,
            ..Self::scaled()
        }
    }

    /// A tiny configuration for smoke tests and Criterion benches.
    pub fn smoke() -> Self {
        ExperimentConfig {
            cardinalities: vec![5_000, 10_000],
            distributions: vec![KeyDistribution::unf()],
            queries_per_config: 20,
            ..Self::scaled()
        }
    }
}

/// One `(distribution, n)` measurement: averaged per-query metrics and the
/// storage breakdown for both models.
#[derive(Clone, Debug, Serialize)]
pub struct ComparisonRow {
    /// `"UNF"` or `"SKW"`.
    pub distribution: String,
    /// Dataset cardinality.
    pub n: usize,
    /// Average per-query metrics under SAE.
    pub sae: QueryMetrics,
    /// Average per-query metrics under TOM.
    pub tom: QueryMetrics,
    /// Storage breakdown of the SAE deployment.
    pub sae_storage: StorageBreakdown,
    /// Storage breakdown of the TOM deployment.
    pub tom_storage: StorageBreakdown,
}

fn dataset_for(config: &ExperimentConfig, dist: KeyDistribution, n: usize) -> Dataset {
    DatasetSpec {
        cardinality: n,
        distribution: dist,
        record_size: config.record_size,
        seed: config.seed ^ (n as u64) ^ if dist.name() == "SKW" { 0x5157 } else { 0 },
    }
    .generate()
}

fn run_tom_workload<S: Signer, V: Verifier>(
    system: &TomSystem<S, V>,
    workload: &QueryWorkload,
) -> QueryMetrics {
    let mut total = QueryMetrics {
        verified: true,
        ..Default::default()
    };
    for q in workload.iter() {
        total.accumulate(&system.query(q).expect("TOM query").metrics);
    }
    total.averaged_over(workload.len() as u64)
}

/// Runs the full SAE-vs-TOM comparison; one row per `(distribution, n)`.
///
/// The same rows feed Figures 5 (auth bytes), 6 (charged processing time),
/// 7 (client verification time) and 8 (storage).
pub fn run_comparison(config: &ExperimentConfig) -> Vec<ComparisonRow> {
    let alg = HashAlgorithm::Sha1;
    let mut rows = Vec::new();
    for &dist in &config.distributions {
        for &n in &config.cardinalities {
            let dataset = dataset_for(config, dist, n);
            let workload = QueryWorkload::uniform(
                config.queries_per_config,
                dist.domain(),
                config.query_extent,
                config.seed ^ 0xABCD ^ n as u64,
            );

            // --- SAE deployment.
            let sae = SaeSystem::build_in_memory(&dataset, alg).expect("build SAE");
            let mut sae_total = QueryMetrics {
                verified: true,
                ..Default::default()
            };
            for q in workload.iter() {
                sae_total.accumulate(&sae.query(q).expect("SAE query").metrics);
            }
            let sae_avg = sae_total.averaged_over(workload.len() as u64);
            let sae_storage = sae.storage_breakdown();
            drop(sae);

            // --- TOM deployment.
            let (tom_avg, tom_storage) = match config.signature {
                SignatureScheme::Mac => {
                    let signer = MacSigner::new(b"do-signing-key".to_vec());
                    let system = TomSystem::build_in_memory(&dataset, alg, signer.clone(), signer)
                        .expect("build TOM");
                    (
                        run_tom_workload(&system, &workload),
                        system.storage_breakdown(),
                    )
                }
                SignatureScheme::Rsa => {
                    let signer = RsaSigner::insecure_test_signer();
                    let verifier = signer.verifier();
                    let system = TomSystem::build_in_memory(&dataset, alg, signer, verifier)
                        .expect("build TOM");
                    (
                        run_tom_workload(&system, &workload),
                        system.storage_breakdown(),
                    )
                }
            };

            rows.push(ComparisonRow {
                distribution: dist.name().to_string(),
                n,
                sae: sae_avg,
                tom: tom_avg,
                sae_storage,
                tom_storage,
            });
        }
    }
    rows
}

/// One row of the TE-index ablation (E5): XB-Tree vs sequential scan.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Dataset cardinality.
    pub n: usize,
    /// Average TE node accesses per query with the XB-Tree.
    pub xbtree_node_accesses: u64,
    /// Average TE node accesses per query with a sequential scan of `T`.
    pub scan_node_accesses: u64,
    /// Charged TE milliseconds with the XB-Tree.
    pub xbtree_charged_ms: f64,
    /// Charged TE milliseconds with the sequential scan.
    pub scan_charged_ms: f64,
}

/// Ablation E5: how much the XB-Tree saves over scanning the tuple set.
pub fn run_ablation_scan(config: &ExperimentConfig) -> Vec<AblationRow> {
    use sae_core::sae::TeMode;
    let alg = HashAlgorithm::Sha1;
    let cost = CostModel::paper();
    let mut rows = Vec::new();
    for &n in &config.cardinalities {
        let dataset = dataset_for(config, KeyDistribution::unf(), n);
        let workload = QueryWorkload::uniform(
            config.queries_per_config,
            KeyDistribution::unf().domain(),
            config.query_extent,
            config.seed ^ n as u64,
        );
        let mut totals = [0u64; 2];
        for (slot, mode) in [(0usize, TeMode::XbTree), (1, TeMode::SequentialScan)] {
            let system = SaeSystem::build(
                MemPager::new_shared(),
                MemPager::new_shared(),
                &dataset,
                alg,
                cost,
                mode,
            )
            .expect("build SAE");
            let mut acc = 0u64;
            for q in workload.iter() {
                acc += system.query(q).expect("query").metrics.te_node_accesses;
            }
            totals[slot] = acc / workload.len() as u64;
        }
        rows.push(AblationRow {
            n,
            xbtree_node_accesses: totals[0],
            scan_node_accesses: totals[1],
            xbtree_charged_ms: cost.charge_accesses_ms(totals[0]),
            scan_charged_ms: cost.charge_accesses_ms(totals[1]),
        });
    }
    rows
}

/// One row of the update-cost ablation (E6).
#[derive(Clone, Debug, Serialize)]
pub struct UpdateRow {
    /// Dataset cardinality before the update stream.
    pub n: usize,
    /// Average node accesses per insert+delete pair at the SAE SP (B⁺-Tree).
    pub sae_sp_accesses_per_update: f64,
    /// Average node accesses per insert+delete pair at the TE (XB-Tree).
    pub te_accesses_per_update: f64,
    /// Average node accesses per insert+delete pair at the TOM SP (MB-Tree).
    pub tom_sp_accesses_per_update: f64,
}

/// Ablation E6: maintenance cost of the three index structures under a stream
/// of insertions followed by deletions of the same records.
pub fn run_ablation_updates(config: &ExperimentConfig, updates: usize) -> Vec<UpdateRow> {
    let alg = HashAlgorithm::Sha1;
    let mut rows = Vec::new();
    for &n in &config.cardinalities {
        let dataset = dataset_for(config, KeyDistribution::unf(), n);
        let fresh: Vec<Record> = (0..updates as u64)
            .map(|i| {
                Record::with_size(
                    10_000_000 + i,
                    ((i * 997) % KeyDistribution::unf().domain() as u64) as u32,
                    config.record_size,
                )
            })
            .collect();

        // SAE deployment (covers both the SP's B+-Tree and the TE's XB-Tree).
        let sp_store = MemPager::new_shared();
        let te_store = MemPager::new_shared();
        let mut sae = SaeSystem::build(
            sp_store.clone(),
            te_store.clone(),
            &dataset,
            alg,
            CostModel::paper(),
            sae_core::sae::TeMode::XbTree,
        )
        .expect("build SAE");
        let sp_before = sp_store.stats().snapshot();
        let te_before = te_store.stats().snapshot();
        for r in &fresh {
            sae.insert_record(r).expect("insert");
        }
        for r in &fresh {
            sae.delete_record(r.id, r.key).expect("delete");
        }
        let sp_accesses = sp_store
            .stats()
            .snapshot()
            .delta_since(&sp_before)
            .node_accesses();
        let te_accesses = te_store
            .stats()
            .snapshot()
            .delta_since(&te_before)
            .node_accesses();

        // TOM deployment.
        let tom_store = MemPager::new_shared();
        let signer = MacSigner::new(b"do-signing-key".to_vec());
        let mut tom = TomSystem::build(
            tom_store.clone(),
            &dataset,
            alg,
            CostModel::paper(),
            signer.clone(),
            signer,
        )
        .expect("build TOM");
        let tom_before = tom_store.stats().snapshot();
        for r in &fresh {
            tom.insert_record(r).expect("insert");
        }
        for r in &fresh {
            tom.delete_record(r.id, r.key).expect("delete");
        }
        let tom_accesses = tom_store
            .stats()
            .snapshot()
            .delta_since(&tom_before)
            .node_accesses();

        let pairs = updates as f64;
        rows.push(UpdateRow {
            n,
            sae_sp_accesses_per_update: sp_accesses as f64 / pairs,
            te_accesses_per_update: te_accesses as f64 / pairs,
            tom_sp_accesses_per_update: tom_accesses as f64 / pairs,
        });
    }
    rows
}

/// Result row of the disk-vs-memory TE ablation (E7): wall-clock time to
/// generate the workload's verification tokens on each backend.
#[derive(Clone, Debug, Serialize)]
pub struct MemoryAblationRow {
    /// Dataset cardinality.
    pub n: usize,
    /// Wall-clock milliseconds for the whole workload, file-backed XB-Tree.
    pub disk_ms: f64,
    /// Wall-clock milliseconds for the whole workload, in-memory XB-Tree.
    pub memory_ms: f64,
}

/// Ablation E7: the paper remarks that the TE's footprint is small enough for
/// a main-memory index; this compares a file-backed against an in-memory
/// XB-Tree on real wall-clock time (not the simulated cost model).
pub fn run_ablation_memory(
    config: &ExperimentConfig,
    dir: &std::path::Path,
) -> Vec<MemoryAblationRow> {
    let alg = HashAlgorithm::Sha1;
    let mut rows = Vec::new();
    for &n in &config.cardinalities {
        let dataset = dataset_for(config, KeyDistribution::unf(), n);
        let mut tuples: Vec<_> = dataset.iter().map(|r| r.te_tuple(alg)).collect();
        tuples.sort_by_key(|t| (t.key, t.id));
        let workload = QueryWorkload::uniform(
            config.queries_per_config,
            KeyDistribution::unf().domain(),
            config.query_extent,
            config.seed ^ n as u64,
        );

        let disk_store: SharedPageStore = Arc::new(
            FilePager::create(dir.join(format!("xbtree-{n}.pages"))).expect("create pager file"),
        );
        let disk_tree = XbTree::bulk_load(disk_store, &tuples).expect("bulk load");
        let mem_tree = XbTree::bulk_load(MemPager::new_shared(), &tuples).expect("bulk load");

        let t0 = std::time::Instant::now();
        for q in workload.iter() {
            disk_tree.generate_vt(q).expect("vt");
        }
        let disk_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let t1 = std::time::Instant::now();
        for q in workload.iter() {
            mem_tree.generate_vt(q).expect("vt");
        }
        let memory_ms = t1.elapsed().as_secs_f64() * 1000.0;

        rows.push(MemoryAblationRow {
            n,
            disk_ms,
            memory_ms,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            cardinalities: vec![2_000, 4_000],
            distributions: vec![KeyDistribution::unf(), KeyDistribution::skw()],
            queries_per_config: 10,
            query_extent: 0.005,
            record_size: 500,
            seed: 7,
            signature: SignatureScheme::Mac,
        }
    }

    /// The figures' counted quantities on the tiny config, pinned exactly:
    /// node accesses (averaged, and summed as charged milliseconds), auth
    /// bytes and storage. A tree refactor that keeps the paper's numbers must
    /// keep these; wall-clock fields are left unasserted.
    #[test]
    fn comparison_rows_have_the_paper_shape() {
        let rows = run_comparison(&tiny_config());
        // (distribution, n, SAE SP accesses, SAE SP ms, TE accesses, TE ms,
        //  TOM SP accesses, TOM SP ms, TOM VO bytes,
        //  B+-Tree bytes, XB-Tree bytes, MB-Tree bytes)
        #[rustfmt::skip]
        let pinned = [
            ("UNF", 2_000, 4, 41.0, 2, 22.0, 12, 125.0, 4_173, 28_672, 69_632, 69_632),
            ("UNF", 4_000, 5, 55.0, 2, 21.0, 13, 134.0, 4_177, 53_248, 135_168, 135_168),
            ("SKW", 2_000, 3, 37.0, 2, 21.0, 12, 121.0, 4_109, 28_672, 69_632, 69_632),
            ("SKW", 4_000, 5, 58.0, 2, 22.0, 14, 144.0, 4_485, 53_248, 135_168, 135_168),
        ];
        assert_eq!(rows.len(), pinned.len()); // 2 distributions x 2 cardinalities
        for (row, pin) in rows.iter().zip(pinned) {
            let (dist, n, sp, sp_ms, te, te_ms, tom_sp, tom_sp_ms, vo, bt, xb, mb) = pin;
            assert_eq!((row.distribution.as_str(), row.n), (dist, n));
            // Everything verified.
            assert!(row.sae.verified && row.tom.verified, "{row:?}");
            // Fig. 5: the SAE token is 20 bytes, the TOM VO is much larger.
            assert_eq!(
                (row.sae.auth_bytes, row.tom.auth_bytes),
                (20, vo),
                "{row:?}"
            );
            // Fig. 6: SAE's SP is cheaper than TOM's SP, and the TE is cheap.
            assert_eq!(
                (row.sae.sp_node_accesses, row.sae.sp_charged_ms),
                (sp, sp_ms),
                "{row:?}"
            );
            assert_eq!(
                (row.sae.te_node_accesses, row.sae.te_charged_ms),
                (te, te_ms),
                "{row:?}"
            );
            assert_eq!(
                (
                    row.tom.sp_node_accesses,
                    row.tom.sp_charged_ms,
                    row.tom.te_node_accesses
                ),
                (tom_sp, tom_sp_ms, 0),
                "{row:?}"
            );
            // Fig. 8: both heaps pack eight 500 B records per 4 KiB page; the
            // three index sizes are exact page counts.
            let dataset = n as u64 / 8 * 4_096;
            assert_eq!(
                row.sae_storage,
                StorageBreakdown {
                    sp_dataset_bytes: dataset,
                    sp_index_bytes: bt,
                    te_bytes: xb,
                }
            );
            assert_eq!(
                row.tom_storage,
                StorageBreakdown {
                    sp_dataset_bytes: dataset,
                    sp_index_bytes: mb,
                    te_bytes: 0,
                }
            );
        }
    }

    #[test]
    fn scan_ablation_shows_the_xbtree_advantage() {
        let mut config = tiny_config();
        config.cardinalities = vec![3_000];
        let rows = run_ablation_scan(&config);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].xbtree_node_accesses, rows[0].scan_node_accesses),
            (2, 24)
        );
    }

    #[test]
    fn update_ablation_orders_the_trees_by_fanout() {
        let mut config = tiny_config();
        config.cardinalities = vec![3_000];
        let rows = run_ablation_updates(&config, 50);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        // Node accesses per insert+delete pair: B+-Tree < XB-Tree < MB-Tree
        // (the MB-Tree re-reads each modified child to rehash it).
        assert_eq!(
            (
                row.sae_sp_accesses_per_update,
                row.te_accesses_per_update,
                row.tom_sp_accesses_per_update
            ),
            (9.04, 10.04, 15.02)
        );
    }

    #[test]
    fn configs_expose_paper_parameters() {
        let scaled = ExperimentConfig::scaled();
        assert_eq!(scaled.queries_per_config, 100);
        assert_eq!(scaled.record_size, 500);
        let full = ExperimentConfig::full_scale();
        assert_eq!(full.cardinalities.last(), Some(&1_000_000));
    }
}
