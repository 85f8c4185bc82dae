//! The four workloads: what each one asks of the deployment and how its
//! inputs are generated from the seed. Why each exists is recorded in
//! `README.md` (and, for the three the driver runs, in `BENCHMARK.json`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sae_core::ShardLayout;
use sae_workload::{paper, QueryMix, RangeQuery, Record, RecordKey};

/// Record ids of harness-issued writes start here, far above any dataset id.
pub const WRITE_ID_BASE: u64 = 1_000_000_000;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Loopback TCP, point-sized ranges, working set far larger than the
    /// buffer pool: per-query fixed cost dominates.
    NetPoint,
    /// Loopback TCP, ~1 % ranges straddling the shard boundary: per-byte
    /// cost dominates.
    NetWide,
    /// In-process, the paper's 0.5 % Zipf-placed scans, every shard fits its
    /// buffer pool: the bypass for every network change.
    LocalScan,
    /// In-process strict alternation of a verified point read and a durable
    /// single-record write.
    DurableMix,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::NetPoint,
        Workload::NetWide,
        Workload::LocalScan,
        Workload::DurableMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetPoint => "net_point",
            Workload::NetWide => "net_wide",
            Workload::LocalScan => "local_scan",
            Workload::DurableMix => "durable_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `BENCHMARK.json` lists the workload, so that the driver runs
    /// it and holds every end-to-end metric of it to its bound. `durable_mix`
    /// is not listed: its timing is the `fdatasync` of the checkout's
    /// filesystem, which same-code sets of runs do not repeat within 0.10
    /// (README, "Same-code agreement"). It runs like the others — by hand,
    /// from `collect.sh`, in the tests — and `agree` reports it unjudged.
    pub fn gated(self) -> bool {
        self != Workload::DurableMix
    }

    /// Whether the measured queries travel over loopback TCP.
    pub fn over_network(self) -> bool {
        matches!(self, Workload::NetPoint | Workload::NetWide)
    }

    /// Whether the measured window alternates reads with durable writes.
    pub fn mixes_writes(self) -> bool {
        self == Workload::DurableMix
    }

    /// Buffer-pool pages per party per shard. `None` is the library default
    /// (256 pages ≈ 1 MiB against ≈ 25 MB of heap per shard); `local_scan`
    /// sizes the pool so each shard fits.
    pub fn cache_pages(self) -> Option<usize> {
        match self {
            Workload::LocalScan => Some(16_384),
            _ => None,
        }
    }

    /// Whether a query returns a few records (fixed cost dominates) rather
    /// than hundreds (per-byte cost dominates); sizes the traced passes.
    pub fn point_sized(self) -> bool {
        matches!(self, Workload::NetPoint | Workload::DurableMix)
    }

    /// `count` queries of this workload's shape over `layout`, a pure
    /// function of the seed. `keys` are the dataset's keys in ascending
    /// order: the point extent is 2/N of the domain (≈ 2 records), and the
    /// wide and scan ranges are cut by record count, so that every seed asks
    /// for the same amount of work (cut by key extent, the answers of one
    /// seed's `net_wide` differ from another's by ±4 % — all its ranges sit
    /// on the one shard boundary — and the latency with them).
    pub fn queries(
        self,
        layout: &ShardLayout,
        keys: &[RecordKey],
        seed: u64,
        count: usize,
    ) -> Vec<RangeQuery> {
        let domain = layout.domain();
        match self {
            Workload::NetPoint | Workload::DurableMix => {
                QueryMix::uniform(domain, 2.0 / keys.len() as f64)
                    .stream(seed)
                    .take(count)
                    .collect()
            }
            Workload::LocalScan => {
                // The paper's 0.5 % of the records, Zipf-placed.
                let answer = (keys.len() as f64 * paper::QUERY_EXTENT_FRACTION) as usize;
                QueryMix::zipf(domain, paper::QUERY_EXTENT_FRACTION, paper::ZIPF_THETA)
                    .stream(seed)
                    .take(count)
                    .map(|q| {
                        let first = keys.partition_point(|&k| k < q.lower);
                        records_from(keys, first, answer)
                    })
                    .collect()
            }
            Workload::NetWide => straddling_queries(layout, keys, keys.len() / 100, seed, count),
        }
    }
}

/// The range holding the `answer` records from rank `first` on (moved down
/// where the dataset ends sooner; records sharing an end key come along).
fn records_from(keys: &[RecordKey], first: usize, answer: usize) -> RangeQuery {
    let answer = answer.clamp(1, keys.len());
    let first = first.min(keys.len() - answer);
    RangeQuery::new(keys[first], keys[first + answer - 1])
}

/// Ranges of `answer` records that each straddle the boundary between the
/// first two shards at a uniformly drawn split, so every query fans out to
/// two shards and the share each serves varies. (`QueryMix::spanning`
/// centres every query on the boundary: with two shards that is one range
/// repeated.)
fn straddling_queries(
    layout: &ShardLayout,
    keys: &[RecordKey],
    answer: usize,
    seed: u64,
    count: usize,
) -> Vec<RangeQuery> {
    let first_key = layout.range(1).lower;
    let below = keys.partition_point(|&k| k < first_key);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            // Between 1 and answer - 1 of the records come from shard 0.
            let from_first = rng.gen_range(1..answer).min(below);
            records_from(keys, below - from_first, answer)
        })
        .collect()
}

/// `count` fresh records for durable writes: ids from `WRITE_ID_BASE +
/// first_id`, keys uniform over the domain, a pure function of the seed.
pub fn write_records(
    domain: RecordKey,
    record_size: usize,
    seed: u64,
    first_id: u64,
    count: usize,
) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_5249_5445); // "WRITE"
    (0..count as u64)
        .map(|i| {
            Record::with_size(
                WRITE_ID_BASE + first_id + i,
                rng.gen_range(0..=domain),
                record_size,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_workload::{DatasetSpec, KeyDistribution};

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_answers_have_a_fixed_size() {
        let layout = ShardLayout::uniform(paper::KEY_DOMAIN, 2);
        let dataset = DatasetSpec::paper(20_000, KeyDistribution::unf(), 3).generate();
        let keys = dataset.sorted_keys();
        for w in Workload::ALL {
            let a = w.queries(&layout, &keys, 11, 64);
            assert_eq!(a, w.queries(&layout, &keys, 11, 64));
            assert_ne!(a, w.queries(&layout, &keys, 12, 64));
        }
        // Ties on an end key may add a record or two.
        let sized = |q: &RangeQuery, n: usize| (n..n + 3).contains(&dataset.query_cardinality(q));
        let wide = Workload::NetWide.queries(&layout, &keys, 3, 500);
        assert!(wide.iter().all(|q| layout.overlapping(q).len() == 2));
        assert!(wide.iter().all(|q| sized(q, 200)));
        let distinct: std::collections::HashSet<_> = wide.iter().map(|q| q.lower).collect();
        assert!(distinct.len() > 150, "splits vary");
        let scans = Workload::LocalScan.queries(&layout, &keys, 3, 500);
        assert!(scans.iter().all(|q| sized(q, 100)));
        let point = Workload::NetPoint.queries(&layout, &keys, 3, 10);
        assert!(point.iter().all(|q| q.extent() == 1_000));
    }

    #[test]
    fn write_records_are_fresh_and_in_domain() {
        let a = write_records(1_000, 500, 9, 5, 100);
        assert_eq!(a, write_records(1_000, 500, 9, 5, 100));
        assert!(a.iter().all(|r| r.key <= 1_000 && r.encoded_len() == 500));
        assert_eq!(a[0].id, WRITE_ID_BASE + 5);
        assert_eq!(a[99].id, WRITE_ID_BASE + 104);
    }
}
