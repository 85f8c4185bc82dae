//! The correctness gate's reference: a harness-side ordered set holding the
//! dataset plus every applied write, against which returned record ids are
//! compared. Token verification says the answer matches what the trusted
//! entity holds; the oracle says both match what was actually written.

use sae_core::ShardSlice;
use sae_workload::{Dataset, RangeQuery, Record};
use std::collections::BTreeSet;

/// Every live `(key, id)` of the deployment, as the harness knows it.
pub struct Oracle {
    live: BTreeSet<(u32, u64)>,
}

impl Oracle {
    /// The dataset as loaded.
    pub fn new(dataset: &Dataset) -> Oracle {
        Oracle {
            live: dataset.iter().map(|r| (r.key, r.id)).collect(),
        }
    }

    /// Applies an acknowledged insert.
    pub fn insert(&mut self, record: &Record) {
        self.live.insert((record.key, record.id));
    }

    /// Applies an acknowledged delete.
    pub fn delete(&mut self, record: &Record) {
        self.live.remove(&(record.key, record.id));
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether nothing is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The ids `q` must return, in `(key, id)` order.
    pub fn expected(&self, q: &RangeQuery) -> Vec<u64> {
        self.live
            .range((q.lower, 0)..=(q.upper, u64::MAX))
            .map(|&(_, id)| id)
            .collect()
    }

    /// Whether the slices hold exactly the expected records. Ids are compared
    /// as sorted lists: within one key the service provider orders records by
    /// heap position, not id, and verification already enforces key order.
    pub fn matches(&self, q: &RangeQuery, slices: &[ShardSlice]) -> bool {
        let mut got = Vec::new();
        for bytes in slices.iter().flat_map(|s| &s.records) {
            match Record::decode(bytes) {
                Some(record) if q.contains(record.key) => got.push(record.id),
                _ => return false,
            }
        }
        got.sort_unstable();
        let mut want = self.expected(q);
        want.sort_unstable();
        got == want
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_crypto::Digest;
    use sae_workload::{DatasetSpec, KeyDistribution};

    #[test]
    fn oracle_tracks_writes_and_flags_mismatches() {
        let dataset = DatasetSpec {
            cardinality: 200,
            distribution: KeyDistribution::Uniform { domain: 1_000 },
            record_size: 64,
            seed: 5,
        }
        .generate();
        let mut oracle = Oracle::new(&dataset);
        assert_eq!(oracle.len(), 200);
        let q = RangeQuery::new(100, 300);
        let honest = |oracle: &Oracle| {
            let mut records: Vec<&Record> = Vec::new();
            let ids = oracle.expected(&q);
            for id in ids {
                records.push(dataset.get(id).expect("dataset id"));
            }
            vec![ShardSlice {
                shard: 0,
                records: records.iter().map(|r| r.encode()).collect(),
                vt: Digest::ZERO,
            }]
        };
        let slices = honest(&oracle);
        assert!(oracle.matches(&q, &slices));

        // A dropped record is a mismatch.
        let mut dropped = honest(&oracle);
        dropped[0].records.pop();
        assert!(!oracle.matches(&q, &dropped));

        // An applied insert must show up; once deleted it must not.
        let extra = Record::with_size(9_999, 200, 64);
        oracle.insert(&extra);
        assert!(!oracle.matches(&q, &slices));
        let mut with_extra = slices.clone();
        with_extra[0].records.push(extra.encode());
        assert!(oracle.matches(&q, &with_extra));
        oracle.delete(&extra);
        assert!(oracle.matches(&q, &slices));
        assert!(!oracle.matches(&q, &with_extra));
    }
}
