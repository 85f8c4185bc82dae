//! Query mixes for concurrent client streams.
//!
//! The paper's evaluation replays one batch of uniformly placed queries; the
//! concurrent engine instead serves many clients at once, each issuing its own
//! stream. [`QueryMix`] describes *how* those queries are placed — uniformly
//! over the domain, or Zipf-skewed so a hot region of the key space absorbs
//! most of the traffic (the usual shape of real query popularity) — and
//! derives a deterministic, independently seeded stream per client so
//! multi-threaded runs stay reproducible.

use crate::distribution::KeyDistribution;
use crate::query::{QueryWorkload, RangeQuery};
use crate::record::RecordKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A recipe for generating range queries of a fixed extent whose placement
/// over the key domain follows a [`KeyDistribution`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryMix {
    /// How query *start* positions are placed over the domain. The
    /// distribution's own domain bound is the query domain.
    pub placement: KeyDistribution,
    /// Query extent as a fraction of the domain (the paper uses 0.5 %).
    pub extent_fraction: f64,
    /// When `Some(s)` with `s >= 2`, every query is re-centered onto one of
    /// the boundaries of an `s`-shard equal-width partition of the domain
    /// (boundary `k` starts at `k * (domain + 1) / s`), so each query
    /// deliberately spans at least two shards of such a layout. The placement
    /// distribution still decides *which* boundary a query straddles.
    pub straddle_shards: Option<usize>,
}

impl QueryMix {
    /// Uniformly placed queries over `[0, domain]`.
    pub fn uniform(domain: RecordKey, extent_fraction: f64) -> QueryMix {
        QueryMix {
            placement: KeyDistribution::Uniform { domain },
            extent_fraction,
            straddle_shards: None,
        }
    }

    /// Zipf-placed queries: most query starts land in the low-key hot region.
    pub fn zipf(domain: RecordKey, extent_fraction: f64, theta: f64) -> QueryMix {
        QueryMix {
            placement: KeyDistribution::Zipf { domain, theta },
            extent_fraction,
            straddle_shards: None,
        }
    }

    /// Uniformly placed queries that deliberately straddle the boundaries of
    /// an equal-width `shards`-way partition of `[0, domain]` (the layout
    /// `ShardLayout::uniform` in `sae-core` builds). Requires a non-zero
    /// extent to actually span; with `shards < 2` this degrades to
    /// [`QueryMix::uniform`].
    pub fn spanning(domain: RecordKey, extent_fraction: f64, shards: usize) -> QueryMix {
        QueryMix {
            placement: KeyDistribution::Uniform { domain },
            extent_fraction,
            straddle_shards: Some(shards),
        }
    }

    /// The paper's workload shape (0.5 % extent over the standard domain),
    /// uniformly placed.
    pub fn paper_uniform() -> QueryMix {
        QueryMix::uniform(
            crate::paper::KEY_DOMAIN,
            crate::paper::QUERY_EXTENT_FRACTION,
        )
    }

    /// The paper's workload shape with Zipf(θ = 0.8) placement.
    pub fn paper_zipf() -> QueryMix {
        QueryMix::zipf(
            crate::paper::KEY_DOMAIN,
            crate::paper::QUERY_EXTENT_FRACTION,
            crate::paper::ZIPF_THETA,
        )
    }

    /// The inclusive upper bound of the key domain.
    pub fn domain(&self) -> RecordKey {
        self.placement.domain()
    }

    /// The fixed query extent in key units.
    pub fn extent(&self) -> u64 {
        assert!(
            (0.0..=1.0).contains(&self.extent_fraction),
            "extent fraction must be in [0, 1]"
        );
        ((self.domain() as f64) * self.extent_fraction).round() as u64
    }

    /// An infinite, deterministic stream of queries for one seed.
    pub fn stream(&self, seed: u64) -> QueryStream {
        QueryStream {
            mix: *self,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A finite workload drawn from one stream (for single-threaded replays).
    pub fn workload(&self, count: usize, seed: u64) -> QueryWorkload {
        QueryWorkload {
            queries: self.stream(seed).take(count).collect(),
        }
    }
}

/// Infinite iterator over a [`QueryMix`]'s queries.
pub struct QueryStream {
    mix: QueryMix,
    rng: StdRng,
}

impl Iterator for QueryStream {
    type Item = RangeQuery;

    fn next(&mut self) -> Option<RangeQuery> {
        let domain = self.mix.domain() as u64;
        let extent = self.mix.extent();
        let sampled = self.mix.placement.sample(&mut self.rng) as u64;
        let start = match self.mix.straddle_shards {
            Some(shards) if shards >= 2 => {
                // Re-center the query onto a shard boundary: boundary k is the
                // first key of shard k under the equal-width layout, so a
                // query whose lower bound falls just below it covers both
                // sides. The sampled placement picks the boundary.
                let k = 1 + sampled % (shards as u64 - 1);
                let boundary = k * (domain + 1) / shards as u64;
                boundary
                    .saturating_sub((extent / 2).max(1))
                    .min(domain - extent)
            }
            _ => sampled.min(domain - extent),
        };
        Some(RangeQuery::new(
            start as RecordKey,
            (start + extent) as RecordKey,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mix_matches_domain_and_extent() {
        let mix = QueryMix::uniform(1_000_000, 0.005);
        for q in mix.stream(3).take(500) {
            assert_eq!(q.extent(), 5_000);
            assert!(q.upper <= 1_000_000);
        }
    }

    #[test]
    fn zipf_mix_concentrates_queries_in_the_hot_region() {
        let domain = 1_000_000u32;
        let zipf = QueryMix::zipf(domain, 0.001, 0.8);
        let unf = QueryMix::uniform(domain, 0.001);
        let hot = |mix: &QueryMix| {
            mix.stream(5)
                .take(2_000)
                .filter(|q| (q.lower as f64) < domain as f64 * 0.2)
                .count()
        };
        assert!(hot(&zipf) > 2 * hot(&unf));
    }

    #[test]
    fn client_streams_are_deterministic_and_distinct() {
        let mix = QueryMix::paper_uniform();
        let client = |seed| mix.stream(seed).take(50).collect::<Vec<_>>();
        let (a, b, c) = (client(9), client(9), client(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn workload_wraps_the_stream() {
        let mix = QueryMix::paper_zipf();
        let wl = mix.workload(25, 7);
        assert_eq!(wl.len(), 25);
        assert_eq!(wl.queries, mix.stream(7).take(25).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "extent fraction")]
    fn invalid_extent_fraction_is_rejected() {
        let _ = QueryMix::uniform(100, 2.0).extent();
    }

    #[test]
    fn spanning_queries_straddle_every_layout_boundary() {
        let domain: RecordKey = 1_000_000;
        for shards in [2usize, 3, 4, 8] {
            let mix = QueryMix::spanning(domain, 0.005, shards);
            let boundaries: Vec<u64> = (1..shards as u64)
                .map(|k| k * (domain as u64 + 1) / shards as u64)
                .collect();
            let mut hit = vec![false; boundaries.len()];
            for q in mix.stream(17).take(500) {
                assert!(q.upper <= domain);
                let straddled = boundaries
                    .iter()
                    .position(|&b| ((q.lower as u64) < b) && (b <= q.upper as u64));
                let Some(i) = straddled else {
                    panic!("{shards}-shard spanning query {q} crosses no boundary");
                };
                hit[i] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "{shards}-shard mix missed a boundary"
            );
        }
    }

    #[test]
    fn spanning_with_one_shard_degrades_to_uniform_placement() {
        let mix = QueryMix::spanning(100_000, 0.01, 1);
        let flat = QueryMix::uniform(100_000, 0.01);
        assert_eq!(
            mix.stream(3).take(50).collect::<Vec<_>>(),
            flat.stream(3).take(50).collect::<Vec<_>>()
        );
    }
}
