//! Order statistics the benchmark reports: percentiles of a latency sample,
//! medians, quartiles, the best decile, and the per-second completion counts
//! behind `verified_ops_per_s`.

/// The `p`-th percentile (0–100) of an ascending-sorted sample, by the
/// nearest-rank rule: the smallest value with at least `p` % of the sample
/// at or below it. `None` for an empty sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of a sample: the middle value, or the mean of the two middle
/// values of an even-sized sample. `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The value a tenth of the way down `values` ranked from best to worst:
/// with the 20 seconds of a window, the third best. Disturbance from the
/// host only ever slows a second, comes in stretches of several seconds and
/// can cover more than half a window, so this is the level the program
/// holds when left alone — what a regression check compares — where the
/// median would be the host's weather. `None` for an empty sample.
pub fn best_decile(values: &[f64], lower_is_better: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    v.get(v.len() / 10).copied()
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last cut
/// point. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, linearly interpolated.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// The `p`-th percentile of each whole second's latencies, in time order;
/// seconds that completed no sample are left out. `second[i]` is the second
/// of the window sample `i` completed in; samples completing at or past
/// `seconds` are outside the window.
pub fn per_second_percentiles(lat_ns: &[u64], second: &[u32], seconds: u64, p: f64) -> Vec<f64> {
    let mut by_second: Vec<Vec<u64>> = vec![Vec::new(); seconds as usize];
    for (&ns, &s) in lat_ns.iter().zip(second) {
        if let Some(slot) = by_second.get_mut(s as usize) {
            slot.push(ns);
        }
    }
    by_second
        .iter_mut()
        .filter_map(|sample| {
            sample.sort_unstable();
            percentile_sorted(sample, p).map(|v| v as f64)
        })
        .collect()
}

/// One closed second of a measured window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Second {
    /// Operations that completed in it.
    pub completions: u64,
    /// Its length: one second plus the tail of the operation that was in
    /// flight when the second ran out.
    pub ns: u64,
}

/// Cuts a measured window into consecutive seconds. A second closes at the
/// first completion at least one second after it opened, and the next opens
/// at that instant, so every completion and every nanosecond between the
/// first open and the last close belongs to exactly one second. Whatever
/// follows the last closed second is outside the window.
#[derive(Clone, Debug)]
pub struct SecondLog {
    closed: Vec<Second>,
    open_completions: u64,
    opened_ns: u64,
}

impl SecondLog {
    /// A log whose first second opens at `ns`.
    pub fn open_at(ns: u64, expected_seconds: usize) -> SecondLog {
        SecondLog {
            closed: Vec::with_capacity(expected_seconds),
            open_completions: 0,
            opened_ns: ns,
        }
    }

    /// Records one completion at `ns` and returns the index of the second
    /// it belongs to.
    pub fn complete(&mut self, ns: u64) -> u32 {
        let index = self.closed.len() as u32;
        self.open_completions += 1;
        if ns - self.opened_ns >= 1_000_000_000 {
            self.closed.push(Second {
                completions: self.open_completions,
                ns: ns - self.opened_ns,
            });
            self.open_completions = 0;
            self.opened_ns = ns;
        }
        index
    }

    /// The closed seconds, in time order.
    pub fn seconds(&self) -> &[Second] {
        &self.closed
    }

    /// Completions per second, one value per closed second.
    pub fn rates(&self) -> Vec<f64> {
        self.closed
            .iter()
            .map(|s| s.completions as f64 * 1e9 / s.ns as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sample, 50.0), Some(50));
        assert_eq!(percentile_sorted(&sample, 95.0), Some(95));
        assert_eq!(percentile_sorted(&sample, 99.0), Some(99));
        assert_eq!(percentile_sorted(&sample, 100.0), Some(100));
        assert_eq!(percentile_sorted(&sample, 0.0), Some(1));
        assert_eq!(percentile_sorted(&[7], 95.0), Some(7));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        // 10 samples: p95 is the 10th (ceil(9.5)), p50 the 5th.
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(percentile_sorted(&ten, 95.0), Some(19));
        assert_eq!(percentile_sorted(&ten, 50.0), Some(14));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn best_decile_ignores_disturbed_seconds() {
        // Twenty seconds of latency, twelve of them disturbed: the third
        // best is reported, whichever way "best" points.
        let mut lat: Vec<f64> = (0..8).map(|i| 900.0 + f64::from(i)).collect();
        lat.extend((0..12).map(|i| 1_000.0 + 25.0 * f64::from(i)));
        assert_eq!(best_decile(&lat, true), Some(902.0));
        assert_eq!(median(&lat), Some(1_037.5));
        let rates: Vec<f64> = lat.iter().map(|l| 1e6 / l).collect();
        assert_eq!(best_decile(&rates, false), Some(1e6 / 902.0));
        // Fewer than ten values: the best one.
        assert_eq!(best_decile(&[3.0, 1.0, 2.0], true), Some(1.0));
        assert_eq!(best_decile(&[3.0, 1.0, 2.0], false), Some(3.0));
        assert_eq!(best_decile(&[], true), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).expect("ten values");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("five values");
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).expect("two values");
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn per_second_percentiles_isolate_a_burst_second() {
        // Four quiet seconds of 1..=100 ns and one burst second ten times
        // slower; a sample past the window is dropped.
        let mut lat = Vec::new();
        let mut sec = Vec::new();
        for s in 0..5u32 {
            let scale = if s == 2 { 10 } else { 1 };
            for v in 1..=100u64 {
                lat.push(v * scale);
                sec.push(s);
            }
        }
        lat.push(1_000_000);
        sec.push(5);
        let p95 = per_second_percentiles(&lat, &sec, 5, 95.0);
        assert_eq!(p95, vec![95.0, 95.0, 950.0, 95.0, 95.0]);
        assert_eq!(median(&p95), Some(95.0));
        // The all-sample p95 sits in the burst's tail.
        let mut all = lat[..500].to_vec();
        all.sort_unstable();
        assert_eq!(percentile_sorted(&all, 95.0), Some(750));
        // Seconds without samples are left out.
        assert_eq!(per_second_percentiles(&[7], &[3], 10, 50.0), vec![7.0]);
        assert!(per_second_percentiles(&[], &[], 3, 50.0).is_empty());
    }

    #[test]
    fn second_log_closes_seconds_and_drops_the_overhang() {
        const S: u64 = 1_000_000_000;
        let mut log = SecondLog::open_at(0, 3);
        // Second 0: ten completions, the last one 5 ms past the second mark.
        for i in 1..=9u64 {
            assert_eq!(log.complete(i * S / 10), 0);
        }
        assert_eq!(log.complete(S + 5_000_000), 0);
        // Second 1 opens where second 0 closed: one long operation.
        assert_eq!(log.complete(2 * S + 5_000_000), 1);
        // Never closed: outside the window.
        assert_eq!(log.complete(2 * S + 6_000_000), 2);
        assert_eq!(
            log.seconds(),
            &[
                Second {
                    completions: 10,
                    ns: S + 5_000_000
                },
                Second {
                    completions: 1,
                    ns: S
                },
            ]
        );
        let rates = log.rates();
        assert!((rates[0] - 10.0 / 1.005).abs() < 1e-9 && rates[1] == 1.0);
        // One burst second cannot move the median of the rates.
        assert_eq!(median(&[100.0, 101.0, 900.0, 99.0, 100.0]), Some(100.0));
    }
}
