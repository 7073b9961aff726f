//! Small statistics helpers: ranks, medians, digests, peak RSS, shuffles.

use std::collections::BTreeMap;

use ptaint_inject::SplitMix64;

/// Percentiles the tail metric may report, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0];

/// Sessions that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// 0-based nearest-rank index of percentile `p` in `n` sorted samples.
pub fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`TAIL_BEYOND`]
/// samples beyond its rank, or the median when there are too few samples.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n) + 1) >= TAIL_BEYOND)
        .unwrap_or(50.0)
}

/// The lowest value under each key.
pub fn best_by_key<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> BTreeMap<K, f64> {
    let mut best = BTreeMap::new();
    for (key, v) in samples {
        best.entry(key)
            .and_modify(|b: &mut f64| *b = b.min(v))
            .or_insert(v);
    }
    best
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a, 64-bit: the digest kept for outputs that must repeat.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A memory figure of this process in MB, from `/proc/self/status`:
/// `VmHWM:` is the peak resident set, `VmRSS:` the current one.
pub fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A seeded stream for stream `tag` of the workload seed.
pub fn rng(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond() {
        assert_eq!(tail_percentile(120), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(60), 80.0);
        assert_eq!(tail_percentile(20), 50.0);
        for n in [100, 150, 200, 999, 1000, 5000] {
            let p = tail_percentile(n);
            assert!(n - rank(p, n) > TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn whole_passes_put_a_rank_on_one_session_type() {
        // With every type run once a pass, the rank of a percentile falls
        // in the same type's block of sessions whatever the pass count.
        for types in [9, 21, 48] {
            for p in [50.0, 90.0, 95.0] {
                let block = |passes: usize| rank(p, types * passes) / passes;
                assert!((2..400).all(|passes| block(passes) == block(1)));
            }
        }
    }
}
