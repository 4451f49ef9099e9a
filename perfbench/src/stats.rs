//! Exact-rank order statistics.
//!
//! Every percentile the benchmark reports is the nearest-rank value of
//! the exact sorted samples — never a bucketed approximation — and is
//! reported together with its sample count.

/// Nearest-rank percentile of ascending `sorted` samples: the value at
/// 1-based rank `ceil(p * n)`, clamped to `[1, n]`. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[nearest_rank(n as u64, p) as usize - 1])
}

/// The 1-based nearest rank of percentile `p` among `n >= 1` samples.
pub fn nearest_rank(n: u64, p: f64) -> u64 {
    ((p * n as f64).ceil() as u64).clamp(1, n)
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method); the compare mode and
/// the acceptance spread use this definition. Needs at least 2 values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        // Python clamps j into [1, n-1] before interpolating.
        let j = (((i + 1) as f64 * m / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = (i + 1) as f64 * m - 4.0 * j as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        // n = 10: p50 -> rank 5, p90 -> rank 9, p99 -> rank 10.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(5.0));
        assert_eq!(percentile_sorted(&v, 0.9), Some(9.0));
        assert_eq!(percentile_sorted(&v, 0.99), Some(10.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        // n = 215 (the fig12-sim request count): p90 -> rank 194,
        // leaving 21 samples beyond it.
        assert_eq!(nearest_rank(215, 0.9), 194);
        assert_eq!(nearest_rank(215, 0.5), 108);
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
