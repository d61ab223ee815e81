//! Order statistics for the benchmark's own numbers.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller reports a measured quantity,
/// and a silent 0 would read as a (never-zero) metric.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Reorders `samples`.
///
/// # Panics
/// Panics on an empty slice (see [`median`]).
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// The tail percentiles a latency report may quote, lowest first, each
/// with the share of samples beyond it in parts per 100,000 (integers, so
/// "ten samples beyond" is decided exactly).
const TAILS: [(&str, u64); 5] = [
    ("p90", 10_000),
    ("p99", 1_000),
    ("p99.9", 100),
    ("p99.99", 10),
    ("p99.999", 1),
];

/// The highest tail percentile that still has at least ten of `n`
/// samples beyond it — anything higher is a handful of outliers, not a
/// percentile. `None` when even p90 is not supported (`n < 100`).
pub fn highest_supported_tail(n: usize) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, beyond)| n as u64 * beyond >= 10 * 100_000)
        .map(|&(label, beyond)| (label, 1.0 - beyond as f64 / 100_000.0))
}

/// `"p50=812 ns p99.9=20311 ns (n=250000)"` for a latency sample.
pub fn latency_summary(samples: &mut [u32]) -> String {
    if samples.is_empty() {
        return "no samples".to_string();
    }
    let n = samples.len();
    let p50 = percentile(samples, 0.5);
    match highest_supported_tail(n) {
        Some((label, q)) => {
            let tail = percentile(samples, q);
            format!("p50={p50} ns {label}={tail} ns (n={n})")
        }
        None => format!("p50={p50} ns (n={n})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.5), 50);
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut s, 1.0), 100);
        assert_eq!(percentile(&mut s, 0.0), 1);
        let mut one = [42u32];
        assert_eq!(percentile(&mut one, 0.999), 42);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100).map(|t| t.0), Some("p90"));
        assert_eq!(highest_supported_tail(999).map(|t| t.0), Some("p90"));
        assert_eq!(highest_supported_tail(1_000).map(|t| t.0), Some("p99"));
        assert_eq!(highest_supported_tail(10_000).map(|t| t.0), Some("p99.9"));
        assert_eq!(highest_supported_tail(250_000).map(|t| t.0), Some("p99.99"));
        assert_eq!(
            highest_supported_tail(5_000_000).map(|t| t.0),
            Some("p99.999")
        );
    }
}
