//! Order statistics for the benchmark's own reporting.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between the two nearest ranks. `sorted` must be ascending and
/// non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample ascending (total order, so a NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample; `0.0` when empty (a phase with no
/// operations reports nothing rather than aborting the run).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values.to_vec()), 0.5)
}

/// The highest of p99/p95/p90 that has at least ten samples beyond it
/// in a sample of `n`, as `(label, q)`; `None` when even p90 does not
/// (n < 100). This is the tail percentile printed next to each median.
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)]
        .into_iter()
        .find(|&(_, q)| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// `"p50=… p95=… (n=…)"` for a latency sample in milliseconds, the tail
/// chosen by [`supported_tail`].
pub fn describe_ms(values_ms: &[f64]) -> String {
    if values_ms.is_empty() {
        return "no samples".into();
    }
    let s = sorted(values_ms.to_vec());
    let p50 = quantile_sorted(&s, 0.5);
    match supported_tail(s.len()) {
        Some((label, q)) => {
            format!("p50={p50:.3} ms {label}={:.3} ms (n={})", quantile_sorted(&s, q), s.len())
        }
        None => format!("p50={p50:.3} ms (n={}, too few samples for a tail percentile)", s.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(("p90", 0.90)));
        assert_eq!(supported_tail(199), Some(("p90", 0.90)));
        assert_eq!(supported_tail(200), Some(("p95", 0.95)));
        assert_eq!(supported_tail(999), Some(("p95", 0.95)));
        assert_eq!(supported_tail(1000), Some(("p99", 0.99)));
    }

    #[test]
    fn median_of_empty_sample_is_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
