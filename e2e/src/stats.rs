//! Order statistics and the shift-recovery measure.

/// Nearest-rank percentile of an ascending slice (`p` in percent).
/// Empty input gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency report may quote, ascending, in tenths of a
/// percent (whole numbers, so the sample arithmetic below is exact).
const REPORTABLE_PERMILLE: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest reportable percentile that still has at least ten samples
/// beyond it — a tail quoted from fewer is one outlier's value, not a
/// percentile. `None` when even the median has fewer than ten above it.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    REPORTABLE_PERMILLE
        .iter()
        .rfind(|&&p| samples as u64 * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// Median of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method). `None` for fewer than two values or a zero
/// median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let mid = median(&data);
    (mid != 0.0).then(|| (quartile(&data, true) - quartile(&data, false)) / mid.abs())
}

/// The first (`upper = false`) or third quartile of `values`, Python's
/// exclusive method as in [`quartile_spread`]; the single value, or 0, for
/// fewer than two.
fn quartile(values: &[f64], upper: bool) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return data.first().copied().unwrap_or(0.0);
    }
    let i = if upper { 3 } else { 1 };
    let j = (i * (len + 1) / 4).clamp(1, len - 1);
    let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, or 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The paper's control-loop delay, in queries: the index of the first query
/// after a shift from which `run` consecutive queries each read at most
/// `limit` pages. A phase that never settles counts its whole length.
pub fn recovery_index(pages_read: &[u32], limit: u32, run: usize) -> usize {
    let mut streak = 0;
    for (i, &pages) in pages_read.iter().enumerate() {
        if pages <= limit {
            streak += 1;
            if streak == run {
                return i + 1 - run;
            }
        } else {
            streak = 0;
        }
    }
    pages_read.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn recovery_on_a_synthetic_page_series() {
        // Three scans, then settled.
        let mut series = vec![900, 700, 500];
        series.extend([0; 40]);
        assert_eq!(recovery_index(&series, 100, 20), 3);
        // A late scan restarts the count.
        series[10] = 800;
        assert_eq!(recovery_index(&series, 100, 20), 11);
        // Settled from the start.
        assert_eq!(recovery_index(&[0; 30], 100, 20), 0);
        // Never 20 in a row: the whole phase counts.
        let bumpy: Vec<u32> = (0..60).map(|i| if i % 10 == 0 { 999 } else { 0 }).collect();
        assert_eq!(recovery_index(&bumpy, 100, 20), 60);
        // The limit itself is allowed.
        assert_eq!(recovery_index(&[100; 20], 100, 20), 0);
        assert_eq!(recovery_index(&[], 100, 20), 0);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((quartile_spread(&[10.0, 12.0]).unwrap() - 3.0 / 11.0).abs() < 1e-12);
        // statistics.quantiles([5, 5, 5, 5, 9], n=4) == [5.0, 5.0, 7.0]
        assert!((quartile_spread(&[5.0, 5.0, 5.0, 5.0, 9.0]).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(quartile(&v, false), 2.75);
        assert_eq!(quartile(&v, true), 8.25);
        assert_eq!(quartile(&[7.0], true), 7.0);
        assert_eq!(quartile(&[], false), 0.0);
        assert_eq!(quartile_spread(&[7.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn median_mean_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean([]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
