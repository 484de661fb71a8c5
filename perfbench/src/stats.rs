//! Order statistics over the benchmark's own samples.
//!
//! Percentiles are exact order statistics of the recorded values (nearest
//! rank), never histogram bucket bounds, and a tail percentile is only
//! trusted when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// An exact percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The order statistic.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

impl Quantile {
    /// Whether enough samples lie beyond this percentile to report it.
    pub fn trusted(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank `q`-quantile of `values` (`0 < q <= 1`); `value` is 0 and
/// `n` is 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Quantile {
    if values.is_empty() {
        return Quantile {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// The `q`-quantile of each of the consecutive windows `values` splits
/// into, as many windows as leave at least [`MIN_BEYOND`] samples beyond
/// the quantile in each (one window when fewer fit), and their median.
/// `n` is the sample count and `beyond` the fewest samples beyond the
/// quantile in any window. A host stall that delays every request for a
/// moment lifts one window's tail, not the median window's.
pub fn windowed_quantile(values: &[f64], q: f64) -> (Quantile, usize) {
    let per_window = (MIN_BEYOND as f64 / (1.0 - q)).round() as usize;
    let windows = (values.len() / per_window.max(1)).max(1);
    let quantiles: Vec<Quantile> = (0..windows)
        .map(|w| {
            let (lo, hi) = (w * values.len() / windows, (w + 1) * values.len() / windows);
            quantile(&values[lo..hi], q)
        })
        .collect();
    let value = median(&quantiles.iter().map(|x| x.value).collect::<Vec<_>>());
    let beyond = quantiles.iter().map(|x| x.beyond).min().unwrap_or(0);
    (
        Quantile {
            value,
            n: values.len(),
            beyond,
        },
        windows,
    )
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_order_statistics() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&v, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.trusted());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!(!quantile(&v[..500], 0.99).trusted());
    }

    #[test]
    fn windowed_quantile_takes_the_median_window() {
        // Four windows of 1000 (10 beyond each p99); a stall in one window
        // lifts its tail only.
        let mut v: Vec<f64> = (0..4000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[..100] {
            *x += 1e6;
        }
        let (p99, windows) = windowed_quantile(&v, 0.99);
        assert_eq!(windows, 4);
        assert_eq!(p99.value, 989.0);
        assert_eq!((p99.n, p99.beyond), (4000, 10));
        assert!(p99.trusted());
        let (few, windows) = windowed_quantile(&v[..999], 0.99);
        assert_eq!(windows, 1);
        assert!(!few.trusted());
    }
}
