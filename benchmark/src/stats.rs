//! Order statistics for the benchmark's reports: medians, quartile
//! spreads, and the "highest percentile the sample supports" rule.

/// Sorts a sample ascending; every helper below wants sorted input.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    values
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending sample
/// (0.0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an ascending sample.
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// A median with the distance between its quartiles, the spread every
/// sliced metric stores beside its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

/// Median and inter-quartile range of an unsorted sample.
pub fn spread(values: &[f64]) -> Spread {
    let s = sorted(values.to_vec());
    Spread { median: median(&s), iqr: quantile(&s, 0.75) - quantile(&s, 0.25), n: s.len() }
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The tail the sample supports: `wanted` (e.g. 99.0) when at least
/// [`TAIL_SUPPORT`] samples lie beyond it, otherwise the highest
/// percentile that still has that many beyond it (never below the
/// median). Returns `(percentile actually reported, its value)`.
pub fn supported_tail(sorted: &[f64], wanted: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (wanted, 0.0);
    }
    let beyond = |p: f64| ((1.0 - p / 100.0) * n as f64).floor() as usize;
    let percentile = if beyond(wanted) >= TAIL_SUPPORT {
        wanted
    } else {
        (100.0 * (1.0 - TAIL_SUPPORT as f64 / n as f64)).max(50.0)
    };
    (percentile, quantile(sorted, percentile / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn slice_median_and_iqr() {
        let six = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0];
        let s = spread(&six);
        assert_eq!(s.n, 6);
        assert_eq!(s.median, 100.5);
        // Quartiles of 98..104 sorted: q1 = 99.25, q3 = 101.75.
        assert!((s.iqr - 2.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]).iqr, 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, v) = supported_tail(&big, 99.0);
        assert_eq!(p, 99.0);
        assert!((v - 989.01).abs() < 1e-9);

        // 500 samples leave only 5 beyond p99: fall back to p98, which
        // leaves exactly ten.
        let mid: Vec<f64> = (0..500).map(f64::from).collect();
        let (p, _) = supported_tail(&mid, 99.0);
        assert!((p - 98.0).abs() < 1e-12);

        // A tiny sample never reports below its median.
        let tiny: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(supported_tail(&tiny, 99.0).0, 50.0);
        assert_eq!(supported_tail(&[], 99.0), (99.0, 0.0));
    }
}
