//! Sample statistics: medians, nearest-rank percentiles, and the tail rule
//! (report the highest percentile that still has ten samples beyond it).

/// Candidate tail percentiles, lowest first.
const TAILS: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count), `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Mean of the middle half of `xs`: a quarter of the samples (rounded
/// down) dropped from each end. Unlike the median it moves smoothly with
/// the share of samples in each of two clusters, so a sample split
/// between a fast and a slow host state cannot jump from one to the
/// other; like the median it ignores the odd stall. `None` when empty.
pub fn interquartile_mean(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    (!mid.is_empty()).then(|| mid.iter().sum::<f64>() / mid.len() as f64)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// offset keeps float error from pushing an exact rank (99.9% of 10000
/// computes as 9990.000000000002) up by one.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `p` of an ascending sample; `None` when empty.
/// Failed requests enter as `f64::INFINITY`, so they count as missing
/// any limit put on the percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// The highest percentile in [`TAILS`] with at least [`MIN_BEYOND`]
/// samples ranked above it, for a sample of `n`; `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAILS.iter().copied().rfind(|&p| n - rank(p, n) >= MIN_BEYOND)
}

/// A latency sample summarised the way the benchmark reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: Option<f64>,
    /// `(percentile, value)` from [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

/// Summarise `xs` (any order). `p99` is present only when the sample
/// leaves ten values beyond it.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = percentile(&v, 50.0)?;
    let tail = tail_percentile(v.len()).and_then(|p| Some((p, percentile(&v, p)?)));
    let p99 = tail.filter(|&(p, _)| p >= 99.0).and_then(|_| percentile(&v, 99.0));
    Some(Summary { count: v.len(), p50, p99, tail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), Some(2.5));
        assert_eq!(interquartile_mean(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
        // Between two clusters the median jumps; this moves by one step.
        let split = |fast: usize| {
            let xs: Vec<f64> = (0..20).map(|i| if i < fast { 24.0 } else { 34.0 }).collect();
            (median(&xs).unwrap(), interquartile_mean(&xs).unwrap())
        };
        let ((m9, q9), (m11, q11)) = (split(9), split(11));
        assert_eq!(m9 - m11, 10.0);
        assert!((q9 - q11 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 above it;
        // p99.9 would leave 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One short of that, p99 leaves 9 and the rule falls back to p90.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_states_count_and_withholds_unsupported_p99() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.count, s.p50, s.p99), (1000, 500.0, Some(990.0)));
        assert_eq!(s.tail, Some((99.0, 990.0)));

        let s = summarize(&xs[..500]).unwrap();
        assert_eq!(s.p99, None, "500 samples leave only 5 beyond p99");
        assert_eq!(s.tail, Some((90.0, 450.0)));
    }

    #[test]
    fn failures_count_as_over_any_limit() {
        let mut xs: Vec<f64> = vec![100.0; 980];
        xs.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let s = summarize(&xs).unwrap();
        assert_eq!(s.p99, Some(f64::INFINITY));
        assert_eq!(s.p50, 100.0);
    }
}
