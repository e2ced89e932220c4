//! Order statistics over recorded samples.
//!
//! Every latency quantile the benchmark prints is an exact order statistic
//! of the samples it recorded. `obs::Histogram` reports the midpoint of a
//! log bucket (four per octave), so two runs whose true quantile sits on
//! either side of a bucket edge read a whole bucket width apart; a gate on
//! such a number moves when the code does not.

/// Percentiles tried, highest first, for the tail diagnostic.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The `q`-quantile of ascending `sorted`: the `ceil(q·n)`-th smallest
/// sample, the rank rule `obs::HistogramSnapshot::quantile` also uses, but
/// returning the sample itself rather than its bucket's midpoint.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of `values` in any order (the mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact latency summary of one set of request samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    /// Samples recorded (failed requests included, as `+inf`).
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it: `(percentile, value,
    /// samples beyond)`. A diagnostic only; never gated.
    pub tail: Option<(f64, f64, usize)>,
}

/// Summarizes `samples`. A failed or refused request is recorded as
/// `f64::INFINITY`, so it misses every latency limit.
pub fn latency(samples: &[f64]) -> Latency {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1], beyond))
    });
    Latency {
        n,
        p50: quantile(&sorted, 0.5),
        p90: quantile(&sorted, 0.9),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motivo::obs::hist::{bucket_index, bucket_lower};
    use motivo::obs::Histogram;

    #[test]
    fn p50_on_a_histogram_bucket_edge_comes_back_exactly() {
        // 1280 ns is the lower edge of the second sub-bucket of the
        // 1024 ns octave; it is the 3rd of 5 samples, so the median.
        let edge = 1280u64;
        assert_eq!(bucket_lower(bucket_index(edge)), edge);
        let ns = [1100u64, 1200, edge, 1500, 1530];
        let hist = Histogram::new();
        for &x in &ns {
            hist.record(x);
        }
        let samples: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
        let l = latency(&samples);
        assert_eq!(l.p50, edge as f64);
        assert_eq!(l.n, 5);
        // The histogram answers with its bucket's midpoint instead.
        assert_ne!(hist.quantile(0.5), edge);
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.9), 9.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 leaves 1 sample beyond, p95 leaves 5, p90 leaves 10.
        assert_eq!(latency(&samples).tail, Some((90.0, 90.0, 10)));
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(latency(&samples).tail, Some((99.0, 1980.0, 20)));
        assert_eq!(latency(&[1.0; 5]).tail, None);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let mut samples = vec![1.0; 9];
        samples.push(f64::INFINITY);
        samples.push(f64::INFINITY);
        let l = latency(&samples);
        assert_eq!(l.p50, 1.0);
        assert_eq!(l.p90, f64::INFINITY);
    }
}
