//! Summary statistics for repeated experiment trials.

/// Mean / min / max / standard deviation over a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub std: f64,
}

impl Summary {
    /// Summarize a sample; empty samples give a zeroed summary.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                std: 0.0,
            };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            min,
            max,
            std: var.sqrt(),
        }
    }
}

/// Nearest-rank percentile (`p ∈ [0, 100]`) of a sample — the serving
/// binaries report p50/p99/p999 latency with this. Empty samples give 0.
///
/// The implementation lives in [`psh_core::service`] (the serving layer's
/// [`ServiceStats`](psh_core::service::ServiceStats) computes its
/// percentiles with the same function); this re-export keeps the
/// historical `psh_bench::stats::percentile` path — and its tests —
/// working.
pub use psh_core::service::percentile;

/// Log-log regression slope of `y` against `x` — the tool for checking the
/// paper's size exponents (`n^{1+1/k}` shows up as slope `1 + 1/k`).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points for a slope");
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constants() {
        let s = Summary::of(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.std > 1.0 && s.std < 1.2);
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // order independence
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn loglog_slope_recovers_exponent() {
        // y = 3 x^1.5
        let pts: Vec<(f64, f64)> = (1..=10)
            .map(|i| {
                let x = (i * 100) as f64;
                (x, 3.0 * x.powf(1.5))
            })
            .collect();
        let slope = loglog_slope(&pts);
        assert!((slope - 1.5).abs() < 1e-9, "slope {slope}");
    }
}
