//! Order statistics shared by every workload: medians, the tail helper,
//! and the peak-resident-memory probe.

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples beyond it, with the percentile it sits at and
/// the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Its percentile, in percent (`100.0` when the sample is too small
    /// to leave [`TAIL_BEYOND`] samples beyond any order statistic).
    pub percentile: f64,
    /// Number of samples the statistic was taken from.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `samples` ascending (NaN-free input).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// The median (mean of the two middle values for an even count); `0.0`
/// for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `samples`: the order statistic with exactly
/// [`TAIL_BEYOND`] samples above it, i.e. the `(n - 10) / n` percentile.
/// A sample of at most ten values reports its maximum at percentile 100.
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - TAIL_BEYOND; // 1-based rank of the reported value
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one) in
/// MiB, from the `VmHWM` line of `/proc/<pid>/status`; `None` where the
/// file is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.samples, 3);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten).value, 10.0);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        let beyond = thousand.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        let big: Vec<f64> = (0..100_000).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!(t.percentile, 99.99);
        assert_eq!(big.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mb = peak_rss_mb("self").expect("procfs is mounted");
        assert!(mb > 0.0);
    }
}
