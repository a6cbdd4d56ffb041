//! Sample statistics and process memory readings.

/// How many samples must lie beyond a tail percentile before it is
/// reported: below this, the "p99" of a run is one or two outliers.
const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above it (1000 samples support a p99;
/// 999 do not).
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| s[rank - 1])
}

/// Lowers each entry of `best` to the matching one of `xs`, or takes
/// `xs` when `best` is empty: over repeats of the same work, `best` holds
/// each part at its fastest. Returns false, changing nothing, when the
/// lengths differ (the repeat did not do the same work).
pub fn min_into(best: &mut Vec<f64>, xs: &[f64]) -> bool {
    if best.is_empty() {
        best.extend_from_slice(xs);
    } else if best.len() == xs.len() {
        for (b, x) in best.iter_mut().zip(xs) {
            *b = b.min(*x);
        }
    } else {
        return false;
    }
    true
}

/// Minimum, median and maximum of a metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            median: median(&s),
            max: s[s.len() - 1],
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A `/proc/self/status` field in MiB (`VmRSS`, `VmHWM`), or 0 where
/// the file does not exist.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some(990.0));
        assert_eq!(tail(&xs[..999], 0.99), None);
        let ys: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&ys, 0.5), Some(10.0));
        assert_eq!(tail(&ys, 0.55), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn min_into_keeps_each_parts_fastest_repeat() {
        let mut best = Vec::new();
        assert!(min_into(&mut best, &[3.0, 1.0, 2.0]));
        assert!(min_into(&mut best, &[1.0, 4.0, 2.5]));
        assert!(!min_into(&mut best, &[1.0, 1.0]));
        assert_eq!(best, [1.0, 1.0, 2.0]);
    }

    #[test]
    fn summary_orders_samples() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (4, 1.0, 2.5, 10.0));
    }

    #[test]
    fn reads_own_peak_rss() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(status_mib("VmHWM") > 0.0);
            assert!(status_mib("VmHWM") >= status_mib("VmRSS"));
        }
    }
}
