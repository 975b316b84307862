//! Order statistics over raw samples and over the program's
//! log-bucketed histograms, plus process memory.

use icrowd_obs::LogHistogram;

/// The `p`-quantile of `values` (`p` in `[0,1]`), interpolating
/// linearly between the two closest ranks. `0.0` for no values.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (`0.0` for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// p50 and p99 in microseconds of latencies in nanoseconds.
pub fn p50_p99_us(ns: &[u64]) -> [f64; 2] {
    let us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    [quantile(&us, 0.50), quantile(&us, 0.99)]
}

/// The `p`-quantile in microseconds of a histogram of nanoseconds.
pub fn hist_us(hist: &LogHistogram, p: f64) -> f64 {
    hist.percentile(p) as f64 / 1e3
}

/// Forgets this process's peak resident memory so far, so the next
/// [`peak_rss_mb`] reads the peak since now (Linux `clear_refs` 5).
/// Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn latency_percentiles_read_microseconds() {
        let ns: Vec<u64> = (1..=1_000).map(|i| i * 1_000).collect();
        let [p50, p99] = p50_p99_us(&ns);
        assert!((p50 - 500.5).abs() < 1e-9 && (p99 - 990.01).abs() < 1e-9);
        let mut h = LogHistogram::new();
        for &v in &ns {
            h.record(v);
        }
        assert!((hist_us(&h, 0.5) - 500.0).abs() < 5.0);
    }
}
