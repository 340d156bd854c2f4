//! The benchmark's own arithmetic: order statistics, percentile support,
//! error metrics, `VmHWM` parsing and metric-name validation. Everything
//! here is pure so the self-tests can pin it.

/// A metric row: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// Percentiles a latency report may quote, highest first.
pub const PERCENTILE_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Fewest samples that must lie above a quoted percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// product is nudged down by a relative 1e-12 so that decimal percentiles
/// such as 99.9 land on the exact rank despite binary rounding.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let x = p / 100.0 * n as f64;
    ((x * (1.0 - 1e-12)).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile (nearest-rank) of `samples`; `NaN` when empty.
/// Reorders `samples`.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let k = nearest_rank(samples.len(), p) - 1;
    let (_, v, _) = samples.select_nth_unstable_by(k, f64::total_cmp);
    *v
}

/// The median of `samples` (nearest-rank); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 50.0)
}

/// Number of samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least
/// [`MIN_SAMPLES_BEYOND`] samples above it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Mean absolute relative error in percent over `(predicted, measured)`
/// pairs; `NaN` when empty.
pub fn mean_abs_rel_error_pct(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = pairs.iter().map(|(p, m)| ((p - m) / m).abs()).sum();
    sum / pairs.len() as f64 * 100.0
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Whether `name` is a valid metric name: non-empty, starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Relative change of `new` against `base`, in percent.
pub fn delta_pct(new: f64, base: f64) -> f64 {
    (new - base) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
        assert!(percentile(&mut [], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn relative_error_is_a_mean_of_percentages() {
        let pairs = [(1.1, 1.0), (0.8, 1.0), (2.0, 2.0)];
        assert!((mean_abs_rel_error_pct(&pairs) - 10.0).abs() < 1e-12);
        assert!(mean_abs_rel_error_pct(&[]).is_nan());
        assert!((delta_pct(90.0, 100.0) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "latency_p99_us",
            "core.plan.sweep_ns",
            "serve.tcp.self_ns",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }
}
