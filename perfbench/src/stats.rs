//! Small numeric helpers: order statistics, guarded ratios and the
//! peak-memory reading. Every derived figure the benchmark prints goes
//! through one of these, so their edge cases are tested once here.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks (the rule of numpy's default and of
/// `statistics.quantiles(..., method="inclusive")`). `None` when
/// `values` is empty or holds a NaN.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; see [`percentile`].
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// `num / den`, or 0.0 when the denominator is zero (the convention of
/// `CampaignStats::traced_fraction` and `cache_hit_ratio`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Useful work per attempt at `workers` workers: the 1-worker time over
/// the `workers`-worker time scaled by the worker count. 1.0 is perfect
/// scaling; 0.5 at 2 workers means the second worker bought nothing.
pub fn parallel_efficiency(t_1w: f64, t_nw: f64, workers: usize) -> f64 {
    ratio(t_1w, t_nw * workers as f64)
}

/// Relative cost of tracing: traced time over untraced time, minus 1.
/// 0.0 when the untraced time is zero.
pub fn overhead_fraction(traced: f64, untraced: f64) -> f64 {
    if untraced == 0.0 {
        0.0
    } else {
        traced / untraced - 1.0
    }
}

/// The part of a campaign call its phase histograms do not cover, in
/// seconds: `call_s − (golden_ms + detect_ms) / 1000`.
pub fn residual_s(call_s: f64, golden_ms: u64, detect_ms: u64) -> f64 {
    call_s - (golden_ms + detect_ms) as f64 / 1e3
}

/// Parses the `VmHWM` (peak resident set) line of a
/// `/proc/<pid>/status` body into kibibytes.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn median_and_percentile_of_nothing_is_none() {
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 0.9), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(50.0));
        assert_eq!(percentile(&v, 0.25), Some(20.0));
        assert_eq!(percentile(&v, 0.9), Some(46.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.75), Some(1.75));
        // Out-of-range quantiles clamp to the extremes.
        assert_eq!(percentile(&v, 2.0), Some(50.0));
        assert_eq!(percentile(&v, -1.0), Some(10.0));
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(parallel_efficiency(1.0, 0.5, 2), 1.0);
        assert_eq!(parallel_efficiency(0.3, 0.6, 2), 0.25);
        assert_eq!(parallel_efficiency(1.0, 0.0, 2), 0.0);
        assert_eq!(parallel_efficiency(1.0, 1.0, 0), 0.0);
        assert!((overhead_fraction(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(overhead_fraction(0.9, 0.0), 0.0);
    }

    #[test]
    fn residual_subtracts_millisecond_phases() {
        assert!((residual_s(1.0, 250, 500) - 0.25).abs() < 1e-12);
        assert_eq!(residual_s(0.5, 0, 0), 0.5);
    }

    #[test]
    fn vmhwm_parses_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(20480));
    }

    #[test]
    fn vmhwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vmhwm_kib("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t1024\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t1024 MB\n"), None);
        assert_eq!(parse_vmhwm_kib(""), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
