//! Process-wide metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s
//! around atomics: look one up once per worker (`counter("fault.x")`
//! takes the registry lock), then mutate it lock-free on the hot path.
//! Every mutation first checks the global enable switch, so a disabled
//! process pays one relaxed load per call site.
//!
//! [`snapshot`] freezes the whole registry into a
//! [`MetricsSnapshot`] — a plain, `PartialEq`-comparable value sorted
//! by metric name, so two runs of the same seeded campaign can be
//! compared structurally and rendered as markdown.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing named counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while telemetry is disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge holding the most recent value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Stores `v` (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    /// Inclusive upper bounds, strictly increasing; one overflow bucket
    /// past the last bound.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// Records one sample (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let c = &self.0;
        let idx = c.bounds.partition_point(|&b| b < v);
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.total.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// The counter named `name`, created on first use.
pub fn counter(name: &'static str) -> Counter {
    lock()
        .counters
        .entry(name)
        .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
        .clone()
}

/// The gauge named `name`, created on first use.
pub fn gauge(name: &'static str) -> Gauge {
    lock()
        .gauges
        .entry(name)
        .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
        .clone()
}

/// The histogram named `name`, created on first use with the given
/// inclusive bucket upper `bounds` (strictly increasing; an overflow
/// bucket is appended automatically). Later callers get the existing
/// histogram regardless of the bounds they pass.
///
/// # Panics
///
/// Panics when creating a histogram with empty or non-increasing
/// bounds.
pub fn histogram(name: &'static str, bounds: &[u64]) -> Histogram {
    lock()
        .histograms
        .entry(name)
        .or_insert_with(|| {
            assert!(!bounds.is_empty(), "histogram needs at least one bound");
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "histogram bounds must be strictly increasing"
            );
            Histogram(Arc::new(HistCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        })
        .clone()
}

/// Power-of-two bounds `1, 2, 4, … 2^(n-1)` — the default shape for
/// size-like metrics (cone sizes, undo depths).
pub fn pow2_bounds(n: usize) -> Vec<u64> {
    (0..n as u32).map(|i| 1u64 << i).collect()
}

/// Peak resident set size of this process in bytes: `VmHWM` from
/// `/proc/self/status`. `None` where that file cannot be read or parsed
/// (hosts without procfs).
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vmhwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in bytes.
fn parse_vmhwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then(|| kib.saturating_mul(1024))
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts[bounds.len()]` is overflow.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub total: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (`u64::MAX` for the overflow bucket, 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// Frozen, name-sorted state of the whole registry; `PartialEq` so two
/// runs can be compared structurally.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// State of a histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a markdown section (one table per metric
    /// class), reused by the flow sign-off report.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            let _ = writeln!(s, "| metric | value |");
            let _ = writeln!(s, "|---|---|");
            for (name, v) in &self.counters {
                let _ = writeln!(s, "| {name} | {v} |");
            }
            for (name, v) in &self.gauges {
                let _ = writeln!(s, "| {name} (gauge) | {v} |");
            }
            let _ = writeln!(s);
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(s, "| histogram | samples | mean | p50 | p99 |");
            let _ = writeln!(s, "|---|---|---|---|---|");
            for (name, h) in &self.histograms {
                let p99 = h.quantile(0.99);
                let p99 = if p99 == u64::MAX {
                    format!("> {}", h.bounds.last().copied().unwrap_or(0))
                } else {
                    format!("{p99}")
                };
                let _ = writeln!(
                    s,
                    "| {name} | {} | {:.1} | {} | {p99} |",
                    h.total,
                    h.mean(),
                    h.quantile(0.5),
                );
            }
        }
        s
    }
}

/// Freezes the current registry state.
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock();
    MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(n, g)| (n.to_string(), g.get()))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(n, h)| {
                (
                    n.to_string(),
                    HistogramSnapshot {
                        bounds: h.0.bounds.clone(),
                        counts: h
                            .0
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        total: h.0.total.load(Ordering::Relaxed),
                        sum: h.0.sum.load(Ordering::Relaxed),
                    },
                )
            })
            .collect(),
    }
}

/// Zeroes every registered metric (handles stay valid).
pub fn reset() {
    let reg = lock();
    for c in reg.counters.values() {
        c.0.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.values() {
        g.0.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.values() {
        for b in &h.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.0.total.store(0, Ordering::Relaxed);
        h.0.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    #[test]
    fn counters_and_gauges_respect_the_enable_switch() {
        let _serial = crate::exclusive();
        let c = counter("test.switch_counter");
        let g = gauge("test.switch_gauge");
        TelemetryConfig::off().install();
        c.add(5);
        g.set(7);
        assert_eq!(c.get(), 0, "disabled: counter untouched");
        assert_eq!(g.get(), 0, "disabled: gauge untouched");
        TelemetryConfig::on().install();
        c.add(5);
        c.incr();
        g.set(7);
        TelemetryConfig::off().install();
        assert_eq!(c.get(), 6);
        assert_eq!(g.get(), 7);
        reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn vmhwm_parses_kib_lines_only() {
        let status = "Name:\tx\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm(status), Some(20480 * 1024));
        assert_eq!(parse_vmhwm("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\t1024\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\t1024 MB\n"), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _serial = crate::exclusive();
        TelemetryConfig::on().install();
        let h = histogram("test.hist", &[1, 2, 4, 8]);
        for v in [0u64, 1, 2, 3, 4, 9, 100] {
            h.record(v);
        }
        let snap = snapshot();
        TelemetryConfig::off().install();
        let hs = snap.histogram("test.hist").expect("registered");
        assert_eq!(hs.total, 7);
        assert_eq!(hs.sum, 119);
        // Buckets: <=1: {0,1}; <=2: {2}; <=4: {3,4}; <=8: {}; overflow: {9,100}.
        assert_eq!(hs.counts, vec![2, 1, 2, 0, 2]);
        assert_eq!(hs.quantile(0.5), 4);
        assert_eq!(hs.quantile(1.0), u64::MAX, "overflow bucket");
        assert!(hs.mean() > 16.0);
        reset();
    }

    #[test]
    fn snapshot_is_structurally_comparable() {
        let _serial = crate::exclusive();
        TelemetryConfig::on().install();
        reset();
        let c = counter("test.cmp");
        c.add(3);
        let a = snapshot();
        let b = snapshot();
        c.add(1);
        let d = snapshot();
        TelemetryConfig::off().install();
        assert_eq!(a, b);
        assert_ne!(a, d);
        assert_eq!(a.counter("test.cmp"), Some(3));
        assert!(a.to_markdown().contains("| test.cmp | 3 |"));
        reset();
    }

    #[test]
    fn pow2_bounds_shape() {
        assert_eq!(pow2_bounds(4), vec![1, 2, 4, 8]);
    }
}
