//! Benchmark-side spans: one record per call into a layer (name, start,
//! end, parent), kept in memory and written out when the run ends.
//!
//! A span's self time is its duration minus the part of its interval its
//! direct children cover; the self time of an op's root span is the
//! op's unattributed remainder.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed or open span. Times are seconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: Option<f64>,
}

impl Span {
    /// Duration in seconds (0.0 while still open).
    pub fn duration(&self) -> f64 {
        self.end.map_or(0.0, |e| e - self.start)
    }
}

/// An append-only span log for one process.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Opens a span now and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        self.push(name, parent, start, None)
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.epoch.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end = Some(now);
        span.duration()
    }

    /// Records a span with the given bounds (`None` = still open).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: f64,
        end: Option<f64>,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    /// Span `id`'s duration minus the union of its direct children's
    /// intervals, each clipped to the parent's interval.
    pub fn self_time(&self, id: usize) -> f64 {
        let parent = &self.spans[id];
        let Some(end) = parent.end else {
            return 0.0;
        };
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .filter_map(|s| Some((s.start.max(parent.start), s.end?.min(end))))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = parent.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent.duration() - covered
    }

    /// Per layer name: (number of spans, total duration, total self
    /// time), sorted by name.
    pub fn layer_totals(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut totals: std::collections::BTreeMap<&'static str, (usize, f64, f64)> =
            std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.end.is_some()) {
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.duration();
            t.2 += self.self_time(s.id);
        }
        totals
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total, own))
            .collect()
    }

    /// One JSON object per closed span: id, parent, layer name, start,
    /// end and self time in seconds.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let Some(end) = s.end else { continue };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{end},\"self_s\":{}}}",
                s.id,
                s.name,
                s.start,
                self.self_time(s.id)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        let op = log.push("op", None, 0.0, Some(10.0));
        log.push("a", Some(op), 1.0, Some(3.0));
        log.push("b", Some(op), 4.0, Some(8.0));
        assert!(close(log.self_time(op), 4.0));
        assert!(close(log.self_time(1), 2.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut log = SpanLog::default();
        let op = log.push("op", None, 0.0, Some(10.0));
        log.push("a", Some(op), 1.0, Some(5.0));
        log.push("b", Some(op), 3.0, Some(6.0));
        log.push("c", Some(op), 2.0, Some(4.0));
        assert!(close(log.self_time(op), 5.0));
    }

    #[test]
    fn children_are_clipped_and_grandchildren_ignored() {
        let mut log = SpanLog::default();
        let op = log.push("op", None, 2.0, Some(6.0));
        let a = log.push("a", Some(op), 1.0, Some(3.0));
        log.push("a.inner", Some(a), 1.5, Some(2.5));
        log.push("b", Some(op), 5.0, Some(9.0));
        assert!(close(log.self_time(op), 2.0));
        assert!(close(log.self_time(a), 1.0));
    }

    #[test]
    fn open_spans_have_no_self_time_and_are_not_written() {
        let mut log = SpanLog::default();
        let op = log.push("op", None, 0.0, None);
        assert_eq!(log.self_time(op), 0.0);
        assert!(log.to_jsonl().is_empty());
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut log = SpanLog::default();
        let op = log.begin("op", None);
        let child = log.begin("child", Some(op));
        let d_child = log.end(child);
        let d_op = log.end(op);
        assert!(d_op >= d_child && d_child >= 0.0);
        assert!(log.self_time(op) >= 0.0);
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"child\""));
        assert!(jsonl.contains("\"parent\":0"));
        assert!(jsonl.contains("\"parent\":null"));
        let totals = log.layer_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "child");
    }
}
