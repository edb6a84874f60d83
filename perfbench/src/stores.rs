//! Benchmark-side [`ResultStore`] wrappers: one prepares resumable
//! stores outside the timed region, the other times the store layer
//! inside a traced durable campaign.

use rescue_campaign::{ClaimOutcome, ContentHash, ResultStore, UnitRecord};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A write-only store that publishes about half of a campaign's units
/// (those whose id has a clear low bit) into every target store, so each
/// target resumes the same half-finished campaign.
pub struct HalfFill<'a> {
    targets: Vec<&'a dyn ResultStore>,
}

impl<'a> HalfFill<'a> {
    pub fn new(targets: Vec<&'a dyn ResultStore>) -> Self {
        HalfFill { targets }
    }

    fn keeps(id: ContentHash) -> bool {
        id.0 & 1 == 0
    }
}

impl ResultStore for HalfFill<'_> {
    fn get(&self, _id: ContentHash) -> Option<UnitRecord> {
        None
    }

    fn put(&self, id: ContentHash, record: &UnitRecord) {
        if Self::keeps(id) {
            for t in &self.targets {
                t.put(id, record);
            }
        }
    }

    fn claim(&self, _id: ContentHash) -> ClaimOutcome {
        ClaimOutcome::Acquired
    }

    fn release(&self, _id: ContentHash) {}

    fn completed_units(&self) -> usize {
        0
    }
}

/// Forwards to `inner` and accumulates the wall-clock spent in `get`,
/// `put` and `claim`, summed over all calling workers.
pub struct TimedStore<'a> {
    inner: &'a dyn ResultStore,
    get_ns: AtomicU64,
    put_ns: AtomicU64,
    claim_ns: AtomicU64,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: &'a dyn ResultStore) -> Self {
        TimedStore {
            inner,
            get_ns: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
            claim_ns: AtomicU64::new(0),
        }
    }

    /// Seconds spent in (`get`, `put`, `claim`) so far.
    pub fn seconds(&self) -> (f64, f64, f64) {
        let s = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
        (s(&self.get_ns), s(&self.put_ns), s(&self.claim_ns))
    }

    fn timed<T>(acc: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        acc.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl ResultStore for TimedStore<'_> {
    fn get(&self, id: ContentHash) -> Option<UnitRecord> {
        Self::timed(&self.get_ns, || self.inner.get(id))
    }

    fn put(&self, id: ContentHash, record: &UnitRecord) {
        Self::timed(&self.put_ns, || self.inner.put(id, record))
    }

    fn claim(&self, id: ContentHash) -> ClaimOutcome {
        Self::timed(&self.claim_ns, || self.inner.claim(id))
    }

    fn release(&self, id: ContentHash) {
        self.inner.release(id)
    }

    fn break_stale_claims(&self) -> usize {
        self.inner.break_stale_claims()
    }

    fn completed_units(&self) -> usize {
        self.inner.completed_units()
    }

    fn root_dir(&self) -> Option<&Path> {
        self.inner.root_dir()
    }
}
