//! Event-driven single-fault propagation over the compiled arena.
//!
//! The hot path of every stuck-at campaign is "given the chunk's golden
//! words, which patterns see this fault at an output?". The classic
//! answer re-simulates the whole netlist per fault (the oracle in
//! [`crate::reference`]); this engine instead:
//!
//! 1. **flips** the fault site over a scratch value array that equals the
//!    chunk's golden words everywhere;
//! 2. **propagates events by level**: every combinational (non-DFF)
//!    fanout of a gate whose value changed is pushed into a per-level
//!    bucket held in the scratch ([`WideScratch`]), deduplicated by an
//!    event stamp, and the buckets are evaluated upward from the site's
//!    level. A gate is evaluated only after every fanin at a lower level
//!    settled, so it reads final values, and only gates with a changed
//!    fanin are ever evaluated;
//! 3. **stops** when no event is pending, or when every lane has already
//!    reached an output;
//! 4. **undoes** its writes through a touched list, so the scratch array
//!    is golden again without an `O(gates)` copy or a fresh allocation.
//!
//! Nothing is precomputed per fault site: the walk costs O(events), not
//! O(cone), and a campaign's only setup is one O(gates + edges)
//! PO-reachability sweep ([`Detector`]). Verdicts are bit-identical to
//! full resimulation: gates outside the combinational fanout cone cannot
//! change (DFF outputs hold 0 in packed word evaluation, so events stop
//! at DFF `D`-pins within a chunk), and changed gates are evaluated with
//! the same kernels in a topological order.
//!
//! # PPSFP: one walk per site
//!
//! [`Detector::detect_packed`] is the parallel-pattern single-fault
//! propagation (PPSFP, Waicukauski et al. 1985) detection path, built on
//! two exact reductions:
//!
//! * **Observability factoring** — bit lanes of word evaluation never
//!   interact, so one walk with the root *flipped on all lanes* computes,
//!   per lane, whether a root flip reaches a primary output (the
//!   observability word `O`). Every stuck-at fault at the site is then
//!   `O & excitation`, where the excitation word (lanes on which the
//!   fault actually flips the root) is one gate evaluation at most.
//!   sa0, sa1 and all pin faults of a site share a single walk.
//! * **Static observability pruning** — a site from which no primary
//!   output is reachable can never be detected; its faults are answered
//!   with `0` without any walk ([`Detector::observable`]). The same
//!   reverse-topological sweep restricts every packed walk to
//!   PO-reachable gates: a gate that cannot reach an output cannot feed
//!   one either, so events never enter it.
//!
//! [`detect_observed`] runs the same propagation unrestricted, observing
//! two arbitrary gate groups instead of the primary outputs.
//!
//! Equivalence with the full-resimulation oracle
//! ([`crate::reference::ReferenceFaultSimulator`]) is enforced by
//! property tests in `tests/ppsfp_equivalence.rs`.

use crate::model::{Fault, FaultSite};
use rescue_netlist::GateKind;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::SimWord;
use rescue_telemetry::metrics;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// PO-reachability for every gate in one reverse-topological sweep: a
/// gate is reachable when it drives a primary output or any non-DFF
/// fanout is reachable. Sources (Input/Dff outputs) sit outside
/// eval_order and close the pass — their fanouts are combinational gates
/// the sweep already settled.
pub fn po_reachable(compiled: &CompiledNetlist) -> Vec<bool> {
    let n = compiled.len();
    let mut reachable = vec![false; n];
    for (g, r) in reachable.iter_mut().enumerate() {
        *r = compiled.is_po(g);
    }
    for &g in compiled.eval_order().iter().rev() {
        let gi = g as usize;
        if !reachable[gi] {
            reachable[gi] = compiled
                .fanout_of(gi)
                .iter()
                .any(|&s| compiled.kind(s as usize) != GateKind::Dff && reachable[s as usize]);
        }
    }
    for g in 0..n {
        if !reachable[g] && matches!(compiled.kind(g), GateKind::Input | GateKind::Dff) {
            reachable[g] = compiled
                .fanout_of(g)
                .iter()
                .any(|&s| compiled.kind(s as usize) != GateKind::Dff && reachable[s as usize]);
        }
    }
    reachable
}

/// Designs below this size take the serial [`po_reachable`] path even
/// when workers are available — thread startup would dominate.
const PARALLEL_SWEEP_MIN: usize = 1 << 15;

/// [`po_reachable`] sharded across `workers` threads.
///
/// Gates are bucketed by logic level (counting sort); workers then sweep
/// levels in descending order with a barrier between rounds. A gate's
/// verdict depends only on combinational fanouts, which always sit at
/// strictly higher levels, so every read within a round observes values
/// settled by earlier rounds. Reachability is the unique fixpoint of the
/// per-gate formula, hence the result is identical to the serial sweep
/// for any worker count.
pub fn po_reachable_with(compiled: &CompiledNetlist, workers: usize) -> Vec<bool> {
    let n = compiled.len();
    let w = workers.max(1);
    if w == 1 || n < PARALLEL_SWEEP_MIN {
        return po_reachable(compiled);
    }
    let depth = compiled.depth() as usize;
    let mut offsets = vec![0u32; depth + 2];
    for g in 0..n {
        offsets[compiled.level(g) as usize + 1] += 1;
    }
    for l in 0..=depth {
        offsets[l + 1] += offsets[l];
    }
    let mut level_gates = vec![0u32; n];
    let mut cursor: Vec<u32> = offsets[..=depth].to_vec();
    for g in 0..n {
        let l = compiled.level(g) as usize;
        level_gates[cursor[l] as usize] = g as u32;
        cursor[l] += 1;
    }
    let reachable: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let barrier = Barrier::new(w);
    std::thread::scope(|s| {
        for wi in 0..w {
            let (reachable, barrier) = (&reachable, &barrier);
            let (level_gates, offsets) = (&level_gates, &offsets);
            s.spawn(move || {
                for lvl in (0..=depth).rev() {
                    let lo = offsets[lvl] as usize;
                    let hi = offsets[lvl + 1] as usize;
                    let len = hi - lo;
                    let chunk = len.div_ceil(w).max(1);
                    let start = lo + (wi * chunk).min(len);
                    let end = lo + ((wi + 1) * chunk).min(len);
                    for &g in &level_gates[start..end] {
                        let gi = g as usize;
                        // Same formula as the serial sweep. Relaxed
                        // suffices: the barrier orders rounds, and
                        // within a round only higher-level (already
                        // settled) entries are read.
                        let r = compiled.is_po(gi)
                            || compiled.fanout_of(gi).iter().any(|&s| {
                                compiled.kind(s as usize) != GateKind::Dff
                                    && reachable[s as usize].load(Ordering::Relaxed)
                            });
                        if r {
                            reachable[gi].store(true, Ordering::Relaxed);
                        }
                    }
                    barrier.wait();
                }
            });
        }
    });
    reachable.into_iter().map(AtomicBool::into_inner).collect()
}

/// The packed detection engine of one design: its per-gate
/// PO-reachability bits, computed once per campaign and shared read-only
/// by all workers (the per-fault state lives in [`WideScratch`]). Any
/// fault site of the design can be queried; nothing depends on a fault
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detector {
    /// Per gate: whether the gate drives a primary output or reaches one
    /// through combinational fanout.
    observable: Vec<bool>,
}

impl Detector {
    /// The detector of `compiled` (one serial reachability sweep).
    pub fn new(compiled: &CompiledNetlist) -> Self {
        Self::with_workers(compiled, 1)
    }

    /// [`Detector::new`] with the reachability sweep sharded across
    /// `workers` threads ([`po_reachable_with`]); identical for any
    /// worker count.
    pub fn with_workers(compiled: &CompiledNetlist, workers: usize) -> Self {
        Detector {
            observable: po_reachable_with(compiled, workers),
        }
    }

    /// Whether gate `g` drives a primary output or reaches one through
    /// combinational fanout. Faults at unobservable sites can never be
    /// detected, so the packed paths answer them without a walk.
    #[inline]
    pub fn observable(&self, g: usize) -> bool {
        self.observable[g]
    }

    /// Excitation word of `fault`: the patterns (bit `p`) on which the
    /// fault flips its root gate's output away from golden. At most one
    /// gate evaluation (pin faults); output faults are a compare.
    ///
    /// # Panics
    ///
    /// Panics on non-stuck-at kinds.
    #[inline]
    pub fn excitation_word<Wd: SimWord>(
        compiled: &CompiledNetlist,
        golden: &[Wd],
        fault: Fault,
    ) -> Wd {
        fault_value(compiled, golden, fault) ^ golden[fault.site().gate().index()]
    }

    /// Observability word of `root` over the chunk whose golden values
    /// are `golden`: bit `p` is set iff flipping `root`'s value on
    /// pattern `p` changes at least one primary output on pattern `p`.
    ///
    /// One event-driven walk with the root flipped on **all lanes**:
    /// because word evaluation is bitwise, lane `p` of every downstream
    /// gate equals a per-pattern resimulation with the root flipped on
    /// pattern `p` alone — so a single walk yields every per-pattern
    /// observability at once. Events enter PO-reachable gates only. Once
    /// every lane has reached an output (`mask == ONES`) the walk stops
    /// early — the mask can only grow. `scratch.val` must equal `golden`
    /// on entry and is restored before returning.
    ///
    /// The result is cached in the scratch per `(chunk, root)`, so all
    /// faults of one site share one walk within a chunk.
    pub fn observability_packed<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut WideScratch<Wd>,
        root: usize,
    ) -> Wd {
        if scratch.obs_root == root as u32 {
            scratch.counters.obs_cache_hits += 1;
            return scratch.obs_word;
        }
        let mut mask = Wd::ZERO;
        scratch.propagate(
            compiled,
            golden,
            root,
            !golden[root],
            |s| {
                (self.observable[s] && compiled.kind(s) != GateKind::Dff)
                    .then(|| compiled.level(s) as usize)
            },
            |g, diff| {
                if compiled.is_po(g) {
                    mask |= diff;
                }
                mask == Wd::ONES
            },
        );
        scratch.counters.obs_walks += 1;
        scratch.obs_root = root as u32;
        scratch.obs_word = mask;
        mask
    }

    /// PPSFP detection mask of `fault` over the chunk whose golden
    /// values are `golden`: bit-identical to full resimulation
    /// ([`crate::reference::ReferenceFaultSimulator::detection_mask`]),
    /// sharing one observability walk across every fault of the
    /// site, skipping unexcited faults and statically unobservable
    /// sites without walking at all.
    ///
    /// Exactness: bit lanes of word evaluation are independent, so on
    /// every lane a stuck-at fault either leaves the root at golden (no
    /// output can change — the detection bit is 0) or flips it (the
    /// exact situation the all-lanes-flip observability walk computed).
    /// Hence `mask = observability & excitation`.
    ///
    /// `scratch.val` must equal `golden` on entry (use
    /// [`WideScratch::load_golden`] once per chunk) and is golden again
    /// on return.
    ///
    /// # Panics
    ///
    /// Panics on non-stuck-at kinds.
    pub fn detect_packed<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut WideScratch<Wd>,
        fault: Fault,
    ) -> Wd {
        scratch.counters.faults_evaluated += 1;
        let root = fault.site().gate().index();
        if !self.observable[root] {
            return Wd::ZERO;
        }
        let excitation = Self::excitation_word(compiled, golden, fault);
        if excitation.is_zero() {
            return Wd::ZERO; // not excited on any pattern of this chunk
        }
        scratch.counters.excitations += 1;
        self.observability_packed(compiled, golden, scratch, root) & excitation
    }
}

/// The value `fault` forces on its root gate's output over the chunk
/// whose golden values are `golden`.
///
/// # Panics
///
/// Panics on non-stuck-at kinds.
#[inline]
fn fault_value<Wd: SimWord>(compiled: &CompiledNetlist, golden: &[Wd], fault: Fault) -> Wd {
    let stuck = fault
        .kind()
        .stuck_value()
        .expect("stuck-at campaign requires stuck-at faults");
    let word = Wd::splat(stuck);
    let root = fault.site().gate().index();
    match fault.site() {
        FaultSite::Output(_) => word,
        FaultSite::Pin { pin, .. } => match compiled.kind(root) {
            GateKind::Input | GateKind::Dff => golden[root],
            _ => compiled.eval_word_pin_forced(root, golden, pin, word),
        },
    }
}

/// Two observer sets over the gate array, e.g. functional outputs vs
/// checker outputs in an ISO 26262 classification campaign.
///
/// Stored as a per-gate 2-bit membership map so the walk tests
/// membership in O(1) without hashing.
#[derive(Debug, Clone)]
pub struct ObserverGroups {
    member: Vec<u8>,
}

impl ObserverGroups {
    /// Builds the membership map for a design of `len` gates: `group_a`
    /// and `group_b` are observed gate indices (a gate may sit in both).
    pub fn new(len: usize, group_a: &[u32], group_b: &[u32]) -> Self {
        let mut member = vec![0u8; len];
        for &g in group_a {
            member[g as usize] |= 1;
        }
        for &g in group_b {
            member[g as usize] |= 2;
        }
        ObserverGroups { member }
    }

    #[inline]
    fn of(&self, g: usize) -> u8 {
        self.member[g]
    }
}

/// Detection of `fault` by event-driven propagation, observed at two
/// arbitrary gate sets instead of the primary outputs: returns
/// `(group_a_mask, group_b_mask)` — the patterns on which the fault
/// effect differs from golden at any gate of the respective group.
///
/// Events follow every combinational fanout (observers may sit off the
/// primary outputs, so no reachability pruning applies). Verdicts are
/// bit-identical to diffing a full faulty resimulation against golden at
/// the observer gates (the classification oracle): gates outside the
/// combinational fanout cone keep their golden value, so only the root
/// and the gates events reach can contribute.
///
/// # Panics
///
/// Panics on non-stuck-at kinds.
pub fn detect_observed<Wd: SimWord>(
    compiled: &CompiledNetlist,
    golden: &[Wd],
    scratch: &mut WideScratch<Wd>,
    fault: Fault,
    observers: &ObserverGroups,
) -> (Wd, Wd) {
    let root = fault.site().gate().index();
    let value = fault_value(compiled, golden, fault);
    scratch.counters.faults_evaluated += 1;
    if value == golden[root] {
        return (Wd::ZERO, Wd::ZERO);
    }
    scratch.counters.excitations += 1;
    let mut mask_a = Wd::ZERO;
    let mut mask_b = Wd::ZERO;
    scratch.propagate(
        compiled,
        golden,
        root,
        value,
        |s| (compiled.kind(s) != GateKind::Dff).then(|| compiled.level(s) as usize),
        |g, diff| {
            let m = observers.of(g);
            if m & 1 != 0 {
                mask_a |= diff;
            }
            if m & 2 != 0 {
                mask_b |= diff;
            }
            false
        },
    );
    (mask_a, mask_b)
}

/// Per-worker engine telemetry, accumulated as plain (non-atomic) field
/// increments on the per-fault hot path and flushed to the global
/// metrics registry at shard granularity via
/// [`ScratchCounters::flush_to_metrics`]. The fields are maintained
/// unconditionally — an untaken branch costs more than the add — so the
/// enabled/disabled telemetry paths stay identical inside the walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchCounters {
    /// Faults pushed through [`Detector::detect_packed`] /
    /// [`detect_observed`] (including unexcited ones).
    pub faults_evaluated: u64,
    /// Faults whose injected value differed from golden at the root.
    pub excitations: u64,
    /// Walks stopped with events still pending because every lane had
    /// already reached an output.
    pub horizon_exits: u64,
    /// Scratch cells restored through the touched-list undo log (the
    /// summed undo-list depth; divide by `excitations` for the mean).
    pub undo_writes: u64,
    /// Deepest single undo list seen.
    pub undo_depth_max: u64,
    /// Packed observability walks performed (one per live site per
    /// chunk on the PPSFP path).
    pub obs_walks: u64,
    /// Observability words served from the per-chunk site cache instead
    /// of walking (sa0/sa1/pin faults sharing their site's walk).
    pub obs_cache_hits: u64,
    /// Faults dropped from their campaign at the first detecting word.
    pub dropped: u64,
    /// Nets whose observability word was produced by critical-path
    /// tracing (per-edge sensitization, no event-driven walk) — one per
    /// net memoized per chunk on the tracing path.
    pub traced_nets: u64,
    /// Reconvergent-stem observability walks the tracing path fell back
    /// to (each shared by every fault in the stem's fanout-free region).
    pub stem_fallbacks: u64,
}

impl ScratchCounters {
    /// Adds the accumulated figures to the global `fault.*` metrics and
    /// zeroes the local counters. Call once per shard/chunk — never per
    /// fault — so the registry mutex stays off the hot path.
    pub fn flush_to_metrics(&mut self) {
        if rescue_telemetry::enabled() {
            metrics::counter("fault.faults_evaluated").add(self.faults_evaluated);
            metrics::counter("fault.excitations").add(self.excitations);
            metrics::counter("fault.horizon_exits").add(self.horizon_exits);
            metrics::counter("fault.undo_writes").add(self.undo_writes);
            metrics::counter("fault.obs_walks").add(self.obs_walks);
            metrics::counter("fault.obs_cache_hits").add(self.obs_cache_hits);
            metrics::counter("fault.dropped").add(self.dropped);
            metrics::counter("fault.traced_nets").add(self.traced_nets);
            metrics::counter("fault.stem_fallbacks").add(self.stem_fallbacks);
            metrics::histogram("fault.undo_depth_max", &metrics::pow2_bounds(16))
                .record(self.undo_depth_max);
        }
        *self = ScratchCounters::default();
    }
}

/// Reusable per-worker scratch: a value array mirroring the chunk
/// golden, the touched-list undo log, the event stamps and per-level
/// event buckets of the walk, and the per-chunk observability cache. No
/// allocation per fault once warm. Generic over the packed lane width;
/// [`FaultScratch`] is the 64-lane `u64` instantiation every
/// scalar-width campaign uses.
#[derive(Debug, Clone)]
pub struct WideScratch<Wd: SimWord> {
    val: Vec<Wd>,
    touched: Vec<u32>,
    /// Event stamps: `stamp[g] == walk_id` marks `g` as already queued
    /// in the current walk.
    stamp: Vec<u32>,
    walk_id: u32,
    /// Pending events of the current walk, one bucket per logic level
    /// ([`CompiledNetlist::level`]); every bucket is empty between
    /// walks, and keeps its capacity across them.
    buckets: Vec<Vec<u32>>,
    /// Bit `l` set iff `buckets[l]` holds events, so a walk jumps
    /// straight to the next pending level.
    pending: Vec<u64>,
    /// One-entry observability cache: the last walked root of the
    /// current chunk (`u32::MAX` = empty, reset by
    /// [`WideScratch::load_golden`]) and its observability word.
    obs_root: u32,
    obs_word: Wd,
    /// Golden-chunk tag of the value array (`u32::MAX` = untagged):
    /// [`WideScratch::load_chunk`] skips the full-design reload when the
    /// requested chunk is already resident. Crate-visible so
    /// [`crate::trace::TraceScratch`] can share the tag.
    pub(crate) loaded_chunk: u32,
    /// Engine telemetry accumulated by this worker (see
    /// [`ScratchCounters`]).
    pub counters: ScratchCounters,
}

/// The 64-lane `u64` [`WideScratch`].
pub type FaultScratch = WideScratch<u64>;

impl<Wd: SimWord> WideScratch<Wd> {
    /// Scratch for a design of `len` gates.
    pub fn new(len: usize) -> Self {
        WideScratch {
            val: vec![Wd::ZERO; len],
            touched: Vec::new(),
            stamp: vec![0; len],
            walk_id: 0,
            buckets: Vec::new(),
            pending: Vec::new(),
            obs_root: u32::MAX,
            obs_word: Wd::ZERO,
            loaded_chunk: u32::MAX,
            counters: ScratchCounters::default(),
        }
    }

    /// Loads a chunk's golden values (call once per chunk, not per fault).
    pub fn load_golden(&mut self, golden: &[Wd]) {
        self.val.copy_from_slice(golden);
        self.touched.clear();
        self.obs_root = u32::MAX;
        // Manual loads carry no chunk identity; only load_chunk tags.
        self.loaded_chunk = u32::MAX;
    }

    /// [`WideScratch::load_golden`] keyed by golden-chunk index: when
    /// `chunk` is the chunk already resident, the full-design reload —
    /// the dominant per-(fault-range, chunk) cost on warm campaigns —
    /// collapses to one tag compare, and the per-chunk observability
    /// cache stays warm too. Sound because every detect call restores
    /// `val == golden` through the touched-list undo before returning,
    /// so a matching tag proves the value array is still the chunk's
    /// golden image. `chunk` must not be `u32::MAX` (the untagged
    /// sentinel).
    pub fn load_chunk(&mut self, chunk: u32, golden: &[Wd]) {
        debug_assert_ne!(chunk, u32::MAX, "u32::MAX is the untagged sentinel");
        if self.loaded_chunk == chunk {
            return;
        }
        self.load_golden(golden);
        self.loaded_chunk = chunk;
    }

    /// A fresh stamp value, clearing the stamp array on the (once per
    /// 2^32 walks) wrap so stale stamps can never alias.
    fn next_walk_id(&mut self) -> u32 {
        if self.walk_id == u32::MAX {
            self.walk_id = 0;
            self.stamp.fill(0);
        }
        self.walk_id += 1;
        self.walk_id
    }

    /// Writes `value` at `root` and propagates the change through the
    /// combinational fanout by level, then restores golden.
    ///
    /// `enter(s)` admits fanout `s` as an event target by returning its
    /// logic level, or refuses it with `None` (it must refuse DFF
    /// consumers: effects stop at `D`-pins within a chunk). `changed(g,
    /// diff)` sees every gate whose value left golden — the root first —
    /// with its difference word, and returns `true` to stop the walk.
    fn propagate(
        &mut self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        root: usize,
        value: Wd,
        enter: impl Fn(usize) -> Option<usize>,
        mut changed: impl FnMut(usize, Wd) -> bool,
    ) {
        let depth = compiled.depth() as usize;
        if self.buckets.len() <= depth {
            self.buckets.resize_with(depth + 1, Vec::new);
            self.pending.resize(depth / 64 + 1, 0);
        }
        let id = self.next_walk_id();
        let WideScratch {
            val,
            touched,
            stamp,
            buckets,
            pending,
            counters,
            ..
        } = self;
        // Queues every admitted, not yet queued fanout of `g` in its
        // level's bucket and marks the level pending.
        let schedule =
            |g: usize, stamp: &mut [u32], buckets: &mut [Vec<u32>], pending: &mut [u64]| {
                for &s in compiled.fanout_of(g) {
                    let si = s as usize;
                    let Some(l) = enter(si) else { continue };
                    if stamp[si] != id {
                        stamp[si] = id;
                        buckets[l].push(s);
                        pending[l / 64] |= 1 << (l % 64);
                    }
                }
            };
        val[root] = value;
        touched.push(root as u32);
        let mut stop = changed(root, value ^ golden[root]);
        if !stop {
            schedule(root, stamp, buckets, pending);
        }
        // Events only ever enter levels above the one being evaluated, so
        // the lowest pending level is the next to run and the scan never
        // moves back down.
        let mut word = compiled.level(root) as usize / 64;
        while word < pending.len() {
            if pending[word] == 0 {
                word += 1;
                continue;
            }
            let lvl = word * 64 + pending[word].trailing_zeros() as usize;
            pending[word] &= pending[word] - 1;
            let mut bucket = std::mem::take(&mut buckets[lvl]);
            if !stop {
                // Gate-id order within a level: on a levelized arena the
                // whole walk then reads the value arrays in address order.
                bucket.sort_unstable();
                for &g in &bucket {
                    let gi = g as usize;
                    let v = compiled.eval_word(gi, val);
                    if v == golden[gi] {
                        continue;
                    }
                    val[gi] = v;
                    touched.push(g);
                    if changed(gi, v ^ golden[gi]) {
                        stop = true;
                        counters.horizon_exits += 1;
                        break;
                    }
                    schedule(gi, stamp, buckets, pending);
                }
            }
            // A stopped walk still drains its pending levels, so every
            // bucket is empty for the next walk.
            bucket.clear();
            buckets[lvl] = bucket;
        }
        self.undo(golden);
    }

    fn undo(&mut self, golden: &[Wd]) {
        let depth = self.touched.len() as u64;
        self.counters.undo_writes += depth;
        self.counters.undo_depth_max = self.counters.undo_depth_max.max(depth);
        for &t in &self.touched {
            self.val[t as usize] = golden[t as usize];
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::cone::comb_fanout_cone;
    use rescue_netlist::generate;

    /// Golden words of a few pseudo-random patterns.
    fn golden_of(compiled: &CompiledNetlist, inputs: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let words: Vec<u64> = (0..inputs as u64)
            .map(|i| seed.wrapping_mul(i + 3) ^ (i << 17))
            .collect();
        let mut golden = Vec::new();
        compiled.eval_words_into(&words, None, &mut golden).unwrap();
        (words, golden)
    }

    /// Observing the complement of a site's combinational fanout cone
    /// sees nothing; observing the cone sees exactly what a full faulty
    /// resimulation changes. Events therefore stay inside the cone and
    /// stop at DFF `D`-pins.
    #[test]
    fn fault_effects_stay_in_comb_fanout_cones() {
        for net in [
            generate::random_logic(8, 120, 4, 77),
            generate::lfsr(5, &[4, 2]),
            generate::control_fsm(),
        ] {
            let compiled = CompiledNetlist::new(&net);
            let (words, golden) = golden_of(&compiled, net.primary_inputs().len(), 0x9e37_79b9);
            let slow = crate::reference::ReferenceFaultSimulator::new(&net);
            let mut scratch = FaultScratch::new(compiled.len());
            scratch.load_golden(&golden);
            for fault in crate::universe::stuck_at_universe(&net) {
                let root = fault.site().gate();
                let cone: Vec<u32> = comb_fanout_cone(&net, &[root])
                    .iter()
                    .map(|g| g.index() as u32)
                    .collect();
                let outside: Vec<u32> = (0..compiled.len() as u32)
                    .filter(|g| !cone.contains(g))
                    .collect();
                let groups = ObserverGroups::new(compiled.len(), &outside, &cone);
                let (out, inside) =
                    detect_observed(&compiled, &golden, &mut scratch, fault, &groups);
                assert_eq!(out, 0, "{fault}: an event left the cone");
                let faulty = slow.with_stuck(&net, &words, fault);
                let want = cone
                    .iter()
                    .fold(0u64, |m, &g| m | (golden[g as usize] ^ faulty[g as usize]));
                assert_eq!(inside, want, "{fault}");
            }
        }
    }

    #[test]
    fn detect_observed_matches_full_resim_diffs() {
        let net = generate::random_logic(7, 100, 4, 33);
        let compiled = CompiledNetlist::new(&net);
        let faults = crate::universe::stuck_at_universe(&net);
        let words: Vec<u64> = (0..7).map(|i| 0x5bd1_e995u64.wrapping_mul(i + 3)).collect();
        let mut golden = Vec::new();
        compiled.eval_words_into(&words, None, &mut golden).unwrap();
        // Split the outputs into two arbitrary observer groups.
        let pos = compiled.po_drivers();
        let (a, b): (Vec<u32>, Vec<u32>) =
            pos.iter()
                .enumerate()
                .fold((Vec::new(), Vec::new()), |(mut a, mut b), (i, &g)| {
                    if i % 2 == 0 {
                        a.push(g);
                    } else {
                        b.push(g);
                    }
                    (a, b)
                });
        let obs = ObserverGroups::new(compiled.len(), &a, &b);
        let slow = crate::reference::ReferenceFaultSimulator::new(&net);
        let mut scratch = FaultScratch::new(compiled.len());
        scratch.load_golden(&golden);
        for &fault in &faults {
            let (ma, mb) = detect_observed(&compiled, &golden, &mut scratch, fault, &obs);
            let faulty = slow.with_stuck(&net, &words, fault);
            let want_a = a
                .iter()
                .fold(0u64, |m, &g| m | (golden[g as usize] ^ faulty[g as usize]));
            let want_b = b
                .iter()
                .fold(0u64, |m, &g| m | (golden[g as usize] ^ faulty[g as usize]));
            assert_eq!((ma, mb), (want_a, want_b), "{fault}");
            // Both groups together reproduce plain detection.
            assert_eq!(
                ma | mb,
                slow.detection_mask(&net, &words, &golden, fault),
                "{fault}"
            );
        }
    }

    #[test]
    fn scratch_undo_restores_golden() {
        let net = generate::c17();
        let compiled = CompiledNetlist::new(&net);
        let faults = crate::universe::stuck_at_universe(&net);
        let det = Detector::new(&compiled);
        let words: Vec<u64> = (0..5).map(|i| 0xdead_beef_u64 << i).collect();
        let mut golden = Vec::new();
        compiled.eval_words_into(&words, None, &mut golden).unwrap();
        let mut scratch = FaultScratch::new(compiled.len());
        scratch.load_golden(&golden);
        let obs = ObserverGroups::new(compiled.len(), compiled.po_drivers(), &[]);
        for &fault in &faults {
            det.detect_packed(&compiled, &golden, &mut scratch, fault);
            assert_eq!(scratch.val, golden, "scratch must be golden after {fault}");
            assert!(scratch.touched.is_empty());
            assert!(scratch.buckets.iter().all(Vec::is_empty));
            detect_observed(&compiled, &golden, &mut scratch, fault, &obs);
            assert_eq!(scratch.val, golden, "scratch must be golden after {fault}");
            assert!(scratch.touched.is_empty());
            assert!(scratch.buckets.iter().all(Vec::is_empty));
        }
    }
}
