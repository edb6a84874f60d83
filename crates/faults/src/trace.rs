//! Critical-path tracing / event-walk hybrid observability.
//!
//! [`Detector::observability_packed`] pays one event-driven walk per
//! *live site* per pattern word. Critical-path tracing (CPT) inverts the
//! direction: instead of pushing a flip forward from every site, it
//! pulls observability backward from the primary outputs, so every net of
//! a fanout-free region (FFR) gets its observability word from **one
//! AND** with a per-edge sensitization word — no walk at all.
//!
//! The per-edge sensitization is exact and costs one gate evaluation:
//! for a net `g` whose only combinational consumer is gate `c` via pin
//! `j`,
//!
//! ```text
//! sens(c, j) = eval(c, golden with pin j forced to !golden[g]) ^ golden[c]
//! obs[g]     = obs[c] & sens(c, j)
//! ```
//!
//! Lane `p` of `sens` is set iff flipping `g` on pattern `p` flips `c`;
//! because `g` has no other combinational path to an output, a flip of
//! `g` reaches an output exactly when it flips `c` *and* a flip of `c`
//! reaches an output. By induction over the reverse topological order
//! this makes `obs[g]` exact everywhere tracing applies:
//!
//! * **`Po`** — `g` directly drives a primary output: flipping `g` flips
//!   that output on every lane, `obs = ONES` (exact even with extra
//!   fanout).
//! * **`Dead`** — no combinational consumer and not an output: within a
//!   chunk the flip dies at the DFF `D`-pins (packed words evaluate DFF
//!   outputs to zero), `obs = ZERO`.
//! * **`Chain`** — exactly one combinational fanout edge: the AND above.
//! * **`Stem`** — two or more combinational fanout edges: the branches
//!   may *reconverge* downstream, where single-path tracing is no longer
//!   exact (two wrongs can re-cancel). Here the hybrid falls back to the
//!   exact event-driven walk ([`Detector::observability_packed`]) — once
//!   per stem per chunk, **shared by every fault in the FFR below it** —
//!   so the hybrid is bit-identical to the full-resimulation oracle by
//!   construction.
//!
//! A net's class ([`class_of`]) is decoded on the fly from the compiled
//! netlist's primary-output flags and fanout/pin CSRs, so the tracer
//! needs no setup beyond the [`Detector`]'s reachability bits. Per
//! chunk, observability words are memoized per net in [`TraceScratch`]
//! (epoch-tagged, no clearing cost), so all faults a worker holds share
//! each traced net and each stem walk.
//!
//! Equivalence with the reference oracle is enforced by the property tests
//! in `tests/cpt_equivalence.rs`.

use crate::engine::{Detector, WideScratch};
use crate::model::Fault;
use rescue_netlist::GateKind;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::SimWord;

/// Structural observability class of one net, from the compiled
/// netlist's combinational fanout-degree metadata
/// ([`CompiledNetlist::comb_fanout_degree`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetClass {
    /// Drives a primary output directly: `obs = ONES`.
    Po,
    /// No combinational consumer and not an output: `obs = ZERO`.
    Dead,
    /// Exactly one combinational fanout edge, into `consumer`'s input
    /// pin `pin`: `obs = obs[consumer] & sens(consumer, pin)`.
    Chain {
        /// The single combinational consumer gate.
        consumer: u32,
        /// Which of the consumer's input pins this net drives.
        pin: u32,
    },
    /// Two or more combinational fanout edges (possible reconvergence):
    /// observability comes from the exact event-driven fallback walk.
    Stem,
}

/// Structural class of net `g` — a pure function of the compiled CSR.
pub fn class_of(compiled: &CompiledNetlist, g: usize) -> NetClass {
    if compiled.is_po(g) {
        return NetClass::Po;
    }
    match compiled.comb_fanout_degree(g) {
        0 => NetClass::Dead,
        1 => {
            let consumer = *compiled
                .fanout_of(g)
                .iter()
                .find(|&&s| compiled.kind(s as usize) != GateKind::Dff)
                .expect("degree 1 implies one combinational consumer");
            let pin = compiled
                .pins_of(consumer as usize)
                .iter()
                .position(|&p| p == g as u32)
                .expect("fanout edge has a matching pin") as u32;
            NetClass::Chain { consumer, pin }
        }
        _ => NetClass::Stem,
    }
}

impl Detector {
    /// Faults of `faults` whose detection never needs an event-driven
    /// walk: their chain ascent ends at a `Po`/`Dead` net or leaves the
    /// PO-reachable region. A memoized ascent resolves each net once, so
    /// this is O(gates + faults) for any fault list.
    pub fn statically_traced(&self, compiled: &CompiledNetlist, faults: &[Fault]) -> usize {
        // Terminal per resolved net: 1 = fully traced, 2 = ends at a
        // reconvergent stem.
        let mut term = vec![0u8; compiled.len()];
        let mut path: Vec<usize> = Vec::new();
        let mut traced = 0;
        for fault in faults {
            let mut g = fault.site().gate().index();
            let t = loop {
                if term[g] != 0 {
                    break term[g];
                }
                if !self.observable(g) {
                    break 1; // obs is ZERO without tracing or walking
                }
                match class_of(compiled, g) {
                    NetClass::Chain { consumer, .. } => {
                        path.push(g);
                        g = consumer as usize;
                    }
                    NetClass::Stem => break 2,
                    NetClass::Po | NetClass::Dead => break 1,
                }
            };
            term[g] = t;
            for p in path.drain(..) {
                term[p] = t;
            }
            if t == 1 {
                traced += 1;
            }
        }
        traced
    }

    /// Observability word of net `root`, memoized per chunk: chain
    /// ascent to the first memoized/terminal net, then one sensitization
    /// AND per descended link (skipped entirely once the word is all
    /// zero — it can only shrink).
    fn obs_of<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut TraceScratch<Wd>,
        root: usize,
    ) -> Wd {
        debug_assert!(scratch.path.is_empty());
        let mut g = root;
        let mut val = loop {
            if scratch.obs_epoch[g] == scratch.epoch {
                break scratch.obs[g];
            }
            let w = match class_of(compiled, g) {
                NetClass::Chain { consumer, pin } => {
                    scratch.path.push((g as u32, consumer, pin));
                    g = consumer as usize;
                    continue;
                }
                NetClass::Po => {
                    scratch.inner.counters.traced_nets += 1;
                    Wd::ONES
                }
                NetClass::Dead => {
                    scratch.inner.counters.traced_nets += 1;
                    Wd::ZERO
                }
                NetClass::Stem => {
                    scratch.inner.counters.stem_fallbacks += 1;
                    self.observability_packed(compiled, golden, &mut scratch.inner, g)
                }
            };
            scratch.memoize(g, w);
            break w;
        };
        while let Some((gc, consumer, pin)) = scratch.path.pop() {
            let gi = gc as usize;
            if !val.is_zero() {
                let c = consumer as usize;
                let sens =
                    compiled.eval_word_pin_forced(c, golden, pin as usize, !golden[gi]) ^ golden[c];
                val &= sens;
            }
            scratch.memoize(gi, val);
            scratch.inner.counters.traced_nets += 1;
        }
        val
    }

    /// Hybrid CPT detection mask of `fault` over the chunk whose golden
    /// values are `golden`: bit-identical to
    /// [`Detector::detect_packed`] (and hence to the reference oracle),
    /// but observability comes from backward tracing wherever the net
    /// sits in a fanout-free region, with the event-driven walk reserved
    /// for reconvergent stems — one per stem per chunk, shared by the
    /// whole FFR below it.
    ///
    /// `scratch` must have seen [`TraceScratch::load_golden`] for this
    /// chunk; the inner value array is golden again on return.
    ///
    /// # Panics
    ///
    /// Panics on non-stuck-at kinds.
    pub fn detect_traced<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut TraceScratch<Wd>,
        fault: Fault,
    ) -> Wd {
        scratch.inner.counters.faults_evaluated += 1;
        let root = fault.site().gate().index();
        if !self.observable(root) {
            return Wd::ZERO;
        }
        let excitation = Detector::excitation_word(compiled, golden, fault);
        if excitation.is_zero() {
            return Wd::ZERO; // not excited on any pattern of this chunk
        }
        scratch.inner.counters.excitations += 1;
        self.obs_of(compiled, golden, scratch, root) & excitation
    }
}

/// Per-worker scratch for the hybrid tracer: the inner [`WideScratch`]
/// (value array, stamps and level buckets for the stem fallback walks)
/// plus the epoch-tagged per-net observability memo. Epoch tagging makes
/// [`TraceScratch::load_golden`] O(1) — no per-chunk memo clearing.
#[derive(Debug, Clone)]
pub struct TraceScratch<Wd: SimWord> {
    /// The wrapped walk scratch (public so campaigns can flush its
    /// [`crate::engine::ScratchCounters`]).
    pub inner: WideScratch<Wd>,
    obs: Vec<Wd>,
    obs_epoch: Vec<u32>,
    epoch: u32,
    /// Reusable chain-ascent stack: each net with its consumer and pin.
    path: Vec<(u32, u32, u32)>,
}

impl<Wd: SimWord> TraceScratch<Wd> {
    /// Scratch for a design of `len` gates.
    pub fn new(len: usize) -> Self {
        TraceScratch {
            inner: WideScratch::new(len),
            obs: vec![Wd::ZERO; len],
            obs_epoch: vec![0; len],
            epoch: 0,
            path: Vec::new(),
        }
    }

    /// Loads a chunk's golden values and invalidates the per-net memo
    /// (call once per chunk, not per fault).
    pub fn load_golden(&mut self, golden: &[Wd]) {
        self.inner.load_golden(golden);
        if self.epoch == u32::MAX {
            // Wraparound (once per 2^32 chunks): clear so stale epochs
            // can never alias.
            self.obs_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// [`TraceScratch::load_golden`] keyed by golden-chunk index: when
    /// `chunk` is already resident, both the value reload and the epoch
    /// bump are skipped — so the per-net observability memo (including
    /// every stem fallback walk recorded in it) stays warm across all
    /// the fault ranges that share the chunk, not just within one.
    /// Soundness mirrors [`WideScratch::load_chunk`]: detections undo
    /// their writes, and the memo is a pure function of the chunk's
    /// golden values.
    pub fn load_chunk(&mut self, chunk: u32, golden: &[Wd]) {
        debug_assert_ne!(chunk, u32::MAX, "u32::MAX is the untagged sentinel");
        if self.inner.loaded_chunk == chunk {
            return;
        }
        self.load_golden(golden);
        self.inner.loaded_chunk = chunk;
    }

    #[inline]
    fn memoize(&mut self, g: usize, word: Wd) {
        self.obs[g] = word;
        self.obs_epoch[g] = self.epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn classes_partition_the_design() {
        let net = generate::random_logic(8, 200, 4, 7);
        let compiled = CompiledNetlist::new(&net);
        let faults = crate::universe::stuck_at_universe(&net);
        let mut stems = 0;
        for g in 0..compiled.len() {
            match class_of(&compiled, g) {
                NetClass::Po => assert!(compiled.is_po(g)),
                NetClass::Dead => {
                    assert!(!compiled.is_po(g));
                    assert_eq!(compiled.comb_fanout_degree(g), 0);
                }
                NetClass::Chain { consumer, pin } => {
                    assert!(!compiled.is_po(g));
                    assert_eq!(compiled.comb_fanout_degree(g), 1);
                    assert_eq!(compiled.pins_of(consumer as usize)[pin as usize], g as u32);
                }
                NetClass::Stem => {
                    assert!(!compiled.is_po(g));
                    assert!(compiled.comb_fanout_degree(g) >= 2);
                    stems += 1;
                }
            }
        }
        let traced = Detector::new(&compiled).statically_traced(&compiled, &faults);
        assert!(
            traced > 0 && traced < faults.len() && stems > 0,
            "a 200-gate random design exercises both paths"
        );
    }
}
