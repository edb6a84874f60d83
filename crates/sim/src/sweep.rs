//! Level-blocked sweep kernels for full-design packed evaluation.
//!
//! [`crate::compiled::CompiledNetlist::eval_words_into`] walks
//! `eval_order` one gate at a time: every gate pays a kind dispatch, two
//! CSR offset loads and an iterator fold over its pin slice. At a million
//! gates that per-gate overhead — not the bitwise logic — dominates
//! golden-chunk simulation.
//!
//! [`SweepPlan`] removes it. At compile time the evaluation order is cut
//! into *runs*: maximal groups of gates on the same logic level with the
//! same operator shape (2-input AND, inverter, …). Each run is stored
//! structure-of-arrays — one `out[]` index array plus the `a[]`/`b[]`
//! input indices resolved from the CSR — and evaluated as a tight loop
//! of one fixed bitwise expression, no kind dispatch and no pin-slice
//! iterators inside. Levelization makes the reordering sound: a gate
//! only ever reads values from strictly lower levels, so any evaluation
//! order *within* a level produces the same words. Gates whose shape has
//! no dedicated kernel (MUXes, variadic AND/OR/XOR trees) fall back to
//! the generic fold per gate, so the sweep is byte-identical to
//! gate-order evaluation for every netlist.
//!
//! The same compile step also flattens every gate into a per-gate *fast
//! descriptor* (opcode byte + two resolved input indices), which
//! [`SweepPlan::eval_gate`] and [`SweepPlan::eval_gate_pin_forced`]
//! dispatch on. Single-gate callers — the event-driven walks and
//! the critical-path-tracing chain ascent in `rescue-faults` — go
//! through these instead of the CSR fold, shaving the dispatch overhead
//! off the incremental paths too.
//!
//! The plan is **derived state**: it is recomputed from the arena both
//! at compile time and on artifact-cache decode, never serialized, so
//! the compiled wire format and its content hashes are unchanged.

use crate::compiled::CompiledNetlist;
use crate::wide::SimWord;
use rescue_netlist::GateKind;

/// Fast-descriptor opcodes. Runs only ever carry `OP_CONST0..=OP_XNOR2`
/// and `OP_GENERIC`; `OP_DFF` appears in per-gate descriptors (packed
/// evaluation treats DFF outputs as all-zero) and `Input` gates map to
/// `OP_GENERIC` so the fallback keeps the historical panic.
const OP_CONST0: u8 = 0;
const OP_CONST1: u8 = 1;
const OP_BUF: u8 = 2;
const OP_NOT: u8 = 3;
const OP_AND2: u8 = 4;
const OP_NAND2: u8 = 5;
const OP_OR2: u8 = 6;
const OP_NOR2: u8 = 7;
const OP_XOR2: u8 = 8;
const OP_XNOR2: u8 = 9;
const OP_DFF: u8 = 10;
const OP_GENERIC: u8 = 11;

/// Opcodes eligible for level runs, in the emission order within each
/// level. `OP_DFF` is excluded (sources are not in `eval_order`).
const RUN_OPS: [u8; 11] = [
    OP_AND2, OP_NAND2, OP_OR2, OP_NOR2, OP_XOR2, OP_XNOR2, OP_BUF, OP_NOT, OP_CONST0, OP_CONST1,
    OP_GENERIC,
];

/// Operator shape of one gate: a dedicated kernel opcode when the kind
/// *and* arity match one, `OP_GENERIC` otherwise. Only exact matches get
/// a kernel — a 3-input AND folds generically — so every kernel is
/// algebraically identical to the generic fold it replaces.
fn classify(kind: GateKind, arity: usize) -> u8 {
    match (kind, arity) {
        (GateKind::Const0, _) => OP_CONST0,
        (GateKind::Const1, _) => OP_CONST1,
        (GateKind::Buf, 1) => OP_BUF,
        (GateKind::Not, 1) => OP_NOT,
        (GateKind::And, 2) => OP_AND2,
        (GateKind::Nand, 2) => OP_NAND2,
        (GateKind::Or, 2) => OP_OR2,
        (GateKind::Nor, 2) => OP_NOR2,
        (GateKind::Xor, 2) => OP_XOR2,
        (GateKind::Xnor, 2) => OP_XNOR2,
        (GateKind::Dff, _) => OP_DFF,
        _ => OP_GENERIC,
    }
}

/// One same-level, same-shape gate run: `len` gates starting at `start`
/// in the plan's structure-of-arrays arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SweepRun {
    op: u8,
    start: u32,
    len: u32,
}

/// Level-blocked sweep schedule plus per-gate fast descriptors, derived
/// once from a [`CompiledNetlist`]. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    /// Level-major run schedule over `eval_order`'s gates.
    runs: Vec<SweepRun>,
    /// SoA arenas indexed by the runs: output gate and resolved inputs.
    out: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    /// Per-gate fast descriptors over *all* gates (single-gate dispatch).
    ops: Vec<u8>,
    pa: Vec<u32>,
    pb: Vec<u32>,
    /// Gates evaluated by a dedicated kernel (non-generic run entries).
    swept: usize,
}

impl SweepPlan {
    /// Derives the sweep schedule and fast descriptors from a compiled
    /// arena. `O(gates)` and allocation-bounded by four `u32` arenas.
    pub fn build(c: &CompiledNetlist) -> SweepPlan {
        let n = c.len();
        let mut ops = vec![0u8; n];
        let mut pa = vec![0u32; n];
        let mut pb = vec![0u32; n];
        for g in 0..n {
            let pins = c.pins_of(g);
            let op = classify(c.kind(g), pins.len());
            ops[g] = op;
            match op {
                OP_BUF | OP_NOT => pa[g] = pins[0],
                OP_AND2..=OP_XNOR2 => {
                    pa[g] = pins[0];
                    pb[g] = pins[1];
                }
                _ => {}
            }
        }

        let eo = c.eval_order();
        let mut runs = Vec::new();
        let mut out = Vec::with_capacity(eo.len());
        let mut ra = Vec::with_capacity(eo.len());
        let mut rb = Vec::with_capacity(eo.len());
        let mut swept = 0usize;
        // eval_order is levelized, so each level is one contiguous
        // stretch; bucket it by shape in the fixed RUN_OPS order.
        let mut i = 0usize;
        while i < eo.len() {
            let lvl = c.level(eo[i] as usize);
            let mut j = i;
            while j < eo.len() && c.level(eo[j] as usize) == lvl {
                j += 1;
            }
            for op in RUN_OPS {
                let start = out.len();
                for &g in &eo[i..j] {
                    if ops[g as usize] == op {
                        out.push(g);
                        ra.push(pa[g as usize]);
                        rb.push(pb[g as usize]);
                    }
                }
                let len = out.len() - start;
                if len > 0 {
                    if op != OP_GENERIC {
                        swept += len;
                    }
                    runs.push(SweepRun {
                        op,
                        start: start as u32,
                        len: len as u32,
                    });
                }
            }
            i = j;
        }
        SweepPlan {
            runs,
            out,
            a: ra,
            b: rb,
            ops,
            pa,
            pb,
            swept,
        }
    }

    /// Number of same-level, same-shape runs in the schedule.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Gates evaluated by a dedicated kernel (the rest take the generic
    /// per-gate fold inside the sweep).
    pub fn swept_gates(&self) -> usize {
        self.swept
    }

    /// Full-design sweep evaluation: sources (PIs, DFFs) must already be
    /// set in `values`; every other gate is written exactly once, in
    /// level-major run order. Byte-identical to walking `eval_order`
    /// gate by gate.
    pub fn eval_sweep<Wd: SimWord>(&self, c: &CompiledNetlist, values: &mut [Wd]) {
        for run in &self.runs {
            let s = run.start as usize;
            let e = s + run.len as usize;
            let out = &self.out[s..e];
            let a = &self.a[s..e];
            let b = &self.b[s..e];
            macro_rules! bin_run {
                ($expr:expr) => {
                    for k in 0..out.len() {
                        let x = values[a[k] as usize];
                        let y = values[b[k] as usize];
                        values[out[k] as usize] = $expr(x, y);
                    }
                };
            }
            match run.op {
                OP_AND2 => bin_run!(|x: Wd, y: Wd| x & y),
                OP_NAND2 => bin_run!(|x: Wd, y: Wd| !(x & y)),
                OP_OR2 => bin_run!(|x: Wd, y: Wd| x | y),
                OP_NOR2 => bin_run!(|x: Wd, y: Wd| !(x | y)),
                OP_XOR2 => bin_run!(|x: Wd, y: Wd| x ^ y),
                OP_XNOR2 => bin_run!(|x: Wd, y: Wd| !(x ^ y)),
                OP_BUF => {
                    for k in 0..out.len() {
                        values[out[k] as usize] = values[a[k] as usize];
                    }
                }
                OP_NOT => {
                    for k in 0..out.len() {
                        values[out[k] as usize] = !values[a[k] as usize];
                    }
                }
                OP_CONST0 => {
                    for &g in out {
                        values[g as usize] = Wd::ZERO;
                    }
                }
                OP_CONST1 => {
                    for &g in out {
                        values[g as usize] = Wd::ONES;
                    }
                }
                _ => {
                    for &g in out {
                        let v = c.eval_word_generic(g as usize, values);
                        values[g as usize] = v;
                    }
                }
            }
        }
    }

    /// Single-gate fast dispatch: the descriptor replaces the kind
    /// match and CSR fold of [`CompiledNetlist::eval_word`]; shapes
    /// without a kernel fall back to the generic fold.
    #[inline]
    pub fn eval_gate<Wd: SimWord>(&self, c: &CompiledNetlist, g: usize, values: &[Wd]) -> Wd {
        match self.ops[g] {
            OP_CONST0 => Wd::ZERO,
            OP_CONST1 => Wd::ONES,
            OP_BUF => values[self.pa[g] as usize],
            OP_NOT => !values[self.pa[g] as usize],
            OP_AND2 => values[self.pa[g] as usize] & values[self.pb[g] as usize],
            OP_NAND2 => !(values[self.pa[g] as usize] & values[self.pb[g] as usize]),
            OP_OR2 => values[self.pa[g] as usize] | values[self.pb[g] as usize],
            OP_NOR2 => !(values[self.pa[g] as usize] | values[self.pb[g] as usize]),
            OP_XOR2 => values[self.pa[g] as usize] ^ values[self.pb[g] as usize],
            OP_XNOR2 => !(values[self.pa[g] as usize] ^ values[self.pb[g] as usize]),
            OP_DFF => Wd::ZERO,
            _ => c.eval_word_generic(g, values),
        }
    }

    /// Single-gate fast dispatch with input pin `pin` replaced by `word`
    /// (the pin stuck-at injection primitive of the event walks and the
    /// CPT sensitization kernel).
    #[inline]
    pub fn eval_gate_pin_forced<Wd: SimWord>(
        &self,
        c: &CompiledNetlist,
        g: usize,
        values: &[Wd],
        pin: usize,
        word: Wd,
    ) -> Wd {
        let op = self.ops[g];
        if (OP_AND2..=OP_XNOR2).contains(&op) {
            let x = if pin == 0 {
                word
            } else {
                values[self.pa[g] as usize]
            };
            let y = if pin == 1 {
                word
            } else {
                values[self.pb[g] as usize]
            };
            return match op {
                OP_AND2 => x & y,
                OP_NAND2 => !(x & y),
                OP_OR2 => x | y,
                OP_NOR2 => !(x | y),
                OP_XOR2 => x ^ y,
                _ => !(x ^ y),
            };
        }
        match op {
            OP_BUF if pin == 0 => word,
            OP_NOT if pin == 0 => !word,
            _ => c.eval_word_pin_forced_generic(g, values, pin, word),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{generate, renumber};

    #[test]
    fn classify_requires_exact_arity() {
        assert_eq!(classify(GateKind::And, 2), OP_AND2);
        assert_eq!(classify(GateKind::And, 3), OP_GENERIC);
        assert_eq!(classify(GateKind::Mux, 3), OP_GENERIC);
        assert_eq!(classify(GateKind::Input, 0), OP_GENERIC);
        assert_eq!(classify(GateKind::Dff, 1), OP_DFF);
    }

    #[test]
    fn runs_cover_eval_order_exactly_once() {
        let (net, _) = renumber::levelized(&generate::random_logic(8, 400, 4, 21));
        let c = CompiledNetlist::new(&net);
        let plan = SweepPlan::build(&c);
        let mut seen: Vec<u32> = plan.out.clone();
        seen.sort_unstable();
        let mut want: Vec<u32> = c.eval_order().to_vec();
        want.sort_unstable();
        assert_eq!(seen, want, "every evaluated gate appears in one run");
        assert!(plan.swept_gates() > 0, "random logic has 2-input shapes");
    }

    #[test]
    fn runs_never_read_their_own_level() {
        let (net, _) = renumber::levelized(&generate::random_logic(8, 400, 4, 5));
        let c = CompiledNetlist::new(&net);
        let plan = SweepPlan::build(&c);
        for run in &plan.runs {
            for k in run.start as usize..(run.start + run.len) as usize {
                let g = plan.out[k] as usize;
                for &p in c.pins_of(g) {
                    assert!(
                        c.level(p as usize) < c.level(g),
                        "gate {g} reads same-level input {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_descriptors_match_csr() {
        let net = generate::random_logic(6, 200, 3, 9);
        let c = CompiledNetlist::new(&net);
        let plan = SweepPlan::build(&c);
        for g in 0..c.len() {
            let pins = c.pins_of(g);
            match plan.ops[g] {
                OP_BUF | OP_NOT => assert_eq!(plan.pa[g], pins[0]),
                op if (OP_AND2..=OP_XNOR2).contains(&op) => {
                    assert_eq!([plan.pa[g], plan.pb[g]], [pins[0], pins[1]]);
                }
                _ => {}
            }
        }
    }
}
