//! Generated benchmark circuits.
//!
//! The RESCUE project evaluated its tools on proprietary or externally
//! hosted designs (AutoSoC blocks, FlexGrip, ISCAS nets). This module
//! generates a structurally comparable circuit zoo from scratch so every
//! experiment in the workspace is self-contained and deterministic.

use crate::builder::{ripple_adder, NetlistBuilder};
use crate::gate::GateId;
use crate::netlist::Netlist;

/// The classic ISCAS-85 `c17` benchmark (6 NAND gates, 5 inputs, 2 outputs).
///
/// ```
/// let c = rescue_netlist::generate::c17();
/// assert_eq!(c.primary_inputs().len(), 5);
/// ```
pub fn c17() -> Netlist {
    let mut b = NetlistBuilder::new("c17");
    let g1 = b.input("G1");
    let g2 = b.input("G2");
    let g3 = b.input("G3");
    let g6 = b.input("G6");
    let g7 = b.input("G7");
    let g10 = b.nand(g1, g3);
    let g11 = b.nand(g3, g6);
    let g16 = b.nand(g2, g11);
    let g19 = b.nand(g11, g7);
    let g22 = b.nand(g10, g16);
    let g23 = b.nand(g16, g19);
    b.output("G22", g22);
    b.output("G23", g23);
    b.finish()
}

/// An `n`-bit ripple-carry adder with carry-in and carry-out.
pub fn adder(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("adder{n}"));
    let a = b.inputs("a", n);
    let x = b.inputs("b", n);
    let ci = b.input("cin");
    let (s, co) = ripple_adder(&mut b, &a, &x, ci);
    for (i, &bit) in s.iter().enumerate() {
        b.output(format!("s{i}"), bit);
    }
    b.output("cout", co);
    b.finish()
}

/// An `n`-bit carry-lookahead adder: generate/propagate per bit and a
/// two-level lookahead carry chain over 4-bit groups — functionally
/// identical to [`adder`] but structurally much shallower, which gives
/// the SET/aging experiments a topology contrast.
pub fn cla_adder(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("cla{n}"));
    let a = b.inputs("a", n);
    let x = b.inputs("b", n);
    let cin = b.input("cin");
    // Per-bit generate/propagate.
    let g: Vec<GateId> = a.iter().zip(&x).map(|(&ai, &xi)| b.and(ai, xi)).collect();
    let p: Vec<GateId> = a.iter().zip(&x).map(|(&ai, &xi)| b.xor(ai, xi)).collect();
    // Lookahead carries: c[i+1] = g[i] | p[i]&c[i], flattened per bit so
    // the carry depth stays logarithmic within 4-bit groups.
    let mut carries = Vec::with_capacity(n + 1);
    carries.push(cin);
    for i in 0..n {
        // c[i+1] = g[i] + p[i]g[i-1] + p[i]p[i-1]g[i-2] + ... within the
        // current group + group-carry-in term.
        let group_start = (i / 4) * 4;
        let mut terms: Vec<GateId> = Vec::new();
        for j in (group_start..=i).rev() {
            let mut term = g[j];
            for &pk in p.iter().take(i + 1).skip(j + 1) {
                term = b.and(term, pk);
            }
            terms.push(term);
        }
        // carry-in propagated through the whole group prefix
        let mut cin_term = carries[group_start];
        for &pk in p.iter().take(i + 1).skip(group_start) {
            cin_term = b.and(cin_term, pk);
        }
        terms.push(cin_term);
        let c_next = if terms.len() == 1 {
            b.buf(terms[0])
        } else {
            b.or_n(&terms)
        };
        carries.push(c_next);
    }
    for i in 0..n {
        let s = b.xor(p[i], carries[i]);
        b.output(format!("s{i}"), s);
    }
    b.output("cout", carries[n]);
    b.finish()
}

/// An `n`x`n` array multiplier producing a `2n`-bit product.
pub fn multiplier(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("mult{n}"));
    let a = b.inputs("a", n);
    let x = b.inputs("b", n);
    let zero = b.const0();
    // Partial products accumulated row by row with ripple adders.
    let mut acc: Vec<GateId> = vec![zero; 2 * n];
    for (i, &xi) in x.iter().enumerate() {
        let row: Vec<GateId> = a.iter().map(|&ai| b.and(ai, xi)).collect();
        // add row shifted by i into acc[i..i+n]
        let slice: Vec<GateId> = acc[i..i + n].to_vec();
        let (sum, mut carry) = ripple_adder(&mut b, &slice, &row, zero);
        acc[i..i + n].copy_from_slice(&sum);
        // propagate carry upward
        let mut j = i + n;
        while j < 2 * n {
            let s = b.xor(acc[j], carry);
            let c2 = b.and(acc[j], carry);
            acc[j] = s;
            carry = c2;
            j += 1;
        }
    }
    for (i, &bit) in acc.iter().enumerate() {
        b.output(format!("p{i}"), bit);
    }
    b.finish()
}

/// Operation selector values for [`alu`]'s 2-bit `op` input.
///
/// `00 = ADD`, `01 = AND`, `10 = OR`, `11 = XOR`.
pub const ALU_OPS: [&str; 4] = ["add", "and", "or", "xor"];

/// An `n`-bit 4-function ALU (`add`, `and`, `or`, `xor`) selected by a
/// 2-bit opcode — a miniature stand-in for the AutoSoC CPU datapath.
pub fn alu(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("alu{n}"));
    let a = b.inputs("a", n);
    let x = b.inputs("b", n);
    let op0 = b.input("op0");
    let op1 = b.input("op1");
    let zero = b.const0();
    let (sum, _) = ripple_adder(&mut b, &a, &x, zero);
    for i in 0..n {
        let andv = b.and(a[i], x[i]);
        let orv = b.or(a[i], x[i]);
        let xorv = b.xor(a[i], x[i]);
        // op1 selects between {add,and} and {or,xor}; op0 selects inside.
        let lo = b.mux(op0, sum[i], andv);
        let hi = b.mux(op0, orv, xorv);
        let y = b.mux(op1, lo, hi);
        b.output(format!("y{i}"), y);
    }
    b.finish()
}

/// An `n`-input parity tree (XOR reduction), the datapath of ECC checkers.
pub fn parity(n: usize) -> Netlist {
    assert!(n >= 2, "parity needs at least 2 inputs");
    let mut b = NetlistBuilder::new(format!("parity{n}"));
    let ins = b.inputs("i", n);
    let mut layer = ins;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(b.xor(pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    b.output("p", layer[0]);
    b.finish()
}

/// An `n`-bit equality comparator.
pub fn comparator(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("cmp{n}"));
    let a = b.inputs("a", n);
    let x = b.inputs("b", n);
    let eqs: Vec<GateId> = a.iter().zip(&x).map(|(&ai, &xi)| b.xnor(ai, xi)).collect();
    let eq = if eqs.len() == 1 {
        eqs[0]
    } else {
        b.and_n(&eqs)
    };
    b.output("eq", eq);
    b.finish()
}

/// A balanced mux tree selecting one of `2^depth` data inputs.
pub fn mux_tree(depth: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("muxtree{depth}"));
    let sel = b.inputs("s", depth);
    let n = 1usize << depth;
    let mut layer = b.inputs("d", n);
    for (lvl, &s) in sel.iter().enumerate() {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for pair in layer.chunks(2) {
            next.push(b.mux(s, pair[0], pair[1]));
        }
        layer = next;
        debug_assert_eq!(layer.len(), n >> (lvl + 1));
    }
    b.output("y", layer[0]);
    b.finish()
}

/// An `n`-bit Fibonacci LFSR with the given tap positions (bit indices into
/// the state register). Sequential; output is the low state bit.
pub fn lfsr(n: usize, taps: &[usize]) -> Netlist {
    assert!(n >= 2, "lfsr needs at least 2 bits");
    assert!(!taps.is_empty(), "lfsr needs at least one tap");
    let mut b = NetlistBuilder::new(format!("lfsr{n}"));
    let q: Vec<GateId> = (0..n).map(|_| b.dff_floating()).collect();
    let tap_sigs: Vec<GateId> = taps.iter().map(|&t| q[t % n]).collect();
    // XNOR feedback so the power-on all-zero state is not the lock-up
    // state (XNOR LFSRs lock at all-ones instead).
    let feedback = if tap_sigs.len() == 1 {
        b.not(tap_sigs[0])
    } else {
        b.xnor_n(&tap_sigs)
    };
    b.connect_dff(q[n - 1], feedback);
    for i in (1..n).rev() {
        b.connect_dff(q[i - 1], q[i]);
    }
    b.output("out", q[0]);
    b.finish()
}

/// An `n`-bit synchronous binary counter (ripple-carry increment).
pub fn counter(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("counter{n}"));
    let q: Vec<GateId> = (0..n).map(|_| b.dff_floating()).collect();
    let one = b.const1();
    let mut carry = one;
    for (i, &qi) in q.iter().enumerate() {
        let d = b.xor(qi, carry);
        let c2 = b.and(qi, carry);
        b.connect_dff(qi, d);
        carry = c2;
        b.output(format!("q{i}"), qi);
    }
    b.finish()
}

/// An `n`-stage shift register with serial input `sin`.
pub fn shift_register(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("shift{n}"));
    let sin = b.input("sin");
    let mut prev = sin;
    let mut last = prev;
    for i in 0..n {
        let q = b.dff(prev);
        b.name(q, format!("q{i}"));
        prev = q;
        last = q;
    }
    b.output("sout", last);
    b.finish()
}

/// A `bits`-to-`2^bits` one-hot address decoder — the structure whose BTI
/// aging the RESCUE memory-mitigation work targets (paper Section III.E).
pub fn address_decoder(bits: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("decoder{bits}"));
    let a = b.inputs("a", bits);
    let an: Vec<GateId> = a.iter().map(|&ai| b.not(ai)).collect();
    for row in 0..(1usize << bits) {
        let terms: Vec<GateId> = (0..bits)
            .map(|bit| if row >> bit & 1 == 1 { a[bit] } else { an[bit] })
            .collect();
        let word = if terms.len() == 1 {
            b.buf(terms[0])
        } else {
            b.and_n(&terms)
        };
        b.output(format!("w{row}"), word);
    }
    b.finish()
}

/// Triple-modular-redundancy wrapper: instantiates `inner` three times and
/// majority-votes each primary output. `inner` must be combinational.
///
/// # Panics
///
/// Panics if `inner` contains flip-flops.
pub fn tmr(inner: &Netlist) -> Netlist {
    assert!(!inner.is_sequential(), "tmr requires combinational inner");
    let mut b = NetlistBuilder::new(format!("tmr_{}", inner.name()));
    let pis = b.inputs("i", inner.primary_inputs().len());
    let mut copies: Vec<Vec<GateId>> = Vec::new();
    for _ in 0..3 {
        let mut map = vec![GateId(0); inner.len()];
        let order = inner.levelize();
        for &id in order.order() {
            let g = inner.gate(id);
            if g.kind() == crate::gate::GateKind::Input {
                let pos = inner
                    .primary_inputs()
                    .iter()
                    .position(|&p| p == id)
                    .expect("input in PI list");
                map[id.index()] = pis[pos];
            } else {
                let ins: Vec<GateId> = g.inputs().iter().map(|&p| map[p.index()]).collect();
                let new_id = match g.kind() {
                    crate::gate::GateKind::Const0 => b.const0(),
                    crate::gate::GateKind::Const1 => b.const1(),
                    crate::gate::GateKind::Buf => b.buf(ins[0]),
                    crate::gate::GateKind::Not => b.not(ins[0]),
                    crate::gate::GateKind::And => b.and_n(&ins),
                    crate::gate::GateKind::Nand => b.nand(ins[0], ins[1]),
                    crate::gate::GateKind::Or => b.or_n(&ins),
                    crate::gate::GateKind::Nor => b.nor(ins[0], ins[1]),
                    crate::gate::GateKind::Xor => b.xor_n(&ins),
                    crate::gate::GateKind::Xnor => b.xnor(ins[0], ins[1]),
                    crate::gate::GateKind::Mux => b.mux(ins[0], ins[1], ins[2]),
                    crate::gate::GateKind::Input | crate::gate::GateKind::Dff => unreachable!(),
                };
                map[id.index()] = new_id;
            }
        }
        copies.push(
            inner
                .primary_outputs()
                .iter()
                .map(|(_, g)| map[g.index()])
                .collect(),
        );
    }
    for (i, (name, _)) in inner.primary_outputs().iter().enumerate() {
        let (x, y, z) = (copies[0][i], copies[1][i], copies[2][i]);
        let xy = b.and(x, y);
        let yz = b.and(y, z);
        let xz = b.and(x, z);
        let t = b.or(xy, yz);
        let v = b.or(t, xz);
        b.output(name.clone(), v);
    }
    b.finish()
}

/// A small Moore FSM (4-state sequence controller with `go`/`abort`
/// inputs), standing in for ISCAS-89-style control benchmarks.
pub fn control_fsm() -> Netlist {
    let mut b = NetlistBuilder::new("control_fsm");
    let go = b.input("go");
    let abort = b.input("abort");
    // state bits s1 s0, transitions: IDLE->RUN on go, RUN->DONE always,
    // DONE->IDLE, any->IDLE on abort.
    let s0 = b.dff_floating();
    let s1 = b.dff_floating();
    let ns0_pre = {
        // next s0 = (!s1 & !s0 & go) (IDLE->RUN)
        let n1 = b.not(s1);
        let n0 = b.not(s0);
        let idle = b.and(n1, n0);
        b.and(idle, go)
    };
    let ns1_pre = {
        // next s1 = (!s1 & s0) (RUN->DONE)
        let n1 = b.not(s1);
        b.and(n1, s0)
    };
    let nab = b.not(abort);
    let ns0 = b.and(ns0_pre, nab);
    let ns1 = b.and(ns1_pre, nab);
    b.connect_dff(s0, ns0);
    b.connect_dff(s1, ns1);
    let busy = b.or(s0, s1);
    b.output("busy", busy);
    b.output("done", s1);
    b.finish()
}

/// A deterministic pseudo-random combinational circuit: `n_inputs` PIs,
/// `n_gates` two-input gates wired to earlier signals, last `n_outputs`
/// gates exported. Deterministic in `seed` (xorshift), suitable for
/// statistically meaningful fault-injection campaigns.
pub fn random_logic(n_inputs: usize, n_gates: usize, n_outputs: usize, seed: u64) -> Netlist {
    assert!(n_inputs >= 2 && n_gates >= n_outputs && n_outputs >= 1);
    let mut b = NetlistBuilder::new(format!("rand_{n_inputs}x{n_gates}_{seed}"));
    let sigs = random_gates(&mut b, n_inputs, n_gates, usize::MAX, seed, |_| {});
    let total = sigs.len();
    for (k, &g) in sigs[total - n_outputs..].iter().enumerate() {
        b.output(format!("o{k}"), g);
    }
    b.finish()
}

/// [`random_logic`]'s gate draw with fanins taken from the last `window`
/// signals only, and every gate without fanout exported as a primary
/// output. Unlike [`random_logic`], whose few outputs leave most of the
/// design as dead logic, almost every fault here can reach an output,
/// and logic depth grows with `n_gates / window` as in a synthesized
/// netlist. Deterministic in `seed`.
pub fn observable_logic(n_inputs: usize, n_gates: usize, window: usize, seed: u64) -> Netlist {
    assert!(n_inputs >= 2 && n_gates >= 1 && window >= 1);
    let mut b = NetlistBuilder::new(format!("obs_{n_inputs}x{n_gates}w{window}_{seed}"));
    let mut has_fanout = vec![false; n_inputs + n_gates];
    let sigs = random_gates(&mut b, n_inputs, n_gates, window, seed, |i| {
        has_fanout[i] = true;
    });
    let mut k = 0;
    for (i, &g) in sigs.iter().enumerate().skip(n_inputs) {
        if !has_fanout[i] {
            b.output(format!("o{k}"), g);
            k += 1;
        }
    }
    b.finish()
}

/// Adds `n_inputs` inputs and `n_gates` random two-input gates to `b`,
/// each gate drawing its fanins from the last `window` signals (all of
/// them when `window` is at least the signal count), and reports the
/// position of every drawn fanin to `drawn`. Returns every signal,
/// inputs first, in creation order.
fn random_gates(
    b: &mut NetlistBuilder,
    n_inputs: usize,
    n_gates: usize,
    window: usize,
    seed: u64,
    mut drawn: impl FnMut(usize),
) -> Vec<GateId> {
    let mut state = seed.max(1);
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut sigs: Vec<GateId> = b.inputs("i", n_inputs);
    for _ in 0..n_gates {
        let lo = sigs.len().saturating_sub(window);
        let span = sigs.len() - lo;
        let (ia, ic) = (lo + (rng() as usize) % span, lo + (rng() as usize) % span);
        drawn(ia);
        drawn(ic);
        let (a, c) = (sigs[ia], sigs[ic]);
        let g = match rng() % 6 {
            0 => b.and(a, c),
            1 => b.or(a, c),
            2 => b.nand(a, c),
            3 => b.nor(a, c),
            4 => b.xor(a, c),
            _ => b.xnor(a, c),
        };
        sigs.push(g);
    }
    sigs
}

/// One rung of the [`scaling_ladder`]: a named `random_logic` recipe.
///
/// Rungs are recipes rather than materialized netlists so callers can build
/// one rung at a time and drop it before the next — the million-gate rung
/// alone is ~100 MB of netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleRung {
    /// Short rung name used in benchmark tables (e.g. `"200k"`).
    pub name: &'static str,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of two-input gates.
    pub gates: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Generator seed.
    pub seed: u64,
}

impl ScaleRung {
    /// Materializes this rung via [`random_logic`].
    pub fn build(&self) -> Netlist {
        random_logic(self.inputs, self.gates, self.outputs, self.seed)
    }
}

/// The big-circuit benchmark ladder: 50k → 200k → 10^6 gates.
///
/// The 50k rung reuses the `BENCH_cpt.json` "big" recipe
/// (`random_logic(32, 50000, 8, 17)`) so numbers stay comparable across
/// benches; the upper rungs extend it to the scale where setup cost and
/// memory bandwidth, not the packed inner loops, dominate.
pub const SCALING_LADDER: [ScaleRung; 3] = [
    ScaleRung {
        name: "50k",
        inputs: 32,
        gates: 50_000,
        outputs: 8,
        seed: 17,
    },
    ScaleRung {
        name: "200k",
        inputs: 48,
        gates: 200_000,
        outputs: 12,
        seed: 20,
    },
    ScaleRung {
        name: "1M",
        inputs: 64,
        gates: 1_000_000,
        outputs: 16,
        seed: 21,
    },
];

/// The benchmark ladder as a slice (see [`SCALING_LADDER`]).
pub fn scaling_ladder() -> &'static [ScaleRung] {
    &SCALING_LADDER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_ascend_and_build() {
        let ladder = scaling_ladder();
        assert_eq!(ladder.len(), 3);
        assert!(ladder.windows(2).all(|w| w[0].gates < w[1].gates));
        assert_eq!(ladder[2].gates, 1_000_000);
        // Materialize only the bottom rung in tests; upper rungs are
        // exercised by the e20 bench.
        let net = ladder[0].build();
        assert_eq!(net.len(), 32 + 50_000);
        assert_eq!(net.primary_outputs().len(), 8);
    }

    #[test]
    fn c17_shape() {
        let c = c17();
        assert_eq!(c.primary_inputs().len(), 5);
        assert_eq!(c.primary_outputs().len(), 2);
        assert_eq!(c.len(), 11);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn adder_shape() {
        let a = adder(8);
        assert_eq!(a.primary_inputs().len(), 17);
        assert_eq!(a.primary_outputs().len(), 9);
    }

    #[test]
    fn cla_matches_ripple_exhaustively() {
        let ripple = adder(5);
        let cla = cla_adder(5);
        assert_eq!(cla.primary_outputs().len(), 6);
        assert!(
            cla.levelize().depth() <= ripple.levelize().depth(),
            "lookahead must not be deeper than ripple"
        );
        // functional equivalence is checked in the sim crate tests; here
        // validate structure only
        assert!(cla.validate().is_ok());
    }

    #[test]
    fn multiplier_shape() {
        let m = multiplier(4);
        assert_eq!(m.primary_inputs().len(), 8);
        assert_eq!(m.primary_outputs().len(), 8);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn alu_shape() {
        let a = alu(4);
        assert_eq!(a.primary_inputs().len(), 10);
        assert_eq!(a.primary_outputs().len(), 4);
    }

    #[test]
    fn parity_comparator_muxtree() {
        assert_eq!(parity(9).primary_outputs().len(), 1);
        assert_eq!(comparator(4).primary_inputs().len(), 8);
        let mt = mux_tree(3);
        assert_eq!(mt.primary_inputs().len(), 3 + 8);
    }

    #[test]
    fn sequential_generators() {
        let l = lfsr(8, &[7, 5, 4, 3]);
        assert_eq!(l.dffs().len(), 8);
        let c = counter(4);
        assert_eq!(c.dffs().len(), 4);
        let s = shift_register(6);
        assert_eq!(s.dffs().len(), 6);
        let f = control_fsm();
        assert_eq!(f.dffs().len(), 2);
    }

    #[test]
    fn decoder_shape() {
        let d = address_decoder(3);
        assert_eq!(d.primary_outputs().len(), 8);
    }

    #[test]
    fn tmr_triples_logic() {
        let inner = c17();
        let t = tmr(&inner);
        assert_eq!(t.primary_inputs().len(), 5);
        assert_eq!(t.primary_outputs().len(), 2);
        assert!(t.len() > 3 * 6, "three copies plus voters");
    }

    #[test]
    fn observable_logic_windows_fanins_and_exports_every_sink() {
        let n = observable_logic(6, 400, 16, 5);
        assert_eq!(n, observable_logic(6, 400, 16, 5), "deterministic");
        assert!(n.validate().is_ok());
        let mut has_fanout = vec![false; n.len()];
        for (id, g) in n.iter() {
            for &fanin in g.inputs() {
                has_fanout[fanin.index()] = true;
                assert!(id.index() - fanin.index() <= 16, "fanin outside the window");
            }
        }
        let outputs: Vec<usize> = n.primary_outputs().iter().map(|(_, g)| g.index()).collect();
        let sinks: Vec<usize> = (6..n.len()).filter(|&g| !has_fanout[g]).collect();
        assert_eq!(outputs, sinks, "exactly the fanout-free gates are outputs");
    }

    #[test]
    fn random_logic_is_deterministic() {
        let a = random_logic(8, 100, 4, 42);
        let b = random_logic(8, 100, 4, 42);
        assert_eq!(a, b);
        let c = random_logic(8, 100, 4, 43);
        assert_ne!(a, c);
    }
}
