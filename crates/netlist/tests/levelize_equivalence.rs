//! The CSR levelization against the per-gate-vector Kahn it replaced.
//!
//! [`oracle`] is that earlier algorithm, kept here as the reference: a
//! `Vec<Vec<GateId>>` fanout and a `netlist.gate(v)` read on every edge.
//! `Levelization::new` must reproduce its `order`, `levels` and `depth`
//! exactly (the compiled arena serializes the order, so a reorder would
//! change artifact bytes), and `renumber::levelized` must reproduce the
//! `(level, id)` comparison-sort permutation.

use proptest::prelude::*;
use rescue_netlist::level::pin_csr;
use rescue_netlist::{generate, renumber, GateId, Levelization, Netlist, NetlistBuilder};

/// Reference levelization: `(order, levels, depth)`.
fn oracle(netlist: &Netlist) -> (Vec<GateId>, Vec<u32>, u32) {
    let n = netlist.len();
    let mut levels = vec![0u32; n];
    let mut indeg = vec![0usize; n];
    let fanout = netlist.fanout();
    let mut queue: Vec<GateId> = Vec::new();
    for (id, g) in netlist.iter() {
        let comb_preds = if g.kind().is_sequential() {
            0
        } else {
            g.inputs().len()
        };
        indeg[id.index()] = comb_preds;
        if comb_preds == 0 {
            queue.push(id);
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for &v in &fanout[u.index()] {
            if netlist.gate(v).kind().is_sequential() {
                continue;
            }
            let lv = levels[u.index()] + 1;
            if lv > levels[v.index()] {
                levels[v.index()] = lv;
            }
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                queue.push(v);
            }
        }
    }
    assert_eq!(order.len(), n, "combinational cycle");
    let depth = levels.iter().copied().max().unwrap_or(0);
    (order, levels, depth)
}

/// The renumbering map the comparison sort on `(level, id)` produced.
fn oracle_map(levels: &[u32]) -> Vec<u32> {
    let mut by_level: Vec<u32> = (0..levels.len() as u32).collect();
    by_level.sort_by_key(|&g| (levels[g as usize], g));
    let mut new_of = vec![0u32; levels.len()];
    for (new_id, &old) in by_level.iter().enumerate() {
        new_of[old as usize] = new_id as u32;
    }
    new_of
}

fn assert_matches_oracle(net: &Netlist) {
    let (order, levels, depth) = oracle(net);
    let lv = Levelization::new(net);
    assert_eq!(lv.order(), &order[..], "{}: order", net.name());
    assert_eq!(lv.levels(), &levels[..], "{}: levels", net.name());
    assert_eq!(lv.depth(), depth, "{}: depth", net.name());
    let (renumbered, map) = renumber::levelized(net);
    assert_eq!(map, oracle_map(&levels), "{}: renumbering map", net.name());
    assert_eq!(renumbered.len(), net.len());
}

/// A random sequential design: combinational gates over earlier gates
/// and flip-flop outputs, with every flip-flop's `D` pin closing a
/// feedback loop from an arbitrary gate. Pins may repeat a driver.
fn random_sequential(n_in: usize, n_dff: usize, n_gates: usize, seed: u64) -> Netlist {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut below = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut b = NetlistBuilder::new("random_sequential");
    let mut pool = b.inputs("i", n_in);
    let dffs: Vec<GateId> = (0..n_dff).map(|_| b.dff_floating()).collect();
    pool.extend(&dffs);
    for _ in 0..n_gates {
        let x = pool[below(pool.len())];
        let y = pool[below(pool.len())];
        let g = match below(4) {
            0 => b.and(x, y),
            1 => b.xor(x, y),
            2 => b.not(x),
            _ => {
                let z = pool[below(pool.len())];
                b.mux(x, y, z)
            }
        };
        pool.push(g);
    }
    for &q in &dffs {
        let d = pool[below(pool.len())];
        b.connect_dff(q, d);
    }
    let last = *pool.last().expect("nonempty pool");
    b.output("y", last);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_kahn_matches_oracle_on_random_logic(
        n_in in 2usize..16,
        n_g in 1usize..1500,
        seed in 1u64..1_000_000,
    ) {
        let net = generate::random_logic(n_in, n_g, 1 + n_g % 5, seed);
        assert_matches_oracle(&net);
    }

    #[test]
    fn csr_kahn_matches_oracle_with_dff_feedback(
        n_in in 1usize..6,
        n_dff in 1usize..12,
        n_g in 1usize..300,
        seed in 1u64..1_000_000,
    ) {
        assert_matches_oracle(&random_sequential(n_in, n_dff, n_g, seed));
    }
}

#[test]
fn csr_kahn_matches_oracle_on_sequential_generators() {
    for n in [1, 2, 5, 16] {
        assert_matches_oracle(&generate::shift_register(n));
        assert_matches_oracle(&generate::counter(n));
    }
    assert_matches_oracle(&generate::lfsr(8, &[7, 5, 4, 3]));
    assert_matches_oracle(&generate::lfsr(16, &[15, 14, 12, 3]));
    assert_matches_oracle(&generate::control_fsm());
}

#[test]
fn csr_kahn_matches_oracle_on_fixed_designs() {
    assert_matches_oracle(&generate::c17());
    assert_matches_oracle(&generate::multiplier(6));
    assert_matches_oracle(&generate::cla_adder(16));
    assert_matches_oracle(&generate::tmr(&generate::alu(4)));
}

#[test]
fn one_driver_on_two_pins_counts_both_edges() {
    // `x` feeds both pins of `sq`, and both pins of a DFF-cut mux.
    let mut b = NetlistBuilder::new("same_driver");
    let a = b.input("a");
    let c = b.input("c");
    let x = b.xor(a, c);
    let sq = b.and(x, x);
    let q = b.dff_floating();
    let m = b.mux(q, x, x);
    let y = b.or(sq, m);
    b.connect_dff(q, y);
    b.output("y", y);
    let net = b.finish();
    assert_matches_oracle(&net);
    let lv = net.levelize();
    assert_eq!(lv.level(sq), 2);
    assert_eq!(lv.level(m), 2);
    assert_eq!(lv.level(y), 3);
    // The fanout CSR lists `sq` once per consuming pin.
    let (_, pins) = pin_csr(&net);
    let fan = pins.transpose();
    let sq_u = sq.index() as u32;
    let m_u = m.index() as u32;
    assert_eq!(fan.row(x.index()), &[sq_u, sq_u, m_u, m_u]);
}

#[test]
fn transpose_is_the_netlist_fanout() {
    let net = generate::random_logic(6, 400, 3, 17);
    let (kinds, pins) = pin_csr(&net);
    assert_eq!(kinds.len(), net.len());
    let fan = pins.transpose();
    assert_eq!(fan.rows(), net.len());
    for (g, consumers) in net.fanout().iter().enumerate() {
        let want: Vec<u32> = consumers.iter().map(|c| c.index() as u32).collect();
        assert_eq!(fan.row(g), &want[..], "gate {g}");
    }
    let (kinds, empty) = pin_csr(&NetlistBuilder::new("empty").finish());
    assert!(kinds.is_empty());
    assert_eq!(empty.rows(), 0);
    assert_eq!(empty.transpose(), empty);
    assert_eq!(
        Levelization::new(&NetlistBuilder::new("empty").finish()).depth(),
        0
    );
}
