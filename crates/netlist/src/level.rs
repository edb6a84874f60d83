//! Levelization: topological ordering of combinational logic, over
//! dense compressed-sparse-row (CSR) arrays.
//!
//! [`pin_csr`] lowers a [`Netlist`] to gate kinds plus a pin CSR in one
//! pass over the gates; [`Csr::transpose`] turns that into the fanout
//! CSR by counting sort; [`Levelization::from_csr`] runs Kahn's
//! algorithm over those arrays. The compiled simulator arena builds the
//! same three arrays and levelizes them directly, so no caller pays for
//! per-gate fanout vectors or a gate-struct read per edge.

use crate::error::ensure_u32_indexable;
use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;

/// A compressed-sparse-row adjacency over dense `u32` gate indices:
/// row `g` is `targets[offsets[g] as usize..offsets[g + 1] as usize]`.
/// Built only by [`pin_csr`] and [`Csr::transpose`], so the offsets are
/// nondecreasing from 0 to `targets.len()` and every entry is a row
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// `(offsets, targets)`: the `rows + 1` offsets and the row entries
    /// concatenated in row order.
    pub fn into_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.targets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `g`.
    #[inline]
    pub fn row(&self, g: usize) -> &[u32] {
        &self.targets[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// The transposed adjacency, by counting sort: row `t` lists every
    /// `g` whose row holds `t`, in ascending `g`, once per occurrence.
    /// Applied to a pin CSR this is the fanout CSR: a gate's consumers
    /// in id order, one entry per consuming pin.
    pub fn transpose(&self) -> Csr {
        let n = self.rows();
        let mut offsets = vec![0u32; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for g in 0..n {
            offsets[g + 1] += offsets[g];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; self.targets.len()];
        for g in 0..n {
            for &t in self.row(g) {
                let slot = &mut cursor[t as usize];
                targets[*slot as usize] = g as u32;
                *slot += 1;
            }
        }
        Csr { offsets, targets }
    }
}

/// Lowers `netlist` in one pass over its gates: each gate's kind, and
/// the pin CSR whose row `g` lists the gates driving `g`'s input pins,
/// in pin order.
///
/// # Panics
///
/// Panics if the netlist exceeds the `u32` index capacity (see
/// [`crate::error::ensure_u32_indexable`]) or has more than `u32::MAX`
/// pins.
pub fn pin_csr(netlist: &Netlist) -> (Vec<GateKind>, Csr) {
    let n = netlist.len();
    ensure_u32_indexable(n).unwrap_or_else(|e| panic!("{e}"));
    let mut kinds = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for (_, g) in netlist.iter() {
        kinds.push(g.kind());
        targets.extend(g.inputs().iter().map(|p| p.index() as u32));
        offsets.push(u32::try_from(targets.len()).expect("pin count fits in u32"));
    }
    (kinds, Csr { offsets, targets })
}

/// Result of levelizing a [`Netlist`].
///
/// Sources (primary inputs, constants, and DFF outputs) sit at level 0;
/// every other gate is one more than the maximum of its input levels. The
/// [`Levelization::order`] is a valid evaluation order for single-pass
/// combinational simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    levels: Vec<u32>,
    order: Vec<GateId>,
    depth: u32,
}

impl Levelization {
    /// Computes the levelization of `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (a validated netlist
    /// never does; see [`Netlist::validate`]) or exceeds the `u32` index
    /// capacity.
    pub fn new(netlist: &Netlist) -> Self {
        let (kinds, pins) = pin_csr(netlist);
        Self::from_csr(&kinds, &pins, &pins.transpose())
    }

    /// Kahn's algorithm over combinational edges of a lowered netlist:
    /// `kinds` from [`pin_csr`], `pins` its pin CSR and `fan` the
    /// transpose ([`Csr::transpose`]). Edges into a DFF `D`-pin are
    /// sequential and cut. Sources enter the queue in id order and each
    /// gate's consumers are visited in fanout-row order, so the result is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the combinational edges form a cycle, or if the arrays
    /// describe different numbers of gates.
    pub fn from_csr(kinds: &[GateKind], pins: &Csr, fan: &Csr) -> Self {
        let n = kinds.len();
        assert!(
            pins.rows() == n && fan.rows() == n,
            "levelization arrays disagree on the gate count"
        );
        let mut levels = vec![0u32; n];
        // Unvisited combinational inputs per gate; DFFs start at 0 and
        // are never decremented, since their edges are skipped.
        let mut pending = vec![0u32; n];
        let mut order: Vec<GateId> = Vec::with_capacity(n);
        for (g, kind) in kinds.iter().enumerate() {
            if !kind.is_sequential() {
                pending[g] = pins.offsets[g + 1] - pins.offsets[g];
            }
            if pending[g] == 0 {
                order.push(GateId(g));
            }
        }
        // The queue is `order` itself: `head` pops, pushes append.
        let mut head = 0;
        while head < order.len() {
            let u = order[head].index();
            head += 1;
            let lv = levels[u] + 1;
            for &v in fan.row(u) {
                let v = v as usize;
                if kinds[v].is_sequential() {
                    continue; // edge into a DFF D-pin is a sequential edge
                }
                levels[v] = levels[v].max(lv);
                pending[v] -= 1;
                if pending[v] == 0 {
                    order.push(GateId(v));
                }
            }
        }
        // DFFs were enqueued as sources, so all gates are covered unless
        // there is a cycle.
        assert_eq!(order.len(), n, "combinational cycle during levelization");
        let depth = levels.iter().copied().max().unwrap_or(0);
        Levelization {
            levels,
            order,
            depth,
        }
    }

    /// The level of `id` (0 for sources).
    pub fn level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// Every gate's level, indexed by gate id.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Gates in a valid combinational evaluation order.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// The maximum level (logic depth) of the design.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::NetlistBuilder;

    #[test]
    fn levels_of_chain() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let n1 = b.not(a);
        let n2 = b.not(n1);
        let n3 = b.not(n2);
        b.output("y", n3);
        let net = b.finish();
        let lv = net.levelize();
        assert_eq!(lv.level(a), 0);
        assert_eq!(lv.level(n3), 3);
        assert_eq!(lv.depth(), 3);
    }

    #[test]
    fn order_respects_dependencies() {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and(a, c);
        let y = b.or(x, a);
        b.output("y", y);
        let net = b.finish();
        let lv = net.levelize();
        let pos: Vec<usize> = net
            .ids()
            .map(|id| lv.order().iter().position(|&o| o == id).unwrap())
            .collect();
        assert!(pos[x.index()] > pos[a.index()]);
        assert!(pos[y.index()] > pos[x.index()]);
    }

    #[test]
    fn dff_breaks_levels() {
        let mut b = NetlistBuilder::new("seq");
        let q = b.dff_floating();
        let nq = b.not(q);
        b.connect_dff(q, nq);
        b.output("q", q);
        let net = b.finish();
        let lv = net.levelize();
        assert_eq!(lv.level(q), 0);
        assert_eq!(lv.level(nq), 1);
        assert_eq!(lv.order().len(), 2);
    }
}
