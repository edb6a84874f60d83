//! The [`Netlist`] container.

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};
use crate::level::Levelization;
use crate::stats::NetlistStats;
use std::collections::HashMap;

/// A flattened gate-level netlist.
///
/// Gates are stored in a dense vector indexed by [`GateId`]; every gate has
/// exactly one output net identified by its own id. Sequential elements are
/// D flip-flops; combinational cycles are illegal and detected by
/// [`Netlist::validate`].
///
/// Construct netlists with [`crate::NetlistBuilder`] or one of the
/// generators in [`crate::generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<GateId>,
    outputs: Vec<(String, GateId)>,
    dffs: Vec<GateId>,
    names: HashMap<GateId, String>,
}

impl Netlist {
    /// Creates a netlist directly from parts. Prefer [`crate::NetlistBuilder`].
    ///
    /// # Errors
    ///
    /// Returns the first structural error found by [`Netlist::validate`].
    pub fn from_parts(
        name: impl Into<String>,
        gates: Vec<Gate>,
        inputs: Vec<GateId>,
        outputs: Vec<(String, GateId)>,
        names: HashMap<GateId, String>,
    ) -> Result<Self, NetlistError> {
        let dffs = gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind().is_sequential())
            .map(|(i, _)| GateId(i))
            .collect();
        let nl = Netlist {
            name: name.into(),
            gates,
            inputs,
            outputs,
            dffs,
            names,
        };
        nl.validate()?;
        Ok(nl)
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (including inputs, constants and flip-flops).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` when the netlist contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a gate, returning `None` when out of bounds.
    pub fn get(&self, id: GateId) -> Option<&Gate> {
        self.gates.get(id.index())
    }

    /// Iterates over `(GateId, &Gate)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates.iter().enumerate().map(|(i, g)| (GateId(i), g))
    }

    /// All gate ids in storage order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + 'static {
        (0..self.gates.len()).map(GateId)
    }

    /// Primary input gates, in declaration order.
    pub fn primary_inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs as `(name, driver)` pairs, in declaration order.
    pub fn primary_outputs(&self) -> &[(String, GateId)] {
        &self.outputs
    }

    /// Gate ids of the primary output drivers, in declaration order.
    pub fn output_ids(&self) -> Vec<GateId> {
        self.outputs.iter().map(|(_, g)| *g).collect()
    }

    /// All D flip-flops, in storage order.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Returns `true` when the design contains at least one flip-flop.
    pub fn is_sequential(&self) -> bool {
        !self.dffs.is_empty()
    }

    /// The user-facing name of a gate, if one was assigned.
    pub fn gate_name(&self, id: GateId) -> Option<&str> {
        self.names.get(&id).map(|s| s.as_str())
    }

    /// Finds a gate by its assigned name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.names
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(id, _)| *id)
    }

    /// Computes the fan-out lists: for each gate, the gates it drives.
    pub fn fanout(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in g.inputs() {
                out[inp.index()].push(GateId(i));
            }
        }
        out
    }

    /// Validates structural invariants: reference bounds (gate pins and
    /// primary ports), arity and combinational acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.gates.len();
        for &pi in &self.inputs {
            if self.get(pi).is_none_or(|g| g.kind() != GateKind::Input) {
                return Err(NetlistError::BadInput { gate: pi });
            }
        }
        for (name, driver) in &self.outputs {
            if driver.index() >= n {
                return Err(NetlistError::UnknownOutput { name: name.clone() });
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in g.inputs() {
                if inp.index() >= n {
                    return Err(NetlistError::DanglingInput {
                        gate: GateId(i),
                        missing: inp,
                    });
                }
            }
            let found = g.inputs().len();
            match g.kind().fixed_arity() {
                Some(want) if found != want => {
                    return Err(NetlistError::BadArity {
                        gate: GateId(i),
                        expected: Some(want),
                        found,
                    })
                }
                None if found < 2 => {
                    return Err(NetlistError::BadArity {
                        gate: GateId(i),
                        expected: None,
                        found,
                    })
                }
                _ => {}
            }
        }
        // Combinational cycle check via DFS, cutting edges at DFF outputs.
        // 0 = white, 1 = grey, 2 = black.
        let mut colour = vec![0u8; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            stack.push((start, 0));
            colour[start] = 1;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                let g = &self.gates[node];
                // DFF outputs act as pseudo-inputs: do not traverse into them.
                let preds: &[GateId] = if g.kind().is_sequential() {
                    &[]
                } else {
                    g.inputs()
                };
                if *edge < preds.len() {
                    let next = preds[*edge].index();
                    *edge += 1;
                    match colour[next] {
                        0 => {
                            colour[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => return Err(NetlistError::CombinationalLoop { gate: GateId(next) }),
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Computes a [`Levelization`] (topological order and per-gate level).
    ///
    /// DFF outputs are treated as level-0 sources so sequential designs
    /// levelize cleanly.
    pub fn levelize(&self) -> Levelization {
        Levelization::new(self)
    }

    /// Summary statistics for reports.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::gate::GateKind;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and(a, c);
        b.output("y", x);
        b.finish()
    }

    #[test]
    fn basic_accessors() {
        let n = tiny();
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.len(), 3);
        assert!(!n.is_empty());
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        assert_eq!(n.output_ids().len(), 1);
        assert!(!n.is_sequential());
        assert_eq!(n.find("a"), Some(GateId(0)));
        assert_eq!(n.gate_name(GateId(0)), Some("a"));
        assert!(n.find("zzz").is_none());
    }

    #[test]
    fn fanout_lists() {
        let n = tiny();
        let fo = n.fanout();
        assert_eq!(fo[0], vec![GateId(2)]);
        assert_eq!(fo[1], vec![GateId(2)]);
        assert!(fo[2].is_empty());
    }

    #[test]
    fn validate_catches_dangling() {
        let gates = vec![Gate::new(GateKind::Not, vec![GateId(9)])];
        let err = Netlist::from_parts("bad", gates, vec![], vec![], HashMap::new()).unwrap_err();
        assert!(matches!(err, NetlistError::DanglingInput { .. }));
    }

    #[test]
    fn validate_catches_bad_ports() {
        let gates = || {
            vec![
                Gate::new(GateKind::Input, vec![]),
                Gate::new(GateKind::Not, vec![GateId(0)]),
            ]
        };
        let po = |g| vec![("y".to_string(), GateId(g))];
        let err = Netlist::from_parts("po", gates(), vec![GateId(0)], po(9), HashMap::new());
        assert_eq!(
            err.unwrap_err(),
            NetlistError::UnknownOutput { name: "y".into() }
        );
        for pi in [GateId(1), GateId(7)] {
            let err = Netlist::from_parts("pi", gates(), vec![pi], po(1), HashMap::new());
            assert_eq!(err.unwrap_err(), NetlistError::BadInput { gate: pi });
        }
    }

    #[test]
    fn validate_catches_arity() {
        let gates = vec![
            Gate::new(GateKind::Input, vec![]),
            Gate::new(GateKind::And, vec![GateId(0)]),
        ];
        let err =
            Netlist::from_parts("bad", gates, vec![GateId(0)], vec![], HashMap::new()).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn validate_catches_comb_loop() {
        let gates = vec![
            Gate::new(GateKind::Input, vec![]),
            Gate::new(GateKind::And, vec![GateId(0), GateId(2)]),
            Gate::new(GateKind::Not, vec![GateId(1)]),
        ];
        let err =
            Netlist::from_parts("bad", gates, vec![GateId(0)], vec![], HashMap::new()).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn dff_feedback_is_legal() {
        // counter bit: q -> not -> d
        let gates = vec![
            Gate::new(GateKind::Dff, vec![GateId(1)]),
            Gate::new(GateKind::Not, vec![GateId(0)]),
        ];
        let n = Netlist::from_parts("tff", gates, vec![], vec![], HashMap::new()).unwrap();
        assert!(n.is_sequential());
        assert_eq!(n.dffs(), &[GateId(0)]);
    }
}
