//! Permanent fault models: stuck-at, transition-delay, bridging.

use rescue_netlist::GateId;
use std::fmt;

/// Dense index of a fault within a fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultId(pub usize);

impl FaultId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Where a fault sits: a gate output net or an individual input pin.
///
/// Pin faults matter because a fan-out stem and its branches can carry
/// different fault effects; collapsing (see [`crate::collapse`]) removes
/// the redundant ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The output net of a gate.
    Output(GateId),
    /// Input pin `pin` of `gate` (0-based).
    Pin {
        /// Gate owning the pin.
        gate: GateId,
        /// Pin position within the gate's input list.
        pin: usize,
    },
}

impl FaultSite {
    /// The gate this site belongs to.
    pub fn gate(self) -> GateId {
        match self {
            FaultSite::Output(g) => g,
            FaultSite::Pin { gate, .. } => gate,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Output(g) => write!(f, "{g}.out"),
            FaultSite::Pin { gate, pin } => write!(f, "{gate}.in{pin}"),
        }
    }
}

/// The fault behaviour at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Signal permanently reads 0.
    StuckAt0,
    /// Signal permanently reads 1.
    StuckAt1,
    /// Rising transitions arrive one cycle late (slow-to-rise).
    SlowToRise,
    /// Falling transitions arrive one cycle late (slow-to-fall).
    SlowToFall,
}

impl FaultKind {
    /// For stuck-at kinds, the stuck value; `None` for delay kinds.
    pub fn stuck_value(self) -> Option<bool> {
        match self {
            FaultKind::StuckAt0 => Some(false),
            FaultKind::StuckAt1 => Some(true),
            _ => None,
        }
    }

    /// Short mnemonic (`sa0`, `sa1`, `str`, `stf`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FaultKind::StuckAt0 => "sa0",
            FaultKind::StuckAt1 => "sa1",
            FaultKind::SlowToRise => "str",
            FaultKind::SlowToFall => "stf",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single permanent fault: a site plus a behaviour.
///
/// Stored as one packed `u64` (8 bytes, against 32 for a plain
/// site + kind struct), so a million-gate universe of six million faults
/// fits in 48 MB. The fields are packed most significant first — site
/// tag (1 bit: output, then pin), gate (32 bits), pin (29 bits), kind
/// (2 bits) — so the derived `Ord`, `Eq` and `Hash` on the word order
/// faults exactly as `(site(), kind())` does.
///
/// # Examples
///
/// ```
/// use rescue_faults::{Fault, FaultKind, FaultSite};
/// use rescue_netlist::GateId;
///
/// let f = Fault::stuck_at(FaultSite::Output(GateId(3)), true);
/// assert_eq!(f.kind(), FaultKind::StuckAt1);
/// assert_eq!(f.to_string(), "g3.out/sa1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault(u64);

/// Width of the kind field (the least significant bits).
const KIND_BITS: u32 = 2;
/// Width of the pin field, above the kind.
const PIN_BITS: u32 = 29;
/// Shift of the gate field, above the pin.
const GATE_SHIFT: u32 = KIND_BITS + PIN_BITS;
/// Shift of the site tag (the most significant bit; set for pins).
const TAG_SHIFT: u32 = GATE_SHIFT + 32;

impl Fault {
    /// Largest gate index a fault site can carry.
    pub const MAX_GATE: usize = u32::MAX as usize;
    /// Largest pin position a pin fault site can carry.
    pub const MAX_PIN: usize = (1 << PIN_BITS) - 1;

    /// Creates a fault of arbitrary kind.
    ///
    /// # Panics
    ///
    /// Panics when the site's gate index exceeds [`Fault::MAX_GATE`] or
    /// its pin position exceeds [`Fault::MAX_PIN`].
    pub fn new(site: FaultSite, kind: FaultKind) -> Self {
        let (tag, gate, pin) = match site {
            FaultSite::Output(g) => (0, g.index(), 0),
            FaultSite::Pin { gate, pin } => (1, gate.index(), pin),
        };
        assert!(
            gate <= Self::MAX_GATE,
            "fault site gate {gate} out of range"
        );
        assert!(pin <= Self::MAX_PIN, "fault site pin {pin} out of range");
        let code = match kind {
            FaultKind::StuckAt0 => 0,
            FaultKind::StuckAt1 => 1,
            FaultKind::SlowToRise => 2,
            FaultKind::SlowToFall => 3,
        };
        Fault(tag << TAG_SHIFT | (gate as u64) << GATE_SHIFT | (pin as u64) << KIND_BITS | code)
    }

    /// Creates a stuck-at fault with the given stuck `value`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range site, as [`Fault::new`] does.
    pub fn stuck_at(site: FaultSite, value: bool) -> Self {
        let kind = if value {
            FaultKind::StuckAt1
        } else {
            FaultKind::StuckAt0
        };
        Fault::new(site, kind)
    }

    /// The fault site.
    pub fn site(self) -> FaultSite {
        let gate = GateId((self.0 >> GATE_SHIFT) as u32 as usize);
        if self.0 >> TAG_SHIFT == 0 {
            FaultSite::Output(gate)
        } else {
            let pin = (self.0 >> KIND_BITS) as usize & Self::MAX_PIN;
            FaultSite::Pin { gate, pin }
        }
    }

    /// The fault behaviour.
    pub fn kind(self) -> FaultKind {
        match self.0 & ((1 << KIND_BITS) - 1) {
            0 => FaultKind::StuckAt0,
            1 => FaultKind::StuckAt1,
            2 => FaultKind::SlowToRise,
            _ => FaultKind::SlowToFall,
        }
    }
}

// The packed encoding is the point of the type: keep it one word.
const _: () = assert!(std::mem::size_of::<Fault>() == 8);

/// Prints the decoded view, as a derived impl on `{ site, kind }` would.
impl fmt::Debug for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fault")
            .field("site", &self.site())
            .field("kind", &self.kind())
            .finish()
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.site(), self.kind())
    }
}

/// A resistive bridge between two nets, modelled as wired-AND or wired-OR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BridgingFault {
    /// First bridged net (gate output).
    pub a: GateId,
    /// Second bridged net (gate output).
    pub b: GateId,
    /// Wired-AND (`true`) or wired-OR (`false`) resolution.
    pub wired_and: bool,
}

impl fmt::Display for BridgingFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bridge({},{})/{}",
            self.a,
            self.b,
            if self.wired_and { "AND" } else { "OR" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let f = Fault::new(
            FaultSite::Pin {
                gate: GateId(2),
                pin: 1,
            },
            FaultKind::StuckAt0,
        );
        assert_eq!(f.to_string(), "g2.in1/sa0");
        assert_eq!(FaultId(4).to_string(), "f4");
        let b = BridgingFault {
            a: GateId(1),
            b: GateId(2),
            wired_and: true,
        };
        assert!(b.to_string().contains("AND"));
    }

    #[test]
    fn debug_and_display_strings_are_fixed() {
        let pin = Fault::new(
            FaultSite::Pin {
                gate: GateId(2),
                pin: 1,
            },
            FaultKind::StuckAt0,
        );
        let out = Fault::new(FaultSite::Output(GateId(3)), FaultKind::SlowToFall);
        assert_eq!(
            format!("{pin:?}"),
            "Fault { site: Pin { gate: GateId(2), pin: 1 }, kind: StuckAt0 }"
        );
        assert_eq!(
            format!("{out:?}"),
            "Fault { site: Output(GateId(3)), kind: SlowToFall }"
        );
        assert_eq!(
            format!("{out:#?}"),
            "Fault {\n    site: Output(\n        GateId(\n            3,\n        ),\n    ),\n    kind: SlowToFall,\n}"
        );
        assert_eq!(pin.to_string(), "g2.in1/sa0");
        assert_eq!(out.to_string(), "g3.out/stf");
    }

    #[test]
    fn field_limits_round_trip() {
        let site = FaultSite::Pin {
            gate: GateId(Fault::MAX_GATE),
            pin: Fault::MAX_PIN,
        };
        let f = Fault::new(site, FaultKind::SlowToFall);
        assert_eq!((f.site(), f.kind()), (site, FaultKind::SlowToFall));
        let out = FaultSite::Output(GateId(Fault::MAX_GATE));
        assert_eq!(Fault::stuck_at(out, true).site(), out);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_pin_panics() {
        Fault::new(
            FaultSite::Pin {
                gate: GateId(0),
                pin: Fault::MAX_PIN + 1,
            },
            FaultKind::StuckAt0,
        );
    }

    #[test]
    fn stuck_value() {
        assert_eq!(FaultKind::StuckAt0.stuck_value(), Some(false));
        assert_eq!(FaultKind::StuckAt1.stuck_value(), Some(true));
        assert_eq!(FaultKind::SlowToRise.stuck_value(), None);
    }

    #[test]
    fn site_gate() {
        assert_eq!(FaultSite::Output(GateId(7)).gate(), GateId(7));
        assert_eq!(
            FaultSite::Pin {
                gate: GateId(7),
                pin: 0
            }
            .gate(),
            GateId(7)
        );
    }
}
