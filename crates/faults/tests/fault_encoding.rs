//! The packed `u64` encoding of [`Fault`]: its accessors round-trip
//! every encodable site and kind, and its derived order is the order of
//! the decoded `(site, kind)` pair.

use proptest::collection::vec;
use proptest::prelude::*;
use rescue_faults::{Fault, FaultKind, FaultSite};
use rescue_netlist::GateId;

const KINDS: [FaultKind; 4] = [
    FaultKind::StuckAt0,
    FaultKind::StuckAt1,
    FaultKind::SlowToRise,
    FaultKind::SlowToFall,
];

fn site(pin_site: bool, gate: usize, pin: usize) -> FaultSite {
    if pin_site {
        FaultSite::Pin {
            gate: GateId(gate),
            pin,
        }
    } else {
        FaultSite::Output(GateId(gate))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `site()` and `kind()` give back what `new` was given, for gates
    /// below 2^32 and pins within the pin field.
    #[test]
    fn accessors_round_trip(
        pin_site: bool,
        gate in 0..=Fault::MAX_GATE,
        pin in 0..=Fault::MAX_PIN,
        kind in 0usize..4,
    ) {
        let s = site(pin_site, gate, pin);
        let f = Fault::new(s, KINDS[kind]);
        prop_assert_eq!(f.site(), s);
        prop_assert_eq!(f.kind(), KINDS[kind]);
        prop_assert_eq!(f, Fault::new(s, KINDS[kind]));
    }

    /// Sorting faults sorts them by `(site(), kind())`. Small gate and
    /// pin ranges force ties on every field.
    #[test]
    fn order_is_site_then_kind(
        raw in vec((any::<bool>(), 0usize..4, 0usize..3, 0usize..4), 0..64),
        big_gate in 0..=Fault::MAX_GATE,
    ) {
        let mut faults: Vec<Fault> = raw
            .iter()
            .map(|&(p, g, pin, k)| {
                let gate = if g == 3 { big_gate } else { g };
                Fault::new(site(p, gate, pin), KINDS[k])
            })
            .collect();
        let mut by_fields = faults.clone();
        faults.sort();
        by_fields.sort_by_key(|f| (f.site(), f.kind()));
        prop_assert_eq!(faults, by_fields);
    }
}
