//! Hardening of the compiled-artifact decoders against hostile bytes.
//!
//! [`CampaignPlan::from_bytes`], [`TracePlan::from_bytes`] and
//! [`CompiledNetlist::from_bytes`] read artifact-cache files, which may
//! be torn, truncated or foreign. Each must answer arbitrary bytes,
//! every truncated prefix and every single-byte corruption of a valid
//! encoding with `Some` or `None` — never a panic — and must decode an
//! unmodified encoding to a value that re-encodes byte for byte.

use proptest::collection::vec;
use proptest::prelude::*;
use rescue_faults::engine::CampaignPlan;
use rescue_faults::trace::TracePlan;
use rescue_faults::universe;
use rescue_netlist::generate;
use rescue_sim::compiled::CompiledNetlist;

/// One decoder under test: its name, and a decode that re-encodes what
/// it accepted.
type Decoder = (&'static str, fn(&[u8]) -> Option<Vec<u8>>);

const DECODERS: [Decoder; 3] = [
    ("CampaignPlan", |b| {
        CampaignPlan::from_bytes(b).map(|p| p.to_bytes())
    }),
    ("TracePlan", |b| {
        TracePlan::from_bytes(b).map(|p| p.to_bytes())
    }),
    ("CompiledNetlist", |b| {
        CompiledNetlist::from_bytes(b).map(|c| c.to_bytes())
    }),
];

/// Valid encodings of a small random design, in [`DECODERS`] order.
fn encodings(seed: u64) -> [Vec<u8>; 3] {
    let net = generate::random_logic(5, 40, 2, seed);
    let c = CompiledNetlist::new(&net);
    let faults = universe::stuck_at_universe(&net);
    [
        CampaignPlan::build(&c, &faults).to_bytes(),
        TracePlan::build(&c, &faults).to_bytes(),
        c.to_bytes(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random bytes, with and without each decoder's version byte in
    /// front (so the body parser runs too), never panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..600), versioned: bool) {
        let mut bytes = bytes;
        if versioned && !bytes.is_empty() {
            bytes[0] = 1;
        }
        for (_, decode) in DECODERS {
            let _ = decode(&bytes);
        }
    }

    /// Unmodified encodings round-trip byte for byte; every strict
    /// prefix is rejected; every single-byte corruption decodes to
    /// `Some` or `None` without panicking.
    #[test]
    fn valid_encodings_round_trip_and_corruptions_never_panic(seed in 1u64..500, mask in 1u8..=255) {
        for ((name, decode), bytes) in DECODERS.iter().zip(encodings(seed)) {
            prop_assert_eq!(decode(&bytes).as_deref(), Some(&bytes[..]), "{} round trip", name);
            for cut in 0..bytes.len() {
                prop_assert!(decode(&bytes[..cut]).is_none(), "{} accepted a {}-byte prefix", name, cut);
            }
            let mut flipped = bytes.clone();
            for at in 0..flipped.len() {
                flipped[at] ^= mask;
                let _ = decode(&flipped);
                flipped[at] ^= mask;
            }
        }
    }
}
