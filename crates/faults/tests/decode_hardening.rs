//! Hardening of the compiled-artifact decoder against hostile bytes.
//!
//! [`CompiledNetlist::from_bytes`] reads artifact-cache files, which may
//! be torn, truncated or foreign. It must answer arbitrary bytes, every
//! truncated prefix and every single-byte corruption of a valid encoding
//! with `Some` or `None` — never a panic — and must decode an unmodified
//! encoding to a value that re-encodes byte for byte.

use proptest::collection::vec;
use proptest::prelude::*;
use rescue_netlist::generate;
use rescue_sim::compiled::CompiledNetlist;

/// Decodes `bytes` and re-encodes what the decoder accepted.
fn decode(bytes: &[u8]) -> Option<Vec<u8>> {
    CompiledNetlist::from_bytes(bytes).map(|c| c.to_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random bytes, with and without the wire version byte in front (so
    /// the body parser runs too), never panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..600), versioned: bool) {
        let mut bytes = bytes;
        if versioned && !bytes.is_empty() {
            bytes[0] = 1;
        }
        let _ = decode(&bytes);
    }

    /// An unmodified encoding round-trips byte for byte; every strict
    /// prefix is rejected; every single-byte corruption decodes to
    /// `Some` or `None` without panicking.
    #[test]
    fn valid_encodings_round_trip_and_corruptions_never_panic(seed in 1u64..500, mask in 1u8..=255) {
        let bytes = CompiledNetlist::new(&generate::random_logic(5, 40, 2, seed)).to_bytes();
        prop_assert_eq!(decode(&bytes).as_deref(), Some(&bytes[..]), "round trip");
        for cut in 0..bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_none(), "accepted a {}-byte prefix", cut);
        }
        let mut flipped = bytes.clone();
        for at in 0..flipped.len() {
            flipped[at] ^= mask;
            let _ = decode(&flipped);
            flipped[at] ^= mask;
        }
    }
}
