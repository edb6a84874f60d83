//! Golden checksums of the compiled arena's wire bytes.
//!
//! The artifact cache keys a compiled arena by the netlist's content
//! hash alone (`compiled_key` excludes the evaluation order), so a
//! compile that silently reorders `order`, `levels`, the CSRs or any
//! other serialized field would mix new arenas with old cached ones.
//! These pins make any such change a test failure: a deliberate format
//! change must bump the wire version and update the values here.

use rescue_netlist::{generate, renumber, Netlist};
use rescue_sim::compiled::CompiledNetlist;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, checksum)` of the arena bytes, raw and after
/// `renumber::levelized`.
fn digests(net: &Netlist) -> [(usize, u64); 2] {
    let digest = |n: &Netlist| {
        let bytes = CompiledNetlist::new(n).to_bytes();
        (bytes.len(), fnv1a(&bytes))
    };
    [digest(net), digest(&renumber::levelized(net).0)]
}

#[test]
fn c17_arena_bytes_are_pinned() {
    // c17 is generated in level order, so renumbering is the identity.
    assert_eq!(
        digests(&generate::c17()),
        [(558, 0x5c5f_e2cd_edac_9cca), (558, 0x5c5f_e2cd_edac_9cca)]
    );
}

#[test]
fn random_logic_arena_bytes_are_pinned() {
    assert_eq!(
        digests(&generate::random_logic(16, 3000, 8, 42)),
        [
            (136_006, 0x9942_fbe1_ac69_dab4),
            (136_006, 0x6c63_4bf1_0282_240a)
        ]
    );
}
