//! Hardening of the `RSCA` artifact and `RSCU` unit-record envelopes
//! against hostile bytes.
//!
//! Both envelopes guard on-disk caches that may be torn, truncated,
//! bit-rotted or left behind by an older format. Arbitrary bytes, every
//! strict prefix and every single-byte corruption of a valid envelope
//! must read as a miss — never a panic, and never an allocation sized
//! from a header length that disagrees with the data actually present.

use proptest::collection::vec;
use proptest::prelude::*;
use rescue_campaign::{ArtifactStore, ContentHash, FsStore, ResultStore, StatsDelta, UnitRecord};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory per call, so concurrent tests never share one.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rescue-envelope-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn record(payload: Vec<u8>, seed: u64) -> UnitRecord {
    UnitRecord {
        stats: StatsDelta {
            injections: seed,
            detected: seed / 2,
            undetected: seed - seed / 2,
            ..StatsDelta::default()
        },
        payload,
    }
}

/// Writes `bytes` as the artifact file of `key` and asserts that it
/// reads as a miss and is removed.
fn assert_artifact_miss(store: &ArtifactStore, key: ContentHash, bytes: &[u8], what: &str) {
    let path = store.dir().join(format!("{key}.art"));
    std::fs::write(&path, bytes).unwrap();
    assert!(store.load(key).is_none(), "{what} read as an artifact");
    assert!(!path.exists(), "{what} was not removed");
}

/// 64-bit FNV-1a, the checksum of the version-1 envelopes.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary bytes, bare or behind a valid magic and version, are a
    /// miss in both envelopes.
    #[test]
    fn arbitrary_bytes_read_as_missing(bytes in vec(any::<u8>(), 0..300), magic: bool) {
        let mut unit = bytes.clone();
        let mut art = bytes;
        if magic {
            art.splice(0..0, *b"RSCA\x02");
            unit.splice(0..0, *b"RSCU\x02\x00");
        }
        prop_assert!(UnitRecord::decode(&unit).is_none());
        let dir = scratch_dir("arbitrary");
        let store = ArtifactStore::open(&dir);
        assert_artifact_miss(&store, ContentHash(1), &art, "arbitrary bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Valid envelopes round-trip; every strict prefix and every
    /// single-byte corruption of one reads as a miss.
    #[test]
    fn prefixes_and_single_byte_flips_read_as_missing(
        payload in vec(any::<u8>(), 0..80),
        seed in 0u64..1000,
        mask in 1u8..=255,
    ) {
        let rec = record(payload.clone(), seed);
        let unit = rec.encode();
        prop_assert_eq!(UnitRecord::decode(&unit), Some(rec));
        for cut in 0..unit.len() {
            prop_assert!(UnitRecord::decode(&unit[..cut]).is_none(), "unit prefix {}", cut);
        }
        let mut flipped = unit.clone();
        for at in 0..flipped.len() {
            flipped[at] ^= mask;
            prop_assert!(UnitRecord::decode(&flipped).is_none(), "unit flip at {}", at);
            flipped[at] ^= mask;
        }

        let dir = scratch_dir("flips");
        let store = ArtifactStore::open(&dir);
        let key = ContentHash(seed as u128);
        store.save(key, &payload).unwrap();
        let art = std::fs::read(store.dir().join(format!("{key}.art"))).unwrap();
        prop_assert_eq!(store.load(key), Some(payload));
        for cut in 0..art.len() {
            assert_artifact_miss(&store, key, &art[..cut], "an artifact prefix");
        }
        let mut flipped = art.clone();
        for at in 0..flipped.len() {
            flipped[at] ^= mask;
            assert_artifact_miss(&store, key, &flipped, "a flipped artifact");
            flipped[at] ^= mask;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Header lengths far beyond the bytes present are rejected before any
/// buffer is sized from them (allocating 2^40 bytes or more would abort
/// the test process).
#[test]
fn oversized_header_lengths_read_as_missing() {
    let dir = scratch_dir("oversized");
    let store = ArtifactStore::open(&dir);
    for len in [1u64 << 40, u64::MAX - 20, u64::MAX] {
        let mut art = b"RSCA\x02".to_vec();
        art.extend_from_slice(&0u64.to_le_bytes());
        art.extend_from_slice(&len.to_le_bytes());
        art.extend_from_slice(b"short");
        assert_artifact_miss(&store, ContentHash(3), &art, "an oversized artifact");
    }
    std::fs::remove_dir_all(&dir).ok();

    let mut unit = record(b"short".to_vec(), 9).encode();
    // The payload length follows the magic (4 bytes), the version (2)
    // and the nine-counter stats delta (72).
    unit[78..86].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(UnitRecord::decode(&unit).is_none());
}

/// Files in the version-1 envelopes (FNV-64 checksums) read as missing
/// and are removed, so the next run repopulates them in the current
/// format.
#[test]
fn version_one_envelopes_read_as_missing_and_are_removed() {
    let dir = scratch_dir("v1");
    let store = ArtifactStore::open(&dir);
    let payload = b"compiled bytes";
    let mut art = b"RSCA\x01".to_vec();
    art.extend_from_slice(&fnv64(payload).to_le_bytes());
    art.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    art.extend_from_slice(payload);
    assert_artifact_miss(&store, ContentHash(5), &art, "a version-1 artifact");

    let fs = FsStore::open(&dir);
    let rec = record(b"verdicts".to_vec(), 4);
    let mut unit = rec.encode();
    unit[4..6].copy_from_slice(&1u16.to_le_bytes());
    let body = unit.len() - 8;
    let sum = fnv64(&unit[..body]);
    unit[body..].copy_from_slice(&sum.to_le_bytes());
    let id = ContentHash(6);
    let path = dir.join("units").join(format!("{id}.unit"));
    std::fs::write(&path, &unit).unwrap();
    assert!(
        fs.get(id).is_none(),
        "a version-1 unit record read as a hit"
    );
    assert!(!path.exists(), "the version-1 unit record was not removed");
    fs.put(id, &rec);
    assert_eq!(fs.get(id), Some(rec));
    std::fs::remove_dir_all(&dir).ok();
}
