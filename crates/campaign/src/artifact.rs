//! Content-addressed compiled-artifact cache.
//!
//! Durable campaigns ([`crate::store`]) already make *verdicts* resumable;
//! at a million gates the remaining cold-start cost is *setup* —
//! compiling the netlist arena. This store persists compiled artifacts
//! keyed by content hash, so a repeat campaign on an unchanged design
//! decodes its arena instead of recompiling it.
//!
//! The store is deliberately dumb: opaque byte payloads under 128-bit
//! [`ContentHash`] keys. The *meaning* of a payload lives in the key's
//! domain tag — e.g. `rescue.compiled.v1` for a compiled netlist —
//! chosen by the caller; this module only guarantees that what comes
//! back is byte-identical to what went in, or nothing.
//!
//! Layout: `<root>/artifacts/<hash>.art`, one file per artifact, written
//! via atomic rename. Each file wraps the payload in a small envelope
//! (magic, version, word-wise checksum, length) so torn or foreign files
//! read as missing — a corrupt cache degrades to a rebuild, never a
//! panic — and are deleted on sight so they cannot re-fail forever.

use crate::store::{checksum64, write_file_atomic, ContentHash};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Envelope magic: `RSCA` ("RESCUE artifact").
const MAGIC: [u8; 4] = *b"RSCA";
/// Envelope format version (2: word-wise checksum; version-1 files
/// read as missing).
const VERSION: u8 = 2;
/// Envelope overhead: magic + version + checksum + payload length.
const HEADER_LEN: usize = 4 + 1 + 8 + 8;

/// Filesystem store for content-addressed compiled artifacts.
///
/// Safe to share between concurrent processes: writes are atomic renames,
/// and because keys are content hashes, two processes racing to publish
/// the same key write identical bytes.
///
/// # Examples
///
/// ```
/// use rescue_campaign::{ArtifactStore, ContentHash};
///
/// let dir = std::env::temp_dir().join(format!("rescue-art-{}", std::process::id()));
/// let store = ArtifactStore::open(&dir);
/// let key = ContentHash(0x1234);
/// assert!(store.load(key).is_none());
/// store.save(key, b"compiled bytes").unwrap();
/// assert_eq!(store.load(key).as_deref(), Some(&b"compiled bytes"[..]));
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if needed) an artifact cache under `root`.
    ///
    /// The same `root` can host an [`crate::store::FsStore`]; artifacts
    /// live in their own `artifacts/` subdirectory.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        let dir = root.into().join("artifacts");
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create artifact dir {dir:?}: {e}"));
        ArtifactStore { dir }
    }

    /// The directory artifacts are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: ContentHash) -> PathBuf {
        self.dir.join(format!("{key}.art"))
    }

    /// Persists `payload` under `key` (atomic tmp + rename).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written; no partial
    /// file is left behind, so the key simply stays a miss.
    pub fn save(&self, key: ContentHash, payload: &[u8]) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&checksum64(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        write_file_atomic(&self.path_of(key), &bytes)
    }

    /// Returns the payload stored under `key`, or `None` when the key is
    /// absent or its file fails envelope validation (wrong magic or
    /// version, length disagreeing with the file size, checksum
    /// mismatch). Invalid files are removed so the next save repopulates
    /// them.
    ///
    /// The payload is read straight into the returned buffer, which is
    /// only allocated once the header's length matches the file size.
    pub fn load(&self, key: ContentHash) -> Option<Vec<u8>> {
        let path = self.path_of(key);
        let file = File::open(&path).ok()?;
        let payload = read_envelope(file);
        if payload.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        payload
    }

    /// True when `key` has a stored artifact (without reading the
    /// payload; the envelope is not validated).
    pub fn contains(&self, key: ContentHash) -> bool {
        self.path_of(key).exists()
    }
}

/// Reads one envelope from `file` and returns its validated payload.
fn read_envelope(mut file: File) -> Option<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).ok()?;
    if header[..4] != MAGIC || header[4] != VERSION {
        return None;
    }
    let checksum = u64::from_le_bytes(header[5..13].try_into().ok()?);
    let len = u64::from_le_bytes(header[13..21].try_into().ok()?);
    if len.checked_add(HEADER_LEN as u64)? != file.metadata().ok()?.len() {
        return None;
    }
    let mut payload = vec![0u8; usize::try_from(len).ok()?];
    file.read_exact(&mut payload).ok()?;
    (checksum64(&payload) == checksum).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rescue-artifact-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trip_and_miss() {
        let dir = scratch_dir("rt");
        let store = ArtifactStore::open(&dir);
        let key = ContentHash(42);
        assert!(store.load(key).is_none());
        assert!(!store.contains(key));
        store.save(key, b"payload").unwrap();
        assert!(store.contains(key));
        assert_eq!(store.load(key).as_deref(), Some(&b"payload"[..]));
        // Overwrite with different bytes (same key) is last-write-wins.
        store.save(key, b"other").unwrap();
        assert_eq!(store.load(key).as_deref(), Some(&b"other"[..]));
        // Empty payloads are valid artifacts.
        let empty = ContentHash(7);
        store.save(empty, b"").unwrap();
        assert_eq!(store.load(empty).as_deref(), Some(&b""[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_read_as_missing_and_are_removed() {
        let dir = scratch_dir("corrupt");
        let store = ArtifactStore::open(&dir);
        let key = ContentHash(9);
        store.save(key, b"good bytes").unwrap();
        let path = store.dir().join(format!("{key}.art"));

        // Flip one payload byte: checksum mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none());
        assert!(!path.exists(), "corrupt artifact should be deleted");

        // Truncated header.
        std::fs::write(&path, b"RSC").unwrap();
        assert!(store.load(key).is_none());
        assert!(!path.exists());

        // Wrong version.
        store.save(key, b"good bytes").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 0xee;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none());

        // A fresh save repopulates.
        store.save(key, b"good bytes").unwrap();
        assert_eq!(store.load(key).as_deref(), Some(&b"good bytes"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
