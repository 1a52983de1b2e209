#![warn(missing_docs)]
//! A small, dependency-free, on-disk key-value store for persistent caches.
//!
//! The sweep engine's compiled-kernel cache is 200x+ faster warm than cold,
//! but an in-memory cache evaporates at process exit. [`DiskStore`] is the
//! persistence layer under it (and under the auto-tuner's results tier):
//! one file per entry, each framed with a magic, a format version, a payload
//! length, and a checksum, written to a temp file and `rename`d into place
//! so concurrent writers — including writers in *different processes* —
//! never expose a half-written entry to each other.
//!
//! Writes are not `fsync`'d: a crash or power cut may lose an entry or leave
//! a torn frame behind. The store is deliberately forgiving on the read
//! side: a missing, truncated, corrupted, or wrong-version entry is reported
//! as a plain miss (`None`), never an error or a panic — the caller
//! recomputes and the next `put` heals the entry. Losing a cache entry costs
//! a recompute; trusting a bad one would cost correctness.
//!
//! # Examples
//!
//! ```
//! use stream_store::{DiskStore, Key};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let store = DiskStore::open(&dir, "demo", 1)?;
//! let key = Key::of(b"fft-1k");
//! assert_eq!(store.get(key), None);
//! store.put(key, b"schedule bytes")?;
//! assert_eq!(store.get(key).as_deref(), Some(&b"schedule bytes"[..]));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes opening every entry file.
const MAGIC: [u8; 4] = *b"SSKV";
/// On-disk framing version (bump when the frame layout itself changes; the
/// per-store `version` passed to [`DiskStore::open`] covers payload schema).
const FRAME_VERSION: u32 = 1;
/// Entry filename suffix.
const SUFFIX: &str = ".entry";

/// The 64-bit FNV-1a hash, the workspace's standard cheap fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_seeded(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a from an arbitrary seed, for deriving independent hash lanes.
pub fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 128-bit store key: two independent 64-bit lanes, rendered as the entry
/// filename. Collisions across both lanes are negligible for cache-sized
/// populations, and payload self-identification (callers embedding their key
/// material in the payload) covers even those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// First hash lane.
    pub hi: u64,
    /// Second hash lane.
    pub lo: u64,
}

impl Key {
    /// Derives a key from raw key material by hashing it through two
    /// independently seeded FNV-1a lanes.
    pub fn of(material: &[u8]) -> Self {
        Self {
            hi: fnv1a(material),
            lo: fnv1a_seeded(0x9e37_79b9_7f4a_7c15, material),
        }
    }

    fn file_stem(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// A directory of versioned, checksummed cache entries.
///
/// Layout: `root/<namespace>.v<version>/<key-hex>.entry`. Opening a store
/// with a different `version` uses a different directory, so format bumps
/// never read (or clobber) old-format entries; stale version directories are
/// simply dead weight the operator can delete.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

/// Temp-file uniquifier shared by every store handle in the process: two
/// handles on the same directory (distinct `DiskStore` values, as the grid
/// cache tier and a test harness might hold) must never collide on a temp
/// name, and `(pid, global seq)` keeps names unique across processes too.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Opens the store for `namespace` at payload schema `version` under
    /// `root`, creating `root` if needed. The namespace directory itself is
    /// created by the first [`DiskStore::put`], so opening a store (as a
    /// daemon does at start-up) costs no directory creation on the
    /// filesystem's journal; until then every read is a miss.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if `root` cannot be created.
    pub fn open(root: &Path, namespace: &str, version: u32) -> io::Result<Self> {
        fs::create_dir_all(root)?;
        Ok(Self {
            dir: root.join(format!("{namespace}.v{version}")),
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reads the payload stored under `key`.
    ///
    /// Returns `None` for a missing entry **and** for any entry that fails
    /// validation (bad magic, wrong frame version, short file, checksum
    /// mismatch, I/O error mid-read); invalid entries are deleted
    /// best-effort so the next `put` starts clean. This method never panics
    /// and never surfaces an error: a disk cache read that cannot be
    /// trusted is exactly a miss.
    pub fn get(&self, key: Key) -> Option<Vec<u8>> {
        let _span = stream_trace::span("store", "get");
        let path = self.entry_path(key);
        let bytes = fs::read(&path).ok()?;
        match decode_frame(&bytes) {
            Some(payload) => Some(payload.to_vec()),
            None => {
                // Corrupt (torn write from a crashed process, bit rot,
                // foreign file): remove so the slot heals on the next put.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Writes `payload` under `key`, replacing any existing entry.
    ///
    /// The write is concurrency-safe: the frame is written to a
    /// process-unique temp file, then atomically renamed over the final
    /// name. Two processes racing on the same key each install a complete
    /// entry; the later rename wins and readers only ever observe whole
    /// frames. Nothing is `fsync`'d, so after a crash the entry may be
    /// missing or torn; [`DiskStore::get`] reads a torn frame as a miss.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the entry cannot be written —
    /// callers treat this as "cache unavailable", not a failure of the
    /// computation whose result was being stored.
    pub fn put(&self, key: Key, payload: &[u8]) -> io::Result<()> {
        let _span = stream_trace::span("store", "put");
        let frame = encode_frame(payload);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = fs::write(&tmp, &frame) {
            // The first write creates the namespace directory.
            if e.kind() != io::ErrorKind::NotFound {
                return Err(e);
            }
            fs::create_dir_all(&self.dir)?;
            fs::write(&tmp, &frame)?;
        }
        let path = self.entry_path(key);
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(())
    }

    /// Number of entries currently resident (invalid files included until
    /// the next `get` touches them).
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total on-disk bytes across this store's entries (frame headers
    /// included), for disk-usage gauges. Walks the directory; intended
    /// for sampling on scrape/report cadence, not hot paths.
    pub fn bytes(&self) -> u64 {
        self.entries()
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    fn entry_path(&self, key: Key) -> PathBuf {
        self.dir.join(format!("{}{SUFFIX}", key.file_stem()))
    }

    fn entries(&self) -> Vec<PathBuf> {
        let Ok(iter) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        iter.filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(SUFFIX))
            })
            .collect()
    }
}

/// Frames `payload` as `MAGIC | frame version | payload len | payload |
/// FNV-1a of everything preceding`.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a frame and returns its payload slice, or `None` on any
/// structural problem.
fn decode_frame(bytes: &[u8]) -> Option<&[u8]> {
    let header = 4 + 4 + 8;
    if bytes.len() < header + 8 || bytes[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != FRAME_VERSION {
        return None;
    }
    // The length field is untrusted: compare it with what the file holds
    // instead of adding it to anything.
    let len = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    if len != (bytes.len() - header - 8) as u64 {
        return None;
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if fnv1a(body) != sum {
        return None;
    }
    Some(&body[header..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A fresh, unique scratch directory (std-only; no tempfile crate).
    fn scratch() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "stream-store-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_and_missing() {
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        let k = Key::of(b"alpha");
        assert_eq!(s.get(k), None);
        s.put(k, b"payload").unwrap();
        assert_eq!(s.get(k).as_deref(), Some(&b"payload"[..]));
        // Overwrite.
        s.put(k, b"payload2").unwrap();
        assert_eq!(s.get(k).as_deref(), Some(&b"payload2"[..]));
        assert_eq!(s.len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn the_first_put_creates_the_namespace_directory() {
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        assert!(root.is_dir());
        assert!(!s.dir().exists());
        let k = Key::of(b"alpha");
        assert_eq!(s.get(k), None);
        assert_eq!((s.len(), s.bytes()), (0, 0));
        s.put(k, b"payload").unwrap();
        assert!(s.dir().is_dir());
        assert_eq!(s.get(k).as_deref(), Some(&b"payload"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_payload_roundtrips() {
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        let k = Key::of(b"");
        s.put(k, b"").unwrap();
        assert_eq!(s.get(k).as_deref(), Some(&b""[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_entry_is_a_miss_and_is_removed() {
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        let k = Key::of(b"victim");
        s.put(k, b"good data").unwrap();
        let path = s.entry_path(k);
        // Flip a payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get(k), None);
        assert!(!path.exists(), "corrupt entry should be deleted");
        // The slot heals.
        s.put(k, b"fresh").unwrap();
        assert_eq!(s.get(k).as_deref(), Some(&b"fresh"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        let k = Key::of(b"short");
        s.put(k, b"a perfectly fine payload").unwrap();
        let path = s.entry_path(k);
        let bytes = fs::read(&path).unwrap();
        for keep in [0usize, 3, 12, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert_eq!(s.get(k), None, "kept {keep} bytes");
            // get() removed the bad file; restore for the next round.
            fs::write(&path, &bytes).unwrap();
        }
        assert_eq!(s.get(k).as_deref(), Some(&b"a perfectly fine payload"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn foreign_garbage_is_a_miss() {
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        let k = Key::of(b"garbage");
        fs::create_dir_all(s.dir()).unwrap();
        fs::write(s.entry_path(k), b"not a frame at all").unwrap();
        assert_eq!(s.get(k), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn versions_are_isolated_directories() {
        let root = scratch();
        let v1 = DiskStore::open(&root, "ns", 1).unwrap();
        let v2 = DiskStore::open(&root, "ns", 2).unwrap();
        let k = Key::of(b"k");
        v1.put(k, b"old format").unwrap();
        assert_eq!(v2.get(k), None, "new version must not read old entries");
        v2.put(k, b"new format").unwrap();
        assert_eq!(v1.get(k).as_deref(), Some(&b"old format"[..]));
        assert_eq!(v2.get(k).as_deref(), Some(&b"new format"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn frame_version_mismatch_is_a_miss() {
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        let k = Key::of(b"frame");
        s.put(k, b"data").unwrap();
        let path = s.entry_path(k);
        let mut bytes = fs::read(&path).unwrap();
        // Bump the frame version field and re-checksum so only the version
        // check can reject it.
        bytes[4] = 99;
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get(k), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_writers_same_dir_never_corrupt() {
        // Two independent handles on the same directory (the same protocol
        // two *processes* use — the handles share no in-memory state, only
        // the rename-based on-disk protocol) hammered from many threads.
        // See `two_process_writers_never_corrupt` for the real multi-process
        // version of this test.
        let root = scratch();
        let a = DiskStore::open(&root, "t", 1).unwrap();
        let b = DiskStore::open(&root, "t", 1).unwrap();
        let keys: Vec<Key> = (0..4u32)
            .map(|i| Key::of(format!("shared{i}").as_bytes()))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let store = if t % 2 == 0 { &a } else { &b };
                let keys = &keys;
                scope.spawn(move || {
                    for round in 0..50usize {
                        let k = keys[(t + round) % keys.len()];
                        let payload = vec![(t * 31 + round) as u8; 64 + round];
                        store.put(k, &payload).unwrap();
                        if let Some(read) = store.get(k) {
                            // Whatever writer won, the frame must be whole:
                            // homogeneous payload of the advertised length.
                            assert!(!read.is_empty());
                            let first = read[0];
                            assert!(
                                read.iter().all(|&x| x == first),
                                "torn read: mixed payload bytes"
                            );
                        }
                    }
                });
            }
        });
        // Every surviving entry validates.
        for &k in &keys {
            assert!(a.get(k).is_some(), "entry lost after concurrent writes");
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// Env-var knob letting this test binary re-enter itself as a writer
    /// child: the real two-process concurrency test below.
    const HAMMER_ENV: &str = "STREAM_STORE_HAMMER_DIR";

    #[test]
    fn two_process_writers_never_corrupt() {
        if let Ok(dir) = std::env::var(HAMMER_ENV) {
            // Child mode: hammer the store and exit. (The assert-free body
            // keeps child failures visible as nonzero exit status.)
            let s = DiskStore::open(Path::new(&dir), "proc", 1).unwrap();
            for round in 0..200usize {
                let k = Key::of(format!("pk{}", round % 5).as_bytes());
                let payload = vec![(round % 251) as u8; 128];
                s.put(k, &payload).unwrap();
                let _ = s.get(k);
            }
            return;
        }
        let root = scratch();
        fs::create_dir_all(&root).unwrap();
        let exe = std::env::current_exe().unwrap();
        let spawn = || {
            std::process::Command::new(&exe)
                .args(["tests::two_process_writers_never_corrupt", "--exact"])
                .env(HAMMER_ENV, &root)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn hammer child")
        };
        let mut kids = [spawn(), spawn()];
        // Read concurrently from the parent while the children write.
        let s = DiskStore::open(&root, "proc", 1).unwrap();
        for round in 0..200usize {
            let k = Key::of(format!("pk{}", round % 5).as_bytes());
            if let Some(read) = s.get(k) {
                assert_eq!(read.len(), 128, "torn cross-process read");
                let first = read[0];
                assert!(read.iter().all(|&x| x == first), "mixed payload");
            }
        }
        for kid in &mut kids {
            let status = kid.wait().unwrap();
            assert!(status.success(), "hammer child failed: {status}");
        }
        // Post-mortem: every entry on disk decodes.
        for i in 0..5u32 {
            let k = Key::of(format!("pk{i}").as_bytes());
            let v = s.get(k).expect("entry survives both processes");
            assert_eq!(v.len(), 128);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn huge_length_field_is_a_miss() {
        // A length field near `u64::MAX` must be compared with the file
        // size, never added to: `header + len + 8` would overflow.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&[0; 8]);
        assert_eq!(decode_frame(&frame), None);
        let root = scratch();
        let s = DiskStore::open(&root, "t", 1).unwrap();
        let k = Key::of(b"huge");
        fs::create_dir_all(s.dir()).unwrap();
        fs::write(s.entry_path(k), &frame).unwrap();
        assert_eq!(s.get(k), None);
        fs::remove_dir_all(&root).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            len in any::<u64>(),
        ) {
            // Raw bytes, and the same bytes behind a valid header with an
            // arbitrary length field.
            let mut framed = MAGIC.to_vec();
            framed.extend_from_slice(&FRAME_VERSION.to_le_bytes());
            framed.extend_from_slice(&len.to_le_bytes());
            framed.extend_from_slice(&bytes);
            let _ = decode_frame(&bytes);
            let _ = decode_frame(&framed);
        }

        #[test]
        fn decode_inverts_encode(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            let frame = encode_frame(&payload);
            prop_assert_eq!(decode_frame(&frame), Some(&payload[..]));
        }

        #[test]
        fn torn_and_flipped_frames_are_rejected(
            payload in proptest::collection::vec(any::<u8>(), 0..24),
        ) {
            // What a crash without fsync can leave behind: a strict prefix
            // of the frame, or a frame with a damaged bit. Both must read
            // as a miss.
            let frame = encode_frame(&payload);
            for keep in 0..frame.len() {
                prop_assert_eq!(decode_frame(&frame[..keep]), None, "prefix of {}", keep);
            }
            let mut flipped = frame.clone();
            for bit in 0..frame.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(decode_frame(&flipped), None, "bit {}", bit);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn key_lanes_are_independent() {
        let a = Key::of(b"abc");
        let b = Key::of(b"abd");
        assert_ne!(a, b);
        assert_ne!(a.hi, a.lo);
        // Stable across calls.
        assert_eq!(a, Key::of(b"abc"));
    }
}
