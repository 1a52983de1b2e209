//! Persistent tuning results: a `stream-store` namespace keyed by
//! (application, machine configuration, search space), so warm restarts
//! replay winners instead of re-running searches.
//!
//! Rehydrated winners are **re-validated, not trusted**: the caller
//! rebuilds both the default and the winning program and re-simulates
//! them; the stored entry is only honored when both cycle counts still
//! match. Anything else — a changed cost model, simulator, scheduler, or
//! a corrupt payload — falls through to a full search that overwrites the
//! stale entry.

use std::io;
use std::path::Path;
use std::sync::OnceLock;

use stream_machine::Machine;
use stream_store::{DiskStore, Key};

use crate::space::{fingerprint, Candidate, STRIP_SCALES, UNROLL_SETS};

/// Bump when the payload layout or its semantics change; stale versions
/// land in a different namespace directory and are simply never read.
/// Version 2 dropped the tape-tier and native-policy bytes from the
/// candidate encoding.
const FORMAT_VERSION: u32 = 2;

/// Namespace carries the crate version, like the serve planner's results
/// tier: a rebuilt binary never replays winners tuned by another build.
const NAMESPACE: &str = concat!("tune-", env!("CARGO_PKG_VERSION"));

static DISK: OnceLock<DiskStore> = OnceLock::new();

/// Attaches the process-wide persistent tuning-results tier rooted at
/// `root`. Every search completed after this call is written through, and
/// later processes (or a restarted one) rehydrate validated winners with
/// zero searches. Returns `false` if a tier was already attached (the
/// existing one is kept).
///
/// # Errors
///
/// Propagates the failure to create or open the store directory.
pub fn attach_global_disk(root: &Path) -> io::Result<bool> {
    if DISK.get().is_some() {
        return Ok(false);
    }
    let store = DiskStore::open(root, NAMESPACE, FORMAT_VERSION)?;
    Ok(DISK.set(store).is_ok())
}

/// A decoded stored result, pending re-validation by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredTuned {
    pub winner: Candidate,
    pub default_cycles: u64,
    pub tuned_cycles: u64,
}

/// The key material ties a result to everything that could change it:
/// the app, the machine's shape *and* technology fingerprint, the search
/// space's fingerprint `space` (a different space → a different key), and
/// the format version. Sections are u32-le length-framed so no field can
/// bleed into its neighbor.
fn key_material(app: &str, machine: &Machine, space: u64) -> Vec<u8> {
    let cfg = machine.config();
    let mut blob = Vec::with_capacity(64);
    let section = |bytes: &[u8], out: &mut Vec<u8>| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    section(b"stream-tune.key", &mut blob);
    section(app.as_bytes(), &mut blob);
    section(&cfg.shape.clusters.to_le_bytes(), &mut blob);
    section(&cfg.shape.alus_per_cluster.to_le_bytes(), &mut blob);
    section(&cfg.params_fingerprint.to_le_bytes(), &mut blob);
    section(&space.to_le_bytes(), &mut blob);
    section(&FORMAT_VERSION.to_le_bytes(), &mut blob);
    blob
}

fn encode(material: &[u8], stored: &StoredTuned) -> Vec<u8> {
    let mut payload = Vec::with_capacity(material.len() + 64);
    payload.extend_from_slice(&(material.len() as u32).to_le_bytes());
    payload.extend_from_slice(material);
    stored.winner.encode(&mut payload);
    payload.extend_from_slice(&stored.default_cycles.to_le_bytes());
    payload.extend_from_slice(&stored.tuned_cycles.to_le_bytes());
    payload
}

/// `None` on any structural mismatch — truncation, trailing garbage, or
/// embedded key material that differs from what we looked up (a hash
/// collision or cross-namespace mixup); corrupt entries read as misses.
fn decode(payload: &[u8], material: &[u8]) -> Option<StoredTuned> {
    let len = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let mut at = 4usize;
    if payload.get(at..at + len)? != material {
        return None;
    }
    at += len;
    let (winner, used) = Candidate::decode(payload.get(at..)?)?;
    at += used;
    let default_cycles = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
    at += 8;
    let tuned_cycles = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
    at += 8;
    if at != payload.len() {
        return None;
    }
    Some(StoredTuned {
        winner,
        default_cycles,
        tuned_cycles,
    })
}

/// The key material of `(app, machine)` in the search's space.
fn key(app: &str, machine: &Machine) -> Vec<u8> {
    key_material(app, machine, fingerprint(&UNROLL_SETS, &STRIP_SCALES))
}

/// Loads the stored result for `(app, machine)`, if a disk tier is
/// attached and holds a structurally valid entry. The caller still
/// re-validates cycle counts before honoring it.
pub(crate) fn load(app: &str, machine: &Machine) -> Option<StoredTuned> {
    let disk = DISK.get()?;
    let material = key(app, machine);
    let payload = disk.get(Key::of(&material))?;
    decode(&payload, &material)
}

/// Writes `stored` through to the disk tier, if one is attached. Write
/// failures are swallowed: persistence is an accelerator, never a
/// correctness dependency.
pub(crate) fn save(app: &str, machine: &Machine, stored: &StoredTuned) {
    if let Some(disk) = DISK.get() {
        let material = key(app, machine);
        let _ = disk.put(Key::of(&material), &encode(&material, stored));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> StoredTuned {
        StoredTuned {
            winner: Candidate {
                unroll_factors: vec![1, 2, 4],
                strip_scale: 2,
            },
            default_cycles: 123_456,
            tuned_cycles: 98_765,
        }
    }

    #[test]
    fn payload_roundtrips() {
        let m = Machine::baseline();
        let material = key("CONV", &m);
        let stored = sample();
        let payload = encode(&material, &stored);
        assert_eq!(decode(&payload, &material), Some(stored));
    }

    #[test]
    fn truncated_or_padded_payloads_are_misses() {
        let m = Machine::baseline();
        let material = key("CONV", &m);
        let payload = encode(&material, &sample());
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            assert_eq!(decode(&payload[..cut], &material), None, "cut at {cut}");
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(decode(&padded, &material), None);
    }

    #[test]
    fn key_material_separates_machines_spaces_and_apps() {
        let base = key("CONV", &Machine::baseline());
        let big = Machine::paper(stream_vlsi::Shape::new(64, 8));
        assert_ne!(base, key("CONV", &big));
        assert_ne!(base, key("QRD", &Machine::baseline()));
        let narrowed = fingerprint(&UNROLL_SETS, &[1]);
        assert_ne!(base, key_material("CONV", &Machine::baseline(), narrowed));
    }

    /// A payload header carrying `material`, so fuzzed tails reach the
    /// candidate decoder instead of failing the key comparison.
    fn framed(material: &[u8], tail: &[u8]) -> Vec<u8> {
        let mut payload = (material.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(material);
        payload.extend_from_slice(tail);
        payload
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let material = key("CONV", &Machine::baseline());
            // Whole payload arbitrary, including its length prefix.
            let _ = decode(&bytes, &material);
            // Valid header, arbitrary candidate and cycle bytes.
            let _ = decode(&framed(&material, &bytes), &material);
        }

        #[test]
        fn decode_inverts_encode_for_random_candidates(
            unroll_factors in proptest::collection::vec(any::<u32>(), 0..65),
            strip_scale in any::<u32>(),
            default_cycles in any::<u64>(),
            tuned_cycles in any::<u64>(),
        ) {
            let material = key("QRD", &Machine::baseline());
            let stored = StoredTuned {
                winner: Candidate { unroll_factors, strip_scale },
                default_cycles,
                tuned_cycles,
            };
            prop_assert_eq!(decode(&encode(&material, &stored), &material), Some(stored));
        }
    }
}
