//! The tuner's candidate space: unroll policies × strip batching.

use stream_sched::CompileOptions;

/// One point of the search space. `unroll_factors` is the set the scheduler
/// may pick from (always containing 1, so candidate compiles never fail
/// outright); `strip_scale` batches that many natural strips per kernel
/// call in the application's stream program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Unroll factors the scheduler's search may choose between.
    pub unroll_factors: Vec<u32>,
    /// Natural strips batched per kernel call (1 = the default program).
    pub strip_scale: u32,
}

impl Candidate {
    /// The baseline: default scheduler options, no strip batching. Always
    /// evaluated first; the winner must beat it strictly or the tuner
    /// returns it unchanged.
    pub fn default_point() -> Self {
        Self {
            unroll_factors: CompileOptions::default().unroll_factors,
            strip_scale: 1,
        }
    }

    /// Scheduler options for this candidate.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions::default().unroll_factors(self.unroll_factors.clone())
    }

    /// Whether this is the default program's point.
    pub fn is_default(&self) -> bool {
        *self == Candidate::default_point()
    }

    /// One-line display, e.g. `unroll=<=4 strip=2`.
    pub fn describe(&self) -> String {
        let cap = self.unroll_factors.iter().copied().max().unwrap_or(1);
        let unroll = if self.unroll_factors == Candidate::default_point().unroll_factors {
            "default".to_string()
        } else {
            format!("<={cap}")
        };
        format!("unroll={unroll} strip={}", self.strip_scale)
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.unroll_factors.len() as u32).to_le_bytes());
        for &u in &self.unroll_factors {
            out.extend_from_slice(&u.to_le_bytes());
        }
        out.extend_from_slice(&self.strip_scale.to_le_bytes());
    }

    pub(crate) fn decode(bytes: &[u8]) -> Option<(Self, usize)> {
        let mut at = 0usize;
        let take4 = |at: &mut usize| -> Option<[u8; 4]> {
            let b = bytes.get(*at..*at + 4)?;
            *at += 4;
            Some([b[0], b[1], b[2], b[3]])
        };
        let n = u32::from_le_bytes(take4(&mut at)?) as usize;
        if n > 64 {
            return None;
        }
        let mut unroll = Vec::with_capacity(n);
        for _ in 0..n {
            unroll.push(u32::from_le_bytes(take4(&mut at)?));
        }
        let strip = u32::from_le_bytes(take4(&mut at)?);
        Some((
            Self {
                unroll_factors: unroll,
                strip_scale: strip,
            },
            at,
        ))
    }
}

/// The unroll-factor sets the search enumerates, default first. Every set
/// contains 1 (so candidate compiles cannot fail outright); `default` is
/// the scheduler's own 1/2/4/8 search, `deep` extends it past the default
/// cap.
pub const UNROLL_SETS: [&[u32]; 7] = [
    &[1, 2, 4, 8], // default — must stay first
    &[1],
    &[1, 2],
    &[1, 2, 3],
    &[1, 2, 4],
    &[1, 2, 4, 6],
    &[1, 2, 4, 8, 12, 16], // deep
];

/// The strip-batching factors the search enumerates, 1 first.
pub(crate) const STRIP_SCALES: [u32; 3] = [1, 2, 4];

/// The search's candidates in deterministic evaluation order, default
/// point first: every unroll set at every strip scale.
pub fn candidates() -> Vec<Candidate> {
    let mut out = vec![Candidate::default_point()];
    for set in UNROLL_SETS {
        for strip in STRIP_SCALES {
            let c = Candidate {
                unroll_factors: set.to_vec(),
                strip_scale: strip,
            };
            if !c.is_default() {
                out.push(c);
            }
        }
    }
    out
}

/// A stable fingerprint of a search space, mixed into the persistence key
/// so results found under a different space are never replayed as this
/// space's winners.
pub(crate) fn fingerprint(unroll_sets: &[&[u32]], strip_scales: &[u32]) -> u64 {
    let mut blob = Vec::new();
    for set in unroll_sets {
        blob.extend_from_slice(&(set.len() as u32).to_le_bytes());
        for &u in *set {
            blob.extend_from_slice(&u.to_le_bytes());
        }
    }
    blob.push(0xfe);
    for &s in strip_scales {
        blob.extend_from_slice(&s.to_le_bytes());
    }
    stream_store::fnv1a(&blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_point_is_first_and_unique() {
        let cands = candidates();
        assert!(cands[0].is_default());
        assert_eq!(cands.iter().filter(|c| c.is_default()).count(), 1);
        // 7 unroll sets x 3 strips = 21 points, one of which is default.
        assert_eq!(cands.len(), 21);
    }

    #[test]
    fn every_unroll_set_contains_one() {
        for set in UNROLL_SETS {
            assert!(set.contains(&1), "{set:?} could fail to compile");
        }
    }

    #[test]
    fn candidate_roundtrips_through_bytes() {
        let c = Candidate {
            unroll_factors: vec![1, 2, 4, 6],
            strip_scale: 4,
        };
        let mut bytes = Vec::new();
        c.encode(&mut bytes);
        let (back, used) = Candidate::decode(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(used, bytes.len());
        assert!(Candidate::decode(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn fingerprint_tracks_the_space() {
        let a = fingerprint(&UNROLL_SETS, &STRIP_SCALES);
        // Pinned: another value re-keys every persisted winner.
        assert_eq!(a, 0x0066_5941_ea30_ece5);
        assert_ne!(a, fingerprint(&UNROLL_SETS, &[1, 2]));
        assert_ne!(a, fingerprint(&UNROLL_SETS[..6], &STRIP_SCALES));
    }
}
