//! The persistable form of a compiled schedule.
//!
//! A [`ScheduleRecipe`] is the minimal information that lets a process skip
//! the expensive part of compilation — the unroll search and iterative
//! modulo scheduling — while re-deriving everything else deterministically
//! from the kernel and machine it is rehydrated against: the dependence
//! graph, MII bounds, register estimate, and schedule length are all cheap
//! functions of `(kernel, machine, recipe)`.
//!
//! Rehydration ([`crate::CompiledKernel::rehydrate`]) is *validating*: the
//! recipe's schedule is checked for dependence and resource legality against
//! a freshly built DDG before it is accepted, so a recipe from a corrupted,
//! stale, or even adversarial cache entry can never produce an illegal
//! `CompiledKernel` — the worst outcome is a rejected recipe and a
//! recompile.

/// The compact, persistable essence of one compiled schedule: the chosen
/// unroll factor, the initiation interval, and the per-DDG-node start
/// times. Everything else on a [`crate::CompiledKernel`] is re-derived at
/// rehydration time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRecipe {
    /// The unroll factor the compile-time search chose.
    pub unroll: u32,
    /// The initiation interval of the chosen schedule.
    pub ii: u32,
    /// Start time per DDG node, in the node order of the DDG built from
    /// the unrolled kernel on the target machine.
    pub times: Vec<u32>,
}

impl ScheduleRecipe {
    /// Serializes the recipe to a self-delimiting little-endian byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.times.len() * 4);
        out.extend_from_slice(&self.unroll.to_le_bytes());
        out.extend_from_slice(&self.ii.to_le_bytes());
        out.extend_from_slice(&(self.times.len() as u32).to_le_bytes());
        for &t in &self.times {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    /// Decodes a recipe previously produced by [`encode`](Self::encode).
    ///
    /// Returns `None` on any structural problem (short buffer, trailing
    /// bytes, or an advertised length the buffer cannot hold) — callers
    /// treat an undecodable recipe as a cache miss.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let fixed = 12usize;
        if bytes.len() < fixed {
            return None;
        }
        let u32_at = |i: usize| -> u32 {
            u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4-byte slice"))
        };
        let unroll = u32_at(0);
        let ii = u32_at(4);
        let n = u32_at(8) as usize;
        if bytes.len() != fixed + n.checked_mul(4)? {
            return None;
        }
        let times = (0..n).map(|i| u32_at(fixed + i * 4)).collect();
        Some(Self { unroll, ii, times })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrips() {
        let r = ScheduleRecipe {
            unroll: 4,
            ii: 7,
            times: vec![0, 3, 9, 14, 2],
        };
        assert_eq!(ScheduleRecipe::decode(&r.encode()), Some(r));
        let empty = ScheduleRecipe {
            unroll: 1,
            ii: 1,
            times: vec![],
        };
        assert_eq!(ScheduleRecipe::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn rejects_malformed_buffers() {
        let good = ScheduleRecipe {
            unroll: 2,
            ii: 3,
            times: vec![1, 2, 3],
        }
        .encode();
        // Truncations at every length.
        for keep in 0..good.len() {
            assert_eq!(ScheduleRecipe::decode(&good[..keep]), None, "keep {keep}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(ScheduleRecipe::decode(&long), None);
        // Length field larger than the buffer.
        let mut lying = good;
        lying[8] = 200;
        assert_eq!(ScheduleRecipe::decode(&lying), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            times in proptest::collection::vec(any::<u32>(), 0..8),
            at in any::<usize>(),
            flip in any::<u8>(),
            keep in any::<usize>(),
        ) {
            // Arbitrary bytes, and a valid encoding with one byte flipped
            // and the tail cut: anything accepted is canonical, i.e. it
            // re-encodes to the exact input.
            let mut near = ScheduleRecipe { unroll: 2, ii: 3, times }.encode();
            let i = at % near.len();
            near[i] ^= flip;
            near.truncate(keep % (near.len() + 1));
            for buf in [bytes, near] {
                if let Some(r) = ScheduleRecipe::decode(&buf) {
                    prop_assert_eq!(r.encode(), buf);
                }
            }
        }

        #[test]
        fn decode_inverts_encode(
            unroll in any::<u32>(),
            ii in any::<u32>(),
            times in proptest::collection::vec(any::<u32>(), 0..48),
        ) {
            let r = ScheduleRecipe { unroll, ii, times };
            prop_assert_eq!(ScheduleRecipe::decode(&r.encode()), Some(r));
        }
    }
}
