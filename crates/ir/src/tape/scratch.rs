//! Untagged scratchpad storage: raw `u32` bits plus two bitmasks.
//!
//! The v1 tape stored the scratchpad as `Vec<Option<Scalar>>` — every
//! SpRead/SpWrite lane branched on an enum tag and rebuilt a `Scalar`. Here
//! a slot is three bits of metadata away from free: `bits` holds the word,
//! an *initialized* mask distinguishes never-written slots (which read as
//! zero of the expected type — zero bits for both `i32` and `f32`, so the
//! read needs no special case), and a *type* mask remembers whether the
//! last write was `f32`, preserving the legacy interpreter's dynamic
//! `TypeMismatch { found }` error exactly.
//!
//! Layout is **addr-major** (`index = addr * clusters + lane`), so
//! broadcasting one word to every cluster — the `sp_init` path — is a
//! contiguous fill rather than the strided per-cluster loop v1 used.

use crate::Ty;

#[derive(Debug, Default)]
pub(super) struct Scratchpad {
    bits: Vec<u32>,
    init: Vec<u64>,
    f32s: Vec<u64>,
}

impl Scratchpad {
    /// An empty scratchpad (for kernels that never touch SP).
    pub(super) fn unused() -> Self {
        Self::default()
    }

    /// Allocates `sp_words * clusters` zeroed, uninitialized slots.
    pub(super) fn new(sp_words: usize, clusters: usize) -> Self {
        let n = sp_words * clusters;
        let words = n.div_ceil(64);
        Self {
            bits: vec![0; n],
            init: vec![0; words],
            f32s: vec![0; words],
        }
    }

    /// Reads slot `idx` expecting `ty`. Uninitialized slots read as zero of
    /// the expected type; a type confusion returns the stored type.
    #[inline(always)]
    pub(super) fn read(&self, idx: usize, ty: Ty) -> Result<u32, Ty> {
        let (w, b) = (idx / 64, idx % 64);
        if self.init[w] >> b & 1 != 0 {
            let stored = if self.f32s[w] >> b & 1 != 0 {
                Ty::F32
            } else {
                Ty::I32
            };
            if stored != ty {
                return Err(stored);
            }
        }
        Ok(self.bits[idx])
    }

    /// Writes `bits` of type `ty` into slot `idx`, marking it initialized.
    #[inline(always)]
    pub(super) fn write(&mut self, idx: usize, bits: u32, ty: Ty) {
        self.bits[idx] = bits;
        let (w, b) = (idx / 64, idx % 64);
        self.init[w] |= 1 << b;
        match ty {
            Ty::F32 => self.f32s[w] |= 1 << b,
            Ty::I32 => self.f32s[w] &= !(1 << b),
        }
    }

    /// Broadcasts one word across every cluster's copy of `addr` — a single
    /// contiguous fill in the addr-major layout.
    pub(super) fn broadcast(&mut self, addr: usize, clusters: usize, bits: u32, ty: Ty) {
        let start = addr * clusters;
        self.bits[start..start + clusters].fill(bits);
        for idx in start..start + clusters {
            let (w, b) = (idx / 64, idx % 64);
            self.init[w] |= 1 << b;
            match ty {
                Ty::F32 => self.f32s[w] |= 1 << b,
                Ty::I32 => self.f32s[w] &= !(1 << b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninitialized_reads_are_typed_zero() {
        let sp = Scratchpad::new(4, 2);
        assert_eq!(sp.read(0, Ty::I32), Ok(0));
        assert_eq!(sp.read(7, Ty::F32), Ok(0)); // 0.0f32 is all-zero bits
    }

    #[test]
    fn writes_round_trip_and_remember_type() {
        let mut sp = Scratchpad::new(4, 2);
        sp.write(3, 0x4048_f5c3, Ty::F32); // 3.14f32
        assert_eq!(sp.read(3, Ty::F32), Ok(0x4048_f5c3));
        assert_eq!(sp.read(3, Ty::I32), Err(Ty::F32));
        sp.write(3, 42, Ty::I32);
        assert_eq!(sp.read(3, Ty::I32), Ok(42));
        assert_eq!(sp.read(3, Ty::F32), Err(Ty::I32));
    }

    #[test]
    fn broadcast_fills_every_cluster() {
        let clusters = 3;
        let mut sp = Scratchpad::new(4, clusters);
        sp.broadcast(2, clusters, 99, Ty::I32);
        for lane in 0..clusters {
            assert_eq!(sp.read(2 * clusters + lane, Ty::I32), Ok(99));
            assert_eq!(sp.read(2 * clusters + lane, Ty::F32), Err(Ty::I32));
        }
        // Neighboring addresses stay untouched.
        assert_eq!(sp.read(clusters, Ty::F32), Ok(0));
    }
}
