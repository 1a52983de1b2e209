//! Runtime values: the architecture's 32-bit words.

use std::fmt;

/// The static type of a kernel value — the architecture is 32-bit
/// (Table 1's `b = 32`), with integer and floating interpretations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 32-bit signed integer (also used for 16-bit media data, stored
    /// widened, as Imagine's tools did for simulation).
    I32,
    /// 32-bit IEEE float.
    F32,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I32 => f.write_str("i32"),
            Ty::F32 => f.write_str("f32"),
        }
    }
}

/// A runtime 32-bit word.
///
/// The `#[repr(u32)]` makes the layout a guarantee (RFC 2195): a `u32`
/// discriminant (`I32 = 0`, `F32 = 1`) followed by the 4-byte payload —
/// 8 bytes total, no padding, payload at offset 4, so an all-zero word
/// is `Scalar::I32(0)`. No code reinterprets scalar buffers; the layout
/// stays pinned by the compile-time asserts below and by
/// `repr_is_tag_payload_pair`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(u32)]
pub enum Scalar {
    /// Integer word.
    I32(i32) = 0,
    /// Floating-point word.
    F32(f32) = 1,
}

/// Compile-time checks of the layout contract.
const _: () = {
    assert!(std::mem::size_of::<Scalar>() == 8);
    assert!(std::mem::align_of::<Scalar>() == 4);
};

impl Scalar {
    /// The zero value of `ty`.
    pub fn zero(ty: Ty) -> Self {
        match ty {
            Ty::I32 => Scalar::I32(0),
            Ty::F32 => Scalar::F32(0.0),
        }
    }

    /// This value's type.
    pub fn ty(&self) -> Ty {
        match self {
            Scalar::I32(_) => Ty::I32,
            Scalar::F32(_) => Ty::F32,
        }
    }

    /// The integer payload, if this is an [`Scalar::I32`].
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Scalar::I32(v) => Some(*v),
            Scalar::F32(_) => None,
        }
    }

    /// The float payload, if this is an [`Scalar::F32`].
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Scalar::F32(v) => Some(*v),
            Scalar::I32(_) => None,
        }
    }

    /// Truthiness for predicates: nonzero integers are true.
    pub fn is_true(&self) -> bool {
        match self {
            Scalar::I32(v) => *v != 0,
            Scalar::F32(v) => *v != 0.0,
        }
    }
}

impl From<i32> for Scalar {
    fn from(v: i32) -> Self {
        Scalar::I32(v)
    }
}

impl From<f32> for Scalar {
    fn from(v: f32) -> Self {
        Scalar::F32(v)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::I32(v) => write!(f, "{v}"),
            Scalar::F32(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Scalar::from(7).as_i32(), Some(7));
        assert_eq!(Scalar::from(1.5f32).as_f32(), Some(1.5));
        assert_eq!(Scalar::from(7).as_f32(), None);
        assert_eq!(Scalar::from(1.5f32).as_i32(), None);
    }

    #[test]
    fn zero_has_matching_type() {
        assert_eq!(Scalar::zero(Ty::I32).ty(), Ty::I32);
        assert_eq!(Scalar::zero(Ty::F32).ty(), Ty::F32);
    }

    #[test]
    fn truthiness() {
        assert!(Scalar::I32(-3).is_true());
        assert!(!Scalar::I32(0).is_true());
        assert!(Scalar::F32(0.5).is_true());
        assert!(!Scalar::F32(0.0).is_true());
    }

    #[test]
    fn display() {
        assert_eq!(Scalar::I32(42).to_string(), "42");
        assert_eq!(Ty::F32.to_string(), "f32");
    }

    #[test]
    fn repr_is_tag_payload_pair() {
        // Pins the exact (tag, payload) bit layout the repr guarantees.
        let i: [u32; 2] = unsafe { std::mem::transmute(Scalar::I32(0x1234_5678)) };
        assert_eq!(i, [0, 0x1234_5678]);
        let f: [u32; 2] = unsafe { std::mem::transmute(Scalar::F32(1.5)) };
        assert_eq!(f, [1, 1.5f32.to_bits()]);
    }
}
