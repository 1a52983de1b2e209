//! The tape instruction set: dense, `Copy`, operands pre-resolved to value
//! slots, opcodes specialized by static type at lowering time.
//!
//! Besides the one-op instructions the lowering emits directly, the set
//! includes *fused superinstructions* that the peephole pass
//! ([`super::fuse`]) substitutes for hot two/three-instruction chains:
//! multiply-accumulate shapes (`MulAddF` and friends — computed with two
//! roundings, never contracted to a hardware FMA, so results stay bit-exact
//! against the legacy interpreter), constant-operand binaries (`BinKR` /
//! `BinKL`), op-into-write (`BinW`), and read-into-op (`BinRL` / `BinRR`).

use crate::{Scalar, Ty};

/// One loop-carried recurrence, pre-resolved at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecurSlot {
    /// First-iteration value, as raw bits.
    pub(crate) init_bits: u32,
    /// Value whose lanes feed the next iteration.
    pub(crate) next: u32,
}

/// Binary opcode carried by the generic fused forms (`BinKR`, `BinW`, …).
/// Only infallible binaries appear here: integer division keeps its
/// dedicated fallible instruction and is never fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BinOp {
    AddI,
    AddF,
    SubI,
    SubF,
    MulI,
    MulF,
    DivF,
    MinI,
    MinF,
    MaxI,
    MaxF,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    EqI,
    EqF,
    NeI,
    NeF,
    LtI,
    LtF,
    LeI,
    LeF,
}

/// Expands `$go!(closure)` with the bits-level scalar function for `$op`.
/// Every closure is `u32 -> u32 -> u32` on raw lane bits, with the same
/// conversions the dedicated instructions use, so fused forms compute
/// bit-identical results.
macro_rules! for_binop {
    ($op:expr, $go:ident) => {
        match $op {
            BinOp::AddI => $go!(|x, y| (x as i32).wrapping_add(y as i32) as u32),
            BinOp::AddF => $go!(|x, y| (f32::from_bits(x) + f32::from_bits(y)).to_bits()),
            BinOp::SubI => $go!(|x, y| (x as i32).wrapping_sub(y as i32) as u32),
            BinOp::SubF => $go!(|x, y| (f32::from_bits(x) - f32::from_bits(y)).to_bits()),
            BinOp::MulI => $go!(|x, y| (x as i32).wrapping_mul(y as i32) as u32),
            BinOp::MulF => $go!(|x, y| (f32::from_bits(x) * f32::from_bits(y)).to_bits()),
            BinOp::DivF => $go!(|x, y| (f32::from_bits(x) / f32::from_bits(y)).to_bits()),
            BinOp::MinI => $go!(|x, y| (x as i32).min(y as i32) as u32),
            BinOp::MinF => $go!(|x, y| f32::from_bits(x).min(f32::from_bits(y)).to_bits()),
            BinOp::MaxI => $go!(|x, y| (x as i32).max(y as i32) as u32),
            BinOp::MaxF => $go!(|x, y| f32::from_bits(x).max(f32::from_bits(y)).to_bits()),
            BinOp::And => $go!(|x, y| ((x as i32) & (y as i32)) as u32),
            BinOp::Or => $go!(|x, y| ((x as i32) | (y as i32)) as u32),
            BinOp::Xor => $go!(|x, y| ((x as i32) ^ (y as i32)) as u32),
            BinOp::Shl => $go!(|x, y| (x as i32).wrapping_shl(y) as u32),
            BinOp::Shr => $go!(|x, y| (x as i32).wrapping_shr(y) as u32),
            BinOp::EqI => $go!(|x, y| u32::from((x as i32) == (y as i32))),
            BinOp::EqF => $go!(|x, y| u32::from(f32::from_bits(x) == f32::from_bits(y))),
            BinOp::NeI => $go!(|x, y| u32::from((x as i32) != (y as i32))),
            BinOp::NeF => $go!(|x, y| u32::from(f32::from_bits(x) != f32::from_bits(y))),
            BinOp::LtI => $go!(|x, y| u32::from((x as i32) < (y as i32))),
            BinOp::LtF => $go!(|x, y| u32::from(f32::from_bits(x) < f32::from_bits(y))),
            BinOp::LeI => $go!(|x, y| u32::from((x as i32) <= (y as i32))),
            BinOp::LeF => $go!(|x, y| u32::from(f32::from_bits(x) <= f32::from_bits(y))),
        }
    };
}
pub(crate) use for_binop;

/// A tape instruction: operand `ValueId`s resolved to dense value slots,
/// opcodes specialized by the kernel's static types, stream accesses
/// carrying their record width and word offset inline.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    ConstBits {
        dst: u32,
        bits: u32,
    },
    Param {
        dst: u32,
        idx: u32,
    },
    IterIndex {
        dst: u32,
    },
    ClusterId {
        dst: u32,
    },
    ClusterCount {
        dst: u32,
    },
    LoadRecur {
        dst: u32,
        slot: u32,
    },
    Read {
        dst: u32,
        stream: u32,
        width: u32,
        offset: u32,
    },
    Write {
        src: u32,
        stream: u32,
        width: u32,
        offset: u32,
    },
    CondRead {
        dst: u32,
        pred: u32,
        stream: u32,
    },
    CondWrite {
        pred: u32,
        src: u32,
        stream: u32,
    },
    SpRead {
        dst: u32,
        addr: u32,
        ty: Ty,
    },
    SpWrite {
        at: u32,
        addr: u32,
        src: u32,
        ty: Ty,
    },
    Comm {
        dst: u32,
        data: u32,
        src: u32,
    },
    AddI {
        dst: u32,
        a: u32,
        b: u32,
    },
    AddF {
        dst: u32,
        a: u32,
        b: u32,
    },
    SubI {
        dst: u32,
        a: u32,
        b: u32,
    },
    SubF {
        dst: u32,
        a: u32,
        b: u32,
    },
    MulI {
        dst: u32,
        a: u32,
        b: u32,
    },
    MulF {
        dst: u32,
        a: u32,
        b: u32,
    },
    DivI {
        dst: u32,
        a: u32,
        b: u32,
    },
    DivF {
        dst: u32,
        a: u32,
        b: u32,
    },
    Sqrt {
        dst: u32,
        a: u32,
    },
    MinI {
        dst: u32,
        a: u32,
        b: u32,
    },
    MinF {
        dst: u32,
        a: u32,
        b: u32,
    },
    MaxI {
        dst: u32,
        a: u32,
        b: u32,
    },
    MaxF {
        dst: u32,
        a: u32,
        b: u32,
    },
    NegI {
        dst: u32,
        a: u32,
    },
    NegF {
        dst: u32,
        a: u32,
    },
    AbsI {
        dst: u32,
        a: u32,
    },
    AbsF {
        dst: u32,
        a: u32,
    },
    Floor {
        dst: u32,
        a: u32,
    },
    And {
        dst: u32,
        a: u32,
        b: u32,
    },
    Or {
        dst: u32,
        a: u32,
        b: u32,
    },
    Xor {
        dst: u32,
        a: u32,
        b: u32,
    },
    Shl {
        dst: u32,
        a: u32,
        b: u32,
    },
    Shr {
        dst: u32,
        a: u32,
        b: u32,
    },
    EqI {
        dst: u32,
        a: u32,
        b: u32,
    },
    EqF {
        dst: u32,
        a: u32,
        b: u32,
    },
    NeI {
        dst: u32,
        a: u32,
        b: u32,
    },
    NeF {
        dst: u32,
        a: u32,
        b: u32,
    },
    LtI {
        dst: u32,
        a: u32,
        b: u32,
    },
    LtF {
        dst: u32,
        a: u32,
        b: u32,
    },
    LeI {
        dst: u32,
        a: u32,
        b: u32,
    },
    LeF {
        dst: u32,
        a: u32,
        b: u32,
    },
    Select {
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
    },
    ItoF {
        dst: u32,
        a: u32,
    },
    FtoI {
        dst: u32,
        a: u32,
    },
    /// A lowering-time type inconsistency (impossible for builder-validated
    /// kernels), deferred to runtime so zero-iteration runs still succeed —
    /// exactly as the legacy interpreter behaves.
    Fault {
        at: u32,
        expected: Ty,
        found: Ty,
    },
    // ---- fused superinstructions (emitted by the peephole pass only) ----
    /// `(a * b) + c`, two roundings, mul was the add's left operand.
    MulAddF {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    /// `c + (a * b)`, two roundings, mul was the add's right operand.
    AddMulF {
        dst: u32,
        c: u32,
        a: u32,
        b: u32,
    },
    /// `(a * b) - c`, two roundings.
    MulSubF {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    /// `c - (a * b)`, two roundings.
    SubMulF {
        dst: u32,
        c: u32,
        a: u32,
        b: u32,
    },
    /// `(a * b) + (c * d)` — the complex-multiply accumulation shape.
    MulMulAddF {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        d: u32,
    },
    /// `(a * b) - (c * d)`.
    MulMulSubF {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        d: u32,
    },
    /// `(a * b) + c`, wrapping; covers both add operand orders.
    MulAddI {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    /// `(a * b) - c`, wrapping.
    MulSubI {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    /// `c - (a * b)`, wrapping.
    SubMulI {
        dst: u32,
        c: u32,
        a: u32,
        b: u32,
    },
    /// `a op k` with the constant's bits embedded (constant on the right).
    BinKR {
        op: BinOp,
        dst: u32,
        a: u32,
        k: u32,
    },
    /// `k op b` with the constant's bits embedded (constant on the left).
    BinKL {
        op: BinOp,
        dst: u32,
        k: u32,
        b: u32,
    },
    /// `write(stream, a op b)` — the op's lanes go straight to the output
    /// range, never materialized in the value lattice.
    BinW {
        op: BinOp,
        a: u32,
        b: u32,
        stream: u32,
        width: u32,
        offset: u32,
    },
    /// `read(stream) op b` — stream words feed the op directly.
    BinRL {
        op: BinOp,
        dst: u32,
        b: u32,
        stream: u32,
        width: u32,
        offset: u32,
    },
    /// `a op read(stream)`.
    BinRR {
        op: BinOp,
        dst: u32,
        a: u32,
        stream: u32,
        width: u32,
        offset: u32,
    },
    // ---- pair-fused superinstructions (two defs or two writes each) ----
    /// Two stream reads back to back, bounds-checked in original program
    /// order (`a` first) so a starved run reports exactly the error the
    /// serial tape would. Only built from reads separated by nothing
    /// fallible.
    Read2 {
        da: u32,
        sa: u32,
        wa: u32,
        oa: u32,
        db: u32,
        sb: u32,
        wb: u32,
        ob: u32,
    },
    /// Complex multiply `(a + i·c) * (b + i·d)`: `re = a*b - c*d`,
    /// `im = a*d + c*b`, each with two roundings in the original operand
    /// order, so both halves are bit-exact against the unfused pair.
    CMulF {
        re_dst: u32,
        im_dst: u32,
        a: u32,
        b: u32,
        c: u32,
        d: u32,
    },
    /// Radix-2 butterfly: `add_dst = a + b`, `sub_dst = a - b`. Only built
    /// from an `AddF`/`SubF` pair with identical operand order (float add is
    /// not treated as commutative at the bit level).
    BflyF {
        add_dst: u32,
        sub_dst: u32,
        a: u32,
        b: u32,
    },
    /// Butterfly straight into the output ranges: `a + b` goes to the first
    /// stream slot, `a - b` to the second, nothing lands in the lattice.
    BflyWF {
        a: u32,
        b: u32,
        add_stream: u32,
        add_width: u32,
        add_offset: u32,
        sub_stream: u32,
        sub_width: u32,
        sub_offset: u32,
    },
}

impl Instr {
    /// Whether this instruction can raise a runtime error. Fused read forms
    /// count: they carry a moved bounds check.
    pub(crate) fn fallible(&self) -> bool {
        matches!(
            self,
            Instr::Read { .. }
                | Instr::Read2 { .. }
                | Instr::CondRead { .. }
                | Instr::SpRead { .. }
                | Instr::SpWrite { .. }
                | Instr::Comm { .. }
                | Instr::DivI { .. }
                | Instr::Fault { .. }
                | Instr::BinRL { .. }
                | Instr::BinRR { .. }
        )
    }
}

#[inline(always)]
pub(crate) fn bits_of(s: Scalar) -> u32 {
    match s {
        Scalar::I32(v) => v as u32,
        Scalar::F32(v) => v.to_bits(),
    }
}

/// Splits the value lattice into the `dst` lane row and the (strictly
/// earlier, by SSA) operand rows.
#[inline(always)]
pub(crate) fn split2(vals: &mut [u32], c: usize, dst: u32, a: u32) -> (&mut [u32], &[u32]) {
    let (lo, hi) = vals.split_at_mut(dst as usize * c);
    (&mut hi[..c], &lo[a as usize * c..a as usize * c + c])
}

#[inline(always)]
#[allow(clippy::type_complexity)]
pub(crate) fn split3(
    vals: &mut [u32],
    c: usize,
    dst: u32,
    a: u32,
    b: u32,
) -> (&mut [u32], &[u32], &[u32]) {
    let (lo, hi) = vals.split_at_mut(dst as usize * c);
    (
        &mut hi[..c],
        &lo[a as usize * c..a as usize * c + c],
        &lo[b as usize * c..b as usize * c + c],
    )
}

/// Splits off the `dst` row, returning it plus the whole earlier region so
/// callers can slice any number of operand rows out of `lo` via [`row`].
#[inline(always)]
pub(crate) fn split_dst(vals: &mut [u32], c: usize, dst: u32) -> (&mut [u32], &[u32]) {
    let (lo, hi) = vals.split_at_mut(dst as usize * c);
    (&mut hi[..c], lo)
}

/// Splits off two distinct `dst` rows (in the caller's role order, either
/// slot order) plus the region strictly before the lower of the two, which
/// by SSA holds every operand row of a pair-fused instruction.
#[inline(always)]
#[allow(clippy::type_complexity)]
pub(crate) fn split_dst2(
    vals: &mut [u32],
    c: usize,
    da: u32,
    db: u32,
) -> (&mut [u32], &mut [u32], &[u32]) {
    let (lo_d, hi_d) = if da < db { (da, db) } else { (db, da) };
    let (lo, hi) = vals.split_at_mut(hi_d as usize * c);
    let hi_row = &mut hi[..c];
    let (early, lo_region) = lo.split_at_mut(lo_d as usize * c);
    let lo_row = &mut lo_region[..c];
    if da < db {
        (lo_row, hi_row, early)
    } else {
        (hi_row, lo_row, early)
    }
}

#[inline(always)]
pub(crate) fn row(lo: &[u32], c: usize, v: u32) -> &[u32] {
    &lo[v as usize * c..v as usize * c + c]
}

#[inline(always)]
pub(crate) fn fill(vals: &mut [u32], c: usize, dst: u32, bits: u32) {
    let d = dst as usize * c;
    vals[d..d + c].fill(bits);
}
