//! The tape instruction set: dense, `Copy`, operands pre-resolved to value
//! slots, opcodes specialized by static type at lowering time. Every
//! kernel-IR op lowers to exactly one instruction.

use crate::{Scalar, Ty};

/// One loop-carried recurrence, pre-resolved at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecurSlot {
    /// First-iteration value, as raw bits.
    pub(crate) init_bits: u32,
    /// Value whose lanes feed the next iteration.
    pub(crate) next: u32,
}

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
}

impl Instr {
    /// Whether this instruction can raise a runtime error.
    pub(crate) fn fallible(&self) -> bool {
        matches!(
            self,
            Instr::Read { .. }
                | Instr::CondRead { .. }
                | Instr::SpRead { .. }
                | Instr::SpWrite { .. }
                | Instr::Comm { .. }
                | Instr::DivI { .. }
                | Instr::Fault { .. }
        )
    }

    /// Whether this instruction may run once per kernel call, in the
    /// prologue: pure, infallible, and not per-iteration state. Hoisting a
    /// fallible instruction would surface its error even on zero-iteration
    /// runs, which the legacy interpreter never does. The compiler's
    /// hoisting pass and the translation validator both ask this.
    pub(crate) fn hoistable(&self) -> bool {
        !self.fallible() && !matches!(self, Instr::IterIndex { .. } | Instr::LoadRecur { .. })
    }

    /// The value slot this instruction defines, if any.
    pub(crate) fn def(&self) -> Option<u32> {
        use Instr::*;
        match *self {
            ConstBits { dst, .. }
            | Param { dst, .. }
            | IterIndex { dst }
            | ClusterId { dst }
            | ClusterCount { dst }
            | LoadRecur { dst, .. }
            | Read { dst, .. }
            | CondRead { dst, .. }
            | SpRead { dst, .. }
            | Comm { dst, .. }
            | AddI { dst, .. }
            | AddF { dst, .. }
            | SubI { dst, .. }
            | SubF { dst, .. }
            | MulI { dst, .. }
            | MulF { dst, .. }
            | DivI { dst, .. }
            | DivF { dst, .. }
            | Sqrt { dst, .. }
            | MinI { dst, .. }
            | MinF { dst, .. }
            | MaxI { dst, .. }
            | MaxF { dst, .. }
            | NegI { dst, .. }
            | NegF { dst, .. }
            | AbsI { dst, .. }
            | AbsF { dst, .. }
            | Floor { dst, .. }
            | And { dst, .. }
            | Or { dst, .. }
            | Xor { dst, .. }
            | Shl { dst, .. }
            | Shr { dst, .. }
            | EqI { dst, .. }
            | EqF { dst, .. }
            | NeI { dst, .. }
            | NeF { dst, .. }
            | LtI { dst, .. }
            | LtF { dst, .. }
            | LeI { dst, .. }
            | LeF { dst, .. }
            | Select { dst, .. }
            | ItoF { dst, .. }
            | FtoI { dst, .. } => Some(dst),
            Write { .. } | CondWrite { .. } | SpWrite { .. } | Fault { .. } => None,
        }
    }

    /// Calls `f` for every value slot this instruction reads.
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(u32)) {
        use Instr::*;
        match *self {
            ConstBits { .. }
            | Param { .. }
            | IterIndex { .. }
            | ClusterId { .. }
            | ClusterCount { .. }
            | LoadRecur { .. }
            | Read { .. }
            | Fault { .. } => {}
            Write { src, .. } => f(src),
            CondRead { pred, .. } => f(pred),
            CondWrite { pred, src, .. } => {
                f(pred);
                f(src);
            }
            SpRead { addr, .. } => f(addr),
            SpWrite { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Comm { data, src, .. } => {
                f(data);
                f(src);
            }
            AddI { a, b, .. }
            | AddF { a, b, .. }
            | SubI { a, b, .. }
            | SubF { a, b, .. }
            | MulI { a, b, .. }
            | MulF { a, b, .. }
            | DivI { a, b, .. }
            | DivF { a, b, .. }
            | MinI { a, b, .. }
            | MinF { a, b, .. }
            | MaxI { a, b, .. }
            | MaxF { a, b, .. }
            | And { a, b, .. }
            | Or { a, b, .. }
            | Xor { a, b, .. }
            | Shl { a, b, .. }
            | Shr { a, b, .. }
            | EqI { a, b, .. }
            | EqF { a, b, .. }
            | NeI { a, b, .. }
            | NeF { a, b, .. }
            | LtI { a, b, .. }
            | LtF { a, b, .. }
            | LeI { a, b, .. }
            | LeF { a, b, .. } => {
                f(a);
                f(b);
            }
            Sqrt { a, .. }
            | Floor { a, .. }
            | NegI { a, .. }
            | NegF { a, .. }
            | AbsI { a, .. }
            | AbsF { a, .. }
            | ItoF { a, .. }
            | FtoI { a, .. } => f(a),
            Select { cond, a, b, .. } => {
                f(cond);
                f(a);
                f(b);
            }
        }
    }
}

#[inline(always)]
pub(crate) fn bits_of(s: Scalar) -> u32 {
    match s {
        Scalar::I32(v) => v as u32,
        Scalar::F32(v) => v.to_bits(),
    }
}
