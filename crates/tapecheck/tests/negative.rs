//! Negative fixtures for the tape translation validator: every `E2xx` and
//! `W2xx` code must demonstrably fire with the exact stable code asserted,
//! mirroring the per-code discipline of `stream-verify`'s own fixtures.
//! Each error fixture corrupts a correctly compiled tape with one targeted
//! miscompile (`TapeMutation`) and asserts the validator rejects it with
//! the designated code.

use stream_ir::{KernelBuilder, Scalar, Tape, TapeMutation, Ty};
use stream_tapecheck::{validate_tape, Code};

fn saxpy() -> Tape {
    let mut b = KernelBuilder::new("saxpy");
    let sx = b.in_stream(Ty::F32);
    let sy = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    let a = b.param(Ty::F32);
    let x = b.read(sx);
    let y = b.read(sy);
    let ax = b.mul(a, x);
    let r = b.add(ax, y);
    let half = b.const_f(0.5);
    let scaled = b.mul(r, half);
    b.write(out, scaled);
    Tape::compile(&b.finish().unwrap())
}

/// A read, a fallible divide, and plain integer arithmetic: sites for the
/// hoist, drop and self-operand corruptions.
fn gap() -> Tape {
    let mut b = KernelBuilder::new("gap");
    let sa = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    let p = b.param(Ty::I32);
    let x = b.read(sa);
    let q = b.div(p, p);
    let r = b.add(x, q);
    let sq = b.mul(r, r);
    b.write(out, sq);
    Tape::compile(&b.finish().unwrap())
}

fn accum() -> Tape {
    let mut b = KernelBuilder::new("accum");
    let s = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    let oc = b.out_stream(Ty::I32);
    let acc = b.recurrence(Scalar::I32(1));
    let x = b.read(s);
    let sum = b.add(acc, x);
    b.bind_next(acc, sum);
    b.write(out, sum);
    let one = b.const_i(1);
    let odd = b.and(sum, one);
    b.cond_write(oc, odd, sum);
    Tape::compile(&b.finish().unwrap())
}

fn fsub() -> Tape {
    let mut b = KernelBuilder::new("fsub");
    let sa = b.in_stream(Ty::F32);
    let sb = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    let x = b.read(sa);
    let y = b.read(sb);
    let d = b.sub(x, y);
    b.write(out, d);
    Tape::compile(&b.finish().unwrap())
}

fn assert_rejected(tape: &Tape, mutation: TapeMutation, code: Code) {
    let r = validate_tape(&tape.corrupted(mutation));
    assert!(r.has(code), "{mutation:?} must fire {code}, got:\n{r}");
}

// ------------------------------------------------------------ E2xx errors

#[test]
fn e201_swapped_float_sub_operands() {
    // Float subtraction does not commute: a tape that swaps the operands
    // computes different bits for any x != y.
    assert_rejected(
        &fsub(),
        TapeMutation::SwapSubOperands,
        Code::TapeWriteMismatch,
    );
}

#[test]
fn e201_corrupted_constant_bits() {
    assert_rejected(
        &saxpy(),
        TapeMutation::CorruptConstBits,
        Code::TapeWriteMismatch,
    );
}

#[test]
fn e202_dropped_write() {
    assert_rejected(&saxpy(), TapeMutation::DropWrite, Code::TapeWriteCoverage);
}

#[test]
fn e203_swapped_reads() {
    // Swapping the body's first two reads flips which stream's bounds
    // check runs first: with both streams exhausted, the wrong one is
    // blamed.
    assert_rejected(&saxpy(), TapeMutation::SwapReads, Code::TapeErrorOrder);
}

#[test]
fn e204_rewired_recurrence_feed() {
    assert_rejected(
        &accum(),
        TapeMutation::RewireRecurrence,
        Code::TapeRecurrence,
    );
}

#[test]
fn e204_corrupted_recurrence_init() {
    assert_rejected(
        &accum(),
        TapeMutation::CorruptRecurrenceInit,
        Code::TapeRecurrence,
    );
}

#[test]
fn e205_self_referential_operand() {
    assert_rejected(&gap(), TapeMutation::SelfOperand, Code::TapeOperandOrder);
}

#[test]
fn e206_dropped_definition() {
    assert_rejected(&gap(), TapeMutation::DropDef, Code::TapeUndefinedSlot);
}

#[test]
fn e207_hoisted_fallible_instruction() {
    assert_rejected(&gap(), TapeMutation::HoistFallible, Code::TapeHoistedEffect);
}

#[test]
fn e209_swapped_conditional_write_operands() {
    assert_rejected(
        &accum(),
        TapeMutation::SwapCondWriteOperands,
        Code::TapeCondStream,
    );
}

#[test]
fn e211_retargeted_write_offset() {
    assert_rejected(&saxpy(), TapeMutation::RetargetWrite, Code::TapeAccessShape);
}

// --------------------------------------------------------- W2xx warnings

#[test]
fn w202_dead_scratchpad_bounds_check() {
    let mut b = KernelBuilder::new("lut");
    let s = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    b.require_sp(8);
    let x = b.read(s);
    let seven = b.const_i(7);
    let addr = b.and(x, seven);
    b.sp_write(addr, x);
    let y = b.sp_read(addr, Ty::I32);
    b.write(out, y);
    let r = validate_tape(&Tape::compile(&b.finish().unwrap()));
    assert_eq!(r.count(Code::TapeDeadCheck), 2, "{r}");
    assert!(!r.has_errors(), "{r}");
}

#[test]
fn w203_division_by_constant_zero() {
    let mut b = KernelBuilder::new("divz");
    let s = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    let x = b.read(s);
    let zero = b.const_i(0);
    let q = b.div(x, zero);
    b.write(out, q);
    let r = validate_tape(&Tape::compile(&b.finish().unwrap()));
    assert!(r.has(Code::TapeStaticFault), "{r}");
    assert!(!r.has_errors(), "{r}");
}

// ------------------------------------------------------------- catalogue

#[test]
fn trunk_tapes_are_clean() {
    for tape in [saxpy(), gap(), accum(), fsub()] {
        let r = validate_tape(&tape);
        assert!(!r.has_errors(), "{r}");
    }
}

#[test]
fn every_tape_code_has_a_fixture_here() {
    // Eleven distinct corruptions above cover all nine live E2xx codes
    // (E208 and E210 are retired); the two live W2xx codes (W201 is
    // retired) have dedicated fixtures. Keep this count in sync when
    // extending the family.
    let tape_codes = Code::ALL
        .iter()
        .filter(|c| c.as_str().as_bytes()[1] == b'2')
        .count();
    assert_eq!(tape_codes, 11);
}
