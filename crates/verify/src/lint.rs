//! Lint pass over built [`Kernel`]s: structural re-checks the builder is
//! supposed to enforce (so a builder regression is caught here), plus the
//! warnings the builder deliberately allows — dead values and unused
//! streams. Every message names the value (`v3: …`) or stream (`input
//! stream s1 …`) at fault.

use crate::{Code, LatencyTable, Report};
use stream_ir::{Kernel, Op, Opcode, StreamId, Ty, ValueId};

/// Lints `kernel` with the default latency table.
pub fn lint_kernel(kernel: &Kernel) -> Report {
    lint_kernel_with_table(kernel, &LatencyTable::default())
}

/// Lints `kernel`: re-checks definition order (E001), operand value-ness
/// (E005), the full typing rules (E002, E009), recurrence bindings (E006,
/// E007), latency-table coverage (E008), and warns on dead values (W001)
/// and unused streams (W002, W003).
pub fn lint_kernel_with_table(kernel: &Kernel, table: &LatencyTable) -> Report {
    let mut report = Report::new();
    let ops = kernel.ops();

    for (i, op) in ops.iter().enumerate() {
        let v = ValueId(i as u32);
        if op.args.len() != op.opcode.arity() {
            report.push(
                Code::TypeMismatch,
                format!(
                    "{v}: {:?} expects {} operand(s), has {}",
                    op.opcode,
                    op.opcode.arity(),
                    op.args.len()
                ),
            );
            continue;
        }
        let mut operands_ok = true;
        for &a in &op.args {
            if a.index() >= i {
                report.push(
                    Code::UndefinedValue,
                    format!("{v}: operand {a} is not defined before use"),
                );
                operands_ok = false;
            } else if !ops[a.index()].opcode.produces_value() {
                report.push(
                    Code::NoValueOperand,
                    format!("{v}: operand {a} produces no value"),
                );
                operands_ok = false;
            }
        }
        if !operands_ok {
            continue;
        }
        if let Some((code, msg)) = check_op_types(kernel, v, op) {
            report.push(code, msg);
        }
        if let Some(class) = kernel.class_of(v) {
            if table.get(class).is_none() {
                report.push(
                    Code::MissingLatency,
                    format!("{v}: class {class} has no latency-table entry"),
                );
            }
        }
    }

    check_recurrences(kernel, &mut report);
    check_dead_values(kernel, &mut report);
    check_stream_usage(kernel, &mut report);
    report
}

/// One opcode's typing rule, re-stated independently of the builder.
fn check_op_types(kernel: &Kernel, v: ValueId, op: &Op) -> Option<(Code, String)> {
    use Opcode::*;
    let ty = |a: ValueId| kernel.ty(a);
    let rt = kernel.ty(v);
    let a = &op.args;
    let mismatch = |msg: String| Some((Code::TypeMismatch, format!("{v}: {msg}")));
    let in_decl = |s: StreamId| kernel.inputs().get(s.index());
    let out_decl = |s: StreamId| kernel.outputs().get(s.index());
    let unknown = |s: StreamId, dir: &str| {
        Some((
            Code::UnknownStream,
            format!("{v}: {dir} stream {s} is not declared"),
        ))
    };

    match &op.opcode {
        Const(s) if rt != s.ty() => mismatch(format!("const of {} typed {rt}", s.ty())),
        Param(_, t) if rt != *t => mismatch(format!("param of {t} typed {rt}")),
        IterIndex | ClusterId | ClusterCount if rt != Ty::I32 => {
            mismatch(format!("index op typed {rt}, must be i32"))
        }
        Recur(init) => {
            if rt != init.ty() {
                return mismatch(format!("recurrence init {} typed {rt}", init.ty()));
            }
            match kernel.recur_next(v) {
                None => Some((
                    Code::RecurrenceBinding,
                    format!("{v}: recurrence has no bound next value"),
                )),
                Some(n) if ty(n) != rt => {
                    mismatch(format!("recurrence {rt} bound to {n} of {}", ty(n)))
                }
                Some(_) => None,
            }
        }
        Add | Sub | Mul | Div | Min | Max => {
            if ty(a[0]) != ty(a[1]) {
                mismatch(format!("operands {} vs {}", ty(a[0]), ty(a[1])))
            } else if rt != ty(a[0]) {
                mismatch(format!("result {rt}, operands {}", ty(a[0])))
            } else {
                None
            }
        }
        Neg | Abs if rt != ty(a[0]) => mismatch(format!("result {rt}, operand {}", ty(a[0]))),
        Sqrt | Floor if ty(a[0]) != Ty::F32 || rt != Ty::F32 => {
            mismatch(format!("f32-only op on {} -> {rt}", ty(a[0])))
        }
        And | Or | Xor | Shl | Shr
            if ty(a[0]) != Ty::I32 || ty(a[1]) != Ty::I32 || rt != Ty::I32 =>
        {
            mismatch(format!(
                "integer op on {} and {} -> {rt}",
                ty(a[0]),
                ty(a[1])
            ))
        }
        Eq | Ne | Lt | Le => {
            if ty(a[0]) != ty(a[1]) {
                mismatch(format!("compare of {} vs {}", ty(a[0]), ty(a[1])))
            } else if rt != Ty::I32 {
                mismatch(format!("compare result typed {rt}, must be i32"))
            } else {
                None
            }
        }
        Select => {
            if ty(a[0]) != Ty::I32 {
                mismatch(format!("select condition is {}, must be i32", ty(a[0])))
            } else if ty(a[1]) != ty(a[2]) || rt != ty(a[1]) {
                mismatch(format!("select arms {} vs {} -> {rt}", ty(a[1]), ty(a[2])))
            } else {
                None
            }
        }
        ItoF if ty(a[0]) != Ty::I32 || rt != Ty::F32 => {
            mismatch(format!("itof on {} -> {rt}", ty(a[0])))
        }
        FtoI if ty(a[0]) != Ty::F32 || rt != Ty::I32 => {
            mismatch(format!("ftoi on {} -> {rt}", ty(a[0])))
        }
        Read(s) => match in_decl(*s) {
            None => unknown(*s, "input"),
            Some(d) if rt != d.ty => mismatch(format!("read of {} stream typed {rt}", d.ty)),
            Some(_) => None,
        },
        Write(s) => match out_decl(*s) {
            None => unknown(*s, "output"),
            Some(d) if ty(a[0]) != d.ty => {
                mismatch(format!("write of {} to {} stream", ty(a[0]), d.ty))
            }
            Some(_) => None,
        },
        CondRead(s) => match in_decl(*s) {
            None => unknown(*s, "input"),
            Some(_) if ty(a[0]) != Ty::I32 => {
                mismatch(format!("cond_rd predicate is {}", ty(a[0])))
            }
            Some(d) if rt != d.ty => mismatch(format!("cond_rd of {} typed {rt}", d.ty)),
            Some(_) => None,
        },
        CondWrite(s) => match out_decl(*s) {
            None => unknown(*s, "output"),
            Some(_) if ty(a[0]) != Ty::I32 => {
                mismatch(format!("cond_wr predicate is {}", ty(a[0])))
            }
            Some(d) if ty(a[1]) != d.ty => {
                mismatch(format!("cond_wr of {} to {} stream", ty(a[1]), d.ty))
            }
            Some(_) => None,
        },
        SpRead(t) => {
            if ty(a[0]) != Ty::I32 {
                mismatch(format!("sp_rd address is {}, must be i32", ty(a[0])))
            } else if rt != *t {
                mismatch(format!("sp_rd of {t} typed {rt}"))
            } else {
                None
            }
        }
        SpWrite if ty(a[0]) != Ty::I32 => {
            mismatch(format!("sp_wr address is {}, must be i32", ty(a[0])))
        }
        Comm => {
            if ty(a[1]) != Ty::I32 {
                mismatch(format!("comm source cluster is {}, must be i32", ty(a[1])))
            } else if rt != ty(a[0]) {
                mismatch(format!("comm of {} typed {rt}", ty(a[0])))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// E007: a recurrence whose next-chain never leaves the recurrence ops —
/// it carries a zero-latency "dependence" with no scheduled producer.
fn check_recurrences(kernel: &Kernel, report: &mut Report) {
    for (r, _) in kernel.recurrences() {
        let mut cur = r;
        let mut hops = 0usize;
        while let Some(next) = kernel.recur_next(cur) {
            if !matches!(kernel.ops()[next.index()].opcode, Opcode::Recur(_)) {
                break;
            }
            hops += 1;
            if next == r || hops > kernel.ops().len() {
                report.push(
                    Code::DegenerateRecurrence,
                    format!("{r}: recurrence next-chain cycles through recurrences only"),
                );
                break;
            }
            cur = next;
        }
    }
}

/// Ops whose only observable effect is their result value.
fn is_pure(opcode: &Opcode) -> bool {
    !matches!(
        opcode,
        Opcode::Read(_)
            | Opcode::CondRead(_)
            | Opcode::Write(_)
            | Opcode::CondWrite(_)
            | Opcode::SpWrite
    )
}

/// W001: pure values never consumed by any op or recurrence binding.
fn check_dead_values(kernel: &Kernel, report: &mut Report) {
    let mut used = vec![false; kernel.ops().len()];
    for op in kernel.ops() {
        for &a in &op.args {
            if let Some(slot) = used.get_mut(a.index()) {
                *slot = true;
            }
        }
    }
    for (_, n) in kernel.recurrences() {
        if let Some(slot) = used.get_mut(n.index()) {
            *slot = true;
        }
    }
    for (i, op) in kernel.ops().iter().enumerate() {
        let v = ValueId(i as u32);
        if op.opcode.produces_value() && is_pure(&op.opcode) && !used[i] {
            report.push(
                Code::DeadValue,
                format!("{v}: {:?} result is never used", op.opcode),
            );
        }
    }
}

/// W002/W003: declared streams with no accesses (record width zero).
fn check_stream_usage(kernel: &Kernel, report: &mut Report) {
    for (i, decl) in kernel.inputs().iter().enumerate() {
        if decl.record_width == 0 {
            let s = StreamId(i as u32);
            report.push(Code::UnusedInput, format!("input stream {s} is never read"));
        }
    }
    for (i, decl) in kernel.outputs().iter().enumerate() {
        if decl.record_width == 0 {
            let s = StreamId(i as u32);
            report.push(
                Code::UnusedOutput,
                format!("output stream {s} is never written"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_ir::{KernelBuilder, Scalar};
    use stream_machine::OpClass;

    fn saxpy() -> Kernel {
        let mut b = KernelBuilder::new("saxpy");
        let xs = b.in_stream(Ty::F32);
        let ys = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let a = b.const_f(2.0);
        let x = b.read(xs);
        let y = b.read(ys);
        let ax = b.mul(a, x);
        let r = b.add(ax, y);
        b.write(out, r);
        b.finish().unwrap()
    }

    #[test]
    fn clean_kernel_lints_clean() {
        let r = lint_kernel(&saxpy());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn dead_value_warning_names_the_value() {
        let mut b = KernelBuilder::new("dead");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let _unused = b.add(x, x);
        let y = b.add(x, x);
        b.write(out, y);
        let k = b.finish().unwrap();
        let r = lint_kernel(&k);
        assert!(!r.has_errors());
        assert_eq!(r.count(Code::DeadValue), 1);
        let d = &r.diagnostics()[0];
        assert!(d.message.starts_with("v1: "), "{d}");
    }

    #[test]
    fn unused_streams_warn() {
        let mut b = KernelBuilder::new("unused");
        let s = b.in_stream(Ty::I32);
        let _ghost_in = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::I32);
        let _ghost_out = b.out_stream(Ty::F32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        let r = lint_kernel(&k);
        assert!(r.has(Code::UnusedInput));
        assert!(r.has(Code::UnusedOutput));
    }

    #[test]
    fn degenerate_recurrence_cycle_is_an_error() {
        let mut b = KernelBuilder::new("spin");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let r1 = b.recurrence(Scalar::F32(0.0));
        let r2 = b.recurrence(Scalar::F32(0.0));
        b.bind_next(r1, r2);
        b.bind_next(r2, r1);
        let x = b.read(s);
        let y = b.add(x, r1);
        b.write(out, y);
        let k = b.finish().unwrap();
        let r = lint_kernel(&k);
        assert!(r.has(Code::DegenerateRecurrence), "{r}");
    }

    #[test]
    fn missing_latency_entry_is_reported() {
        let k = saxpy();
        let table = LatencyTable::default().without(OpClass::FloatMul);
        let r = lint_kernel_with_table(&k, &table);
        assert_eq!(r.count(Code::MissingLatency), 1);
    }
}
