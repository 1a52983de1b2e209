//! Lint pass over built [`Kernel`]s: the errors the builder deliberately
//! allows — degenerate recurrences and latency-table gaps — plus the
//! warnings for dead values and unused streams. Every message names the
//! value (`v3: …`) or stream (`input stream s1 …`) at fault.
//!
//! The builder's own rules (arity, definition order, operand value-ness,
//! typing, stream declarations, recurrence bindings) are not re-checked:
//! only `KernelBuilder::finish` constructs a `Kernel`, and it enforces them
//! as each op is added.

use crate::{Code, LatencyTable, Report};
use stream_ir::{Kernel, Opcode, StreamId, ValueId};

/// Lints `kernel` with the default latency table.
pub fn lint_kernel(kernel: &Kernel) -> Report {
    lint_kernel_with_table(kernel, &LatencyTable::default())
}

/// Lints `kernel`: checks recurrence next-chains (E007) and latency-table
/// coverage (E008), and warns on dead values (W001) and unused streams
/// (W002, W003).
pub fn lint_kernel_with_table(kernel: &Kernel, table: &LatencyTable) -> Report {
    let mut report = Report::new();
    for i in 0..kernel.ops().len() {
        let v = ValueId(i as u32);
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
    use stream_ir::{KernelBuilder, Scalar, Ty};
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
