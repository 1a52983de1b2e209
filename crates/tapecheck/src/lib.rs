//! Translation validation for compiled execution tapes, surfaced through
//! the [`stream_verify`] diagnostic discipline.
//!
//! The analysis itself lives next to the tape compiler
//! ([`stream_ir::Tape::validate`]): it symbolically re-executes the kernel
//! IR and its compiled tape over one abstract iteration and proves them
//! equivalent (write expressions, ordered fault sites, recurrence wiring,
//! SSA slot layout), then classifies each fallible site
//! with an interval analysis. This crate maps those findings onto the
//! stable `E2xx`/`W2xx` codes of [`stream_verify::Code`] so tape
//! validation composes with the schedule verifier and IR linter in one
//! [`Report`]: same severities, same `has`/`count` assertions, same
//! rendering. See `docs/lint_codes.md` for the catalog and DESIGN.md §12
//! for the abstract domain.
//!
//! ```
//! use stream_ir::{KernelBuilder, Tape, Ty};
//!
//! let mut b = KernelBuilder::new("double");
//! let s = b.in_stream(Ty::I32);
//! let out = b.out_stream(Ty::I32);
//! let x = b.read(s);
//! let two = b.const_i(2);
//! let y = b.mul(x, two);
//! b.write(out, y);
//! let tape = Tape::compile(&b.finish().unwrap());
//!
//! let report = stream_tapecheck::validate_tape(&tape);
//! assert!(report.is_clean(), "{report}");
//! ```

#![warn(missing_docs)]

use stream_ir::{Tape, TapeCheckKind, TapeFinding};
pub use stream_verify::{Code, Diagnostic, Report, Severity};

/// The stable diagnostic code each finding kind maps to. Total: every
/// kind has exactly one code, and the mapping never changes.
pub fn code_for(kind: TapeCheckKind) -> Code {
    match kind {
        TapeCheckKind::WriteMismatch => Code::TapeWriteMismatch,
        TapeCheckKind::WriteCoverage => Code::TapeWriteCoverage,
        TapeCheckKind::ErrorOrder => Code::TapeErrorOrder,
        TapeCheckKind::RecurrenceWiring => Code::TapeRecurrence,
        TapeCheckKind::OperandOrder => Code::TapeOperandOrder,
        TapeCheckKind::UndefinedSlot => Code::TapeUndefinedSlot,
        TapeCheckKind::HoistedEffect => Code::TapeHoistedEffect,
        TapeCheckKind::CondStreamMismatch => Code::TapeCondStream,
        TapeCheckKind::AccessShape => Code::TapeAccessShape,
        TapeCheckKind::DeadCheck => Code::TapeDeadCheck,
        TapeCheckKind::StaticFault => Code::TapeStaticFault,
    }
}

/// Converts raw validator findings into a [`Report`], prefixing each
/// message with the kernel name in `context`.
pub fn report_findings(context: &str, findings: &[TapeFinding]) -> Report {
    let mut report = Report::new();
    for f in findings {
        report.push(code_for(f.kind), format!("{context}: {}", f.message), None);
    }
    report
}

/// Translation-validates `tape` and returns the findings as a standard
/// diagnostic report. A report without errors is a proof of
/// per-iteration equivalence between the tape and the legacy interpreter
/// semantics; error-severity diagnostics are miscompiles, warnings come
/// from the value-range analysis.
pub fn validate_tape(tape: &Tape) -> Report {
    report_findings(tape.kernel().name(), &tape.validate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_code_mapping_is_injective_and_severity_preserving() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in TapeCheckKind::ALL {
            let code = code_for(kind);
            assert!(seen.insert(code.as_str()), "duplicate code for {kind:?}");
            let expect = if kind.is_error() {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(code.severity(), expect, "{kind:?} -> {code}");
            assert!(
                code.as_str().as_bytes()[1] == b'2',
                "{kind:?} must map into the 2xx family, got {code}"
            );
        }
    }
}
