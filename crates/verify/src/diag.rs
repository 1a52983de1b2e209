//! The diagnostics substrate: stable codes, severities, and the [`Report`]
//! container every checker returns.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The artifact is wrong: an illegal schedule or malformed IR.
    Error,
    /// The artifact is legal but suspicious or wasteful.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Stable diagnostic codes. `E0xx` are IR lint errors, `W0xx` IR lint
/// warnings, `E1xx` schedule-verification errors, `W1xx` schedule
/// warnings. Codes never change meaning, and a retired code's number is
/// never reused; see `docs/lint_codes.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// E001: an operand names a value not defined before its use.
    UndefinedValue,
    /// E002: operand or result types violate the opcode's typing rule.
    TypeMismatch,
    /// E005: an operand names an op that produces no value (a write).
    NoValueOperand,
    /// E006: a recurrence is unbound, rebound, or bound to a non-value.
    RecurrenceBinding,
    /// E007: a recurrence next-chain cycles through recurrences only,
    /// carrying a zero-latency dependence with no scheduled producer.
    DegenerateRecurrence,
    /// E008: an op's scheduling class is missing from the verifier's
    /// independent latency table.
    MissingLatency,
    /// E009: a stream access names an undeclared stream.
    UnknownStream,
    /// W001: a side-effect-free value is never used.
    DeadValue,
    /// W002: a declared input stream is never read.
    UnusedInput,
    /// W003: a declared output stream is never written.
    UnusedOutput,
    /// E101: a modulo slot uses more functional units of one kind than the
    /// machine provides.
    SlotOversubscribed,
    /// E102: a dependence edge is violated:
    /// `t(to) + II*distance < t(from) + latency`.
    DependenceViolated,
    /// E103: the II is below the independently recomputed
    /// `max(ResMII, RecMII)`.
    IiBelowMii,
    /// E104: schedule shape mismatch (times/nodes length, edge endpoints
    /// out of range).
    ShapeMismatch,
    /// E105: the initiation interval is zero.
    ZeroIi,
    /// E106: a node or data edge carries a latency that disagrees with the
    /// verifier's independent latency table for this machine.
    LatencyDrift,
    /// W101: the schedule's steady-state MaxLive exceeds the cluster's LRF
    /// register capacity.
    RegisterPressure,
    // E003, E004 and E010 are retired with the textual kernel format, and
    // E201–E211 and W201–W203 with the execution tape (see
    // docs/lint_codes.md); the numbers are not reused.
}

impl Code {
    /// All codes, in catalog order.
    pub const ALL: [Code; 17] = [
        Code::UndefinedValue,
        Code::TypeMismatch,
        Code::NoValueOperand,
        Code::RecurrenceBinding,
        Code::DegenerateRecurrence,
        Code::MissingLatency,
        Code::UnknownStream,
        Code::DeadValue,
        Code::UnusedInput,
        Code::UnusedOutput,
        Code::SlotOversubscribed,
        Code::DependenceViolated,
        Code::IiBelowMii,
        Code::ShapeMismatch,
        Code::ZeroIi,
        Code::LatencyDrift,
        Code::RegisterPressure,
    ];

    /// The stable code string, e.g. `"E102"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::UndefinedValue => "E001",
            Code::TypeMismatch => "E002",
            Code::NoValueOperand => "E005",
            Code::RecurrenceBinding => "E006",
            Code::DegenerateRecurrence => "E007",
            Code::MissingLatency => "E008",
            Code::UnknownStream => "E009",
            Code::DeadValue => "W001",
            Code::UnusedInput => "W002",
            Code::UnusedOutput => "W003",
            Code::SlotOversubscribed => "E101",
            Code::DependenceViolated => "E102",
            Code::IiBelowMii => "E103",
            Code::ShapeMismatch => "E104",
            Code::ZeroIi => "E105",
            Code::LatencyDrift => "E106",
            Code::RegisterPressure => "W101",
        }
    }

    /// The severity this code always carries.
    pub fn severity(&self) -> Severity {
        match self.as_str().as_bytes()[0] {
            b'E' => Severity::Error,
            _ => Severity::Warning,
        }
    }

    /// One-line catalog description.
    pub fn description(&self) -> &'static str {
        match self {
            Code::UndefinedValue => "operand uses a value not defined before it",
            Code::TypeMismatch => "operand or result types violate the opcode's typing rule",
            Code::NoValueOperand => "operand names an op that produces no value",
            Code::RecurrenceBinding => "recurrence unbound, rebound, or bound improperly",
            Code::DegenerateRecurrence => "recurrence next-chain cycles through recurrences only",
            Code::MissingLatency => "scheduling class missing from the verifier's latency table",
            Code::UnknownStream => "stream access names an undeclared stream",
            Code::DeadValue => "side-effect-free value is never used",
            Code::UnusedInput => "declared input stream is never read",
            Code::UnusedOutput => "declared output stream is never written",
            Code::SlotOversubscribed => "modulo slot oversubscribes a functional-unit kind",
            Code::DependenceViolated => "dependence edge violated by the schedule",
            Code::IiBelowMii => "II below independently recomputed max(ResMII, RecMII)",
            Code::ShapeMismatch => "schedule shape mismatch (lengths or edge endpoints)",
            Code::ZeroIi => "initiation interval is zero",
            Code::LatencyDrift => "latency disagrees with the verifier's independent table",
            Code::RegisterPressure => "steady-state MaxLive exceeds LRF register capacity",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code and a human-readable message that names the value,
/// stream or node at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// What went wrong, with concrete values.
    pub message: String,
}

impl Diagnostic {
    /// The severity (determined by the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity(), self.code, self.message)
    }
}

/// The outcome of one verification or lint pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, code: Code, message: impl Into<String>) {
        self.diags.push(Diagnostic {
            code,
            message: message.into(),
        });
    }

    /// All diagnostics, in the order found.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// True when at least one error-severity diagnostic was found.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diags.len() - self.error_count()
    }

    /// True when some diagnostic carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Number of diagnostics carrying `code`.
    pub fn count(&self, code: Code) -> usize {
        self.diags.iter().filter(|d| d.code == code).count()
    }

    /// Merges `other`'s diagnostics into this report.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diags.is_empty() {
            return writeln!(f, "clean");
        }
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().len() == 4);
        }
    }

    #[test]
    fn severity_follows_prefix() {
        assert_eq!(Code::SlotOversubscribed.severity(), Severity::Error);
        assert_eq!(Code::DeadValue.severity(), Severity::Warning);
        assert_eq!(Code::RegisterPressure.severity(), Severity::Warning);
    }

    #[test]
    fn report_counts_by_severity() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Code::DependenceViolated, "x");
        r.push(Code::DeadValue, "y");
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has(Code::DeadValue));
        assert!(!r.has(Code::ZeroIi));
        assert_eq!(r.count(Code::DependenceViolated), 1);
    }

    #[test]
    fn display_names_the_code() {
        let mut r = Report::new();
        r.push(Code::UndefinedValue, "v9 is not defined");
        let s = r.to_string();
        assert!(s.contains("error[E001]"), "{s}");
    }
}
