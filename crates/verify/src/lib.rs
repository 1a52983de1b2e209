//! Independent static verification and lint layer.
//!
//! The scheduler (`stream-sched`) *constructs* modulo schedules; this crate
//! *checks* them, re-deriving every legality condition from scratch so a
//! scheduler bug cannot vouch for itself:
//!
//! - [`verify_schedule`] re-counts per-modulo-slot functional-unit usage,
//!   re-checks every dependence edge against
//!   `t(to) + II·distance ≥ t(from) + latency`, recomputes ResMII and
//!   RecMII independently, and re-derives steady-state register pressure
//!   (diagnostics `E101`–`E106`, `W101`).
//! - [`lint_kernel`] flags what a built [`stream_ir::Kernel`] can still
//!   get wrong — degenerate recurrences and latency-table gaps — and warns
//!   about dead values and unused streams (`E007`, `E008`, `W00x`).
//!
//! All checkers return a [`Report`] of [`Diagnostic`]s with stable
//! [`Code`]s cataloged in `docs/lint_codes.md`. The crate deliberately
//! depends only on `stream-ir` and `stream-machine` — never on the
//! scheduler it checks — and keeps its own [`LatencyTable`] so latency
//! drift between the scheduler and the machine model is *caught* (`E106`)
//! rather than inherited.

#![warn(missing_docs)]

mod diag;
mod latency;
mod lint;
mod schedule;

pub use diag::{Code, Diagnostic, Report, Severity};
pub use latency::LatencyTable;
pub use lint::{lint_kernel, lint_kernel_with_table};
pub use schedule::{
    max_live, rec_mii, res_mii, verify_schedule, verify_schedule_with_table, DepEdge, DepGraph,
    DepKind, SchedNode,
};
