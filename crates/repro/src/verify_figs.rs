//! The `verify` experiment: sweep the full Figure 13 x Figure 14
//! configuration grid, tally the independent verifier's report (from
//! `stream-verify`) on every compiled kernel schedule, and lint every
//! kernel's IR.
//!
//! A clean run is the evidence that the scheduler's output is legal by an
//! implementation that shares none of its code — the paper's results rest
//! on these schedules being real.

use crate::kernel_figs::{FIG13_NS, FIG14_CS};
use crate::sweep::Ctx;
use crate::{ExperimentId, Report};
use stream_kernels::KernelId;
use stream_machine::Machine;
use stream_verify::lint_kernel;
use stream_vlsi::Shape;

/// Verifies every suite kernel's schedule and IR across the full
/// `(C, N)` grid of Figures 13 and 14.
///
/// # Panics
///
/// Panics if any suite kernel fails to compile — the same precondition as
/// the figures themselves.
pub(crate) fn verify_impl(ctx: &Ctx) -> Report {
    let mut r = Report::new(
        "verify",
        "Independent schedule verification across the (C, N) grid",
    )
    .with_headers([
        "kernel",
        "configs",
        "sched errors",
        "sched warnings",
        "lint errors",
        "lint warnings",
    ]);
    // One job per (kernel, C, N) config; schedules come from the shared
    // cache, so a `repro all` run verifies the very schedules the figures
    // measured rather than recompiling its own. Each schedule carries the
    // independent verifier's report from its compile or rehydration.
    let cells: Vec<(KernelId, u32, u32)> = KernelId::ALL
        .iter()
        .flat_map(|&id| {
            FIG14_CS
                .iter()
                .flat_map(move |&c| FIG13_NS.iter().map(move |&n| (id, c, n)))
        })
        .collect();
    let checks = ctx.map(cells, |(id, c, n)| {
        let machine = Machine::paper(Shape::new(c, n));
        let kernel = id.build(&machine);
        let lint = lint_kernel(&kernel);
        let compiled = ctx
            .scope
            .compile_default(&kernel, &machine)
            .expect("suite kernels schedule on all paper machines");
        let report = compiled.verification();
        (
            lint.error_count(),
            lint.warning_count(),
            report.error_count(),
            report.warning_count(),
        )
    });
    let configs_per_kernel = FIG14_CS.len() * FIG13_NS.len();
    let mut total_errors = 0usize;
    for (ki, id) in KernelId::ALL.iter().enumerate() {
        let mut sums = (0usize, 0usize, 0usize, 0usize);
        for (le, lw, se, sw) in &checks[ki * configs_per_kernel..(ki + 1) * configs_per_kernel] {
            sums = (sums.0 + le, sums.1 + lw, sums.2 + se, sums.3 + sw);
        }
        let (lint_errors, lint_warnings, sched_errors, sched_warnings) = sums;
        total_errors += sched_errors + lint_errors;
        r.row([
            id.name().to_string(),
            configs_per_kernel.to_string(),
            sched_errors.to_string(),
            sched_warnings.to_string(),
            lint_errors.to_string(),
            lint_warnings.to_string(),
        ]);
    }
    r.note(format!(
        "verifier re-derives slot usage, dependences, ResMII/RecMII, and register pressure; \
         {total_errors} error(s) total"
    ));
    r.note("diagnostic codes are cataloged in docs/lint_codes.md");
    r
}

/// The verification sweep, on an engine sized to the host.
pub fn verify() -> Report {
    crate::run(ExperimentId::Verify)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_verifies_clean() {
        let r = verify();
        for row in &r.rows {
            assert_eq!(row[2], "0", "schedule errors for {}", row[0]);
            assert_eq!(row[4], "0", "lint errors for {}", row[0]);
        }
    }
}
