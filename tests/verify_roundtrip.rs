//! End-to-end: every kernel in the suite must pass the independent
//! verifier and lint clean, and the verifier must reject corrupted
//! schedules for the same kernels.

use stream_scaling::kernels::KernelId;
use stream_scaling::machine::Machine;
use stream_scaling::sched::{check_schedule, modulo_schedule, CompiledKernel, Ddg, ModuloSchedule};
use stream_scaling::verify::lint_kernel;

#[test]
fn suite_schedules_pass_the_independent_verifier() {
    let machine = Machine::baseline();
    for id in KernelId::ALL {
        let kernel = id.build(&machine);
        let ddg = Ddg::build(&kernel, &machine);
        let (sched, _) =
            modulo_schedule(&ddg, &machine).unwrap_or_else(|| panic!("{id:?} failed to schedule"));
        let report = check_schedule(&ddg, &sched, &machine);
        assert!(
            !report.has_errors(),
            "kernel {id:?} fails verification:\n{report}"
        );
    }
}

/// Compilation runs every candidate schedule through the verifier, so a
/// rejected one would surface here as a missing or slower kernel.
#[test]
fn compile_with_verification_enabled_succeeds() {
    let machine = Machine::baseline();
    for id in KernelId::ALL {
        let compiled = CompiledKernel::compile_default(&id.build(&machine), &machine)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(compiled.elements_per_cycle_per_cluster() > 0.0);
    }
}

#[test]
fn suite_kernels_lint_clean() {
    let machine = Machine::baseline();
    for id in KernelId::ALL {
        let kernel = id.build(&machine);
        let report = lint_kernel(&kernel);
        assert!(
            !report.has_errors(),
            "kernel {id:?} lints with errors:\n{report}"
        );
    }
}

#[test]
fn corrupted_schedules_are_rejected() {
    let machine = Machine::baseline();
    for id in KernelId::ALL {
        let ddg = Ddg::build(&id.build(&machine), &machine);
        let bogus = ModuloSchedule {
            ii: 1,
            times: vec![0; ddg.nodes().len()],
        };
        let report = check_schedule(&ddg, &bogus, &machine);
        assert!(report.has_errors(), "bogus schedule for {id:?} accepted");
    }
}
