//! Bridge to the independent verifier in `stream-verify`.
//!
//! The scheduler's own [`ModuloSchedule::verify`] shares this crate's DDG
//! latencies and MII code, so it cannot catch a bug common to both. The
//! `stream-verify` crate re-derives everything — slot resource usage, the
//! dependence inequality, ResMII/RecMII, register pressure — from its own
//! latency table; these adapters hand it a schedule in its own vocabulary.

use crate::{Ddg, EdgeKind, ModuloSchedule};
use stream_machine::Machine;
use stream_verify::{DepEdge, DepGraph, DepKind, Report, SchedNode};

/// Converts a scheduler [`Ddg`] into the verifier's dependence-graph form.
pub fn dep_graph(ddg: &Ddg) -> DepGraph {
    DepGraph {
        nodes: ddg
            .nodes()
            .iter()
            .map(|n| SchedNode {
                class: n.class,
                latency: n.latency,
            })
            .collect(),
        edges: ddg
            .edges()
            .iter()
            .map(|e| DepEdge {
                from: e.from,
                to: e.to,
                latency: e.latency,
                distance: e.distance,
                kind: match e.kind {
                    EdgeKind::Data => DepKind::Data,
                    EdgeKind::Order => DepKind::Order,
                },
            })
            .collect(),
    }
}

/// Runs the independent verifier over `schedule` and returns its report.
pub fn check_schedule(ddg: &Ddg, schedule: &ModuloSchedule, machine: &Machine) -> Report {
    let mut span = stream_trace::span("sched", "check");
    span.arg("nodes", ddg.nodes().len());
    span.arg("ii", schedule.ii);
    stream_verify::verify_schedule(&dep_graph(ddg), schedule.ii, &schedule.times, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_ir::{KernelBuilder, Ty};

    #[test]
    fn scheduler_output_passes_the_independent_verifier() {
        let mut b = KernelBuilder::new("axpy");
        let xs = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let a = b.const_f(3.0);
        let x = b.read(xs);
        let y = b.mul(a, x);
        b.write(out, y);
        let kernel = b.finish().unwrap();
        let machine = Machine::baseline();
        let ddg = Ddg::build(&kernel, &machine);
        let (sched, _) = crate::modulo_schedule(&ddg, &machine).unwrap();
        let report = check_schedule(&ddg, &sched, &machine);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn a_corrupted_schedule_is_rejected() {
        let mut b = KernelBuilder::new("chain");
        let xs = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(xs);
        let y = b.sqrt(x);
        b.write(out, y);
        let kernel = b.finish().unwrap();
        let machine = Machine::baseline();
        let ddg = Ddg::build(&kernel, &machine);
        let bogus = ModuloSchedule {
            ii: 1,
            times: vec![0; ddg.nodes().len()],
        };
        let report = check_schedule(&ddg, &bogus, &machine);
        assert!(report.has_errors());
    }
}
