//! The independent verifier in `stream-verify`, run over the scheduler's
//! output.
//!
//! [`Ddg`] keeps its graph in the verifier's own types, so a check borrows
//! the graph the scheduler built. The verifier re-derives everything else
//! — slot resource usage, the dependence inequality, ResMII/RecMII,
//! register pressure — from its own latency table and code, so a bug in
//! the scheduler's arithmetic cannot vouch for itself. It proves every
//! factor compile and every rehydrated recipe. The scheduler's own
//! end-of-attempt self-check only decides whether the II search moves on.

use crate::{Ddg, ModuloSchedule};
use stream_machine::Machine;
use stream_verify::Report;

/// Runs the independent verifier over `schedule` and returns its report.
pub fn check_schedule(ddg: &Ddg, schedule: &ModuloSchedule, machine: &Machine) -> Report {
    let mut span = stream_trace::span("sched", "check");
    span.arg("nodes", ddg.nodes().len());
    span.arg("ii", schedule.ii);
    stream_verify::verify_schedule(ddg.graph(), schedule.ii, &schedule.times, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use stream_ir::{KernelBuilder, Ty};
    use stream_verify::Code;
    use stream_vlsi::Shape;

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

    /// `times` raised until every dependence holds at `ii`, or `None` when
    /// a cycle no start times satisfy keeps raising them.
    fn settle(ddg: &Ddg, ii: u32, mut times: Vec<u32>) -> Option<Vec<u32>> {
        for _ in 0..=times.len() {
            let mut moved = false;
            for e in ddg.edges() {
                let earliest = i64::from(times[e.from]) + i64::from(e.latency)
                    - i64::from(ii) * i64::from(e.distance);
                if earliest > i64::from(times[e.to]) {
                    times[e.to] = earliest as u32;
                    moved = true;
                }
            }
            if !moved {
                return Some(times);
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The verifier rejects a slot or a dependence exactly when the
        /// scheduler's self-check does, so rehydration can leave the proof
        /// to the verifier alone. Random start times nearly always break
        /// a dependence; settled ones break none, so only a slot can
        /// reject them.
        #[test]
        fn the_verifier_catches_whatever_the_self_check_catches(
            script in vec(any::<u8>(), 1..160),
            ii in 1u32..13,
            times in vec(0u32..48, 24..25),
            alus in 1u32..6,
        ) {
            let machine = Machine::paper(Shape::new(8, alus));
            let ddg = crate::mii::tests::random_ddg(&script);
            let random = times[..ddg.nodes().len()].to_vec();
            let settled = settle(&ddg, ii, random.clone());
            for times in std::iter::once(random).chain(settled) {
                let sched = ModuloSchedule { ii, times };
                let report = check_schedule(&ddg, &sched, &machine);
                let rejected =
                    report.has(Code::SlotOversubscribed) || report.has(Code::DependenceViolated);
                prop_assert_eq!(
                    sched.verify(&ddg, &machine).is_ok(),
                    !rejected,
                    "{:?} in {:?}: {}",
                    sched,
                    ddg.graph(),
                    report
                );
            }
        }
    }
}
