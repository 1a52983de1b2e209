//! The pruned search returns the exhaustive winner: at three shapes, every
//! application's tuned verdict equals the best of all 21 candidates
//! simulated directly, ties going to the earlier candidate.
//!
//! This file is a test binary of its own, so it cannot warm the kernel
//! cache that `tests/tune_suite.rs` counts compiles in.

use stream_scaling::apps::AppId;
use stream_scaling::machine::{Machine, SystemParams};
use stream_scaling::sim::simulate;
use stream_scaling::tune::{candidates, try_tune_app, Candidate};
use stream_scaling::vlsi::Shape;

/// The best candidate by simulated cycles, in evaluation order: a later
/// candidate replaces the incumbent only with strictly fewer cycles.
/// Candidates whose program does not simulate lose.
fn exhaustive_best(id: AppId, machine: &Machine, sys: &SystemParams) -> (Candidate, u64) {
    let mut best: Option<(Candidate, u64)> = None;
    for cand in candidates() {
        let app = id.program_with(machine, &cand.compile_options(), cand.strip_scale);
        let Ok(report) = simulate(&app.program, machine, sys) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, c)| report.cycles < *c) {
            best = Some((cand, report.cycles));
        }
    }
    best.unwrap_or_else(|| panic!("{id}: no candidate simulates on {machine}"))
}

#[test]
fn pruned_search_returns_the_exhaustive_winner() {
    let sys = SystemParams::paper_2007();
    for (c, n) in [(16, 5), (32, 10), (128, 14)] {
        let machine = Machine::paper(Shape::new(c, n));
        for id in AppId::ALL {
            let tuned =
                try_tune_app(id, &machine, &sys).unwrap_or_else(|e| panic!("C={c} N={n}: {e}"));
            let (winner, cycles) = exhaustive_best(id, &machine, &sys);
            assert_eq!(tuned.candidate, winner, "{id} at C={c} N={n}");
            assert_eq!(tuned.tuned_cycles, cycles, "{id} at C={c} N={n}");
            assert_eq!(
                tuned.evaluated + tuned.pruned,
                21,
                "{id} at C={c} N={n}: every candidate is evaluated or pruned"
            );
        }
    }
}
