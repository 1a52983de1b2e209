//! The auto-tuner's suite-level guarantees at the C=64, N=8 design point:
//! it never loses to the default configuration, it wins somewhere, and its
//! pruning and compile accounting fire. The tuned rows themselves are the
//! C=64 N=8 rows of `repro tune`, which `docs/repro_output.txt` pins byte
//! for byte.
//!
//! This file is a test binary of its own, so its process-wide kernel cache
//! starts empty and the count of set compiles is deterministic.

use stream_scaling::apps::AppId;
use stream_scaling::machine::{Machine, SystemParams};
use stream_scaling::tune::{tune_app, Tuned};
use stream_scaling::vlsi::Shape;

#[test]
fn tuner_never_loses_and_wins_somewhere_at_c64_n8() {
    let machine = Machine::paper(Shape::new(64, 8));
    let sys = SystemParams::paper_2007();
    let tuned: Vec<Tuned> = AppId::ALL
        .into_iter()
        .map(|id| tune_app(id, &machine, &sys))
        .collect();
    assert_eq!(tuned.len(), 6);
    for t in &tuned {
        // The default point is always evaluated first, so the tuner can
        // never lose to the default configuration.
        assert!(t.speedup() >= 1.0, "{}: {:.4}x", t.app, t.speedup());
    }
    // The search space is real: at least one application must actually
    // improve (DEPTH's tuned program is ~1.5x faster).
    let best = tuned.iter().map(Tuned::speedup).fold(0.0, f64::max);
    assert!(best > 1.05, "best tuned-over-default speedup {best:.4}x");
    // Pruning fired and the searches' own set compiles were counted.
    let pruned: u64 = tuned.iter().map(|t| t.pruned).sum();
    let compiles: u64 = tuned.iter().map(|t| t.sched_compiles).sum();
    assert!(pruned > 0, "no candidate was pruned");
    assert!(compiles > 0, "no set compile was attributed");
}
