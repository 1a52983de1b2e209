//! `STREAM_TUNE_*` environment overrides, exercised end to end.
//!
//! Environment variables are process-global, so this lives in its own
//! integration-test binary and runs as a single sequential test: nothing
//! else in the process reads or writes the `STREAM_TUNE_*` family while it
//! manipulates them.

use stream_machine::{Machine, SystemParams};
use stream_tune::{search_enabled, tune_app, TuneSpace};
use stream_vlsi::Shape;

fn clear_env() {
    for var in [
        "STREAM_TUNE_SEARCH",
        "STREAM_TUNE_UNROLL",
        "STREAM_TUNE_STRIPS",
        "STREAM_TUNE_BUDGET",
    ] {
        std::env::remove_var(var);
    }
}

#[test]
fn env_overrides_narrow_disable_and_budget_the_search() {
    clear_env();
    let machine = Machine::paper(Shape::new(4, 4));
    let sys = SystemParams::paper_2007();

    // Baseline sanity: searching is on and the full space is real.
    assert!(search_enabled());
    let full = TuneSpace::from_env();
    assert_eq!(full.unroll_sets.len(), 7);
    assert_eq!(full.strip_scales, vec![1, 2, 4]);

    // STREAM_TUNE_SEARCH=off: the tuner returns the default configuration
    // without evaluating a single candidate.
    std::env::set_var("STREAM_TUNE_SEARCH", "off");
    assert!(!search_enabled());
    let t = tune_app(stream_apps::AppId::Conv, &machine, &sys);
    assert_eq!(t.evaluated, 0, "disabled search evaluated a candidate");
    assert_eq!(t.tuned_cycles, t.default_cycles);
    assert!(t.candidate.is_default());
    std::env::remove_var("STREAM_TUNE_SEARCH");

    // Narrowing: one extra unroll set, one extra strip factor. The default
    // set and strip 1 are always retained, so the tuner still cannot lose.
    std::env::set_var("STREAM_TUNE_UNROLL", "1");
    std::env::set_var("STREAM_TUNE_STRIPS", "2");
    let narrowed = TuneSpace::from_env();
    assert_eq!(narrowed.unroll_sets, vec![vec![1, 2, 4, 8], vec![1]]);
    assert_eq!(narrowed.strip_scales, vec![1, 2]);
    // 2 sets x 2 strips, minus the default point counted once up front.
    assert_eq!(narrowed.candidates().len(), 4);
    // A narrowed space persists under a different key than the full one.
    assert_ne!(narrowed.fingerprint(), full.fingerprint());
    let t = tune_app(stream_apps::AppId::Conv, &machine, &sys);
    assert!(t.evaluated + t.pruned <= 4, "{t:?}");
    assert!(
        t.candidate.unroll_factors == vec![1, 2, 4, 8] || t.candidate.unroll_factors == vec![1],
        "winner outside the narrowed space: {t:?}"
    );
    assert!([1, 2].contains(&t.candidate.strip_scale), "{t:?}");
    assert!(t.speedup() >= 1.0);

    // Garbage tokens are ignored, never a crash; an all-garbage list
    // degenerates to the default set alone.
    std::env::set_var("STREAM_TUNE_UNROLL", "zzz,5,-1");
    assert_eq!(TuneSpace::from_env().unroll_sets, vec![vec![1, 2, 4, 8]]);
    std::env::remove_var("STREAM_TUNE_UNROLL");
    std::env::remove_var("STREAM_TUNE_STRIPS");

    // STREAM_TUNE_BUDGET=1: only the default point is evaluated, so the
    // result is exactly the default configuration.
    std::env::set_var("STREAM_TUNE_BUDGET", "1");
    assert_eq!(TuneSpace::from_env().budget, 1);
    let t = tune_app(stream_apps::AppId::Depth, &machine, &sys);
    assert_eq!(t.evaluated, 1, "{t:?}");
    assert_eq!(t.tuned_cycles, t.default_cycles);
    assert!(t.candidate.is_default());
    // A budget of 0 is clamped up: the default must always be evaluated.
    std::env::set_var("STREAM_TUNE_BUDGET", "0");
    assert_eq!(TuneSpace::from_env().budget, 1);

    clear_env();
}
