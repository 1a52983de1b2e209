#![warn(missing_docs)]
//! Reproduction harness: regenerates every table and figure of the paper
//! and reports paper-vs-measured values.
//!
//! Each experiment is named by a typed [`ExperimentId`] and returns a
//! [`Report`] that renders as an aligned text table with paper anchors in
//! its notes. Grid-shaped experiments express their cells as jobs on a
//! [`stream_grid::Engine`], so they parallelize across worker threads while
//! rendering **byte-identically** to a serial run (ordered reduction +
//! deterministic cache counters), and all schedule compilation goes through
//! the process-wide compiled-kernel cache. Application simulations go
//! through a memo of cells scoped to one run, so experiments that read the
//! same cell simulate it once. The `repro` binary prints any subset:
//!
//! ```text
//! cargo run -p stream-repro --bin repro -- all
//! cargo run -p stream-repro --bin repro -- --jobs 4 fig13 table5
//! ```
//!
//! Library use:
//!
//! ```
//! use stream_grid::Engine;
//! use stream_repro::{run, run_many, ExperimentId};
//!
//! let report = run(ExperimentId::Table4);
//! assert_eq!(report.id(), "table4");
//! assert!("fig99".parse::<ExperimentId>().is_err());
//! let reports = run_many(&[ExperimentId::Table1], &Engine::new(1));
//! assert_eq!(reports[0].id(), "table1");
//! ```

mod app_figs;
mod cells;
mod cost_figs;
mod experiment;
mod extras;
mod kernel_figs;
mod query;
mod report;
mod sweep;
mod tune_figs;
mod verify_figs;

pub use app_figs::{fig15, headline};
pub use cost_figs::{calibration, fig10, fig11, fig12, fig6, fig7, fig8, fig9, table1, table3};
pub use experiment::{ExperimentId, UnknownExperiment};
pub use extras::{
    ablation_memory, ablation_switch, ablation_swp, bandwidth, fft_exchange, full_custom,
    multiproc, projection, register_org, scaled_datasets, short_streams,
};
pub use kernel_figs::{fig13, fig14, table2, table4, table5, FIG13_NS, FIG14_CS};
pub use query::{Constraint, Metric, SpaceAnswer, SpaceQuery, UnknownMetric};
pub use report::Report;
pub use tune_figs::tune;
pub use verify_figs::verify;

use cells::Cells;
use stream_grid::Engine;
use sweep::Ctx;

/// Every experiment id string, derived from [`ExperimentId::ALL`] at
/// compile time so it can never drift from the enum.
pub const EXPERIMENTS: [&str; ExperimentId::ALL.len()] = {
    let mut out = [""; ExperimentId::ALL.len()];
    let mut i = 0;
    while i < out.len() {
        out[i] = ExperimentId::ALL[i].name();
        i += 1;
    }
    out
};

/// Runs one experiment on `engine`: its grid cells become engine jobs and
/// its kernels compile through the engine's shared cache. The rendered
/// report is identical for every worker count. The experiment's
/// application cells are simulated once each and shared within it only.
pub fn run_with(id: ExperimentId, engine: &Engine) -> Report {
    run_in(id, engine, &Cells::default())
}

/// Runs one experiment with `cells` as its application-cell memo.
fn run_in(id: ExperimentId, engine: &Engine, cells: &Cells) -> Report {
    let ctx = Ctx::new(engine, cells);
    let mut r = match id {
        ExperimentId::Table1 => table1(),
        ExperimentId::Table2 => table2(),
        ExperimentId::Table3 => table3(),
        ExperimentId::Table4 => table4(),
        ExperimentId::Calibration => calibration(),
        ExperimentId::Fig6 => fig6(),
        ExperimentId::Fig7 => fig7(),
        ExperimentId::Fig8 => fig8(),
        ExperimentId::Fig9 => fig9(),
        ExperimentId::Fig10 => fig10(),
        ExperimentId::Fig11 => fig11(),
        ExperimentId::Fig12 => fig12(),
        ExperimentId::Fig13 => kernel_figs::fig13_impl(&ctx),
        ExperimentId::Fig14 => kernel_figs::fig14_impl(&ctx),
        ExperimentId::Table5 => kernel_figs::table5_impl(&ctx),
        ExperimentId::Fig15 => app_figs::fig15_impl(&ctx),
        ExperimentId::Headline => app_figs::headline_impl(&ctx),
        ExperimentId::Bandwidth => bandwidth(),
        ExperimentId::FullCustom => full_custom(),
        ExperimentId::Projection => projection(),
        ExperimentId::AblationSwitch => ablation_switch(),
        ExperimentId::AblationSwp => extras::ablation_swp_impl(&ctx),
        ExperimentId::ScaledDatasets => extras::scaled_datasets_impl(&ctx),
        ExperimentId::ShortStreams => extras::short_streams_impl(&ctx),
        ExperimentId::AblationMemory => extras::ablation_memory_impl(&ctx),
        ExperimentId::Multiproc => extras::multiproc_impl(&ctx),
        ExperimentId::RegisterOrg => register_org(),
        ExperimentId::FftExchange => extras::fft_exchange_impl(&ctx),
        ExperimentId::Tune => tune_figs::tune_impl(&ctx),
        ExperimentId::Verify => verify_figs::verify_impl(&ctx),
    };
    ctx.finish(&mut r);
    r
}

/// Runs one experiment on an engine sized to the host's parallelism.
pub fn run(id: ExperimentId) -> Report {
    run_with(id, &Engine::with_default_parallelism())
}

/// Runs several experiments on `engine`, one after another in `ids` order,
/// so each experiment's grid gets every worker the engine has. The
/// experiments share one application-cell memo, so a cell one of them
/// simulated is read, not simulated again, by the later ones; the memo is
/// dropped when the call returns.
pub fn run_many(ids: &[ExperimentId], engine: &Engine) -> Vec<Report> {
    let cells = Cells::default();
    ids.iter().map(|&id| run_in(id, engine, &cells)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Experiments whose full grids are too heavy for this smoke test;
    /// each is exercised by its own module test instead.
    const HEAVYWEIGHT: [ExperimentId; 13] = [
        ExperimentId::Fig13,
        ExperimentId::Fig14,
        ExperimentId::Table5,
        ExperimentId::Fig15,
        ExperimentId::Headline,
        ExperimentId::AblationSwp,
        ExperimentId::ScaledDatasets,
        ExperimentId::ShortStreams,
        ExperimentId::AblationMemory,
        ExperimentId::Multiproc,
        ExperimentId::FftExchange,
        ExperimentId::Tune,
        ExperimentId::Verify,
    ];

    #[test]
    fn every_listed_experiment_runs() {
        // Every variant dispatches; the heavyweight grids are carved out to
        // their module tests but still must parse and be listed.
        let mut ran = 0usize;
        for id in ExperimentId::ALL {
            assert!(EXPERIMENTS.contains(&id.name()));
            if HEAVYWEIGHT.contains(&id) {
                continue;
            }
            let r = run(id);
            assert_eq!(r.id, id.name());
            ran += 1;
        }
        assert_eq!(ran, ExperimentId::ALL.len() - HEAVYWEIGHT.len());
    }

    #[test]
    fn experiments_const_tracks_the_enum() {
        assert_eq!(EXPERIMENTS.len(), ExperimentId::ALL.len());
        for (name, id) in EXPERIMENTS.iter().zip(ExperimentId::ALL) {
            assert_eq!(*name, id.name());
            assert_eq!(name.parse::<ExperimentId>(), Ok(id));
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        let err = "fig99".parse::<ExperimentId>().unwrap_err();
        assert_eq!(err.input, "fig99");
        assert_eq!(err.suggestion, Some(ExperimentId::Fig9));
        assert!(err.to_string().contains("unknown experiment"));
    }
}
