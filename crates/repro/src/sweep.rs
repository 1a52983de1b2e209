//! The per-experiment sweep context: one [`Ctx`] wraps the engine an
//! experiment runs on, a deterministic cache-counting scope, the run's
//! application-cell memo, and the accumulated timing stats for its sweeps.
//! [`Ctx::finish`] writes the deterministic cache counters into the
//! report's notes and the (run-to-run variable) wall-clock numbers and
//! cell counts into [`Report::perf`], which `Display` never renders —
//! keeping `--jobs 1` and `--jobs N` output byte-identical.

use crate::cells::{App, Cell, Cells};
use crate::Report;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use stream_grid::{CacheScope, Engine, SweepStats};
use stream_machine::SystemParams;
use stream_sim::SimError;
use stream_vlsi::Shape;

pub(crate) struct Ctx<'e> {
    engine: &'e Engine,
    pub(crate) scope: CacheScope<'static>,
    cells: &'e Cells,
    cell_lookups: AtomicU64,
    cells_simulated: AtomicU64,
    stats: Mutex<SweepStats>,
}

impl<'e> Ctx<'e> {
    pub(crate) fn new(engine: &'e Engine, cells: &'e Cells) -> Self {
        Self {
            engine,
            scope: engine.scope(),
            cells,
            cell_lookups: AtomicU64::new(0),
            cells_simulated: AtomicU64::new(0),
            stats: Mutex::new(SweepStats::default()),
        }
    }

    /// The application cell of `app` on `Machine::paper(shape)` under
    /// `sys`, from the run's memo: the first lookup of a cell builds and
    /// simulates it, later ones read its result.
    pub(crate) fn cell(
        &self,
        app: impl Into<App>,
        shape: Shape,
        sys: &SystemParams,
    ) -> Result<Cell, SimError> {
        let (cell, simulated) = self.cells.get(app.into(), shape, sys);
        self.cell_lookups.fetch_add(1, Ordering::Relaxed);
        if simulated {
            self.cells_simulated.fetch_add(1, Ordering::Relaxed);
        }
        cell
    }

    /// Maps `f` over `items` through the engine (results keep item order)
    /// and folds the sweep's timing into this context.
    pub(crate) fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let sweep = self.engine.map(items, f);
        self.stats
            .lock()
            .expect("sweep stats poisoned")
            .absorb(&sweep.stats);
        sweep.results
    }

    /// Writes this context's counters into `r`: cache counters (exact and
    /// scheduling-independent) as a rendered note, timings and cell counts
    /// as unrendered perf lines.
    pub(crate) fn finish(self, r: &mut Report) {
        let c = self.scope.counters();
        if c.lookups > 0 {
            r.note(format!(
                "compile cache: {} lookups = {} distinct schedules + {} hits",
                c.lookups, c.compiles, c.hits
            ));
        }
        let stats = self.stats.into_inner().expect("sweep stats poisoned");
        if stats.jobs > 0 {
            r.perf.push(format!(
                "{} sweep jobs on {} thread(s): busy {} us, wall {} us",
                stats.jobs,
                stats.threads,
                stats.busy_micros(),
                stats.wall_micros
            ));
        }
        let lookups = self.cell_lookups.into_inner();
        if lookups > 0 {
            r.perf.push(format!(
                "application cells: {lookups} lookups, {} simulated",
                self.cells_simulated.into_inner()
            ));
        }
    }
}
