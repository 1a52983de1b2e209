//! The query planner: cross-client dedup of experiment cells and tuning
//! results.
//!
//! Every endpoint that renders a report goes through [`Planner::cell`].
//! Concurrent requests for the same experiment coalesce onto one
//! computation (the same `Arc<OnceLock>` pattern the kernel cache uses for
//! schedules: the first arrival computes, everyone else blocks on the slot
//! and shares the result), so two clients sweeping overlapping grids
//! compile each shared cell exactly once. Both rendered forms — the
//! `stream-scaling.report.v1` JSON and the CLI-identical text — are
//! produced once and byte-shared by every response.
//!
//! Cells live in memory only. A restarted daemon recomputes them, but
//! against the persisted, validated schedule and tuning tiers under the
//! cache root, so the recompute runs no scheduler compiles and no tuner
//! searches.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use stream_grid::Engine;
use stream_repro::{run_with, ExperimentId};
use stream_trace::Counter;

/// One fully rendered experiment cell, shared across responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The report's stable JSON (schema `stream-scaling.report.v1`).
    pub json: String,
    /// The report's text rendering plus trailing newline — byte-identical
    /// to what `repro <id>` prints to stdout.
    pub text: String,
}

type CellSlot = Arc<OnceLock<Arc<Cell>>>;
type TuneSlot = Arc<OnceLock<Result<Arc<stream_tune::Tuned>, stream_tune::TuneError>>>;

/// Deduplicating cell planner. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct Planner {
    engine: Engine,
    cells: Mutex<HashMap<ExperimentId, CellSlot>>,
    /// Tuning results (or the error a point cannot be tuned with), keyed
    /// by `(app, clusters, alus_per_cluster)` — the same coalescing slot
    /// pattern as experiment cells, so concurrent clients tuning the same
    /// point share one search.
    tuned: Mutex<HashMap<(stream_apps::AppId, u32, u32), TuneSlot>>,
    lookups: Counter,
    computed: Counter,
}

/// A snapshot of planner counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerStats {
    /// Cell requests served (every lookup, hit or not).
    pub lookups: u64,
    /// Cells computed by actually running an experiment.
    pub computed: u64,
}

impl Planner {
    /// Creates a planner over `engine`.
    pub fn new(engine: Engine) -> Self {
        Self {
            engine,
            cells: Mutex::new(HashMap::new()),
            tuned: Mutex::new(HashMap::new()),
            lookups: Counter::new(),
            computed: Counter::new(),
        }
    }

    /// The shared engine requests run on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Returns the rendered cell for `id`, computing it at most once per
    /// daemon lifetime no matter how many clients ask concurrently.
    pub fn cell(&self, id: ExperimentId) -> Arc<Cell> {
        self.lookups.incr();
        let slot: CellSlot = {
            let mut cells = self.cells.lock().expect("planner poisoned");
            Arc::clone(cells.entry(id).or_default())
        };
        Arc::clone(slot.get_or_init(|| {
            let mut span = stream_trace::span("serve", "cell");
            span.arg("experiment", id.name());
            self.computed.incr();
            stream_trace::count("serve.cell_computed", 1);
            let report = run_with(id, &self.engine);
            Arc::new(Cell {
                json: report.to_json(),
                text: format!("{report}\n"),
            })
        }))
    }

    /// Cells for several experiments, in request order.
    pub fn cells(&self, ids: &[ExperimentId]) -> Vec<Arc<Cell>> {
        ids.iter().map(|&id| self.cell(id)).collect()
    }

    /// The auto-tuning result for `app` on a `clusters × alus_per_cluster`
    /// machine, searched at most once per daemon lifetime per point.
    /// `stream-tune` itself rehydrates validated winners from the shared
    /// cache root (attached in `start`), so a restarted daemon answers
    /// warm points without re-searching. A point that cannot be tuned
    /// memoizes its error the same way.
    ///
    /// # Errors
    ///
    /// As [`stream_tune::try_tune_app`].
    pub fn tuned(
        &self,
        app: stream_apps::AppId,
        clusters: u32,
        alus: u32,
    ) -> Result<Arc<stream_tune::Tuned>, stream_tune::TuneError> {
        let slot: TuneSlot = {
            let mut tuned = self.tuned.lock().expect("planner poisoned");
            Arc::clone(tuned.entry((app, clusters, alus)).or_default())
        };
        slot.get_or_init(|| {
            let mut span = stream_trace::span("serve", "tune");
            span.arg("app", app.name());
            let machine = stream_machine::Machine::paper(stream_vlsi::Shape::new(clusters, alus));
            stream_tune::try_tune_app(app, &machine, &stream_machine::SystemParams::paper_2007())
                .map(Arc::new)
        })
        .clone()
    }

    /// Current planner counters.
    pub fn stats(&self) -> PlannerStats {
        PlannerStats {
            lookups: self.lookups.get(),
            computed: self.computed.get(),
        }
    }

    /// Number of experiment cells resident in memory, for the
    /// `serve.planner.cells` gauge.
    pub fn cells_resident(&self) -> usize {
        self.cells
            .lock()
            .expect("planner poisoned")
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_lookups_compute_once_and_share_bytes() {
        let planner = Planner::new(Engine::new(2));
        let cells: Vec<Arc<Cell>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| planner.cell(ExperimentId::Table4)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for cell in &cells {
            assert!(Arc::ptr_eq(cell, &cells[0]));
        }
        let stats = planner.stats();
        assert_eq!(stats.lookups, 8);
        assert_eq!(stats.computed, 1);
    }

    #[test]
    fn cell_text_matches_run_with() {
        let planner = Planner::new(Engine::new(1));
        let cell = planner.cell(ExperimentId::Table1);
        let direct = run_with(ExperimentId::Table1, &Engine::new(1));
        assert_eq!(cell.text, format!("{direct}\n"));
        assert_eq!(cell.json, direct.to_json());
    }
}
