//! The query planner: cross-client dedup of experiment cells, plus the
//! persistent results tier.
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
//! With a cache root configured, finished cells are also written through to
//! a [`DiskStore`] namespace versioned by the crate version, so a restarted
//! daemon answers warm without recomputing (and without recompiling:
//! schedules rehydrate from their own tier). A corrupt or stale entry is a
//! silent recompute, and cells always self-identify (the key material is
//! embedded in the payload), so a hash collision cannot serve the wrong
//! experiment.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use stream_grid::Engine;
use stream_repro::{run_with, ExperimentId};
use stream_store::{DiskStore, Key};
use stream_trace::Counter;

/// Version of the on-disk cell payload layout; bump on change.
const RESULTS_FORMAT_VERSION: u32 = 1;

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

/// Deduplicating, disk-backed cell planner. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct Planner {
    engine: Engine,
    cells: Mutex<HashMap<ExperimentId, CellSlot>>,
    /// Tuning results (or the error a point cannot be tuned with), keyed
    /// by `(app, clusters, alus_per_cluster)` — the same coalescing slot
    /// pattern as experiment cells, so concurrent clients tuning the same
    /// point share one search.
    tuned: Mutex<HashMap<(stream_apps::AppId, u32, u32), TuneSlot>>,
    disk: Option<DiskStore>,
    lookups: Counter,
    computed: Counter,
    disk_hits: Counter,
}

/// A snapshot of planner counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerStats {
    /// Cell requests served (every lookup, hit or not).
    pub lookups: u64,
    /// Cells computed by actually running an experiment.
    pub computed: u64,
    /// Cells served from the persistent results tier.
    pub disk_hits: u64,
}

impl Planner {
    /// Creates a planner over `engine`. With `cache_root`, finished cells
    /// persist under `<root>/results-<version>.v1/` and a restarted daemon
    /// starts warm.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    pub fn new(engine: Engine, cache_root: Option<&Path>) -> io::Result<Self> {
        let disk = match cache_root {
            // The crate version is part of the namespace, not just the key,
            // so a rebuilt daemon with changed rendering never reads the
            // old code's cells.
            Some(root) => Some(DiskStore::open(
                root,
                concat!("results-", env!("CARGO_PKG_VERSION")),
                RESULTS_FORMAT_VERSION,
            )?),
            None => None,
        };
        Ok(Self {
            engine,
            cells: Mutex::new(HashMap::new()),
            tuned: Mutex::new(HashMap::new()),
            disk,
            lookups: Counter::new(),
            computed: Counter::new(),
            disk_hits: Counter::new(),
        })
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
            if let Some(warm) = self.disk_load(id) {
                self.disk_hits.incr();
                stream_trace::count("serve.cell_disk_hit", 1);
                span.arg("tier", "disk");
                return Arc::new(warm);
            }
            self.computed.incr();
            stream_trace::count("serve.cell_computed", 1);
            span.arg("tier", "compute");
            let report = run_with(id, &self.engine);
            let cell = Cell {
                json: report.to_json(),
                text: format!("{report}\n"),
            };
            self.disk_save(id, &cell);
            Arc::new(cell)
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
            disk_hits: self.disk_hits.get(),
        }
    }

    /// Number of experiment cells resident in memory (computed or
    /// rehydrated), for the `serve.planner.cells` gauge.
    pub fn cells_resident(&self) -> usize {
        self.cells
            .lock()
            .expect("planner poisoned")
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    fn cell_key_material(id: ExperimentId) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(b"cell\0");
        blob.extend_from_slice(id.name().as_bytes());
        blob
    }

    fn disk_load(&self, id: ExperimentId) -> Option<Cell> {
        let store = self.disk.as_ref()?;
        let blob = Self::cell_key_material(id);
        let payload = store.get(Key::of(&blob))?;
        let mut rest = payload.as_slice();
        let mut section = |out: &mut Vec<u8>| -> Option<()> {
            let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
            out.extend_from_slice(rest.get(4..4 + len)?);
            rest = &rest[4 + len..];
            Some(())
        };
        let (mut key, mut json, mut text) = (Vec::new(), Vec::new(), Vec::new());
        section(&mut key)?;
        section(&mut json)?;
        section(&mut text)?;
        if !rest.is_empty() || key != blob {
            return None;
        }
        Some(Cell {
            json: String::from_utf8(json).ok()?,
            text: String::from_utf8(text).ok()?,
        })
    }

    fn disk_save(&self, id: ExperimentId, cell: &Cell) {
        let Some(store) = self.disk.as_ref() else {
            return;
        };
        let blob = Self::cell_key_material(id);
        let mut payload = Vec::with_capacity(12 + blob.len() + cell.json.len() + cell.text.len());
        for section in [&blob[..], cell.json.as_bytes(), cell.text.as_bytes()] {
            payload.extend_from_slice(&(section.len() as u32).to_le_bytes());
            payload.extend_from_slice(section);
        }
        let _ = store.put(Key::of(&blob), &payload); // best-effort
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> (std::path::PathBuf, impl Drop) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "stream-serve-planner-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        (dir.clone(), Cleanup(dir))
    }

    #[test]
    fn concurrent_lookups_compute_once_and_share_bytes() {
        let planner = Planner::new(Engine::new(2), None).unwrap();
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
        let planner = Planner::new(Engine::new(1), None).unwrap();
        let cell = planner.cell(ExperimentId::Table1);
        let direct = run_with(ExperimentId::Table1, &Engine::new(1));
        assert_eq!(cell.text, format!("{direct}\n"));
        assert_eq!(cell.json, direct.to_json());
    }

    #[test]
    fn results_tier_survives_a_restart() {
        let (root, _guard) = scratch("restart");
        let first = Planner::new(Engine::new(1), Some(&root)).unwrap();
        let cold = first.cell(ExperimentId::Table1);
        assert_eq!(first.stats().computed, 1);

        // "Restart": a fresh planner over the same root serves from disk.
        let second = Planner::new(Engine::new(1), Some(&root)).unwrap();
        let warm = second.cell(ExperimentId::Table1);
        let stats = second.stats();
        assert_eq!(stats.computed, 0);
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(warm.json, cold.json);
        assert_eq!(warm.text, cold.text);
    }

    #[test]
    fn corrupt_results_entries_recompute() {
        let (root, _guard) = scratch("corrupt");
        Planner::new(Engine::new(1), Some(&root))
            .unwrap()
            .cell(ExperimentId::Table1);
        // Corrupt every entry in the results namespace.
        let ns = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.is_dir())
            .unwrap();
        for entry in std::fs::read_dir(&ns).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
        }
        let recovered = Planner::new(Engine::new(1), Some(&root)).unwrap();
        let cell = recovered.cell(ExperimentId::Table1);
        assert_eq!(recovered.stats().computed, 1);
        assert_eq!(
            cell.text,
            format!("{}\n", run_with(ExperimentId::Table1, &Engine::new(1)))
        );
    }
}
