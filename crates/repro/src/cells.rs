//! The run-scoped memo of application cells.
//!
//! Figure 15, the headline, the dataset-scaling study and the
//! multiprocessor study all simulate the paper's applications on paper
//! machines, and many of their cells are the same simulation: `headline`
//! reads 18 of `fig15`'s 48 cells, `scaled_datasets` 12 of its 20 and
//! `multiproc` 8 of its 12. [`Cells`] builds and simulates each distinct
//! cell once and hands later lookups its result. `run_many` makes one memo
//! that every experiment of the call shares; `run_with` makes its own, so
//! nothing outlives a run or a daemon request.
//!
//! The map follows `stream_grid::KernelCache`'s publish-once shape: the
//! map lock only hands out the cell's slot, the build and simulation run
//! outside it, and jobs asking for one cell at once wait for a single fill.
//! Which lookup fills a cell never changes its value, so reports stay
//! byte-identical at any worker count.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use stream_apps::{conv, depth, AppId};
use stream_machine::{Machine, SystemParams};
use stream_sim::{simulate, SimError, StreamProgram};
use stream_vlsi::Shape;

/// One of the six applications, with the dataset config the experiments
/// vary: `scaled_datasets` widens DEPTH's and CONV's images and
/// `multiproc` gives each processor a band of DEPTH's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum App {
    Render,
    Depth(depth::Config),
    Conv(conv::Config),
    Qrd,
    Fft1k,
    Fft4k,
}

impl From<AppId> for App {
    /// The application at the paper's dataset.
    fn from(id: AppId) -> Self {
        match id {
            AppId::Render => App::Render,
            AppId::Depth => App::Depth(depth::Config::paper()),
            AppId::Conv => App::Conv(conv::Config::paper()),
            AppId::Qrd => App::Qrd,
            AppId::Fft1k => App::Fft1k,
            AppId::Fft4k => App::Fft4k,
        }
    }
}

impl App {
    /// The stream program for `machine`, with default compile options and
    /// no strip batching.
    fn program(self, machine: &Machine) -> StreamProgram {
        let app = match self {
            App::Render => AppId::Render.program(machine),
            App::Depth(cfg) => depth::program(&cfg, machine),
            App::Conv(cfg) => conv::program(&cfg, machine),
            App::Qrd => AppId::Qrd.program(machine),
            App::Fft1k => AppId::Fft1k.program(machine),
            App::Fft4k => AppId::Fft4k.program(machine),
        };
        app.program
    }
}

/// What the experiments read off one simulation. A `SimReport` would also
/// hold the per-instruction timeline (~215 KB for one DEPTH program at
/// C=8), which no experiment reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    /// Total execution time in cycles.
    pub(crate) cycles: u64,
    /// Total ALU operations executed.
    pub(crate) alu_ops: u64,
}

impl Cell {
    /// Sustained GOPS at `clock_ghz`, by `SimReport::gops`'s formula.
    pub(crate) fn gops(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.alu_ops as f64 * clock_ghz / self.cycles as f64
    }
}

/// A cell's identity: every input of the build and the simulation that a
/// caller varies. Every cell runs on `Machine::paper(shape)` with default
/// `CompileOptions` and strip scale 1; [`Cells::get`] is the only way in,
/// so the key leaves those out. The system parameters are kept by bit
/// pattern, since they hold `f64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CellKey {
    app: App,
    shape: Shape,
    sys: [u64; 5],
}

impl CellKey {
    fn new(app: App, shape: Shape, sys: &SystemParams) -> Self {
        // Destructured field by field, so a new field cannot be left out.
        let SystemParams {
            clock_ghz,
            memory_words_per_cycle,
            memory_latency_cycles,
            host_bytes_per_cycle,
            stream_instruction_bytes,
        } = *sys;
        Self {
            app,
            shape,
            sys: [
                clock_ghz.to_bits(),
                memory_words_per_cycle.to_bits(),
                u64::from(memory_latency_cycles),
                host_bytes_per_cycle.to_bits(),
                u64::from(stream_instruction_bytes),
            ],
        }
    }
}

type CellSlot = Arc<OnceLock<Result<Cell, SimError>>>;

/// The memo: one slot per distinct cell, filled by its first lookup.
#[derive(Debug, Default)]
pub(crate) struct Cells {
    map: Mutex<HashMap<CellKey, CellSlot>>,
}

impl Cells {
    /// The cell of `app` on `Machine::paper(shape)` under `sys`, and
    /// whether this lookup built and simulated it.
    pub(crate) fn get(
        &self,
        app: App,
        shape: Shape,
        sys: &SystemParams,
    ) -> (Result<Cell, SimError>, bool) {
        let slot: CellSlot = {
            let mut map = self.map.lock().expect("cell memo poisoned");
            Arc::clone(map.entry(CellKey::new(app, shape, sys)).or_default())
        };
        let mut filled_here = false;
        let cell = slot.get_or_init(|| {
            filled_here = true;
            let machine = Machine::paper(shape);
            simulate(&app.program(&machine), &machine, sys).map(|r| Cell {
                cycles: r.cycles,
                alu_ops: r.alu_ops,
            })
        });
        (cell.clone(), filled_here)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_differing_in_one_input_get_results_of_their_own() {
        let paper = SystemParams::paper_2007();
        let narrow = SystemParams {
            memory_words_per_cycle: paper.memory_words_per_cycle / 4.0,
            ..paper.clone()
        };
        let small = conv::Config::small();
        let wide = conv::Config {
            width: 2 * small.width,
            ..small
        };
        let base = (small, Shape::new(8, 5), &paper);
        let variants = [
            base,
            (small, Shape::new(8, 5), &narrow),
            (wide, Shape::new(8, 5), &paper),
            (small, Shape::new(16, 5), &paper),
        ];
        let cells = Cells::default();
        let (base_cell, _) = cells.get(App::Conv(base.0), base.1, base.2);
        for (i, &(cfg, shape, sys)) in variants.iter().enumerate() {
            let machine = Machine::paper(shape);
            let want =
                simulate(&conv::program(&cfg, &machine).program, &machine, sys).expect("simulates");
            // Each variant moves the result, so a key that dropped its
            // differing input would hand back the base cell.
            if i > 0 {
                assert_ne!(base_cell.as_ref().unwrap().cycles, want.cycles, "{i}");
            }
            for lookup in 0..2 {
                let (cell, simulated) = cells.get(App::Conv(cfg), shape, sys);
                let cell = cell.expect("simulates");
                assert_eq!(cell.cycles, want.cycles, "{i}");
                assert_eq!(cell.alu_ops, want.alu_ops, "{i}");
                assert_eq!(cell.gops(1.0).to_bits(), want.gops(1.0).to_bits(), "{i}");
                // The base cell was filled before the loop; every other
                // variant is filled by its first lookup alone.
                assert_eq!(simulated, i > 0 && lookup == 0, "{i}, lookup {lookup}");
            }
        }
    }

    #[test]
    fn overflows_are_memoized_as_errors() {
        // RENDER's default program overflows the SRF at C=8 N=2.
        let cells = Cells::default();
        let shape = Shape::new(8, 2);
        let sys = SystemParams::paper_2007();
        let (first, simulated) = cells.get(App::Render, shape, &sys);
        assert!(simulated);
        assert!(
            matches!(first, Err(SimError::SrfOverflow { .. })),
            "{first:?}"
        );
        let (second, simulated) = cells.get(App::Render, shape, &sys);
        assert!(!simulated);
        assert_eq!(first, second);
    }
}
