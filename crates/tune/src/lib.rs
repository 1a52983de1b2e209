//! `stream-tune`: cost-guided per-application auto-tuning of unroll
//! factor × strip batching.
//!
//! The paper fixes one scheduling recipe for every application; this crate
//! searches a small configuration space per `(app, machine)` instead and
//! returns the fastest point:
//!
//! * **Unroll factors** — which set the VLIW scheduler's own II search may
//!   choose from (the default 1/2/4/8, capped subsets, and a deeper
//!   1..16 set).
//! * **Strip batching** — how many natural strips each stream-level kernel
//!   call covers ([`stream_apps::AppId::program_with`]), trading SRF
//!   residency for fill/drain amortization.
//!
//! The objective is deterministic: analytic simulated cycles of the
//! candidate's stream program ([`stream_sim::simulate`]), ties broken
//! toward the earlier candidate — the default point is evaluated first, so
//! the tuner never regresses below the default configuration.
//!
//! # Pruning: fewer scheduler runs than the cross-product
//!
//! Compiling a candidate is the expensive part (one modulo-scheduler
//! search per kernel per distinct option set). *Identity pruning* skips
//! candidates whose outcome is already known: the scheduler's pick folds
//! over each offered factor's own compile, and no factor's compile depends
//! on the others offered. So if an evaluated superset's chosen factors all
//! lie inside a candidate subset, the subset would compile to the identical
//! program (same strip scale → same simulated cycles) and is skipped
//! without a compile. (The pick is subset-stable by construction except
//! inside its 0.01 % epc tie band; a candidate pruned in that corner could
//! differ only by an epsilon-equivalent schedule, and the
//! never-worse-than-default guarantee is unaffected because the default
//! point is always evaluated directly.)
//!
//! The rule makes the search run measurably fewer scheduler invocations
//! than the raw cross-product; the compile count is exposed as
//! `tune.sched_compiles` and asserted strictly below the cross-product in
//! tests.
//!
//! # Persistence
//!
//! With [`attach_global_disk`], finished searches are written to a
//! `tune-<version>` namespace keyed by (app, machine config, search
//! space). Warm restarts replay winners with **zero** searches — but
//! rehydrated entries are re-validated (the winner must be a point of the
//! space, and both the default and the winning program are rebuilt and
//! re-simulated; the stored cycle counts must still match) rather than
//! trusted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod persist;
mod space;

pub use persist::attach_global_disk;
pub use space::{Candidate, TuneSpace};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Once;

use stream_apps::AppId;
use stream_machine::{Machine, SystemParams};
use stream_sched::CompileOptions;
use stream_sim::{simulate, SimError, StreamInstr, StreamProgram};
use stream_trace::Counter;

static SEARCHES: Counter = Counter::new();
static REHYDRATED: Counter = Counter::new();
static PRUNED: Counter = Counter::new();
static CANDIDATES: Counter = Counter::new();
static SCHED_COMPILES: Counter = Counter::new();

fn ensure_registered() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        stream_trace::register_counter("tune.searches", &SEARCHES);
        stream_trace::register_counter("tune.rehydrated", &REHYDRATED);
        stream_trace::register_counter("tune.pruned", &PRUNED);
        stream_trace::register_counter("tune.candidates", &CANDIDATES);
        stream_trace::register_counter("tune.sched_compiles", &SCHED_COMPILES);
    });
}

/// Process-wide tuner counters (also exported through the metrics
/// registry as `tune.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneStats {
    /// Full searches run (a disk rehydration is not a search).
    pub searches: u64,
    /// Results served by the persistent tier after re-validation.
    pub rehydrated: u64,
    /// Candidates skipped by identity pruning: an evaluated superset's
    /// picks show they would compile to a program already simulated.
    pub pruned: u64,
    /// Candidates actually simulated (includes each search's baseline).
    pub candidates: u64,
    /// Scheduler invocations attributed to tuning searches.
    pub sched_compiles: u64,
}

/// Reads the process-wide tuner counters.
pub fn stats() -> TuneStats {
    ensure_registered();
    TuneStats {
        searches: SEARCHES.get(),
        rehydrated: REHYDRATED.get(),
        pruned: PRUNED.get(),
        candidates: CANDIDATES.get(),
        sched_compiles: SCHED_COMPILES.get(),
    }
}

/// The tuner's verdict for one `(app, machine)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuned {
    /// Which application this tunes.
    pub app: AppId,
    /// The winning configuration (the default point if nothing beat it).
    pub candidate: Candidate,
    /// Simulated cycles of the default configuration.
    pub default_cycles: u64,
    /// Simulated cycles of the winner (`<= default_cycles` always).
    pub tuned_cycles: u64,
    /// Whether this result was rehydrated from the persistent tier.
    pub from_disk: bool,
    /// Candidates skipped by identity pruning in this call.
    pub pruned: u64,
    /// Candidates simulated in this call (0 when rehydrated/disabled).
    pub evaluated: u64,
    /// Scheduler runs this call performed (on its own thread).
    pub sched_compiles: u64,
}

/// Why [`try_tune_app`] could not tune an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The default configuration's program does not simulate on the
    /// machine (e.g. its strips overflow a small SRF), so there is no
    /// baseline to search from.
    DefaultInfeasible {
        /// The application.
        app: AppId,
        /// The simulator's verdict on its default program.
        error: SimError,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::DefaultInfeasible { app, error } => {
                write!(f, "{app}: default program does not simulate: {error}")
            }
        }
    }
}

impl std::error::Error for TuneError {}

impl Tuned {
    /// Tuned-over-default speedup; `>= 1.0` by construction (the default
    /// point opens the search and ties break toward it).
    pub fn speedup(&self) -> f64 {
        self.default_cycles as f64 / self.tuned_cycles.max(1) as f64
    }
}

/// One processed unroll set: which factor the scheduler actually chose
/// per kernel, and which strip scales have been covered with it.
struct SetRecord {
    set: Vec<u32>,
    picks: BTreeMap<String, u32>,
    strips: Vec<u32>,
}

/// The unroll factor the scheduler chose for each kernel of `program`.
fn unroll_picks(program: &StreamProgram) -> BTreeMap<String, u32> {
    let mut picks = BTreeMap::new();
    for instr in program.instrs() {
        if let StreamInstr::Kernel { kernel, .. } = instr {
            picks.insert(kernel.name().to_string(), kernel.unroll_factor());
        }
    }
    picks
}

fn default_report(
    id: AppId,
    machine: &Machine,
    sys: &SystemParams,
) -> Result<(StreamProgram, u64), TuneError> {
    let app = id.program_with(machine, &CompileOptions::default(), 1);
    match simulate(&app.program, machine, sys) {
        Ok(report) => Ok((app.program, report.cycles)),
        Err(error) => Err(TuneError::DefaultInfeasible { app: id, error }),
    }
}

/// Validates a stored winner: it must be one of `space`'s candidates, and
/// both the default and the winning program must rebuild and re-simulate
/// to exactly the stored cycle counts.
fn revalidate(
    id: AppId,
    machine: &Machine,
    sys: &SystemParams,
    space: &TuneSpace,
    stored: &persist::StoredTuned,
) -> bool {
    if !space.candidates().contains(&stored.winner) {
        return false;
    }
    if !matches!(default_report(id, machine, sys), Ok((_, c)) if c == stored.default_cycles) {
        return false;
    }
    let app = id.program_with(
        machine,
        &stored.winner.compile_options(),
        stored.winner.strip_scale,
    );
    matches!(simulate(&app.program, machine, sys), Ok(r) if r.cycles == stored.tuned_cycles)
}

/// Tunes `id` for `machine` under `sys` (see [`try_tune_app`]).
///
/// # Panics
///
/// If the default program does not simulate on `machine`.
pub fn tune_app(id: AppId, machine: &Machine, sys: &SystemParams) -> Tuned {
    try_tune_app(id, machine, sys).unwrap_or_else(|e| panic!("{e}"))
}

/// Tunes `id` for `machine` under `sys`: returns the fastest found
/// configuration, never slower than the default (which is always
/// evaluated first and wins ties).
///
/// Deterministic for a fixed (app, machine, system): the
/// candidate order is fixed, the objective is the analytic simulator, and
/// no wall-clock measurement is involved — so results are identical at
/// any `--jobs` level and across runs.
///
/// # Errors
///
/// [`TuneError::DefaultInfeasible`] if the default program does not
/// simulate on `machine`.
pub fn try_tune_app(id: AppId, machine: &Machine, sys: &SystemParams) -> Result<Tuned, TuneError> {
    ensure_registered();
    let compiles_before = stream_grid::thread_compiles();

    let space = TuneSpace::default();

    if let Some(stored) = persist::load(id.name(), machine, &space) {
        if revalidate(id, machine, sys, &space, &stored) {
            REHYDRATED.incr();
            let delta = stream_grid::thread_compiles() - compiles_before;
            SCHED_COMPILES.add(delta);
            return Ok(Tuned {
                app: id,
                candidate: stored.winner,
                default_cycles: stored.default_cycles,
                tuned_cycles: stored.tuned_cycles,
                from_disk: true,
                pruned: 0,
                evaluated: 0,
                sched_compiles: delta,
            });
        }
    }

    let (default_program, default_cycles) = default_report(id, machine, sys)?;
    SEARCHES.incr();
    CANDIDATES.incr();

    let mut best = Candidate::default_point();
    let mut best_cycles = default_cycles;
    let mut pruned = 0u64;
    let mut evaluated = 1u64; // the default point

    // Processed (set, strip) points with the factors the scheduler chose,
    // for identity pruning (see the module docs): set → per-kernel picks
    // plus the strip scales already covered.
    let mut seen: Vec<SetRecord> = vec![SetRecord {
        set: Candidate::default_point().unroll_factors,
        picks: unroll_picks(&default_program),
        strips: vec![1],
    }];

    for cand in space.candidates().into_iter().skip(1) {
        // Identity pruning: an evaluated superset whose chosen factors all
        // lie inside this candidate's set would make the scheduler pick
        // identically, so the program (at the same strip scale) is already
        // accounted for.
        let redundant = seen.iter().any(|r| {
            r.strips.contains(&cand.strip_scale)
                && cand.unroll_factors.iter().all(|u| r.set.contains(u))
                && r.picks.values().all(|u| cand.unroll_factors.contains(u))
        });
        if redundant {
            pruned += 1;
            PRUNED.incr();
            continue;
        }
        evaluated += 1;
        CANDIDATES.incr();
        let app = id.program_with(machine, &cand.compile_options(), cand.strip_scale);
        match seen.iter_mut().find(|r| r.set == cand.unroll_factors) {
            Some(r) => r.strips.push(cand.strip_scale),
            None => seen.push(SetRecord {
                set: cand.unroll_factors.clone(),
                picks: unroll_picks(&app.program),
                strips: vec![cand.strip_scale],
            }),
        }
        // Infeasible programs (e.g. a strip batch that overflows the SRF)
        // are legal candidates that simply lose.
        if let Ok(r) = simulate(&app.program, machine, sys) {
            if r.cycles < best_cycles {
                best_cycles = r.cycles;
                best = cand;
            }
        }
    }

    let delta = stream_grid::thread_compiles() - compiles_before;
    SCHED_COMPILES.add(delta);

    persist::save(
        id.name(),
        machine,
        &space,
        &persist::StoredTuned {
            winner: best.clone(),
            default_cycles,
            tuned_cycles: best_cycles,
        },
    );

    Ok(Tuned {
        app: id,
        candidate: best,
        default_cycles,
        tuned_cycles: best_cycles,
        from_disk: false,
        pruned,
        evaluated,
        sched_compiles: delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_vlsi::Shape;

    fn sys() -> SystemParams {
        SystemParams::paper_2007()
    }

    #[test]
    fn tuner_never_loses_to_the_default() {
        let m = Machine::baseline();
        for id in AppId::ALL {
            let t = tune_app(id, &m, &sys());
            assert!(
                t.tuned_cycles <= t.default_cycles,
                "{id}: tuned {} > default {}",
                t.tuned_cycles,
                t.default_cycles
            );
            assert!(t.speedup() >= 1.0, "{id}");
            assert!(t.evaluated >= 1, "{id}");
        }
    }

    #[test]
    fn default_that_overflows_the_srf_is_an_error() {
        let m = Machine::paper(Shape::new(8, 2));
        let err = try_tune_app(AppId::Render, &m, &sys()).unwrap_err();
        assert!(
            matches!(
                err,
                TuneError::DefaultInfeasible {
                    app: AppId::Render,
                    error: SimError::SrfOverflow { .. }
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn search_is_deterministic() {
        // Distinct shape so other tests' cache warmth cannot matter.
        let m = Machine::paper(Shape::new(4, 4));
        let a = tune_app(AppId::Conv, &m, &sys());
        let b = tune_app(AppId::Conv, &m, &sys());
        assert_eq!(a.candidate, b.candidate);
        assert_eq!(a.tuned_cycles, b.tuned_cycles);
        assert_eq!(a.default_cycles, b.default_cycles);
    }

    #[test]
    fn pruned_search_compiles_fewer_than_cross_product() {
        // Cold shape: nothing else in this test binary compiles at (16, 5).
        let m = Machine::paper(Shape::new(16, 5));
        let space = TuneSpace::default();
        let t = tune_app(AppId::Depth, &m, &sys());
        let exhaustive = space.cross_product_compiles(AppId::Depth.kernels(&m).len());
        assert!(
            t.sched_compiles < exhaustive,
            "pruned search ran {} scheduler compiles, cross-product needs {exhaustive}",
            t.sched_compiles
        );
        assert!(t.pruned > 0, "expected pruning to discard candidates");
        assert_eq!(t.pruned + t.evaluated, 21, "full space is 21 candidates");
    }

    #[test]
    fn identity_pruning_is_sound() {
        // The rule: if an evaluated superset's chosen factors all lie in a
        // subset, the subset compiles identically. Check it directly — the
        // default set's picks, offered alone, rebuild the same program.
        let m = Machine::baseline();
        let (default_program, _) = default_report(AppId::Depth, &m, &sys()).unwrap();
        let picks: Vec<u32> = unroll_picks(&default_program).into_values().collect();
        let mut factors = picks.clone();
        factors.sort_unstable();
        factors.dedup();
        let app =
            AppId::Depth.program_with(&m, &CompileOptions::default().unroll_factors(factors), 1);
        assert_eq!(
            format!("{default_program:?}"),
            format!("{:?}", app.program),
            "subset containing the chosen factors must compile identically"
        );
    }

    #[test]
    fn revalidate_rejects_winners_outside_the_space() {
        // Calls `revalidate` directly, so no disk tier is attached. Each
        // stored entry carries the true default cycles, and a winner that
        // builds carries its own true cycles, so only the winner's place in
        // the space can reject it.
        let m = Machine::baseline();
        let space = TuneSpace::default();
        let (_, default_cycles) = default_report(AppId::Conv, &m, &sys()).unwrap();
        let outside = [
            (vec![], 1),
            (vec![0], 1),
            (vec![1, 3, 5], 1),
            (vec![1, 2, 4, 8], 0),
            (vec![1, 2, 4, 8], 8),
        ];
        for (unroll_factors, strip_scale) in outside {
            let winner = Candidate {
                unroll_factors,
                strip_scale,
            };
            let tuned_cycles = if winner.unroll_factors.contains(&1) {
                let app =
                    AppId::Conv.program_with(&m, &winner.compile_options(), winner.strip_scale);
                simulate(&app.program, &m, &sys()).map_or(default_cycles, |r| r.cycles)
            } else {
                default_cycles
            };
            let stored = persist::StoredTuned {
                winner,
                default_cycles,
                tuned_cycles,
            };
            assert!(
                !revalidate(AppId::Conv, &m, &sys(), &space, &stored),
                "{stored:?}"
            );
        }
    }

    #[test]
    fn stats_reflect_searches() {
        let m = Machine::baseline();
        let before = stats();
        let _ = tune_app(AppId::Fft1k, &m, &sys());
        let after = stats();
        assert!(after.searches > before.searches || after.rehydrated > before.rehydrated);
        assert!(after.candidates > before.candidates || after.rehydrated > before.rehydrated);
    }
}
