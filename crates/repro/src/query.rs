//! The typed query API: the one public way to describe work.
//!
//! [`Query`] describes *which experiments to run, how parallel* — the CLI,
//! the library facade, and the `stream-serve` daemon all construct the same
//! `Query` and get the same byte-deterministic reports, so the three entry
//! points can never drift. [`SpaceQuery`] describes a *constrained
//! design-space question* over the paper's `(C, N)` grid ("argmin energy/op
//! subject to area/ALU ≤ X"), the interactive loop the paper runs by hand
//! across Figures 13–15.
//!
//! ```
//! use stream_repro::{ExperimentId, Query};
//!
//! let reports = Query::new().experiment(ExperimentId::Table4).jobs(1).run();
//! assert_eq!(reports.len(), 1);
//! assert_eq!(reports[0].id(), "table4");
//! ```

use crate::{run_many, ExperimentId, Report, FIG13_NS, FIG14_CS};
use std::fmt;
use std::str::FromStr;
use stream_grid::Engine;
use stream_vlsi::{CostModel, CostReport, Shape};

/// A description of experiment work: which experiments, on how many worker
/// threads. Construct with the builder methods, execute with [`Query::run`]
/// (or [`Query::run_on`] to share an engine). Reports come back in the
/// order the experiments were added and render byte-identically for every
/// worker count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Query {
    ids: Vec<ExperimentId>,
    jobs: Option<usize>,
}

impl Query {
    /// An empty query; add experiments with [`Query::experiment`] /
    /// [`Query::experiments`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Every experiment, paper order — what `repro all` runs.
    pub fn all() -> Self {
        Self::new().experiments(ExperimentId::ALL)
    }

    /// Adds one experiment.
    #[must_use]
    pub fn experiment(mut self, id: ExperimentId) -> Self {
        self.ids.push(id);
        self
    }

    /// Adds several experiments, preserving order.
    #[must_use]
    pub fn experiments(mut self, ids: impl IntoIterator<Item = ExperimentId>) -> Self {
        self.ids.extend(ids);
        self
    }

    /// Sets the worker-thread count (`--jobs N`); default is the host's
    /// available parallelism, and `1` is strictly serial.
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = Some(n.max(1));
        self
    }

    /// The experiments this query will run, in order.
    pub fn ids(&self) -> &[ExperimentId] {
        &self.ids
    }

    /// An engine sized for this query.
    pub fn engine(&self) -> Engine {
        match self.jobs {
            Some(n) => Engine::new(n),
            None => Engine::with_default_parallelism(),
        }
    }

    /// Runs the query on its own engine; reports come back in query order.
    pub fn run(&self) -> Vec<Report> {
        self.run_on(&self.engine())
    }

    /// Runs the query on a shared engine. The query's experiments run in
    /// order, each grid on the whole engine; concurrent queries on one
    /// engine (the daemon's usage) share its permit pool.
    pub fn run_on(&self, engine: &Engine) -> Vec<Report> {
        run_many(&self.ids, engine)
    }
}

/// A scalar the VLSI cost model can score a shape by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Die area per ALU (normalized grids) — Figures 6, 9, 12.
    AreaPerAlu,
    /// Energy per ALU operation (units of `E_w`) — Figures 7, 10, 12.
    EnergyPerOp,
    /// Pipelined intercluster traversal latency in whole cycles.
    InterclusterDelay,
}

impl Metric {
    /// Every metric, in a stable order.
    pub const ALL: [Metric; 3] = [
        Metric::AreaPerAlu,
        Metric::EnergyPerOp,
        Metric::InterclusterDelay,
    ];

    /// The metric's wire/CLI name.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::AreaPerAlu => "area_per_alu",
            Metric::EnergyPerOp => "energy_per_op",
            Metric::InterclusterDelay => "intercluster_delay",
        }
    }

    /// Reads the metric off a cost report.
    pub fn of(self, report: &CostReport) -> f64 {
        match self {
            Metric::AreaPerAlu => report.area.per_alu(),
            Metric::EnergyPerOp => report.energy.per_alu_op(),
            Metric::InterclusterDelay => f64::from(report.delay.intercluster_cycles()),
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for a metric name that names no [`Metric`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMetric {
    /// The name that failed to parse.
    pub input: String,
}

impl fmt::Display for UnknownMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown metric `{}`; known:", self.input)?;
        for m in Metric::ALL {
            write!(f, " {m}")?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownMetric {}

impl FromStr for Metric {
    type Err = UnknownMetric;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Metric::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| UnknownMetric {
                input: s.to_string(),
            })
    }
}

/// An upper bound on one metric: `metric ≤ max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// The bounded metric.
    pub metric: Metric,
    /// The inclusive upper bound.
    pub max: f64,
}

/// A constrained design-space question over the `(C, N)` grid: minimize one
/// [`Metric`] subject to upper bounds on others, the query the paper
/// answers by eyeballing its figures.
///
/// ```
/// use stream_repro::{Metric, SpaceQuery};
///
/// // Most energy-efficient shape whose area/ALU stays within 2x the best.
/// let best_area = SpaceQuery::minimize(Metric::AreaPerAlu).solve().unwrap();
/// let answer = SpaceQuery::minimize(Metric::EnergyPerOp)
///     .subject_to(Metric::AreaPerAlu, best_area.value * 2.0)
///     .solve()
///     .unwrap();
/// assert!(answer.feasible <= answer.evaluated);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceQuery {
    clusters: Vec<u32>,
    alus_per_cluster: Vec<u32>,
    minimize: Metric,
    constraints: Vec<Constraint>,
}

impl SpaceQuery {
    /// Minimizes `metric` over the paper's full grid (`C` of Figure 14 ×
    /// `N` of Figure 13); narrow with [`SpaceQuery::clusters`] /
    /// [`SpaceQuery::alus_per_cluster`].
    pub fn minimize(metric: Metric) -> Self {
        Self {
            clusters: FIG14_CS.to_vec(),
            alus_per_cluster: FIG13_NS.to_vec(),
            minimize: metric,
            constraints: Vec::new(),
        }
    }

    /// Restricts the cluster counts swept. Zero values are dropped (the
    /// cost model rejects degenerate shapes).
    #[must_use]
    pub fn clusters(mut self, cs: impl IntoIterator<Item = u32>) -> Self {
        self.clusters = cs.into_iter().filter(|&c| c > 0).collect();
        self
    }

    /// Restricts the ALUs-per-cluster counts swept. Zero values are
    /// dropped.
    #[must_use]
    pub fn alus_per_cluster(mut self, ns: impl IntoIterator<Item = u32>) -> Self {
        self.alus_per_cluster = ns.into_iter().filter(|&n| n > 0).collect();
        self
    }

    /// Adds an upper-bound constraint `metric ≤ max`.
    #[must_use]
    pub fn subject_to(mut self, metric: Metric, max: f64) -> Self {
        self.constraints.push(Constraint { metric, max });
        self
    }

    /// The metric being minimized.
    pub fn objective(&self) -> Metric {
        self.minimize
    }

    /// The constraints, in the order added.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the grid and returns the feasible argmin, or `None` when
    /// no shape satisfies every constraint. Deterministic: ties break
    /// toward smaller `(C, N)`, and the evaluation order is fixed.
    pub fn solve(&self) -> Option<SpaceAnswer> {
        let model = CostModel::paper();
        let mut best: Option<SpaceAnswer> = None;
        let mut evaluated = 0usize;
        let mut feasible = 0usize;
        for &c in &self.clusters {
            for &n in &self.alus_per_cluster {
                let shape = Shape::new(c, n);
                let report = model.evaluate(shape);
                evaluated += 1;
                if self
                    .constraints
                    .iter()
                    .any(|con| con.metric.of(&report) > con.max)
                {
                    continue;
                }
                feasible += 1;
                let value = self.minimize.of(&report);
                let wins = match &best {
                    None => true,
                    Some(b) => {
                        value < b.value
                            || (value == b.value
                                && (shape.clusters, shape.alus_per_cluster)
                                    < (b.shape.clusters, b.shape.alus_per_cluster))
                    }
                };
                if wins {
                    best = Some(SpaceAnswer {
                        shape,
                        value,
                        evaluated: 0,
                        feasible: 0,
                    });
                }
            }
        }
        best.map(|mut b| {
            b.evaluated = evaluated;
            b.feasible = feasible;
            b
        })
    }
}

/// The result of [`SpaceQuery::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceAnswer {
    /// The winning `(C, N)`.
    pub shape: Shape,
    /// The objective's value at the winner.
    pub value: f64,
    /// Grid cells evaluated.
    pub evaluated: usize,
    /// Cells that satisfied every constraint.
    pub feasible: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_runs_in_order_and_matches_run_many() {
        let q = Query::new()
            .experiments([ExperimentId::Table4, ExperimentId::Table1])
            .jobs(1);
        let reports = q.run();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].id(), "table4");
        assert_eq!(reports[1].id(), "table1");
        let direct = crate::run_many(
            &[ExperimentId::Table4, ExperimentId::Table1],
            &Engine::new(1),
        );
        assert_eq!(
            reports.iter().map(Report::to_string).collect::<Vec<_>>(),
            direct.iter().map(Report::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_covers_every_experiment() {
        assert_eq!(Query::all().ids(), &ExperimentId::ALL[..]);
        assert!(Query::new().ids().is_empty());
        assert!(Query::new().run().is_empty());
    }

    #[test]
    fn metric_names_roundtrip() {
        for m in Metric::ALL {
            assert_eq!(m.name().parse::<Metric>(), Ok(m));
        }
        let err = "joules".parse::<Metric>().unwrap_err();
        assert!(err.to_string().contains("energy_per_op"));
    }

    #[test]
    fn unconstrained_argmin_matches_a_hand_scan() {
        let answer = SpaceQuery::minimize(Metric::AreaPerAlu).solve().unwrap();
        assert_eq!(answer.evaluated, FIG14_CS.len() * FIG13_NS.len());
        assert_eq!(answer.feasible, answer.evaluated);
        let model = CostModel::paper();
        for &c in &FIG14_CS {
            for &n in &FIG13_NS {
                let v = Metric::AreaPerAlu.of(&model.evaluate(Shape::new(c, n)));
                assert!(answer.value <= v, "({c},{n}) beats the argmin");
            }
        }
    }

    #[test]
    fn constraints_bind_and_can_be_infeasible() {
        let free = SpaceQuery::minimize(Metric::EnergyPerOp).solve().unwrap();
        let model = CostModel::paper();
        let free_area = Metric::AreaPerAlu.of(&model.evaluate(free.shape));
        // Constrain area strictly below the free winner's: the answer must
        // move to a different (feasible) shape.
        let tight = SpaceQuery::minimize(Metric::EnergyPerOp)
            .subject_to(Metric::AreaPerAlu, free_area * 0.999)
            .solve();
        if let Some(t) = tight {
            assert_ne!(t.shape, free.shape);
            assert!(t.value >= free.value);
            assert!(t.feasible < t.evaluated);
        }
        // An impossible bound is cleanly infeasible.
        assert_eq!(
            SpaceQuery::minimize(Metric::EnergyPerOp)
                .subject_to(Metric::AreaPerAlu, 0.0)
                .solve(),
            None
        );
    }

    #[test]
    fn narrowed_grids_are_respected() {
        let a = SpaceQuery::minimize(Metric::InterclusterDelay)
            .clusters([8])
            .alus_per_cluster([5])
            .solve()
            .unwrap();
        assert_eq!(a.shape, Shape::new(8, 5));
        assert_eq!(a.evaluated, 1);
    }
}
