//! The `tune` extension experiment: per-application auto-tuning
//! (`stream-tune`) at two design points, reporting tuned-vs-default
//! speedups and the winning configuration.
//!
//! Output discipline: rows contain only disk-independent values (the
//! tuner is deterministic, and a rehydrated winner equals the searched
//! one), so a warm `--cache-dir` rerun renders byte-identically to a cold
//! run. Search-effort counters (candidates evaluated, pruned, scheduler
//! compiles) differ between cold and warm runs and therefore go to
//! [`Report::perf`], which `Display` never renders.

use crate::sweep::Ctx;
use crate::{ExperimentId, Report};
use stream_apps::AppId;
use stream_machine::{Machine, SystemParams};
use stream_tune::{tune_app, Tuned};
use stream_vlsi::Shape;

/// The design points tuned: the paper's baseline and a mid-size machine
/// where strip batching and unroll capping have more room to pay off.
fn tune_shapes() -> [Shape; 2] {
    [Shape::new(8, 5), Shape::new(64, 8)]
}

pub(crate) fn tune_impl(ctx: &Ctx) -> Report {
    let mut r = Report::new(
        "tune",
        "Auto-tuned vs default configuration (stream-tune, per app)",
    )
    .with_headers([
        "app",
        "shape",
        "default cyc",
        "tuned cyc",
        "speedup",
        "winner",
    ]);

    let cells: Vec<(AppId, Shape)> = AppId::ALL
        .iter()
        .flat_map(|&id| tune_shapes().into_iter().map(move |s| (id, s)))
        .collect();
    let tuned: Vec<Tuned> = ctx.map(cells.clone(), |(id, shape)| {
        tune_app(id, &Machine::paper(shape), &SystemParams::paper_2007())
    });

    let (mut evaluated, mut pruned, mut compiles, mut rehydrated) = (0u64, 0u64, 0u64, 0u64);
    for ((id, shape), t) in cells.iter().zip(&tuned) {
        r.row([
            id.name().to_string(),
            format!("C={} N={}", shape.clusters, shape.alus_per_cluster),
            t.default_cycles.to_string(),
            t.tuned_cycles.to_string(),
            format!("{:.3}x", t.speedup()),
            t.candidate.describe(),
        ]);
        evaluated += t.evaluated;
        pruned += t.pruned;
        compiles += t.sched_compiles;
        rehydrated += u64::from(t.from_disk);
    }

    r.note("objective: analytic simulated cycles; default config always evaluated first, so speedup >= 1.0 by construction");
    r.note("winner axes: scheduler unroll-factor set, strips batched per kernel call");
    r.perf.push(format!(
        "search: {evaluated} candidates evaluated, {pruned} pruned, {compiles} set compiles, {rehydrated} rehydrated over {} cells",
        cells.len()
    ));
    r
}

/// The tune experiment, on an engine sized to the host.
pub fn tune() -> Report {
    crate::run(ExperimentId::Tune)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_reports_every_app_at_every_shape() {
        let r = tune();
        assert_eq!(r.rows.len(), AppId::ALL.len() * tune_shapes().len());
        let mut best = 1.0f64;
        for row in &r.rows {
            let speedup: f64 = row[4].trim_end_matches('x').parse().unwrap();
            assert!(speedup >= 1.0, "{}: tuned slower than default", row[0]);
            best = best.max(speedup);
        }
        // The search space is real: something must actually improve.
        assert!(best > 1.01, "no app improved (best {best})");
    }

    #[test]
    fn tune_report_is_byte_identical_across_worker_counts() {
        let serial = crate::run_with(ExperimentId::Tune, &stream_grid::Engine::new(1)).to_string();
        let parallel =
            crate::run_with(ExperimentId::Tune, &stream_grid::Engine::new(4)).to_string();
        assert_eq!(serial, parallel, "tune diverges across worker counts");
    }
}
