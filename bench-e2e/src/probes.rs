//! Layer probes: timed calls into each layer's public functions from
//! outside the program. They run in a fresh process (`e2e --probes`) so the
//! tuner probe starts with empty process-wide caches, and report over
//! stdout one line per probe span and per metric.

use crate::reference::{self, REPRO_OUTPUT};
use crate::report::Metrics;
use crate::workload::TUNE_ANCHOR_SHAPES;
use std::hint::black_box;
use std::time::{Duration, Instant};
use stream_apps::AppId;
use stream_kernels::KernelId;
use stream_machine::{Machine, SystemParams};
use stream_repro::{FIG13_NS, FIG14_CS};
use stream_sched::{CompileOptions, CompiledKernel};
use stream_sim::{simulate, StreamProgram};
use stream_vlsi::{CostModel, Shape};

/// Cost-model evaluations per shape in the `vlsi` probe (one takes about a
/// microsecond, so a single pass is too short to time).
const VLSI_REPEATS: usize = 500;

/// One timed probe: which layer, when it ran relative to the probe
/// process's start, and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSpan {
    /// Layer (crate) name.
    pub layer: String,
    /// Offset from the probe process's start, µs.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// The 20 `(C, N)` machines of Figures 13 and 14.
fn paper_shapes() -> Vec<Shape> {
    FIG14_CS
        .iter()
        .flat_map(|&c| FIG13_NS.iter().map(move |&n| Shape::new(c, n)))
        .collect()
}

/// The 48 `(app, shape)` cells of Figure 15.
fn fig15_cells() -> Vec<(AppId, Shape)> {
    let shapes: Vec<Shape> = FIG14_CS
        .iter()
        .map(|&c| Shape::new(c, 5))
        .chain([2, 10, 14].map(|n| Shape::new(128, n)))
        .collect();
    AppId::ALL
        .iter()
        .flat_map(|&app| shapes.iter().map(move |&s| (app, s)))
        .collect()
}

fn mean_of(total: Duration, n: usize) -> Duration {
    total / n.max(1) as u32
}

struct Recorder {
    epoch: Instant,
    spans: Vec<ProbeSpan>,
    metrics: Metrics,
}

impl Recorder {
    fn probe<T>(
        &mut self,
        layer: &str,
        f: impl FnOnce(&mut Metrics) -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let out = f(&mut self.metrics)?;
        self.spans.push(ProbeSpan {
            layer: layer.to_string(),
            start_us: start.duration_since(self.epoch).as_micros() as u64,
            dur_us: start.elapsed().as_micros() as u64,
        });
        Ok(out)
    }
}

/// Runs every probe, in an order that keeps each one's cache state as
/// stated: the tuner first on cold caches, then uncached scheduler
/// compiles, rehydration of those schedules, app program construction on a
/// warm kernel cache, simulation of those programs, and the cost model.
///
/// # Errors
///
/// A probe whose result is wrong (a tuner anchor that differs from the
/// reference, a failed compile, a rejected recipe, a failed simulation).
pub fn run_all() -> Result<(Vec<ProbeSpan>, Metrics), String> {
    let mut r = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        metrics: Metrics::default(),
    };
    let sys = SystemParams::paper_2007();

    r.probe("tune", |m| {
        let anchors = reference::tune_anchors(REPRO_OUTPUT)?;
        let mut total = Duration::ZERO;
        let mut n = 0;
        for app in AppId::ALL {
            for (c, alus) in TUNE_ANCHOR_SHAPES {
                let machine = Machine::paper(Shape::new(c, alus));
                let t = Instant::now();
                let tuned = stream_tune::tune_app(app, &machine, &sys);
                total += t.elapsed();
                n += 1;
                let want = anchors
                    .iter()
                    .find(|a| a.app == app.name() && (a.clusters, a.alus) == (c, alus))
                    .ok_or_else(|| format!("no tune anchor for {app} C={c} N={alus}"))?;
                if (tuned.default_cycles, tuned.tuned_cycles) != (want.default_cycles, want.tuned_cycles) {
                    return Err(format!(
                        "tune_app {app} C={c} N={alus}: cycles {}/{} differ from the tune table's {}/{}",
                        tuned.default_cycles, tuned.tuned_cycles, want.default_cycles, want.tuned_cycles
                    ));
                }
            }
        }
        m.set_sampled("tune.probe.search_ms.mean", mean_of(total, n).as_secs_f64() * 1e3, "ms", Some(n));
        Ok(())
    })?;

    let compiled = r.probe("sched", |m| {
        let mut total = Duration::ZERO;
        let mut out = Vec::new();
        for shape in paper_shapes() {
            let machine = Machine::paper(shape);
            for id in KernelId::ALL {
                let kernel = id.build(&machine);
                let t = Instant::now();
                let ck = CompiledKernel::compile_default(&kernel, &machine).map_err(|e| {
                    format!(
                        "compile {} at C={} N={}: {e}",
                        id.name(),
                        shape.clusters,
                        shape.alus_per_cluster
                    )
                })?;
                total += t.elapsed();
                out.push((kernel, machine.clone(), ck));
            }
        }
        m.set_sampled(
            "sched.probe.compile_ms.mean",
            mean_of(total, out.len()).as_secs_f64() * 1e3,
            "ms",
            Some(out.len()),
        );
        Ok(out)
    })?;

    r.probe("store", |m| {
        let opts = CompileOptions::default();
        let mut total = Duration::ZERO;
        for (kernel, machine, ck) in &compiled {
            let recipe = ck.recipe();
            let t = Instant::now();
            let back = CompiledKernel::rehydrate(kernel, machine, &opts, &recipe);
            total += t.elapsed();
            let back =
                back.ok_or_else(|| format!("recipe of {} rejected on rehydrate", ck.name()))?;
            if back.ii() != ck.ii() {
                return Err(format!(
                    "{} rehydrated at II {} not {}",
                    ck.name(),
                    back.ii(),
                    ck.ii()
                ));
            }
        }
        m.set_sampled(
            "store.probe.rehydrate_us.mean",
            mean_of(total, compiled.len()).as_secs_f64() * 1e6,
            "us",
            Some(compiled.len()),
        );
        Ok(())
    })?;

    let cells = fig15_cells();
    // Untimed first pass: fills the process-wide kernel cache, so the timed
    // pass measures program construction, not scheduling.
    for &(app, shape) in &cells {
        black_box(app.program(&Machine::paper(shape)));
    }
    let programs: Vec<(Machine, StreamProgram)> = r.probe("apps", |m| {
        let start = Instant::now();
        let programs: Vec<(Machine, StreamProgram)> = cells
            .iter()
            .map(|&(app, shape)| {
                let machine = Machine::paper(shape);
                let program = app.program(&machine).program;
                (machine, program)
            })
            .collect();
        let total = start.elapsed();
        m.set_sampled(
            "apps.probe.program_ms.mean",
            mean_of(total, programs.len()).as_secs_f64() * 1e3,
            "ms",
            Some(programs.len()),
        );
        m.set("apps.probe.program_s", total.as_secs_f64(), "s");
        Ok(programs)
    })?;

    r.probe("sim", |m| {
        let mut total = Duration::ZERO;
        for (machine, program) in &programs {
            let t = Instant::now();
            let report = simulate(program, machine, &sys).map_err(|e| format!("simulate: {e}"))?;
            total += t.elapsed();
            black_box(report);
        }
        m.set_sampled(
            "sim.probe.simulate_ms.mean",
            mean_of(total, programs.len()).as_secs_f64() * 1e3,
            "ms",
            Some(programs.len()),
        );
        Ok(())
    })?;

    r.probe("vlsi", |m| {
        let model = CostModel::paper();
        let shapes = paper_shapes();
        let t = Instant::now();
        for _ in 0..VLSI_REPEATS {
            for &shape in &shapes {
                black_box(model.evaluate(black_box(shape)));
            }
        }
        let n = VLSI_REPEATS * shapes.len();
        m.set_sampled(
            "vlsi.probe.evaluate_us.mean",
            t.elapsed().as_secs_f64() * 1e6 / n as f64,
            "us",
            Some(n),
        );
        Ok(())
    })?;

    Ok((r.spans, r.metrics))
}

/// Renders probe results as the line protocol [`parse`] reads.
pub fn render(spans: &[ProbeSpan], metrics: &Metrics) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!("span {} {} {}\n", s.layer, s.start_us, s.dur_us));
    }
    for m in metrics.all() {
        let n = m.samples.map_or("-".to_string(), |n| n.to_string());
        out.push_str(&format!("metric {} {} {} {n}\n", m.name, m.unit, m.value));
    }
    out
}

/// Units a probe reports in; [`parse`] maps the text back onto these.
const UNITS: [&str; 4] = ["ms", "us", "s", "count"];

/// Parses [`render`]'s output.
///
/// # Errors
///
/// A line that is not a span or metric of the protocol.
pub fn parse(text: &str) -> Result<(Vec<ProbeSpan>, Metrics), String> {
    let mut spans = Vec::new();
    let mut metrics = Metrics::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let bad = || format!("bad probe line {line:?}");
        match f.as_slice() {
            ["span", layer, start, dur] => spans.push(ProbeSpan {
                layer: layer.to_string(),
                start_us: start.parse().map_err(|_| bad())?,
                dur_us: dur.parse().map_err(|_| bad())?,
            }),
            ["metric", name, unit, value, n] => {
                let unit = UNITS.iter().find(|u| *u == unit).ok_or_else(bad)?;
                metrics.set_sampled(
                    *name,
                    value.parse().map_err(|_| bad())?,
                    unit,
                    n.parse().ok(),
                );
            }
            _ => return Err(bad()),
        }
    }
    Ok((spans, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trips() {
        let spans = vec![ProbeSpan {
            layer: "sched".to_string(),
            start_us: 12,
            dur_us: 3400,
        }];
        let mut m = Metrics::default();
        m.set_sampled("sched.probe.compile_ms.mean", 9.875, "ms", Some(140));
        m.set("apps.probe.program_s", 0.25, "s");
        let (s2, m2) = parse(&render(&spans, &m)).unwrap();
        assert_eq!(s2, spans);
        assert_eq!(m2.all(), m.all());
        assert!(parse("metric x furlongs 1 -").is_err());
        assert!(parse("hello").is_err());
    }

    #[test]
    fn probe_grids_match_the_paper_figures() {
        assert_eq!(paper_shapes().len(), 20);
        assert_eq!(fig15_cells().len(), 48);
    }
}
