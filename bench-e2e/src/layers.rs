//! Per-layer attribution from what a traced run already records: the spans
//! (from its Chrome trace document) and the metric registry (Prometheus
//! text). Layer names are crate names.

use crate::report::Metrics;
use std::collections::BTreeMap;
use std::path::Path;
use stream_serve::json::{self, Value};

/// A complete span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Category (`sched`, `grid`, ...).
    pub cat: String,
    /// Name within the category.
    pub name: String,
    /// Recording thread.
    pub tid: u64,
    /// Start, in microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl Span {
    fn key(&self) -> String {
        format!("{}/{}", self.cat, self.name)
    }

    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// The complete (`"ph":"X"`) spans of a Chrome trace-event document.
///
/// # Errors
///
/// Malformed JSON or a span missing a field.
pub fn from_chrome(doc: &str) -> Result<Vec<Span>, String> {
    let doc = json::parse(doc).map_err(|e| format!("trace file: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace file has no traceEvents")?;
    let mut spans = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let text = |k: &str| e.get(k).and_then(Value::as_str).map(str::to_string);
        let num = |k: &str| e.get(k).and_then(Value::as_f64).map(|v| v as u64);
        match (text("cat"), text("name"), num("tid"), num("ts"), num("dur")) {
            (Some(cat), Some(name), Some(tid), Some(start_us), Some(dur_us)) => spans.push(Span {
                cat,
                name,
                tid,
                start_us,
                dur_us,
            }),
            _ => return Err("trace span without cat/name/tid/ts/dur".to_string()),
        }
    }
    Ok(spans)
}

/// Unlabelled samples of a Prometheus text exposition (counters, gauges,
/// and histogram `_sum`/`_count`), by name.
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Count, total and maximum duration of every `cat/name`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Spans seen.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Longest one, µs.
    pub max_us: u64,
}

/// Totals by `cat/name`.
pub fn totals(spans: &[Span]) -> BTreeMap<String, Totals> {
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.key()).or_default();
        t.count += 1;
        t.total_us += s.dur_us;
        t.max_us = t.max_us.max(s.dur_us);
    }
    out
}

/// Spans of layers below the grid and serve roots: everything a job or a
/// tune request spends time in that has a name.
fn is_layer_span(s: &Span) -> bool {
    !matches!(s.cat.as_str(), "grid" | "serve" | "bench") || s.key() == "grid/compile"
}

/// Work roots: grid jobs that run no nested sweep on their own thread, and
/// daemon tune requests (which call the tuner without the grid engine).
fn roots(spans: &[Span]) -> Vec<&Span> {
    let by_thread = by_thread(spans);
    spans
        .iter()
        .filter(|s| match s.key().as_str() {
            "grid/job" => !by_thread[&s.tid]
                .iter()
                .any(|o| o.key() == "grid/run" && within(o, s)),
            "serve/tune" => true,
            _ => false,
        })
        .collect()
}

fn by_thread(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut out: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        out.entry(s.tid).or_default().push(s);
    }
    out
}

fn within(inner: &Span, outer: &Span) -> bool {
    !std::ptr::eq(inner, outer)
        && inner.start_us >= outer.start_us
        && inner.end_us() <= outer.end_us()
}

/// Microseconds of `root` covered by the union of layer spans on its
/// thread.
fn covered_us(root: &Span, thread: &[&Span]) -> u64 {
    let mut parts: Vec<(u64, u64)> = thread
        .iter()
        .filter(|s| is_layer_span(s) && within(s, root))
        .map(|s| (s.start_us, s.end_us()))
        .collect();
    parts.sort_unstable();
    let (mut covered, mut reach) = (0, root.start_us);
    for (start, end) in parts {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Share of root time (leaf grid jobs and daemon tune requests) that named
/// layer spans cover, and the summed root time in µs.
pub fn attribution(spans: &[Span]) -> (f64, u64) {
    let threads = by_thread(spans);
    let roots = roots(spans);
    let total: u64 = roots.iter().map(|r| r.dur_us).sum();
    let covered: u64 = roots.iter().map(|r| covered_us(r, &threads[&r.tid])).sum();
    (covered as f64 / total.max(1) as f64, total)
}

/// Files and bytes under `dir`, recursively.
pub fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => {
                    files += 1;
                    bytes += m.len();
                }
                Err(_) => {}
            }
        }
    }
    (files, bytes)
}

/// Records the span- and registry-derived layer metrics of one traced
/// pass that took `wall_s` on `jobs` workers.
pub fn record(
    spans: &[Span],
    prom: &BTreeMap<String, f64>,
    wall_s: f64,
    jobs: usize,
    m: &mut Metrics,
) {
    let t = totals(spans);
    let get = |key: &str| t.get(key).copied().unwrap_or_default();
    let secs = |key: &str| get(key).total_us as f64 / 1e6;
    let counter = |name: &str| prom.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // grid
    let leaf_busy_us: u64 = roots(spans)
        .iter()
        .filter(|r| r.key() == "grid/job")
        .map(|r| r.dur_us)
        .sum();
    m.set("grid.cache.compiles", counter("cache_compiles"), "count");
    m.set("grid.cache.disk_hits", counter("cache_disk_hit"), "count");
    m.set(
        "grid.cache.disk_misses",
        counter("cache_disk_miss"),
        "count",
    );
    let (hit, miss) = (counter("grid_cache_hit"), counter("grid_cache_miss"));
    m.set("grid.cache.hit_ratio", ratio(hit, hit + miss), "ratio");
    m.set("grid.jobs", counter("grid_jobs"), "count");
    m.set(
        "grid.permit_shortfall",
        counter("grid_permit_shortfall"),
        "count",
    );
    m.set(
        "grid.parallel_efficiency",
        ratio(leaf_busy_us as f64 / 1e6, wall_s * jobs as f64),
        "ratio",
    );

    // sched
    let compile = get("sched/compile");
    m.set_sampled(
        "sched.compile_s",
        secs("sched/compile"),
        "s",
        Some(compile.count as usize),
    );
    m.set("sched.compile_ms.max", compile.max_us as f64 / 1e3, "ms");
    m.set("sched.attempts", counter("sched_attempts"), "count");
    m.set("sched.backtracks", counter("sched_backtracks"), "count");
    m.set(
        "sched.budget_exhausted",
        counter("sched_budget_exhausted"),
        "count",
    );
    m.set(
        "sched.compiles_per_attempt",
        ratio(compile.count as f64, counter("sched_attempts")),
        "ratio",
    );

    // tune
    let (pruned, candidates) = (counter("tune_pruned"), counter("tune_candidates"));
    m.set("tune.searches", counter("tune_searches"), "count");
    m.set("tune.candidates", candidates, "count");
    m.set("tune.pruned", pruned, "count");
    m.set(
        "tune.prune_ratio",
        ratio(pruned, pruned + candidates),
        "ratio",
    );
    m.set(
        "tune.sched_compiles",
        counter("tune_sched_compiles"),
        "count",
    );
    m.set("tune.rehydrated", counter("tune_rehydrated"), "count");

    // store: cache fills not spent compiling or rehydrating are disk I/O,
    // hashing and encoding.
    let rehydrate = get("sched/rehydrate");
    m.set_sampled(
        "store.rehydrate_s",
        secs("sched/rehydrate"),
        "s",
        Some(rehydrate.count as usize),
    );
    m.set("store.rehydrate.count", rehydrate.count as f64, "count");
    let io_us = get("cache/fill")
        .total_us
        .saturating_sub(get("grid/compile").total_us + rehydrate.total_us);
    m.set("store.io_s", io_us as f64 / 1e6, "s");

    // sim
    let sim = get("sim/simulate");
    m.set_sampled(
        "sim.simulate_s",
        secs("sim/simulate"),
        "s",
        Some(sim.count as usize),
    );
    m.set("sim.simulate.count", sim.count as f64, "count");
    m.set(
        "sim.cycles_per_host_us",
        ratio(counter("sim_cycles_sum"), sim.total_us as f64),
        "cycles/us",
    );

    // ir
    m.set("ir.tape.compile_s", secs("tape/compile"), "s");
    m.set("ir.tape.execute_s", secs("tape/execute"), "s");
    m.set("ir.tape.validate_s", secs("tape/validate"), "s");
    m.set("ir.native.compiles", counter("native_compiles"), "count");

    // trace
    let (attributed, root_us) = attribution(spans);
    m.set_sampled(
        "trace.attributed_ratio",
        attributed,
        "ratio",
        Some(root_us as usize),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &str, name: &str, tid: u64, start_us: u64, dur_us: u64) -> Span {
        Span {
            cat: cat.to_string(),
            name: name.to_string(),
            tid,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn attribution_unions_nested_children_of_leaf_roots() {
        let spans = vec![
            // A leaf job 0..100 with nested children covering 10..50 and
            // 60..70 (cache/fill ⊃ grid/compile ⊃ sched/compile).
            span("grid", "job", 1, 0, 100),
            span("cache", "fill", 1, 10, 40),
            span("grid", "compile", 1, 12, 30),
            span("sched", "compile", 1, 12, 30),
            span("sim", "simulate", 1, 60, 10),
            // A job that runs a nested sweep is not a root; its inner jobs
            // on other threads are.
            span("grid", "job", 2, 0, 200),
            span("grid", "run", 2, 5, 190),
            span("grid", "job", 3, 10, 50),
            span("sim", "simulate", 3, 10, 25),
            // A daemon tune request is a root of its own.
            span("serve", "tune", 4, 0, 20),
            span("sched", "compile", 4, 0, 20),
            // Other threads' spans never count toward a root.
            span("sim", "simulate", 5, 0, 100),
        ];
        let (ratio, total) = attribution(&spans);
        assert_eq!(total, 100 + 50 + 20);
        assert_eq!(ratio, (50.0 + 25.0 + 20.0) / 170.0);
    }

    #[test]
    fn chrome_and_prometheus_inputs_parse() {
        let doc = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"x"}},
            {"ph":"X","pid":1,"tid":3,"ts":10,"dur":5,"cat":"sim","name":"simulate"},
            {"ph":"i","s":"t","pid":1,"tid":3,"ts":12,"cat":"sim","name":"mark"},
            {"ph":"C","pid":1,"tid":0,"ts":15,"cat":"counter","name":"sim.x","args":{"value":1}}
        ],"displayTimeUnit":"ms"}"#;
        assert_eq!(
            from_chrome(doc).unwrap(),
            vec![span("sim", "simulate", 3, 10, 5)]
        );
        assert!(from_chrome("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());

        let prom = "# TYPE cache_compiles counter\ncache_compiles 345\nsim_cycles_bucket{le=\"1\"} 0\nsim_cycles_sum 1200\n";
        let p = parse_prometheus(prom);
        assert_eq!(p.get("cache_compiles"), Some(&345.0));
        assert_eq!(p.get("sim_cycles_sum"), Some(&1200.0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn record_derives_layer_metrics() {
        let spans = vec![
            span("grid", "job", 1, 0, 1_000_000),
            span("cache", "fill", 1, 0, 600_000),
            span("grid", "compile", 1, 0, 500_000),
            span("sched", "compile", 1, 0, 500_000),
            span("sim", "simulate", 1, 700_000, 200_000),
        ];
        let prom = parse_prometheus(
            "sched_attempts 4\nsim_cycles_sum 400000\ntune_pruned 1\ntune_candidates 3\n",
        );
        let mut m = Metrics::default();
        record(&spans, &prom, 1.0, 2, &mut m);
        let v = |name: &str| m.get(name).unwrap().value;
        assert_eq!(v("sched.compile_s"), 0.5);
        assert_eq!(v("sched.compiles_per_attempt"), 0.25);
        assert_eq!(v("store.io_s"), 0.1);
        assert_eq!(v("sim.cycles_per_host_us"), 2.0);
        assert_eq!(v("tune.prune_ratio"), 0.25);
        assert_eq!(v("grid.parallel_efficiency"), 0.5);
        assert_eq!(v("trace.attributed_ratio"), 0.8);
    }
}
