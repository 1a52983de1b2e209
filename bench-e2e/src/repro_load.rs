//! The `repro_cold` and `repro_warm` workloads: `repro --jobs 2
//! --cache-dir <dir> all` against a new empty directory each run, or
//! against one directory populated during set-up.

use crate::reference::REPRO_OUTPUT;
use crate::report::{Metrics, Outcome};
use crate::stats::{self, Summary};
use crate::sys::{self, Finished};
use crate::{traced, Env, Workload, JOBS};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use stream_repro::ExperimentId;

/// A run that takes longer than this has failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);
/// Timed runs per measurement, at least.
const MIN_COLD_RUNS: usize = 5;
const MIN_WARM_RUNS: usize = 10;

/// One timed `repro all`.
#[derive(Debug, Clone)]
struct Sample {
    wall_s: f64,
    cpu_s: Option<f64>,
    peak_rss_mb: Option<f64>,
    /// `(experiment, wall s)` from the `# <id>: ... wall <us> us` lines.
    experiments: Vec<(String, f64)>,
}

fn repro(env: &Env, args: impl IntoIterator<Item = OsString>) -> std::io::Result<Finished> {
    let mut cmd = Command::new(&env.repro);
    cmd.args(args);
    crate::clean_env(&mut cmd);
    sys::run(&mut cmd, RUN_TIMEOUT)
}

fn repro_all(env: &Env, cache_dir: &Path, extra: &[OsString]) -> std::io::Result<Finished> {
    let mut args: Vec<OsString> = vec![
        "--jobs".into(),
        JOBS.to_string().into(),
        "--cache-dir".into(),
        cache_dir.into(),
    ];
    args.extend_from_slice(extra);
    args.push("all".into());
    repro(env, args)
}

fn tail(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// Why a `repro all` run's results are wrong, if they are: the exit, the
/// stdout against `docs/repro_output.txt`, and on a warm directory the
/// zero-compile, zero-search accounting.
fn check(done: &Finished, warm: bool) -> Option<String> {
    if done.timed_out {
        return Some(format!("repro all timed out after {RUN_TIMEOUT:?}"));
    }
    if !done.ok() {
        return Some(format!(
            "repro all exited {:?}: {}",
            done.code,
            tail(&done.stderr)
        ));
    }
    if done.stdout != REPRO_OUTPUT.as_bytes() {
        let at = done
            .stdout
            .iter()
            .zip(REPRO_OUTPUT.as_bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(done.stdout.len().min(REPRO_OUTPUT.len()));
        return Some(format!(
            "repro all stdout differs from docs/repro_output.txt at byte {at}"
        ));
    }
    let stderr = String::from_utf8_lossy(&done.stderr);
    if warm {
        for want in ["# cache: compiles=0 ", "# tune: searches=0 "] {
            if !stderr.contains(want) {
                return Some(format!("warm repro all stderr lacks `{}`", want.trim_end()));
            }
        }
    }
    None
}

/// `(experiment, wall seconds)` from the per-experiment perf lines.
fn experiment_walls(stderr: &[u8]) -> Vec<(String, f64)> {
    String::from_utf8_lossy(stderr)
        .lines()
        .filter_map(|line| {
            let (id, rest) = line.strip_prefix("# ")?.split_once(": ")?;
            let us: f64 = rest
                .rsplit_once(", wall ")?
                .1
                .strip_suffix(" us")?
                .parse()
                .ok()?;
            Some((id.to_string(), us / 1e6))
        })
        .collect()
}

/// The set-up a cold run pays: a new empty cache directory, and a check
/// that the binary starts and knows every experiment.
fn cold_setup(env: &Env, name: &str) -> Result<std::path::PathBuf, String> {
    let dir = env.fresh_dir(name).map_err(|e| format!("cache dir: {e}"))?;
    let done = repro(env, ["list".into()]).map_err(|e| format!("repro list: {e}"))?;
    let want: String = ExperimentId::ALL
        .iter()
        .map(|id| format!("{id}\n"))
        .collect();
    if !done.ok() || done.stdout != want.as_bytes() {
        return Err(format!(
            "repro list did not list every experiment: {}",
            tail(&done.stderr)
        ));
    }
    Ok(dir)
}

/// An untimed run whose output must still be right.
fn run_checked(env: &Env, dir: &Path, warm: bool, what: &str, o: &mut Outcome) {
    let failure = match repro_all(env, dir, &[]) {
        Ok(done) => check(&done, warm),
        Err(e) => Some(e.to_string()),
    };
    if let Some(e) = failure {
        o.error(format!("{what}: {e}"));
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of `samples`: per-run wall and CPU, peak memory,
/// and runs treated as requests for rate, latency and CPU per request.
fn record(samples: &[Sample], setup: &[f64], m: &mut Metrics) {
    let n = Some(samples.len());
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    m.set_sampled(
        "setup_s",
        median(setup.iter().copied()),
        "s",
        Some(setup.len()),
    );
    m.set_sampled("wall_s", median(walls.iter().copied()), "s", n);
    if samples
        .iter()
        .all(|s| s.cpu_s.is_some() && s.peak_rss_mb.is_some())
    {
        let cpu = samples.iter().filter_map(|s| s.cpu_s);
        m.set_sampled("cpu_s", median(cpu.clone()), "s", n);
        m.set_sampled(
            "peak_rss_mb",
            median(samples.iter().filter_map(|s| s.peak_rss_mb)),
            "MiB",
            n,
        );
        m.set_sampled(
            "cpu_ms_per_req",
            cpu.sum::<f64>() * 1e3 / samples.len() as f64,
            "ms",
            n,
        );
    }
    m.set_sampled(
        "throughput_rps",
        samples.len() as f64 / walls.iter().sum::<f64>(),
        "req/s",
        n,
    );
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    if let Some(s) = Summary::of(&ms) {
        m.set_sampled("latency_ms.p50", s.p50, "ms", n);
        m.set_sampled("latency_ms.p90", s.p90, "ms", n);
        m.set_sampled("latency_ms.p99", s.p99, "ms", n);
    }
}

/// Per-experiment wall medians and the median critical path (the slowest
/// experiment of each run).
fn record_experiments(samples: &[Sample], m: &mut Metrics) {
    let mut by_id: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (id, wall) in &s.experiments {
            by_id.entry(id).or_default().push(*wall);
        }
    }
    for (id, walls) in &by_id {
        m.set_sampled(
            format!("repro.{id}.wall_s"),
            median(walls.iter().copied()),
            "s",
            Some(walls.len()),
        );
    }
    let critical = samples
        .iter()
        .map(|s| s.experiments.iter().map(|e| e.1).fold(0.0, f64::max));
    m.set_sampled(
        "repro.critical_path_s",
        median(critical),
        "s",
        Some(samples.len()),
    );
}

/// Runs `repro_cold` or `repro_warm`.
pub fn run(env: &Env, workload: Workload) -> Outcome {
    let warm = workload == Workload::ReproWarm;
    let mut o = Outcome::default();
    let mut setup = Vec::new();
    // Warm: the populating cold run is the set-up, and one warm run is
    // discarded so the directory's files are in the page cache. Cold runs
    // need no warm-up: each starts on an empty directory anyway.
    let populated = if warm {
        let start = Instant::now();
        let dir = match env.fresh_dir("populated") {
            Ok(dir) => dir,
            Err(e) => {
                o.error(format!("cache dir: {e}"));
                return o;
            }
        };
        run_checked(env, &dir, false, "populating run", &mut o);
        setup.push(start.elapsed().as_secs_f64());
        run_checked(env, &dir, true, "warm-up run", &mut o);
        Some(dir)
    } else {
        None
    };

    let min_runs = if warm { MIN_WARM_RUNS } else { MIN_COLD_RUNS };
    let window = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let last = samples.last().map_or(0.0, |s| s.wall_s);
        if samples.len() >= min_runs && window.elapsed().as_secs_f64() + last > env.seconds {
            break;
        }
        let dir = match &populated {
            Some(dir) => dir.clone(),
            None => {
                let start = Instant::now();
                match cold_setup(env, &format!("cold-{}", samples.len())) {
                    Ok(dir) => {
                        setup.push(start.elapsed().as_secs_f64());
                        dir
                    }
                    Err(e) => {
                        o.error(format!("set-up: {e}"));
                        break;
                    }
                }
            }
        };
        let done = match repro_all(env, &dir, &[]) {
            Ok(done) => done,
            Err(e) => {
                o.operation(Some(format!("repro all: {e}")));
                break;
            }
        };
        o.operation(check(&done, warm));
        samples.push(Sample {
            wall_s: done.wall.as_secs_f64(),
            cpu_s: done.cpu_s,
            peak_rss_mb: done.peak_rss_mb,
            experiments: experiment_walls(&done.stderr),
        });
        if populated.is_none() {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if samples.is_empty() {
        return o;
    }
    record(&samples, &setup, &mut o.metrics);
    o.metrics
        .set("warmup_runs", if warm { 1.0 } else { 0.0 }, "count");

    if env.traced {
        record_experiments(&samples, &mut o.layers);
        traced_pass(env, workload, populated.as_deref(), &samples, &mut o);
    }
    o
}

/// One more run of the same command with `--trace` and `--metrics` into
/// `env.out`, then the layer metrics and probes.
fn traced_pass(
    env: &Env,
    workload: Workload,
    populated: Option<&Path>,
    samples: &[Sample],
    o: &mut Outcome,
) {
    let dir = match populated {
        Some(dir) => dir.to_path_buf(),
        None => match env.fresh_dir("traced") {
            Ok(dir) => dir,
            Err(e) => {
                o.error(format!("cache dir: {e}"));
                return;
            }
        },
    };
    let trace = env.out.join(format!("{workload}.trace.json"));
    let prom = env.out.join(format!("{workload}.prom"));
    let extra: Vec<OsString> = vec![
        "--trace".into(),
        trace.clone().into(),
        "--metrics".into(),
        prom.clone().into(),
    ];
    let done = match repro_all(env, &dir, &extra) {
        Ok(done) => done,
        Err(e) => {
            o.operation(Some(format!("traced repro all: {e}")));
            return;
        }
    };
    o.operation(check(&done, populated.is_some()).map(|e| format!("traced run: {e}")));
    let untraced = median(samples.iter().map(|s| s.wall_s));
    o.layers.set(
        "trace.overhead_ratio",
        done.wall.as_secs_f64() / untraced,
        "ratio",
    );
    let (doc, prom_text) = match (
        std::fs::read_to_string(&trace),
        std::fs::read_to_string(&prom),
    ) {
        (Ok(doc), Ok(prom_text)) => (doc, prom_text),
        (Err(e), _) | (_, Err(e)) => {
            o.error(format!("reading the traced run's output: {e}"));
            return;
        }
    };
    traced::finish(
        env,
        workload,
        &doc,
        &prom_text,
        done.wall.as_secs_f64(),
        &dir,
        o,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_walls_come_from_the_perf_lines() {
        let stderr = b"# fig13: 28 sweep jobs on 1 thread(s): busy 497654 us, wall 497694 us\n\
# tune: search: 192 candidates evaluated, 60 pruned, 121 scheduler compiles, 0 rehydrated over 12 cells\n\
# tune: 12 sweep jobs on 1 thread(s): busy 3175960 us, wall 3175997 us\n\
# cache: compiles=345 disk_hits=0 disk_misses=345\n";
        assert_eq!(
            experiment_walls(stderr),
            vec![
                ("fig13".to_string(), 0.497694),
                ("tune".to_string(), 3.175997)
            ]
        );
    }

    #[test]
    fn record_treats_runs_as_requests() {
        let sample = |wall_s: f64| Sample {
            wall_s,
            cpu_s: Some(wall_s * 2.0),
            peak_rss_mb: Some(40.0),
            experiments: vec![
                ("tune".to_string(), wall_s / 2.0),
                ("fig15".to_string(), 0.1),
            ],
        };
        let samples: Vec<Sample> = [5.0, 4.0, 6.0].map(sample).to_vec();
        let mut m = Metrics::default();
        record(&samples, &[0.01, 0.03, 0.02], &mut m);
        record_experiments(&samples, &mut m);
        let v = |name: &str| m.get(name).unwrap().value;
        assert_eq!(v("setup_s"), 0.02);
        assert_eq!(v("wall_s"), 5.0);
        assert_eq!(v("cpu_s"), 10.0);
        assert_eq!(v("cpu_ms_per_req"), 10_000.0);
        assert_eq!(v("throughput_rps"), 0.2);
        assert_eq!(
            (v("latency_ms.p50"), v("latency_ms.p99")),
            (5_000.0, 6_000.0)
        );
        assert_eq!(v("repro.tune.wall_s"), 2.5);
        assert_eq!(v("repro.critical_path_s"), 2.5);
        assert_eq!(m.get("wall_s").unwrap().samples, Some(3));
    }
}
