//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all                      # every experiment, paper order
//! repro fig13 table5             # a subset
//! repro --jobs 4 all             # sweep on 4 worker threads
//! repro --trace out.json fig13   # also write a Chrome trace of the run
//! repro --metrics out.prom all   # dump the metric registry after the run
//! repro --cache-dir .cache all   # persist compiled schedules across runs
//! repro list                     # list experiment ids
//! ```
//!
//! `--jobs N` (or `-j N`) sets the worker-thread count; the default is the
//! host's available parallelism and `--jobs 1` is strictly serial.
//! `--trace <path>` enables `stream-trace` for the run and writes the
//! collected spans and counters as Chrome trace-event JSON (loadable in
//! `chrome://tracing` or Perfetto), plus a text summary on stderr.
//! `--metrics <path>` writes the full metric registry in Prometheus text
//! exposition format 0.0.4 after the run — the same bytes `stream-serve`
//! answers on `GET /metrics` (see `docs/metrics.md` for the catalogue).
//! `--cache-dir <dir>` (or the `STREAM_CACHE_DIR` environment variable)
//! attaches a persistent schedule cache: a second run against a populated
//! directory rehydrates every schedule instead of compiling (the stderr
//! `# cache:` line reports `compiles=0`). Stdout is byte-identical for
//! every worker count, traced or not, cache warm or cold; per-experiment
//! timings and cache statistics go to stderr.
//!
//! The binary is a thin shim over [`stream_repro::run_many`]: it parses
//! argv into experiment ids and an engine of `--jobs` workers, and prints
//! the reports the library returns.

use std::io::Write as _;
use std::process::ExitCode;
use stream_grid::Engine;
use stream_repro::ExperimentId;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--jobs N] [--trace FILE] [--metrics FILE] [--cache-dir DIR] \
         <all | list | experiment...>"
    );
    eprintln!("experiments: {}", stream_repro::EXPERIMENTS.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut jobs: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut cache_dir: Option<String> = std::env::var("STREAM_CACHE_DIR").ok();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--jobs needs a positive integer");
                    return usage();
                };
                jobs = Some(n);
            }
            other if other.starts_with("--jobs=") => {
                let Ok(n) = other["--jobs=".len()..].parse() else {
                    eprintln!("--jobs needs a positive integer");
                    return usage();
                };
                jobs = Some(n);
            }
            "--trace" => {
                let Some(path) = args.next() else {
                    eprintln!("--trace needs an output path");
                    return usage();
                };
                trace_path = Some(path);
            }
            other if other.starts_with("--trace=") => {
                trace_path = Some(other["--trace=".len()..].to_string());
            }
            "--metrics" => {
                let Some(path) = args.next() else {
                    eprintln!("--metrics needs an output path");
                    return usage();
                };
                metrics_path = Some(path);
            }
            other if other.starts_with("--metrics=") => {
                metrics_path = Some(other["--metrics=".len()..].to_string());
            }
            "--cache-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("--cache-dir needs a directory path");
                    return usage();
                };
                cache_dir = Some(dir);
            }
            other if other.starts_with("--cache-dir=") => {
                cache_dir = Some(other["--cache-dir=".len()..].to_string());
            }
            "help" | "--help" | "-h" => return usage(),
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        return usage();
    }
    if names[0] == "list" {
        for id in ExperimentId::ALL {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let ids = if names[0] == "all" {
        ExperimentId::ALL.to_vec()
    } else {
        let mut ids = Vec::with_capacity(names.len());
        for name in &names {
            match name.parse::<ExperimentId>() {
                Ok(id) => ids.push(id),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
        ids
    };
    if trace_path.is_some() {
        stream_trace::enable();
    }
    if let Some(dir) = &cache_dir {
        if let Err(e) = stream_grid::attach_global_disk(std::path::Path::new(dir)) {
            eprintln!("failed to open schedule cache at {dir}: {e}");
            return ExitCode::FAILURE;
        }
        // The same root also hosts the auto-tuner's results tier, so a warm
        // directory replays
        // validated tuning winners with zero searches.
        if let Err(e) = stream_tune::attach_global_disk(std::path::Path::new(dir)) {
            eprintln!("failed to open tuning results cache at {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let engine = match jobs {
        Some(n) => Engine::new(n),
        None => Engine::with_default_parallelism(),
    };
    for report in stream_repro::run_many(&ids, &engine) {
        println!("{report}");
        // All of an experiment's perf lines go out in one locked, flushed
        // write, so concurrent stderr writers can never interleave inside
        // an experiment's block.
        let mut block = String::new();
        for line in report.perf_lines() {
            block.push_str("# ");
            block.push_str(report.id());
            block.push_str(": ");
            block.push_str(line);
            block.push('\n');
        }
        let stderr = std::io::stderr();
        let mut lock = stderr.lock();
        let _ = lock.write_all(block.as_bytes());
        let _ = lock.flush();
    }
    if cache_dir.is_some() {
        // Warm-start accounting (stderr, never stdout): `compiles=0` on a
        // populated cache directory is the "zero schedule compiles" check
        // CI asserts.
        let s = stream_grid::global_cache().stats();
        eprintln!(
            "# cache: compiles={} disk_hits={} disk_misses={}",
            s.compiles, s.disk_hits, s.disk_misses
        );
        // `searches=0` on a warm directory is the zero-search restart
        // check CI asserts (rehydrated winners are re-validated, so
        // `rehydrated` counts successful replays).
        let t = stream_tune::stats();
        eprintln!(
            "# tune: searches={} rehydrated={} pruned={} candidates={} sched_compiles={}",
            t.searches, t.rehydrated, t.pruned, t.candidates, t.sched_compiles
        );
    }
    if let Some(path) = trace_path {
        stream_trace::disable();
        let events = stream_trace::take_events();
        let json = stream_trace::chrome_trace_json(&events);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprint!("{}", stream_trace::summary(&events));
        eprintln!("trace written to {path} ({} events)", events.len());
    }
    if let Some(path) = metrics_path {
        // The same bytes `stream-serve` answers on GET /metrics: sample the
        // point-in-time gauges, make sure the always-on families are
        // registered, then render the registry.
        stream_grid::sample_gauges(&engine);
        let _ = stream_tune::stats();
        if let Err(e) = std::fs::write(&path, stream_trace::render_prometheus()) {
            eprintln!("failed to write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics written to {path}");
    }
    ExitCode::SUCCESS
}
