//! End-to-end benchmark harness.
//!
//! ```text
//! e2e --workload <repro_cold|repro_warm|serve_memo|serve_tune> --seed <u64>
//!     [--seconds <n>] [--trace <0|1> | --traced] [--out <dir>]
//! ```
//!
//! Builds the `repro` and `stream-serve` release binaries of the enclosing
//! repository into this harness's own target directory (cargo skips the
//! work when they are current), runs the workload against them, and prints
//! every metric by name and unit, then, as the last stdout line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` holding the
//! `BENCHMARK.json` end-to-end metrics, or with `--trace 1` the per-layer
//! ones. Exits 1 when any output was wrong or any operation failed, 2 on a
//! usage or set-up error.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use stream_bench_e2e::report::{self, Metrics, Outcome};
use stream_bench_e2e::spec::{self, MetricSpec};
use stream_bench_e2e::{probes, repro_load, serve_load, Env, RemoveOnDrop, Workload};

const USAGE: &str =
    "usage: e2e --workload <repro_cold|repro_warm|serve_memo|serve_tune> --seed <u64> \
                     [--seconds <n>] [--trace <0|1> | --traced] [--out <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut out) =
        (None, None, None, false, None);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.parse::<Workload>()?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => traced = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        out,
    })
}

/// The repository this harness belongs to (its package sits one level
/// below the root).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the harness package is inside the repository")
        .to_path_buf()
}

/// Builds `repro` and `stream-serve` into `target_dir` and returns their
/// paths, refusing to go on if either is missing afterwards.
fn build_products(target_dir: &Path, bin_dir: &Path) -> Result<(PathBuf, PathBuf), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "stream-repro",
            "-p",
            "stream-serve",
            "--bins",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the product binaries failed ({status})"));
    }
    let bin = |name: &str| {
        let path = bin_dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!("{} is missing after the build", path.display()))
        }
    };
    Ok((bin("repro")?, bin("stream-serve")?))
}

/// The last stdout line: the `declared` metrics, by name, from `measured`.
/// A declared metric that was not measured, or not in its declared unit,
/// makes the run incorrect.
fn result_line(o: &Outcome, declared: &[MetricSpec], measured: &Metrics) -> (String, bool) {
    let mut complete = true;
    let fields: Vec<String> = declared
        .iter()
        .filter_map(|d| match measured.get(&d.name) {
            Some(m) if m.value.is_finite() && m.unit == d.unit => Some(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                report::json_escape(&d.name),
                report::json_number(m.value),
                report::json_escape(&d.unit)
            )),
            _ => {
                eprintln!(
                    "e2e: declared metric `{}` was not measured in {}",
                    d.name, d.unit
                );
                complete = false;
                None
            }
        })
        .collect();
    let correct = o.correct() && complete;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        fields.join(",")
    );
    (line, correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--probes") {
        // Internal mode: the layer probes, in a process of their own.
        return match probes::run_all() {
            Ok((spans, metrics)) => {
                print!("{}", probes::render(&spans, &metrics));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2e --probes: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    let spec = spec::spec();
    let harness = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let bin_dir = harness
        .parent()
        .ok_or("harness has no directory")?
        .to_path_buf();
    let target_dir = bin_dir
        .parent()
        .ok_or("harness is not in a target directory")?
        .to_path_buf();
    let out = args.out.unwrap_or_else(|| target_dir.join("bench-e2e"));
    let root = repo_root();
    let in_build_dir = [target_dir.clone(), root.join("target")]
        .iter()
        .any(|dir| stream_bench_e2e::is_within(&out, dir));
    if stream_bench_e2e::is_within(&out, &root) && !in_build_dir {
        return Err(format!(
            "--out {} is inside the source tree; choose a directory under {} or outside the repository",
            out.display(),
            target_dir.display()
        ));
    }
    let (repro, serve) = build_products(&target_dir, &bin_dir)?;
    let work = out.join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let _cleanup = RemoveOnDrop(work.clone());
    let env = Env {
        repro,
        serve,
        harness,
        out: out.clone(),
        work,
        seconds: args.seconds.unwrap_or(spec.run_seconds as f64),
        seed: args.seed,
        traced: args.traced,
    };

    let o = match args.workload {
        Workload::ReproCold | Workload::ReproWarm => repro_load::run(&env, args.workload),
        Workload::ServeMemo | Workload::ServeTune => serve_load::run(&env, args.workload),
    };

    print!("{}", o.render_text(args.workload.name(), args.traced));
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"attempted\":{},\"failed\":{},\"errors\":{},\"metrics\":{},\"layers\":{}}}\n",
        args.workload,
        args.seed,
        args.traced,
        o.attempted,
        o.failed,
        o.error_count,
        report::metrics_json(&o.metrics),
        report::metrics_json(&o.layers)
    );
    let record_path = out.join(format!(
        "{}{}.json",
        args.workload,
        if args.traced { ".traced" } else { "" }
    ));
    if let Err(e) = std::fs::write(&record_path, record) {
        eprintln!("e2e: writing {}: {e}", record_path.display());
    }
    let (declared, measured) = if args.traced {
        (&spec.per_layer, &o.layers)
    } else {
        (&spec.end_to_end, &o.metrics)
    };
    let (line, correct) = result_line(&o, declared, measured);
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
