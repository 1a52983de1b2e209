//! The `stream-serve` daemon binary.
//!
//! ```text
//! stream-serve [--addr HOST:PORT] [--jobs N] [--cache-dir DIR]
//! ```
//!
//! Binds `127.0.0.1:7878` by default and serves until `POST /v1/shutdown`
//! (or the process is killed). `--cache-dir` (or the `STREAM_CACHE_DIR`
//! environment variable) enables the persistent schedule and tuning caches,
//! so a restarted daemon recomputes its cells without compiling or
//! searching.

use std::path::PathBuf;
use std::process::ExitCode;
use stream_serve::{start, ServerConfig};

const USAGE: &str = "usage: stream-serve [--addr HOST:PORT] [--jobs N] [--cache-dir DIR]

options:
  --addr HOST:PORT   bind address (default 127.0.0.1:7878; port 0 picks a free port)
  --jobs N           worker permits (default: available parallelism)
  --cache-dir DIR    persist schedule + tuning caches under DIR
                     (default: $STREAM_CACHE_DIR if set)

endpoints: /health /metrics /v1/experiments /v1/run/<id> /v1/sweep /v1/query /v1/tune
           /v1/stats /v1/shutdown";

fn main() -> ExitCode {
    let mut addr: Option<String> = Some("127.0.0.1:7878".to_string());
    let mut workers: Option<usize> = None;
    let mut cache_root: Option<PathBuf> = std::env::var_os("STREAM_CACHE_DIR").map(PathBuf::from);

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take_value = |inline: Option<&str>, flag: &str| -> Result<String, ExitCode> {
            if let Some(v) = inline {
                return Ok(v.to_string());
            }
            args.next().ok_or_else(|| {
                eprintln!("stream-serve: {flag} needs a value\n{USAGE}");
                ExitCode::FAILURE
            })
        };
        let result = match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => take_value(None, "--addr").map(|v| addr = Some(v)),
            s if s.starts_with("--addr=") => {
                take_value(s.strip_prefix("--addr="), "--addr").map(|v| addr = Some(v))
            }
            "--jobs" | "-j" => take_value(None, "--jobs")
                .and_then(parse_jobs)
                .map(|n| workers = Some(n)),
            s if s.starts_with("--jobs=") => take_value(s.strip_prefix("--jobs="), "--jobs")
                .and_then(parse_jobs)
                .map(|n| workers = Some(n)),
            "--cache-dir" => {
                take_value(None, "--cache-dir").map(|v| cache_root = Some(PathBuf::from(v)))
            }
            s if s.starts_with("--cache-dir=") => {
                take_value(s.strip_prefix("--cache-dir="), "--cache-dir")
                    .map(|v| cache_root = Some(PathBuf::from(v)))
            }
            other => {
                eprintln!("stream-serve: unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(code) = result {
            return code;
        }
    }

    let config = ServerConfig {
        addr,
        workers,
        cache_root,
    };
    let handle = match start(&config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("stream-serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("stream-serve: listening on http://{}", handle.addr());
    if let Some(root) = &config.cache_root {
        eprintln!("stream-serve: persistent cache at {}", root.display());
    }
    handle.join();
    eprintln!("stream-serve: stopped");
    ExitCode::SUCCESS
}

fn parse_jobs(value: String) -> Result<usize, ExitCode> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => {
            eprintln!("stream-serve: --jobs needs a positive integer, got `{value}`\n{USAGE}");
            Err(ExitCode::FAILURE)
        }
    }
}
