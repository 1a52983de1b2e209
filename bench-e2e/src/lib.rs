//! End-to-end benchmark of the two product paths, `repro all` and
//! `stream-serve`: the `e2e` binary drives the real release binaries as
//! child processes, checks every output against the checked-in reference,
//! and reports end-to-end metrics (plain runs) or per-layer attribution
//! (traced runs). See `README.md` for the workloads and metric catalogue.

pub mod daemon;
pub mod http;
pub mod layers;
pub mod probes;
pub mod reference;
pub mod report;
pub mod repro_load;
pub mod serve_load;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod workload;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::str::FromStr;

/// Client threads, connections in flight, and `--jobs` of the programs
/// under test: the load comes from one process sized to a 2-core host.
pub const JOBS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro --jobs 2 --cache-dir <new empty dir> all`.
    ReproCold,
    /// The same against one directory populated during set-up.
    ReproWarm,
    /// `stream-serve` read path: every request a memo hit.
    ServeMemo,
    /// `stream-serve` compute path: every request a tuner search.
    ServeTune,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReproCold,
        Workload::ReproWarm,
        Workload::ServeMemo,
        Workload::ServeTune,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproCold => "repro_cold",
            Workload::ReproWarm => "repro_warm",
            Workload::ServeMemo => "serve_memo",
            Workload::ServeTune => "serve_tune",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{s}`; known: {}", known.join(" "))
            })
    }
}

/// Everything a workload run needs from its invocation.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `repro` binary under test.
    pub repro: PathBuf,
    /// The `stream-serve` binary under test.
    pub serve: PathBuf,
    /// This harness, re-run as `--probes` for the layer probes.
    pub harness: PathBuf,
    /// Where traces, metric dumps and results are written.
    pub out: PathBuf,
    /// Working space for cache directories, removed when the run ends.
    pub work: PathBuf,
    /// Measuring time: runs and requests continue past their minimum count
    /// until this much time has passed.
    pub seconds: f64,
    /// Seed of the generated requests.
    pub seed: u64,
    /// Whether to follow the plain run with a traced pass and the probes.
    pub traced: bool,
}

impl Env {
    /// A new, empty working directory called `name` under `work`.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn fresh_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Removes every `STREAM_*` variable from `cmd`'s environment, so the
/// programs under test run with their defaults whatever the caller's shell
/// has set.
pub fn clean_env(cmd: &mut Command) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("STREAM_") {
            cmd.env_remove(key);
        }
    }
}

/// Removes a directory tree when dropped.
#[derive(Debug)]
pub struct RemoveOnDrop(pub PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Whether `path` lies inside `dir` (both made absolute, not resolved).
pub fn is_within(path: &Path, dir: &Path) -> bool {
    match (std::path::absolute(path), std::path::absolute(dir)) {
        (Ok(p), Ok(d)) => p.starts_with(d),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_match_the_declaration() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, spec::spec().workloads);
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
        }
        assert!("cold"
            .parse::<Workload>()
            .unwrap_err()
            .contains("repro_cold"));
    }
}
