//! Lifecycle of a `stream-serve` child process: spawn on an OS-assigned
//! port, wait until it answers `/health`, read its CPU time and peak memory
//! while it runs, and always stop it — by `POST /v1/shutdown`, then by
//! kill — even when the harness unwinds.

use crate::http;
use crate::sys;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a new daemon may take to bind and answer `/health`.
pub const READY_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a stopping daemon may take to exit before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);
/// The line the daemon prints on stderr once bound.
const LISTENING: &str = "stream-serve: listening on http://";

/// A running daemon; dropping it stops the process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    exited: Arc<AtomicBool>,
    stderr: Option<JoinHandle<()>>,
    stopped: bool,
}

impl Daemon {
    /// Starts `bin --addr 127.0.0.1:0 --jobs <jobs> --cache-dir <cache_dir>`
    /// (with `env` applied) and returns once it answers `/health` 200.
    ///
    /// # Errors
    ///
    /// Spawn failures, and a daemon that exits or is not ready within
    /// [`READY_TIMEOUT`] (it is killed first).
    pub fn spawn(
        bin: &Path,
        cache_dir: &Path,
        jobs: usize,
        env: impl FnOnce(&mut Command),
    ) -> io::Result<Self> {
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
            "--cache-dir",
        ])
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        env(&mut cmd);
        let mut child = cmd.spawn()?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let exited = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<String>();
        let stderr = {
            let exited = Arc::clone(&exited);
            thread::spawn(move || {
                // The daemon closes stderr only by exiting, so EOF here is
                // the liveness signal client threads poll.
                for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                    if let Some(addr) = line.strip_prefix(LISTENING) {
                        let _ = tx.send(addr.to_string());
                    } else {
                        eprintln!("  [stream-serve] {line}");
                    }
                }
                exited.store(true, Ordering::SeqCst);
            })
        };
        let mut daemon = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            exited,
            stderr: Some(stderr),
            stopped: false,
        };
        let wait = deadline.saturating_duration_since(Instant::now());
        daemon.addr = match rx.recv_timeout(wait).map(|a| a.parse::<SocketAddr>()) {
            Ok(Ok(addr)) => addr,
            Ok(Err(e)) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "stream-serve printed no listening address",
                ))
            }
        };
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || daemon.exited() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "stream-serve did not answer /health",
                ));
            }
            if let Ok(r) = http::request(daemon.addr, "GET", "/health", None, left) {
                if r.status == 200 {
                    return Ok(daemon);
                }
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the process has exited (its stderr closed).
    pub fn exited(&self) -> bool {
        self.exited.load(Ordering::SeqCst)
    }

    /// A handle client threads can poll for the daemon's exit.
    pub fn exit_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.exited)
    }

    /// CPU seconds the daemon has used so far.
    pub fn cpu_s(&self) -> Option<f64> {
        sys::process_cpu_s(self.child.id())
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        sys::process_peak_rss_mb(self.child.id())
    }

    /// Asks the daemon to shut down and waits for it; kills it if it does
    /// not exit in time. Returns whether it exited cleanly on request.
    pub fn stop(mut self) -> bool {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        self.stopped = true;
        let asked = !self.exited()
            && http::request(
                self.addr,
                "POST",
                "/v1/shutdown",
                None,
                Duration::from_secs(5),
            )
            .is_ok_and(|r| r.status == 200);
        let deadline = Instant::now() + STOP_TIMEOUT;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break asked && status.success(),
                Ok(None) if asked && Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    sys::kill_and_reap(&mut self.child);
                    break false;
                }
            }
        };
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        clean
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_inner();
    }
}
