//! Child-process accounting: run a command to completion with its own
//! resource usage (`wait4`), and read a live process's CPU time and peak
//! memory from `/proc`. Linux-only; elsewhere the numbers are absent.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// What one finished (or killed) child run produced.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    /// Spawn to reap.
    pub wall: Duration,
    /// Whether the timeout killed it.
    pub timed_out: bool,
    /// User + system CPU seconds of the child, if the platform reports it.
    pub cpu_s: Option<f64>,
    /// Peak resident set of the child in MiB, if the platform reports it.
    pub peak_rss_mb: Option<f64>,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Everything it wrote to stderr.
    pub stderr: Vec<u8>,
}

impl Finished {
    /// Exited on its own with status 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }
}

fn drain(mut pipe: impl Read + Send + 'static) -> thread::JoinHandle<Vec<u8>> {
    thread::spawn(move || {
        let mut out = Vec::new();
        let _ = pipe.read_to_end(&mut out);
        out
    })
}

/// Runs `cmd` to completion with stdout and stderr captured, killing it
/// after `timeout`.
///
/// # Errors
///
/// Spawn and wait failures.
pub fn run(cmd: &mut Command, timeout: Duration) -> io::Result<Finished> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let out = drain(child.stdout.take().expect("stdout is piped"));
    let err = drain(child.stderr.take().expect("stderr is piped"));
    let reaped = wait_with_timeout(&mut child, timeout, start)?;
    let stdout = out.join().expect("stdout reader panicked");
    let stderr = err.join().expect("stderr reader panicked");
    Ok(Finished {
        code: reaped.code,
        wall: reaped.wall,
        timed_out: reaped.timed_out,
        cpu_s: reaped.cpu_s,
        peak_rss_mb: reaped.peak_rss_mb,
        stdout,
        stderr,
    })
}

struct Reaped {
    code: Option<i32>,
    wall: Duration,
    timed_out: bool,
    cpu_s: Option<f64>,
    peak_rss_mb: Option<f64>,
}

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_long};

    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage`: two timevals then fourteen longs, the first of
    /// which is `ru_maxrss` in KiB.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub ru_maxrss: c_long,
        pub rest: [c_long; 13],
    }

    /// `siginfo_t`, opaque: only its size matters here.
    #[repr(C, align(8))]
    pub struct Siginfo(pub [u8; 128]);

    extern "C" {
        pub fn waitid(idtype: c_int, id: u32, info: *mut Siginfo, options: c_int) -> c_int;
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }

    pub const P_PID: c_int = 1;
    pub const WEXITED: c_int = 4;
    pub const WNOWAIT: c_int = 0x0100_0000;
    pub const SIGKILL: c_int = 9;
    pub const SC_CLK_TCK: c_int = 2;
}

/// Retries `f` while it fails with `EINTR`.
#[cfg(target_os = "linux")]
fn retry_eintr(mut f: impl FnMut() -> std::ffi::c_int) -> std::ffi::c_int {
    loop {
        let rc = f();
        if rc != -1 || io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            return rc;
        }
    }
}

/// Waits for the child to exit, killing it at `timeout`, then reaps it with
/// its resource usage. The child is first waited for without reaping
/// (`WNOWAIT`) and the watchdog is disarmed before the reap, so the
/// watchdog can never signal a pid the kernel has handed to someone else.
#[cfg(target_os = "linux")]
fn wait_with_timeout(child: &mut Child, timeout: Duration, start: Instant) -> io::Result<Reaped> {
    use std::sync::{Arc, Mutex};

    let pid = child.id();
    let armed = Arc::new(Mutex::new(true));
    let (cancel, cancelled) = std::sync::mpsc::channel::<()>();
    let watchdog = {
        let armed = Arc::clone(&armed);
        thread::spawn(move || {
            if cancelled.recv_timeout(timeout).is_err() {
                let armed = armed.lock().expect("watchdog lock poisoned");
                if *armed {
                    // SAFETY: `kill` has no memory preconditions, and the
                    // child is unreaped while `armed` holds, so `pid` is
                    // still this child's.
                    unsafe { linux::kill(pid as i32, linux::SIGKILL) };
                    return true;
                }
            }
            false
        })
    };
    let mut info = linux::Siginfo([0; 128]);
    // SAFETY: `info` is a writable buffer of `siginfo_t`'s size and
    // alignment; `pid` is our own unreaped child.
    let rc = retry_eintr(|| unsafe {
        linux::waitid(
            linux::P_PID,
            pid,
            &mut info,
            linux::WEXITED | linux::WNOWAIT,
        )
    });
    let wall = start.elapsed();
    *armed.lock().expect("watchdog lock poisoned") = false;
    let _ = cancel.send(());
    let timed_out = watchdog.join().expect("watchdog panicked");
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let mut status: std::ffi::c_int = 0;
    let mut usage = linux::Rusage::default();
    // SAFETY: `status` and `usage` are valid, exclusively borrowed
    // out-pointers of the types `wait4` writes; the child has exited and
    // std never waits on it because it is reaped here.
    let rc = retry_eintr(|| unsafe { linux::wait4(pid as i32, &mut status, 0, &mut usage) });
    if rc != pid as i32 {
        return Err(io::Error::last_os_error());
    }
    // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let secs = |t: &linux::Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Reaped {
        code,
        wall,
        timed_out,
        cpu_s: Some(secs(&usage.ru_utime) + secs(&usage.ru_stime)),
        peak_rss_mb: Some(usage.ru_maxrss as f64 / 1024.0),
    })
}

#[cfg(not(target_os = "linux"))]
fn wait_with_timeout(child: &mut Child, timeout: Duration, start: Instant) -> io::Result<Reaped> {
    // No per-child rusage without `wait4`: poll, and report CPU and memory
    // as absent.
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Reaped {
                code: status.code(),
                wall: start.elapsed(),
                timed_out: false,
                cpu_s: None,
                peak_rss_mb: None,
            });
        }
        if start.elapsed() > timeout {
            child.kill()?;
            let status = child.wait()?;
            return Ok(Reaped {
                code: status.code(),
                wall: start.elapsed(),
                timed_out: true,
                cpu_s: None,
                peak_rss_mb: None,
            });
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// User + system CPU seconds a live process (all its threads, exited ones
/// included) has used, from `/proc/<pid>/stat`.
#[cfg(target_os = "linux")]
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let after = stat.rsplit_once(')')?.1;
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // SAFETY: `sysconf` only reads its integer argument.
    let ticks = unsafe { linux::sysconf(linux::SC_CLK_TCK) };
    (ticks > 0).then(|| (utime + stime) as f64 / ticks as f64)
}

/// Not available off Linux.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_s(_pid: u32) -> Option<f64> {
    None
}

/// Peak resident set (`VmHWM`) of a live process in MiB.
#[cfg(target_os = "linux")]
pub fn process_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Not available off Linux.
#[cfg(not(target_os = "linux"))]
pub fn process_peak_rss_mb(_pid: u32) -> Option<f64> {
    None
}

/// Kills `child` and reaps it (for lifecycle guards; errors ignored).
pub fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn run_reports_exit_code_output_and_usage() {
        let done = run(
            Command::new("sh").args(["-c", "echo out; echo err >&2; exit 3"]),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(done.code, Some(3));
        assert!(!done.ok());
        assert_eq!(done.stdout, b"out\n");
        assert_eq!(done.stderr, b"err\n");
        assert!(done.cpu_s.is_some());
        assert!(done.peak_rss_mb.unwrap() > 0.0);
    }

    #[test]
    fn run_kills_at_the_timeout() {
        let done = run(Command::new("sleep").arg("30"), Duration::from_millis(100)).unwrap();
        assert!(done.timed_out);
        assert!(!done.ok());
        assert!(done.wall < Duration::from_secs(10));
    }

    #[test]
    fn own_process_has_cpu_and_memory() {
        let me = std::process::id();
        assert!(process_cpu_s(me).is_some());
        assert!(process_peak_rss_mb(me).unwrap() > 0.0);
    }
}
