//! The sweep runner.
//!
//! The calling thread and up to `workers - 1` scoped threads pull
//! `(index, item)` pairs from one shared queue. Results are reduced **in
//! submission order**, so the rendered output of a sweep is identical no
//! matter how many workers ran it — the determinism guarantee
//! `repro --jobs N` relies on.

use crate::cache::{global_cache, CacheScope, KernelCache};
use std::sync::Mutex;
use std::time::Instant;

/// The parallel sweep engine: a target worker count, a budget of extra
/// threads bounding live workers across concurrent runs, and the shared
/// kernel cache.
///
/// `Engine::new(1)` never spawns a thread — every job runs inline on the
/// calling thread in submission order, preserving strictly serial behavior.
/// With more workers, the calling thread always participates, and each
/// `map` call tries to borrow up to `workers - 1` extra threads from the
/// engine's permits; concurrent runs on one engine (the daemon's queries)
/// therefore share its worker budget, and a run that finds no permit left
/// runs its jobs inline.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    /// Extra-thread permits not on loan to a running `map`.
    free: Mutex<usize>,
    cache: &'static KernelCache,
}

/// The outcome of one sweep: ordered results plus timing statistics.
#[derive(Debug)]
pub struct Sweep<T> {
    /// Per-job results, in submission order.
    pub results: Vec<T>,
    /// Timing counters for the run.
    pub stats: SweepStats,
}

/// Timing statistics for one engine run. Wall-clock numbers vary run to
/// run, so they are reported out-of-band (the `repro` binary sends them to
/// stderr) rather than in deterministic report bodies.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Threads that participated (1 = ran inline on the caller).
    pub threads: usize,
    /// Per-job wall-clock, microseconds, in submission order.
    pub job_micros: Vec<u64>,
    /// Wall-clock for the whole run, microseconds.
    pub wall_micros: u64,
}

impl SweepStats {
    /// Total busy time across all jobs, microseconds.
    pub fn busy_micros(&self) -> u64 {
        self.job_micros.iter().sum()
    }

    /// Folds another run's counters into this one (for experiments that
    /// issue several sweeps).
    pub fn absorb(&mut self, other: &SweepStats) {
        self.jobs += other.jobs;
        self.threads = self.threads.max(other.threads);
        self.job_micros.extend_from_slice(&other.job_micros);
        self.wall_micros += other.wall_micros;
    }
}

impl Engine {
    /// Creates an engine targeting `workers` parallel threads (clamped to a
    /// minimum of 1). The engine compiles through the process-wide
    /// [`global_cache`].
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            free: Mutex::new(workers - 1),
            cache: global_cache(),
        }
    }

    /// Creates an engine sized to the host's available parallelism.
    pub fn with_default_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker target.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Extra-thread permits free right now (`workers - 1` when idle).
    pub fn permits_free(&self) -> usize {
        *self.free.lock().expect("permit count poisoned")
    }

    /// The engine's extra-thread budget, `workers - 1`: permits free plus
    /// permits on loan.
    pub fn permits_capacity(&self) -> usize {
        self.workers - 1
    }

    /// The shared kernel cache this engine compiles through.
    pub fn cache(&self) -> &'static KernelCache {
        self.cache
    }

    /// Opens a deterministic counting scope on the engine's cache.
    pub fn scope(&self) -> CacheScope<'static> {
        self.cache.scoped()
    }

    /// Maps `f` over `items` through the engine; results keep item order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Sweep<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let wall = Instant::now();
        if n == 0 {
            return Sweep {
                results: Vec::new(),
                stats: SweepStats {
                    threads: 1,
                    ..SweepStats::default()
                },
            };
        }

        // The tracing flag is read once per run, never per job: job spans
        // are recorded exactly when the run span is.
        let mut run_span = stream_trace::span("grid", "run");
        let job_spans = run_span.is_active();
        run_span.arg("jobs", n);

        let want = self.workers.min(n) - 1;
        let extra = self.take_permits(want);
        stream_trace::count("grid.jobs", n as u64);
        stream_trace::count("grid.permit_shortfall", (want - extra) as u64);
        run_span.arg("threads", extra + 1);

        let queue = Mutex::new(items.into_iter().enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                let next = queue.lock().expect("sweep queue poisoned").next();
                let Some((index, item)) = next else {
                    return done;
                };
                let mut job_span = if job_spans {
                    stream_trace::span("grid", "job")
                } else {
                    stream_trace::Span::inert()
                };
                job_span.arg("index", index);
                let t = Instant::now();
                let value = f(item);
                done.push((index, value, t.elapsed().as_micros() as u64));
            }
        };
        let done = if extra == 0 {
            work()
        } else {
            // Spawned workers inherit the caller's request correlation, so
            // a serve request's id follows its jobs across the fan-out.
            let req = stream_trace::request_id();
            let mut done = std::thread::scope(|s| {
                let handles: Vec<_> = (0..extra)
                    .map(|_| {
                        s.spawn(|| {
                            let _req = stream_trace::request_scope(req);
                            work()
                        })
                    })
                    .collect();
                let mut done = work();
                for h in handles {
                    done.extend(h.join().expect("sweep worker panicked"));
                }
                done
            });
            self.give_permits(extra);
            done.sort_unstable_by_key(|&(i, _, _)| i);
            done
        };

        let mut job_micros = Vec::with_capacity(n);
        let results = done
            .into_iter()
            .map(|(_, value, micros)| {
                job_micros.push(micros);
                value
            })
            .collect();
        Sweep {
            results,
            stats: SweepStats {
                jobs: n,
                threads: extra + 1,
                job_micros,
                wall_micros: wall.elapsed().as_micros() as u64,
            },
        }
    }

    /// Takes up to `want` extra-thread permits; returns how many were
    /// granted (possibly zero). Never blocks.
    fn take_permits(&self, want: usize) -> usize {
        let mut free = self.free.lock().expect("permit count poisoned");
        let granted = want.min(*free);
        *free -= granted;
        granted
    }

    fn give_permits(&self, n: usize) {
        *self.free.lock().expect("permit count poisoned") += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let engine = Engine::new(4);
        // Reverse sleep profile: late jobs finish first without ordering.
        let sweep = engine.map((0..32u64).collect(), |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
            i * i
        });
        let expect: Vec<u64> = (0..32).map(|i| i * i).collect();
        assert_eq!(sweep.results, expect);
        assert_eq!(sweep.stats.jobs, 32);
        assert!(sweep.stats.threads >= 1 && sweep.stats.threads <= 4);
        assert_eq!(sweep.stats.job_micros.len(), 32);
        assert!(sweep.stats.busy_micros() > 0);
    }

    #[test]
    fn single_worker_runs_inline() {
        let engine = Engine::new(1);
        let caller = std::thread::current().id();
        let sweep = engine.map(vec![(); 8], |()| std::thread::current().id());
        assert!(sweep.results.iter().all(|&id| id == caller));
        assert_eq!(sweep.stats.threads, 1);
    }

    #[test]
    fn a_run_without_free_permits_stays_on_the_caller() {
        let engine = Engine::new(4);
        assert_eq!(engine.take_permits(3), 3);
        let caller = std::thread::current().id();
        let sweep = engine.map(vec![(); 8], |()| std::thread::current().id());
        assert!(sweep.results.iter().all(|&id| id == caller));
        assert_eq!(sweep.stats.threads, 1);
        assert_eq!(engine.permits_free(), 0);
        engine.give_permits(3);
        assert_eq!(engine.permits_free(), engine.permits_capacity());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let serial = Engine::new(1).map((0..100u32).collect(), |i| i.wrapping_mul(2654435761));
        let parallel = Engine::new(8).map((0..100u32).collect(), |i| i.wrapping_mul(2654435761));
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn nested_runs_are_bounded_by_the_permit_pool() {
        let engine = Engine::new(3);
        let peak = AtomicU64::new(0);
        let live = AtomicU64::new(0);
        let outer = engine.map((0..4usize).collect(), |_| {
            let inner = engine.map((0..6u64).collect(), |j| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
                j
            });
            inner.results.iter().sum::<u64>()
        });
        assert_eq!(outer.results, vec![15, 15, 15, 15]);
        // 2 extra permits + every blocked parent's own thread: with 4 outer
        // jobs over <=3 threads, at most 3 threads run inner jobs at once.
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
        // All permits returned.
        assert_eq!(engine.permits_free(), 2);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let sweep = Engine::new(4).map(Vec::<u32>::new(), |x| x);
        assert!(sweep.results.is_empty());
        assert_eq!(sweep.stats.jobs, 0);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut total = SweepStats::default();
        let engine = Engine::new(2);
        total.absorb(&engine.map(vec![1, 2], |x| x).stats);
        total.absorb(&engine.map(vec![3], |x| x).stats);
        assert_eq!(total.jobs, 3);
        assert_eq!(total.job_micros.len(), 3);
    }
}
