//! The work-stealing sweep runner.
//!
//! Jobs are distributed round-robin across per-worker deques; each worker
//! pops its own deque from the front and steals from the back of the others
//! when it runs dry. Results are reduced **in submission order**, so the
//! rendered output of a sweep is identical no matter how many workers ran
//! it — the determinism guarantee `repro --jobs N` relies on.

use crate::cache::{global_cache, CacheScope, KernelCache};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;
use stream_pool::PermitPool;
use stream_trace::Counter;

/// A boxed sweep job.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

type TaskQueue<'a, T> = Mutex<VecDeque<(usize, Job<'a, T>)>>;

/// The parallel sweep engine: a target worker count, a permit pool bounding
/// live threads across **nested** runs, and the shared kernel cache.
///
/// `Engine::new(1)` never spawns a thread — every job runs inline on the
/// calling thread in submission order, preserving strictly serial behavior.
/// With more workers, the calling thread always participates, and each
/// `run` call tries to borrow up to `workers - 1` extra threads from the
/// engine-wide permit pool; nested runs (an experiment sweeping its grid
/// while `repro all` sweeps experiments) therefore never exceed the
/// configured parallelism by more than the set of blocked parents.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    permits: PermitPool,
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

    /// The longest single job, microseconds.
    pub fn max_job_micros(&self) -> u64 {
        self.job_micros.iter().copied().max().unwrap_or(0)
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
            permits: PermitPool::new(workers - 1),
            cache: global_cache(),
        }
    }

    /// Creates an engine sized to the host's available parallelism.
    pub fn with_default_parallelism() -> Self {
        Self::new(default_parallelism())
    }

    /// The configured worker target.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared kernel cache this engine compiles through.
    pub fn cache(&self) -> &'static KernelCache {
        self.cache
    }

    /// Opens a deterministic counting scope on the engine's cache.
    pub fn scope(&self) -> CacheScope<'static> {
        self.cache.scoped()
    }

    /// Runs `jobs` and returns their results in submission order.
    pub fn run<'a, T: Send>(&self, jobs: Vec<Job<'a, T>>) -> Sweep<T> {
        let n = jobs.len();
        let wall = Instant::now();
        let mut job_micros = vec![0u64; n];
        if n == 0 {
            return Sweep {
                results: Vec::new(),
                stats: SweepStats {
                    jobs: 0,
                    threads: 1,
                    job_micros,
                    wall_micros: 0,
                },
            };
        }

        // Flag reads happen once per run, never per job; job spans are
        // gated on the bool captured here. `active` also covers the flight
        // recorder, so it keeps seeing job spans while tracing is off.
        let job_spans = stream_trace::active();
        let mut run_span = if job_spans {
            stream_trace::span("grid", "run")
        } else {
            stream_trace::Span::inert()
        };
        run_span.arg("jobs", n);

        let want = self.workers.min(n) - 1;
        let extra = self.take_permits(want);
        stream_trace::count("grid.jobs", n as u64);
        stream_trace::count("grid.permit_shortfall", (want - extra) as u64);
        run_span.arg("threads", extra + 1);

        let results = if extra == 0 {
            let mut out = Vec::with_capacity(n);
            for (i, job) in jobs.into_iter().enumerate() {
                let mut job_span = if job_spans {
                    stream_trace::span("grid", "job")
                } else {
                    stream_trace::Span::inert()
                };
                job_span.arg("index", i);
                let t = Instant::now();
                out.push(job());
                job_micros[i] = t.elapsed().as_micros() as u64;
            }
            out
        } else {
            let steals = Counter::new();
            let parallel = self.run_stealing(jobs, extra + 1, job_spans, &steals);
            self.give_permits(extra);
            stream_trace::count("grid.steals", steals.get());
            let mut out = Vec::with_capacity(n);
            for (i, value, micros) in parallel {
                job_micros[i] = micros;
                out.push(value);
            }
            out
        };

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

    /// Maps `f` over `items` through the engine; results keep item order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Sweep<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        self.run(
            items
                .into_iter()
                .map(|item| -> Job<'_, T> { Box::new(move || f(item)) })
                .collect(),
        )
    }

    fn run_stealing<'a, T: Send>(
        &self,
        jobs: Vec<Job<'a, T>>,
        threads: usize,
        job_spans: bool,
        steals: &Counter,
    ) -> Vec<(usize, T, u64)> {
        let queues: Vec<TaskQueue<'a, T>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            queues[i % threads]
                .lock()
                .expect("sweep queue poisoned")
                .push_back((i, job));
        }
        // Spawned workers inherit the caller's request correlation, so
        // a serve request's id follows its jobs across the fan-out.
        let req = stream_trace::request_id();
        let mut collected = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..threads)
                .map(|me| {
                    let queues = &queues;
                    s.spawn(move || {
                        let _req = stream_trace::request_scope(req);
                        drain(me, queues, job_spans, steals)
                    })
                })
                .collect();
            collected.extend(drain(0, &queues, job_spans, steals));
            for h in handles {
                collected.extend(h.join().expect("sweep worker panicked"));
            }
        });
        collected.sort_unstable_by_key(|&(i, _, _)| i);
        collected
    }

    fn take_permits(&self, want: usize) -> usize {
        self.permits.take(want)
    }

    fn give_permits(&self, n: usize) {
        self.permits.give(n);
    }
}

/// One worker: drain the own deque front-first, then steal from the back of
/// the busiest-looking neighbor (scan order rotated per worker so thieves
/// spread out).
fn drain<'a, T: Send>(
    me: usize,
    queues: &[TaskQueue<'a, T>],
    job_spans: bool,
    steals: &Counter,
) -> Vec<(usize, T, u64)> {
    let mut out = Vec::new();
    // Steals accumulate in a plain local and hit the shared counter once.
    let mut stolen: u64 = 0;
    loop {
        let next = {
            // Own lock is released before any steal attempt: holding it
            // while locking a victim's deque could deadlock two thieves.
            let own = queues[me].lock().expect("sweep queue poisoned").pop_front();
            match own {
                Some(job) => Some(job),
                None => {
                    let theft = steal(me, queues);
                    if theft.is_some() {
                        stolen += 1;
                    }
                    theft
                }
            }
        };
        match next {
            Some((index, job)) => {
                let mut job_span = if job_spans {
                    stream_trace::span("grid", "job")
                } else {
                    stream_trace::Span::inert()
                };
                job_span.arg("index", index);
                let t = Instant::now();
                let value = job();
                out.push((index, value, t.elapsed().as_micros() as u64));
            }
            None => break,
        }
    }
    steals.add(stolen);
    out
}

fn steal<'a, T: Send>(me: usize, queues: &[TaskQueue<'a, T>]) -> Option<(usize, Job<'a, T>)> {
    let n = queues.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(job) = queues[victim]
            .lock()
            .expect("sweep queue poisoned")
            .pop_back()
        {
            return Some(job);
        }
    }
    None
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn default_parallelism() -> usize {
    stream_pool::default_parallelism()
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
        assert_eq!(engine.permits.available(), 2);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let sweep = Engine::new(4).run(Vec::<Job<'_, u32>>::new());
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
