#![warn(missing_docs)]
//! Design-space sweep engine for the `(C, N)` studies.
//!
//! The paper's evaluation is a large grid sweep — six kernels by twenty
//! machine shapes for Figures 13/14 and Table 5, plus six applications for
//! Figure 15 — and every cell recompiles kernels for its machine. This crate
//! industrializes that hot path with two pieces:
//!
//! * [`Engine`] — a work-stealing parallel job runner built on
//!   [`std::thread::scope`] (no external dependencies). Jobs are submitted
//!   as a batch and results come back **in submission order**, so a sweep
//!   parallelized through the engine renders byte-identically to its serial
//!   equivalent. Each engine owns a permit pool that bounds its live
//!   worker threads across concurrent runs on it (e.g. the daemon's
//!   queries); `repro all` runs its experiments one after another, each
//!   grid on the whole engine.
//! * [`KernelCache`] — a shared, thread-safe compiled-kernel cache keyed by
//!   `(kernel identity, MachineConfig, CompileOptions)` so each schedule is
//!   compiled exactly once per process no matter how many experiments ask
//!   for it. Under those entries it memoizes each unroll factor's compile,
//!   so option sets that offer the same factor share its schedule.
//!   [`CacheScope`] layers deterministic per-consumer hit/miss
//!   accounting on top (counts depend only on the consumer's own lookups,
//!   not on which thread or experiment populated the cache first).
//!
//! # Examples
//!
//! ```
//! use stream_grid::{global_cache, Engine};
//! use stream_machine::Machine;
//! use stream_sched::CompileOptions;
//! use stream_ir::{KernelBuilder, Ty};
//!
//! let mut b = KernelBuilder::new("axpy");
//! let xs = b.in_stream(Ty::F32);
//! let out = b.out_stream(Ty::F32);
//! let a = b.const_f(3.0);
//! let x = b.read(xs);
//! let y = b.mul(a, x);
//! b.write(out, y);
//! let kernel = b.finish()?;
//!
//! // Compile through the shared cache: the second lookup is a hit.
//! let machine = Machine::baseline();
//! let opts = CompileOptions::new();
//! let first = global_cache().get_or_compile(&kernel, &machine, &opts)?;
//! let again = global_cache().get_or_compile(&kernel, &machine, &opts)?;
//! assert_eq!(first.ii(), again.ii());
//!
//! // Sweep a grid in parallel; results arrive in submission order.
//! let engine = Engine::new(4);
//! let sweep = engine.map(vec![1u32, 2, 3, 4], |n| n * 10);
//! assert_eq!(sweep.results, vec![10, 20, 30, 40]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
mod engine;

pub use cache::{
    attach_global_disk, global_cache, thread_compiles, CacheScope, CacheStats, DiskTier,
    KernelCache, ScopeCounters,
};
pub use engine::{Engine, Sweep, SweepStats};

/// Samples current grid/pool state into the trace registry's always-on
/// gauges: `cache.entries` (per-set schedules resident in memory),
/// `store.disk_bytes` (bytes held by the global cache's disk tier, 0
/// without one), and `pool.permits_free` / `pool.permits_capacity` (the
/// process-wide permit pool). Touching [`global_cache`] here also
/// registers the `cache.*` counter series, so one call makes the whole
/// cache family visible to exporters even before any compile happens.
/// Intended for scrape/report cadence (it walks the disk tier's
/// directory), not hot paths.
pub fn sample_gauges() {
    let cache = global_cache();
    let stats = cache.stats();
    stream_trace::set_gauge("cache.entries", stats.entries as u64);
    let disk_bytes = cache.disk().map(DiskTier::bytes).unwrap_or(0);
    stream_trace::set_gauge("store.disk_bytes", disk_bytes);
    let pool = stream_pool::global();
    stream_trace::set_gauge("pool.permits_free", pool.available() as u64);
    stream_trace::set_gauge("pool.permits_capacity", pool.capacity() as u64);
}
