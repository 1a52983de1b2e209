//! Thread-permit accounting, shared by every component that spawns worker
//! threads.
//!
//! A [`PermitPool`] holds a budget of *extra* threads (beyond the calling
//! thread) that concurrent parallel regions may borrow from. The sweep
//! engine ([`stream-grid`]) owns one pool per engine so nested sweeps stay
//! bounded by that engine's configured parallelism; the serve daemon's
//! connection workers draw from the process-wide [`global`] pool, sized
//! to the same worker budget as its sweep engine.
//!
//! Permits are advisory capacity, not locks: `take` never blocks, it just
//! returns however many permits (possibly zero) are free right now. Callers
//! run serial on a zero grant.

// Under the `model` feature the pool's atomic comes from `loom-shim`, whose
// operations are scheduler yield points inside a `loom_shim::model` run (and
// identical std atomics otherwise). This lets `tests/model.rs` exhaustively
// check every interleaving of the *real* take/give code, not a copy of it.
#[cfg(feature = "model")]
use loom_shim::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(feature = "model"))]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A counting pool of thread permits. Taking permits never blocks; a taker
/// gets between zero and `want` permits and must [`give`](PermitPool::give)
/// the same number back when its parallel region ends.
#[derive(Debug)]
pub struct PermitPool {
    permits: AtomicUsize,
    // Configured size, for occupancy gauges (`capacity - available` =
    // permits out on loan). Plain std atomic even under the `model`
    // feature: it is written only at configuration time, so it adds no
    // interleavings worth model-checking.
    capacity: std::sync::atomic::AtomicUsize,
}

impl PermitPool {
    /// Creates a pool holding `capacity` permits.
    pub const fn new(capacity: usize) -> Self {
        Self {
            permits: AtomicUsize::new(capacity),
            capacity: std::sync::atomic::AtomicUsize::new(capacity),
        }
    }

    /// Takes up to `want` permits, returning how many were actually
    /// granted (possibly zero). Never blocks.
    pub fn take(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let mut current = self.permits.load(Ordering::Relaxed);
        loop {
            let take = current.min(want);
            if take == 0 {
                return 0;
            }
            match self.permits.compare_exchange(
                current,
                current - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => current = now,
            }
        }
    }

    /// Returns `n` permits to the pool.
    pub fn give(&self, n: usize) {
        self.permits.fetch_add(n, Ordering::Relaxed);
    }

    /// Permits currently free.
    pub fn available(&self) -> usize {
        self.permits.load(Ordering::SeqCst)
    }

    /// The configured permit budget (free + on loan), for occupancy
    /// reporting.
    pub fn capacity(&self) -> usize {
        self.capacity.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Resets the pool to hold exactly `capacity` free permits. Only
    /// meaningful while no permits are outstanding (e.g. process startup).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity
            .store(capacity, std::sync::atomic::Ordering::Relaxed);
        self.permits.store(capacity, Ordering::SeqCst);
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

static GLOBAL: OnceLock<PermitPool> = OnceLock::new();

/// The process-wide permit pool. First use sizes it to the host's
/// available parallelism minus the calling thread; [`configure_global`]
/// overrides that (the `repro` binary maps `--jobs N` onto it).
pub fn global() -> &'static PermitPool {
    GLOBAL.get_or_init(|| PermitPool::new(default_parallelism().saturating_sub(1)))
}

/// Sizes the global pool for `workers` total threads (so `workers - 1`
/// extra permits; `workers` is clamped to a minimum of 1). Call at startup,
/// before any permits are taken.
pub fn configure_global(workers: usize) {
    global().set_capacity(workers.max(1) - 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_bounded_and_give_restores() {
        let pool = PermitPool::new(3);
        assert_eq!(pool.take(2), 2);
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.take(5), 1);
        assert_eq!(pool.take(1), 0);
        pool.give(3);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn zero_want_takes_nothing() {
        let pool = PermitPool::new(2);
        assert_eq!(pool.take(0), 0);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn concurrent_takers_never_overdraw() {
        let pool = PermitPool::new(4);
        let taken: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let got = pool.take(2);
                        std::thread::yield_now();
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert!(taken <= 4, "overdrew: {taken}");
        pool.give(taken);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn set_capacity_resizes() {
        let pool = PermitPool::new(1);
        assert_eq!(pool.capacity(), 1);
        pool.set_capacity(7);
        assert_eq!(pool.available(), 7);
        assert_eq!(pool.capacity(), 7);
        assert_eq!(pool.take(10), 7);
        // Loans shrink availability, never the configured capacity.
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.capacity(), 7);
    }
}
