//! Exhaustive concurrency models for the workspace's two lock-free
//! protocols, run under the loom-shim interleaving explorer (DESIGN.md §12):
//!
//! 1. the permit pool's take/give CAS loop (the *real* `stream-pool` code —
//!    the root dev-dependency enables its `model` feature, so these tests
//!    run in the tier-1 suite without flags),
//! 2. compiled-kernel cache insertion: publish-once slots where racing
//!    compilers agree on a single published value
//!    (`crates/grid/src/cache.rs`).
//!
//! The cache protocol is modeled abstractly (its production code uses
//! `OnceLock`, which the shim does not intercept); the model encodes the
//! same decision structure — who publishes first — and proves the
//! invariant holds in every schedule, not just the ones the OS happens to
//! produce.

use loom_shim::sync::atomic::{AtomicUsize, Ordering};
use loom_shim::thread;
use std::sync::Arc;
use stream_pool::PermitPool;

/// A parallel region's permit protocol (a sweep engine run or a serve
/// worker): the coordinator takes up to `workers - 1` extra permits while
/// another parallel region races it for the same pool, then gives them
/// back. Every interleaving must keep the
/// grant within capacity and restore the pool.
#[test]
fn permit_pool_take_give_is_linearizable() {
    let executions = loom_shim::model(|| {
        let pool = Arc::new(PermitPool::new(2));
        let other_region = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let got = pool.take(1);
                pool.give(got);
                got
            })
        };
        let got = pool.take(2);
        pool.give(got);
        let other = other_region.join();
        assert!(got <= 2 && other <= 1);
        assert_eq!(pool.available(), 2, "permits leaked or double-freed");
    });
    assert!(executions > 1);
}

/// Cache insertion: two compilers race to publish a slot that must only
/// ever hold one value (the `OnceLock` in `KernelCache`). Exactly one
/// publish wins in every schedule, and both threads subsequently observe
/// the winner — never a torn or second value.
#[test]
fn cache_publish_is_once_only_in_every_schedule() {
    const EMPTY: usize = 0;
    loom_shim::model(|| {
        let slot = Arc::new(AtomicUsize::new(EMPTY));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = [1usize, 2usize]
            .into_iter()
            .map(|compiled| {
                let slot = Arc::clone(&slot);
                let wins = Arc::clone(&wins);
                thread::spawn(move || {
                    match slot.compare_exchange(EMPTY, compiled, Ordering::SeqCst, Ordering::SeqCst)
                    {
                        Ok(_) => {
                            wins.fetch_add(1, Ordering::SeqCst);
                            compiled
                        }
                        Err(existing) => existing,
                    }
                })
            })
            .collect();
        let seen: Vec<usize> = handles.into_iter().map(|h| h.join()).collect();
        let winner = slot.load(Ordering::SeqCst);
        assert_eq!(wins.load(Ordering::SeqCst), 1, "publish must be once-only");
        assert!(winner == 1 || winner == 2);
        for s in seen {
            assert_eq!(s, winner, "a racer observed a non-winning value");
        }
    });
}
