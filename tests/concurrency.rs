//! Thread bounds of the sweep engine and the serve daemon, checked on OS
//! threads (CI also runs this file under ThreadSanitizer):
//!
//! 1. concurrent `map` calls on one engine share its extra-thread permits,
//!    so each call runs at most `workers` jobs at once, no more than
//!    `workers - 1` jobs run on spawned threads across all calls, and every
//!    permit is free again afterwards;
//! 2. a daemon with a worker budget of one spawns no connection thread:
//!    the accept thread serves every connection itself;
//! 3. a traced `map` records one `grid/run` span and a `grid/job` span per
//!    item, and its spawned worker carries the caller's request id.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;
use stream_grid::Engine;
use stream_serve::{start, ServerConfig};

/// Raises `peak` to `live`'s value after incrementing it.
fn enter(live: &AtomicUsize, peak: &AtomicUsize) {
    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
    peak.fetch_max(now, Ordering::SeqCst);
}

#[test]
fn concurrent_maps_share_the_engine_permits() {
    const CALLERS: usize = 4;
    let engine = Engine::new(3);
    let start = Barrier::new(CALLERS);
    let spawned_live = AtomicUsize::new(0);
    let spawned_peak = AtomicUsize::new(0);
    let per_call_peaks: Vec<usize> = thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let caller = thread::current().id();
                    let live = AtomicUsize::new(0);
                    let peak = AtomicUsize::new(0);
                    start.wait();
                    let sweep = engine.map((0..12u64).collect(), |j| {
                        let spawned = thread::current().id() != caller;
                        enter(&live, &peak);
                        if spawned {
                            enter(&spawned_live, &spawned_peak);
                        }
                        thread::sleep(Duration::from_millis(1));
                        if spawned {
                            spawned_live.fetch_sub(1, Ordering::SeqCst);
                        }
                        live.fetch_sub(1, Ordering::SeqCst);
                        j * 2
                    });
                    assert_eq!(sweep.results, (0..12u64).map(|j| j * 2).collect::<Vec<_>>());
                    assert!(sweep.stats.threads <= 3, "{:?}", sweep.stats);
                    peak.load(Ordering::SeqCst)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for peak in per_call_peaks {
        assert!(peak <= 3, "one map ran {peak} jobs at once");
    }
    let spawned_peak = spawned_peak.load(Ordering::SeqCst);
    assert!(
        spawned_peak <= 2,
        "{spawned_peak} jobs at once on spawned threads"
    );
    assert_eq!(engine.permits_capacity(), 2);
    assert_eq!(engine.permits_free(), 2, "permits leaked");
}

/// The always-on registry counter `name`, read without registering it.
fn counter(name: &str) -> u64 {
    stream_trace::counters()
        .into_iter()
        .find(|&(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn a_one_worker_daemon_serves_every_connection_inline() {
    const CONNECTIONS: u64 = 6;
    let handle = start(&ServerConfig {
        addr: None,
        workers: Some(1),
        cache_root: None,
    })
    .unwrap();
    let addr = handle.addr();
    let (connections, inline) = (counter("serve.connection"), counter("serve.inline"));
    thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.write_all(b"GET /health HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
                    .unwrap();
                let mut wire = String::new();
                conn.read_to_string(&mut wire).unwrap();
                assert!(wire.starts_with("HTTP/1.1 200"), "{wire}");
            });
        }
    });
    assert_eq!(counter("serve.connection") - connections, CONNECTIONS);
    assert_eq!(counter("serve.inline") - inline, CONNECTIONS);
    handle.stop();
}

#[test]
fn a_traced_map_carries_the_request_id_to_its_workers() {
    // Daemon ids count up from 1, so no other span of this process
    // carries this one.
    const REQ: u64 = u64::MAX;
    let req = ("req", REQ.to_string());
    for workers in [1, 2] {
        let engine = Engine::new(workers);
        let meet = Barrier::new(2);
        stream_trace::enable();
        {
            let _scope = stream_trace::request_scope(Some(REQ));
            engine.map((0..8u64).collect(), |j| {
                // The thread that takes one of jobs 0 and 1 waits here
                // until the other thread takes the other.
                if workers == 2 && j < 2 {
                    meet.wait();
                }
            });
        }
        stream_trace::disable();
        let spans: Vec<_> = stream_trace::take_events()
            .into_iter()
            .filter(|e| e.cat == "grid" && e.args.contains(&req))
            .collect();
        let runs: Vec<_> = spans.iter().filter(|e| e.name == "run").collect();
        assert_eq!(runs.len(), 1, "workers={workers}: {spans:?}");
        assert!(
            runs[0].args.contains(&("jobs", "8".to_string())),
            "{runs:?}"
        );
        let mut tids: Vec<u64> = spans
            .iter()
            .filter(|e| e.name == "job")
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids.len(), 8, "workers={workers}: {spans:?}");
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), workers, "workers={workers}: {spans:?}");
    }
}
