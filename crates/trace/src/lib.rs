#![warn(missing_docs)]
//! Offline observability for the stream-scaling workspace: lightweight
//! spans, monotonic counters, log2-bucket histograms, and two exporters
//! (a human-readable summary and Chrome trace-event JSON loadable in
//! `chrome://tracing` or Perfetto). Zero registry dependencies, in keeping
//! with the workspace's shim-crate policy.
//!
//! # Design
//!
//! Tracing is **off by default** and the whole layer compiles to inert
//! no-ops while it stays off: [`span`] returns an empty guard without
//! reading the clock, [`count`]/[`record`] return after one relaxed flag
//! load, and instrumented hot loops are expected to accumulate into plain
//! locals and flush **once** at scope exit (see the determinism contract in
//! `DESIGN.md` §10). Nothing here ever writes to stdout, so traced and
//! untraced runs of a deterministic program render byte-identical output.
//!
//! Finished spans land in a thread-local buffer and are aggregated into the
//! process-global collector when the buffer fills, when the thread exits,
//! or when [`take_events`] runs — so worker threads pay a mutex only once
//! per 256 spans, not once per span.
//!
//! # Example
//!
//! ```
//! stream_trace::enable();
//! {
//!     let mut s = stream_trace::span("demo", "work");
//!     s.arg("shape", "8x5");
//!     stream_trace::count("demo.items", 3);
//! } // span finishes here
//! let events = stream_trace::take_events();
//! assert!(events.iter().any(|e| e.name == "work"));
//! let json = stream_trace::chrome_trace_json(&events);
//! assert!(json.contains("\"traceEvents\""));
//! stream_trace::disable();
//! ```

mod chrome;
mod metrics;
mod prom;
mod span;
mod summary;

pub use chrome::chrome_trace_json;
pub use metrics::{
    bucket_upper_bound, count, counter, counters, gauge, gauges, histogram, histograms, record,
    register_counter, reset_metrics, set_gauge, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use prom::render_prometheus;
pub use span::{
    flush_thread, request_id, request_scope, span, take_events, RequestScope, Span, SpanEvent,
};
pub use summary::summary;

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether tracing is on; every instrumentation site pays one relaxed load
/// of it.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns tracing on process-wide. Also pins the trace epoch, so timestamps
/// count from (at latest) the first `enable` call.
pub fn enable() {
    span::init_epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns tracing off process-wide. Already-collected events and counter
/// values are kept until drained/reset.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether tracing is on. One relaxed atomic load; instrumentation sites
/// call this once per *scope* (a compile, an execute call, a sweep job),
/// never once per inner-loop iteration.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Tests toggling the global flag or reading global metrics serialize
    /// on this lock so `cargo test`'s parallel runner cannot interleave
    /// them.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_is_inert() {
        let _g = test_lock::hold();
        disable();
        let before = take_events().len();
        {
            let mut s = span("t", "never");
            s.arg("k", 1);
            count("t.never", 5);
        }
        assert_eq!(take_events().len(), before.saturating_sub(before));
        assert!(!enabled());
        // The counter was never registered by `count` while disabled.
        assert!(counters().iter().all(|(n, _)| *n != "t.never"));
    }

    #[test]
    fn enable_disable_round_trip() {
        let _g = test_lock::hold();
        enable();
        assert!(enabled());
        {
            let mut s = span("t", "visible");
            s.arg("n", 42);
        }
        let events = take_events();
        assert!(events
            .iter()
            .any(|e| e.cat == "t" && e.name == "visible" && e.args[0].1 == "42"));
        disable();
        assert!(!enabled());
    }
}
