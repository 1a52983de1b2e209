//! Spans, buffered per thread.
//!
//! A [`Span`] is an RAII guard: created by [`span`], finished on drop. The
//! finished event goes into a **thread-local** buffer; the buffer drains
//! into the process-global collector when it reaches [`FLUSH_AT`] events,
//! when the thread exits (TLS destructor), or when [`flush_thread`] /
//! [`take_events`] run. Worker threads therefore touch the collector mutex
//! once per batch, not once per span.
//!
//! While tracing is disabled, [`span`] returns an inert guard without
//! reading the clock or allocating, and drop does nothing.

use std::cell::{Cell, RefCell};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Thread-local buffer capacity before a flush to the global collector.
const FLUSH_AT: usize = 256;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Category (the instrumented layer: `"sched"`, `"grid"`, `"sim"`,
    /// ...).
    pub cat: &'static str,
    /// Event name.
    pub name: String,
    /// Microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small dense thread id (assigned per thread at first use).
    pub tid: u64,
    /// Key/value annotations.
    pub args: Vec<(&'static str, String)>,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

pub(crate) fn init_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn collector() -> &'static Mutex<Vec<SpanEvent>> {
    static COLLECTOR: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

fn next_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

struct LocalBuf {
    tid: u64,
    events: Vec<SpanEvent>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        collector()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut self.events);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: next_tid(),
        events: Vec::new(),
    });
}

thread_local! {
    /// The request id correlated with work on this thread, if any.
    static REQUEST: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The request id currently correlated with this thread (set by
/// [`request_scope`]), if any. Engines that spawn worker threads read
/// this on the caller and re-establish it on each worker so spans keep
/// their `req` attribute across the fan-out.
pub fn request_id() -> Option<u64> {
    REQUEST.with(|r| r.get())
}

/// Correlates the current thread with request `id` for the guard's
/// lifetime: every span opened while the guard lives carries a
/// `req=<id>` annotation. Passing `None` clears the correlation (useful
/// for background work inside a request). Scopes nest — the previous id
/// is restored on drop.
pub fn request_scope(id: Option<u64>) -> RequestScope {
    let prev = REQUEST.with(|r| r.replace(id));
    RequestScope { prev }
}

/// RAII guard from [`request_scope`]; restores the previous request id
/// on drop.
#[derive(Debug)]
pub struct RequestScope {
    prev: Option<u64>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        REQUEST.with(|r| r.set(self.prev));
    }
}

/// An RAII span guard: finishes (and records) the span when dropped. Inert
/// — a no-op holding no clock reading — when tracing was disabled at
/// creation.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    cat: &'static str,
    name: String,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

impl Span {
    /// An inert span (what [`span`] returns while tracing is off).
    pub fn inert() -> Self {
        Span(None)
    }

    /// Whether this span is actually recording.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches a key/value annotation; no-op (and `value` is never
    /// formatted) on an inert span.
    pub fn arg(&mut self, key: &'static str, value: impl Display) {
        if let Some(s) = &mut self.0 {
            s.args.push((key, value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let start_us = s.start.duration_since(epoch()).as_micros() as u64;
            let dur_us = s.start.elapsed().as_micros() as u64;
            // During thread teardown the TLS slot may already be gone; drop
            // the event rather than panic (`try_with`).
            let _ = BUF.try_with(move |buf| {
                let mut buf = buf.borrow_mut();
                let tid = buf.tid;
                buf.events.push(SpanEvent {
                    cat: s.cat,
                    name: s.name,
                    start_us,
                    dur_us,
                    tid,
                    args: s.args,
                });
                if buf.events.len() >= FLUSH_AT {
                    buf.flush();
                }
            });
        }
    }
}

/// Opens a span in category `cat` named `name`. Returns an inert guard
/// (no clock read, no allocation) while tracing is off. Active spans carry
/// the thread's request id (see [`request_scope`]) as a `req` annotation.
pub fn span(cat: &'static str, name: &str) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    let mut args = Vec::new();
    if let Some(id) = request_id() {
        args.push(("req", id.to_string()));
    }
    Span(Some(ActiveSpan {
        cat,
        name: name.to_owned(),
        start: Instant::now(),
        args,
    }))
}

/// Flushes the calling thread's span buffer into the global collector.
pub fn flush_thread() {
    let _ = BUF.try_with(|buf| buf.borrow_mut().flush());
}

/// Drains every collected event (flushing the calling thread's buffer
/// first). Buffers of other still-live threads flush on their own cadence.
/// A worker's exit flush is only guaranteed visible after an **explicit**
/// `join()` of its handle: `thread::scope`'s implicit join waits for the
/// closure, not for TLS destructors. `stream-grid` joins every worker
/// handle, so sweep spans are always collected by the time a sweep
/// returns.
pub fn take_events() -> Vec<SpanEvent> {
    flush_thread();
    std::mem::take(&mut *collector().lock().unwrap_or_else(PoisonError::into_inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn spans_record_duration_and_args() {
        let _g = test_lock::hold();
        crate::enable();
        let _ = take_events();
        {
            let mut s = span("test", "outer");
            s.arg("k", "v");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::disable();
        let events = take_events();
        let outer = events
            .iter()
            .find(|e| e.name == "outer")
            .expect("span recorded");
        assert_eq!(outer.cat, "test");
        assert!(outer.dur_us >= 1_000, "dur {}", outer.dur_us);
        assert_eq!(outer.args, vec![("k", "v".to_string())]);
    }

    #[test]
    fn worker_thread_buffers_flush_on_exit() {
        let _g = test_lock::hold();
        crate::enable();
        let _ = take_events();
        std::thread::scope(|s| {
            // Explicit joins: the scope's implicit join waits only for the
            // closures, not for the TLS destructors that flush the buffers.
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    s.spawn(move || {
                        let mut sp = span("test", "worker");
                        sp.arg("i", i);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker panicked");
            }
        });
        crate::disable();
        let events = take_events();
        assert_eq!(events.iter().filter(|e| e.name == "worker").count(), 3);
        // Distinct threads got distinct tids.
        let mut tids: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "worker")
            .map(|e| e.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn inert_span_is_silent() {
        let _g = test_lock::hold();
        crate::disable();
        let _ = take_events();
        {
            let mut s = Span::inert();
            assert!(!s.is_active());
            s.arg("ignored", 1);
        }
        assert!(take_events().is_empty());
    }

    #[test]
    fn request_scope_annotates_spans_and_restores() {
        let _g = test_lock::hold();
        crate::enable();
        let _ = take_events();
        {
            let _outer = request_scope(Some(41));
            {
                let _inner = request_scope(Some(42));
                assert_eq!(request_id(), Some(42));
                let _s = span("test", "req-tagged");
            }
            assert_eq!(request_id(), Some(41));
        }
        assert_eq!(request_id(), None);
        crate::disable();
        let events = take_events();
        let tagged = events
            .iter()
            .find(|e| e.name == "req-tagged")
            .expect("span recorded");
        assert_eq!(tagged.args, vec![("req", "42".to_string())]);
    }
}
