//! Human-readable summary exporter: aggregates spans by category/name and
//! appends every registered counter and histogram. Output is meant for
//! stderr or a log file — never stdout, per the determinism contract.

use crate::span::SpanEvent;
use crate::{counters, histograms};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    self_us: u64,
    max_us: u64,
}

/// Self time per span: its duration minus the part of it that its child
/// spans on the same thread cover.
///
/// Spans on one thread nest (they are RAII guards), so each thread's spans
/// are walked in start order with a stack of the open ones; a span's
/// parent is the innermost open span it starts inside, and only direct
/// children are subtracted, so grandchildren are not counted twice.
fn self_times(events: &[SpanEvent]) -> Vec<u64> {
    let end = |i: usize| events[i].start_us + events[i].dur_us;
    let mut own: Vec<u64> = events.iter().map(|e| e.dur_us).collect();
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].tid, events[i].start_us, Reverse(events[i].dur_us)));
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let e = &events[i];
        while let Some(&top) = open.last() {
            if events[top].tid != e.tid || e.start_us >= end(top) {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            let covered = end(i).min(end(parent)) - e.start_us;
            own[parent] = own[parent].saturating_sub(covered);
        }
        open.push(i);
    }
    own
}

/// Renders `events` plus the global metrics registry as an aligned text
/// table: one row per `(category, name)` span aggregate (count, total µs,
/// self µs, max µs), then counters, then histogram stats (count / mean /
/// p99 bound). Self time is total time minus what child spans on the same
/// thread cover.
pub fn summary(events: &[SpanEvent]) -> String {
    let mut spans: BTreeMap<(&'static str, &str), SpanAgg> = BTreeMap::new();
    for (e, self_us) in events.iter().zip(self_times(events)) {
        let agg = spans.entry((e.cat, e.name.as_str())).or_default();
        agg.count += 1;
        agg.total_us += e.dur_us;
        agg.self_us += self_us;
        agg.max_us = agg.max_us.max(e.dur_us);
    }

    let mut out = String::new();
    out.push_str("== trace summary ==\n");

    if !spans.is_empty() {
        out.push_str("spans (cat/name: count, total us, self us, max us)\n");
        let width = spans
            .keys()
            .map(|(c, n)| c.len() + n.len() + 1)
            .max()
            .unwrap_or(0);
        for ((cat, name), agg) in &spans {
            let label = format!("{cat}/{name}");
            let _ = writeln!(
                out,
                "  {label:<width$}  {:>8}  {:>10}  {:>10}  {:>10}",
                agg.count, agg.total_us, agg.self_us, agg.max_us
            );
        }
    }

    let counter_rows = counters();
    if !counter_rows.is_empty() {
        out.push_str("counters\n");
        let width = counter_rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &counter_rows {
            let _ = writeln!(out, "  {name:<width$}  {value:>12}");
        }
    }

    let hist_rows = histograms();
    if !hist_rows.is_empty() {
        out.push_str("histograms (count, mean, p99 bound)\n");
        let width = hist_rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, snap) in &hist_rows {
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>8}  {:>12.2}  {:>10}",
                snap.count(),
                snap.mean(),
                snap.quantile_bound(0.99)
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn summary_aggregates_spans_and_lists_metrics() {
        let _g = test_lock::hold();
        crate::enable();
        let _ = crate::take_events();
        for _ in 0..3 {
            let _s = crate::span("sum-test", "job");
        }
        crate::count("summary.test.counter", 2);
        crate::record("summary.test.hist", 100);
        crate::disable();
        let events = crate::take_events();
        let text = summary(&events);
        assert!(text.contains("== trace summary =="), "{text}");
        assert!(text.contains("sum-test/job"), "{text}");
        assert!(text.contains("summary.test.counter"), "{text}");
        assert!(text.contains("summary.test.hist"), "{text}");
        // The span row reports count 3.
        let row = text
            .lines()
            .find(|l| l.contains("sum-test/job"))
            .expect("span row");
        assert!(row.split_whitespace().any(|w| w == "3"), "{row}");
    }

    fn complete(name: &str, tid: u64, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            cat: "self-test",
            name: name.to_string(),
            start_us,
            dur_us,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let events = [
            // Thread 1: outer 0..100 holds mid 10..60 (which holds leaf
            // 20..30) and a second child 70..80.
            complete("outer", 1, 0, 100),
            complete("mid", 1, 10, 50),
            complete("leaf", 1, 20, 10),
            complete("mid", 1, 70, 10),
            // Thread 2 overlaps outer in time but is not its child.
            complete("outer", 2, 5, 40),
        ];
        assert_eq!(self_times(&events), vec![40, 40, 10, 10, 40]);
        let text = summary(&events);
        let row = |name: &str| -> Vec<u64> {
            let label = format!("self-test/{name} ");
            let line = text.lines().find(|l| l.contains(&label)).expect("row");
            line.split_whitespace()
                .skip(1)
                .map(|w| w.parse().unwrap())
                .collect()
        };
        // count, total, self, max
        assert_eq!(row("outer"), vec![2, 140, 80, 100]);
        assert_eq!(row("mid"), vec![2, 60, 50, 50]);
        assert_eq!(row("leaf"), vec![1, 10, 10, 10]);
    }

    #[test]
    fn empty_summary_is_just_the_header() {
        let text = summary(&[]);
        assert!(text.starts_with("== trace summary =="));
    }
}
