//! Chrome trace-event JSON exporter.
//!
//! Produces the [Trace Event Format] object form — a `traceEvents` array of
//! `"X"` (complete span), `"C"` (counter), and `"M"` (metadata) events —
//! loadable directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev) (open the file with *Open trace
//! file*; no conversion needed).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::span::SpanEvent;
use crate::{counters, histograms};
use std::fmt::Write as _;

/// Escapes `s` into a JSON string body (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Renders `events` plus every registered counter and histogram as one
/// Chrome trace-event JSON document.
///
/// Spans become `"X"` events on their recording thread's track. Counters
/// become one `"C"` event each (their final value, on a synthetic `tid 0`
/// track); histograms are attached to the process metadata as
/// `name: [count, mean, p99-bound]` args so they survive the round trip
/// without inventing per-sample events.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"stream-scaling\"}}",
    );

    let last_ts = events.iter().map(|e| e.start_us + e.dur_us).max();

    for e in events {
        out.push_str(",\n{");
        let _ = write!(
            out,
            "\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},",
            e.tid, e.start_us, e.dur_us
        );
        push_str_field(&mut out, "cat", e.cat);
        out.push(',');
        push_str_field(&mut out, "name", &e.name);
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_field(&mut out, k, v);
            }
            out.push('}');
        }
        out.push('}');
    }

    let counter_ts = last_ts.unwrap_or(0);
    for (name, value) in counters() {
        out.push_str(",\n{");
        let _ = write!(
            out,
            "\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{counter_ts},\"cat\":\"counter\","
        );
        push_str_field(&mut out, "name", name);
        let _ = write!(out, ",\"args\":{{\"value\":{value}}}}}");
    }

    let hists = histograms();
    if !hists.is_empty() {
        out.push_str(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"histograms\",\"args\":{");
        for (i, (name, snap)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, name);
            let _ = write!(
                out,
                "\":[{},{:.3},{}]",
                snap.count(),
                snap.mean(),
                snap.quantile_bound(0.99)
            );
        }
        out.push_str("}}");
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn escaping_handles_specials() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn json_has_required_chrome_keys() {
        let _g = test_lock::hold();
        crate::enable();
        let _ = crate::take_events();
        {
            let mut s = crate::span("chrome-test", "unit \"quoted\"");
            s.arg("shape", "8x5");
        }
        crate::count("chrome.test.counter", 3);
        crate::record("chrome.test.hist", 17);
        crate::disable();
        let events = crate::take_events();
        let json = chrome_trace_json(&events);
        for key in [
            "\"traceEvents\"",
            "\"ph\":\"X\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"ts\":",
            "\"dur\":",
            "\"pid\":1",
            "\"tid\":",
            "\"displayTimeUnit\"",
            "unit \\\"quoted\\\"",
            "chrome.test.counter",
            "chrome.test.hist",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Structurally sound enough to round-trip through a strict parser:
        // balanced braces/brackets outside strings.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut esc = false;
        for ch in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
