//! Prometheus text exposition (format version 0.0.4) over the metrics
//! registry: counters, gauges, and log2 histograms with cumulative
//! `_bucket` series plus `_sum`/`_count`.
//!
//! Registry names use dots (`cache.hits`); Prometheus names must match
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, so dots (and any other illegal byte)
//! become underscores. The schema is intentionally boring and stable:
//! every metric gets a `# HELP` and a `# TYPE` line, histograms always
//! emit all 65 log2 buckets plus `+Inf` so scrape-to-scrape series never
//! appear or vanish with traffic, and metrics are sorted by name.
//! Counter names are exported as-is (no `_total` suffix is appended) —
//! the mapping from registry name to exported name must stay greppable.

#[cfg(test)]
use crate::metrics::HISTOGRAM_BUCKETS;
use crate::metrics::{bucket_upper_bound, counters, gauges, histograms};
use std::fmt::Write;

/// Rewrites a registry metric name into the Prometheus name charset:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Dots become underscores; an illegal
/// leading byte gets an underscore prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, b) in name.bytes().enumerate() {
        let ok = b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit());
        if ok {
            out.push(b as char);
        } else if i == 0 && b.is_ascii_digit() {
            out.push('_');
            out.push(b as char);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// One-line help text for well-known metric families; generic fallback
/// otherwise. Keyed on the *registry* name prefix so the table survives
/// sanitization changes.
fn help_for(name: &str) -> &'static str {
    for (prefix, help) in [
        (
            "cache.",
            "Kernel schedule cache activity (process-global cache).",
        ),
        (
            "grid.",
            "Sweep engine jobs, permit shortfall and schedule-cache lookups.",
        ),
        ("pool.", "Sweep engine extra-thread permits."),
        ("store.", "Persistent on-disk store state."),
        ("serve.", "stream-serve daemon request handling."),
        ("sched.", "Modulo scheduler search effort."),
        ("sim.", "Cycle-level simulation accounting."),
    ] {
        if name.starts_with(prefix) {
            return help;
        }
    }
    "Stream workspace metric."
}

/// Renders every registered counter, gauge, and histogram in Prometheus
/// text exposition format 0.0.4. Pure read: rendering never mutates the
/// registry, and the output is deterministic for a frozen registry
/// state (sorted by metric name).
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for (name, value) in counters() {
        let n = sanitize(name);
        let _ = writeln!(out, "# HELP {n} {}", help_for(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in gauges() {
        let n = sanitize(name);
        let _ = writeln!(out, "# HELP {n} {}", help_for(name));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, snap) in histograms() {
        let n = sanitize(name);
        let _ = writeln!(out, "# HELP {n} {}", help_for(name));
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (idx, &c) in snap.buckets.iter().enumerate() {
            cumulative += c;
            let _ = writeln!(
                out,
                "{n}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_upper_bound(idx)
            );
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{n}_sum {}", snap.sum);
        let _ = writeln!(out, "{n}_count {cumulative}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn sanitize_rewrites_to_prometheus_charset() {
        assert_eq!(sanitize("cache.disk_hit"), "cache_disk_hit");
        assert_eq!(sanitize("serve.latency.v1/run"), "serve_latency_v1_run");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn exposition_covers_all_metric_kinds() {
        let _g = test_lock::hold();
        crate::enable();
        crate::count("prom.test.counter", 2);
        crate::record("prom.test.hist", 5);
        crate::disable();
        crate::set_gauge("prom.test.gauge", 11);
        let text = render_prometheus();
        assert!(text.contains("# TYPE prom_test_counter counter"));
        assert!(text.contains("prom_test_counter 2"));
        assert!(text.contains("# TYPE prom_test_gauge gauge"));
        assert!(text.contains("prom_test_gauge 11"));
        assert!(text.contains("# TYPE prom_test_hist histogram"));
        // All 65 buckets plus +Inf, cumulative, ending at the count.
        let buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("prom_test_hist_bucket"))
            .collect();
        assert_eq!(buckets.len(), HISTOGRAM_BUCKETS + 1);
        assert!(text.contains("prom_test_hist_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains(&format!("prom_test_hist_bucket{{le=\"{}\"}} 1", u64::MAX)));
        assert!(text.contains("prom_test_hist_sum 5"));
        assert!(text.contains("prom_test_hist_count 1"));
        // 5 lands in bucket 3 ([4,8), le="7"): everything below is 0.
        assert!(text.contains("prom_test_hist_bucket{le=\"3\"} 0"));
        assert!(text.contains("prom_test_hist_bucket{le=\"7\"} 1"));
        // Every HELP line has a TYPE line and the names are legal.
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':'));
                assert!(!name.as_bytes()[0].is_ascii_digit());
            }
        }
    }
}
