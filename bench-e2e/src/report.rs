//! What a workload run produced: named metrics with units and sample
//! counts, operation counts, and every correctness failure.

use std::fmt::Write as _;

/// Failure messages kept verbatim; later ones are only counted.
const KEPT_ERRORS: usize = 20;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name (`latency_ms.p50`, `sched.compile_s`, ...).
    pub name: String,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Unit (`s`, `ms`, `MiB`, `req/s`, `count`, ...).
    pub unit: &'static str,
    /// Samples behind the value, for timings.
    pub samples: Option<usize>,
}

/// Metrics in the order they were recorded; a name recorded twice keeps
/// the later value.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.set_sampled(name, value, unit, None);
    }

    /// Records `name` with the sample count behind it.
    pub fn set_sampled(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        let name = name.into();
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Every metric, in recording order.
    pub fn all(&self) -> &[Metric] {
        &self.0
    }

    /// Moves every metric of `other` into `self`.
    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.set_sampled(m.name, m.value, m.unit, m.samples);
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Every failure, timed or not (set-up, warm-up, checks).
    pub error_count: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// End-to-end values (measured with tracing off).
    pub metrics: Metrics,
    /// Per-layer values (from the traced pass and the probes).
    pub layers: Metrics,
}

impl Outcome {
    /// Records a failure outside the timed operations.
    pub fn error(&mut self, message: impl Into<String>) {
        self.error_count += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(message.into());
        }
    }

    /// Records one timed operation and, if `failure` is set, its failure.
    pub fn operation(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(message) = failure {
            self.failed += 1;
            self.error(message);
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.error_count == 0 && self.failed == 0
    }

    /// Human-readable lines: one per metric (per-layer ones too when
    /// `traced`), then the failures.
    pub fn render_text(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let layers = if traced { self.layers.all() } else { &[] };
        for m in self.metrics.all().iter().chain(layers) {
            let _ = write!(out, "{workload}: {} = {} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, " (n={n})");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{workload}: fail_ratio = {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            let _ = writeln!(out, "{workload}: FAILED: {e}");
        }
        if self.error_count > self.errors.len() as u64 {
            let _ = writeln!(
                out,
                "{workload}: ... and {} more failures",
                self.error_count - self.errors.len() as u64
            );
        }
        out
    }
}

/// Escapes `s` as a JSON string body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite number as JSON (non-finite values have no JSON form).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Every metric of `metrics` as one JSON object `{name: {value, unit,
/// samples}}`.
pub fn metrics_json(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .all()
        .iter()
        .map(|m| {
            let samples = m.samples.map_or("null".to_string(), |n| n.to_string());
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{samples}}}",
                json_escape(&m.name),
                json_number(m.value),
                json_escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_values_replace_earlier_ones() {
        let mut m = Metrics::default();
        m.set("a", 1.0, "s");
        m.set_sampled("b", 2.0, "ms", Some(3));
        m.set("a", 4.0, "s");
        let names: Vec<&str> = m.all().iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(m.get("a").unwrap().value, 4.0);
        assert_eq!(
            metrics_json(&m),
            "{\"b\":{\"value\":2,\"unit\":\"ms\",\"samples\":3},\"a\":{\"value\":4,\"unit\":\"s\",\"samples\":null}}"
        );
    }

    #[test]
    fn failures_count_past_the_kept_messages() {
        let mut o = Outcome::default();
        o.operation(None);
        assert!(o.correct());
        for i in 0..25 {
            o.operation(Some(format!("op {i}")));
        }
        assert_eq!((o.attempted, o.failed, o.error_count), (26, 25, 25));
        assert_eq!(o.errors.len(), 20);
        assert!(!o.correct());
        assert!(o
            .render_text("w", false)
            .contains("... and 5 more failures"));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.203_456_789_012_3), "1.2034567890123");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
