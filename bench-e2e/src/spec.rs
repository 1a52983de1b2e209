//! The benchmark's own declaration, `BENCHMARK.json`, read at build time:
//! the workloads, the end-to-end metrics with their bounds, and the
//! per-layer metrics. The harness reports exactly these names, so the file
//! is the single list of what a run must measure.

use crate::stats::Better;
use stream_serve::json::{self, Value};

/// `BENCHMARK.json` at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name, as reported.
    pub name: String,
    /// Unit, as reported.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Default measuring time of one run, in seconds.
    pub run_seconds: u64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics a plain run reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a traced run reports.
    pub per_layer: Vec<MetricSpec>,
}

fn metric(v: &Value) -> Result<MetricSpec, String> {
    let field = |key: &str| v.get(key).and_then(Value::as_str);
    let name = field("name").ok_or("metric without a name")?;
    let better = match field("better") {
        Some("lower") => Better::Lower,
        Some("higher") => Better::Higher,
        other => return Err(format!("{name}: bad `better` {other:?}")),
    };
    Ok(MetricSpec {
        name: name.to_string(),
        unit: field("unit")
            .ok_or_else(|| format!("{name}: no unit"))?
            .to_string(),
        better,
        bound: v.get("bound").and_then(Value::as_f64),
    })
}

/// Parses a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a missing/mistyped field.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("no `{key}` array"))
    };
    let metrics =
        |key: &str| -> Result<Vec<MetricSpec>, String> { list(key)?.iter().map(metric).collect() };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .filter(|s| s.fract() == 0.0 && *s >= 1.0)
            .ok_or("no whole `run_seconds`")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The declaration this harness was built with.
pub fn spec() -> Spec {
    parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by this crate's tests")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_declaration_parses() {
        let s = spec();
        assert_eq!(
            s.workloads,
            ["repro_cold", "repro_warm", "serve_memo", "serve_tune"]
        );
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            (setup.unit.as_str(), setup.better, setup.bound),
            ("s", Better::Lower, Some(widest))
        );
    }

    #[test]
    fn malformed_declarations_are_errors() {
        assert!(parse("{").is_err());
        assert!(
            parse("{\"run_seconds\":1.5,\"workloads\":[],\"end_to_end\":[],\"per_layer\":[]}")
                .is_err()
        );
        assert!(parse(
            "{\"run_seconds\":5,\"workloads\":[],\"end_to_end\":[{\"name\":\"x\",\"unit\":\"s\",\"better\":\"up\"}],\"per_layer\":[]}"
        )
        .unwrap_err()
        .contains("better"));
    }
}
