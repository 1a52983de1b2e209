//! `promcheck`: offline validator for Prometheus text exposition, used
//! by CI to check `GET /metrics` output without a real Prometheus.
//!
//! Usage: `promcheck [--require PREFIX]... [FILE]` — reads `FILE` (or
//! stdin when absent), exits 0 when the exposition is well-formed and
//! every `--require` prefix matches at least one sample family, exits 1
//! with one diagnostic per violation otherwise.
//!
//! Checks, per format version 0.0.4:
//! - every non-comment line parses as `name[{labels}] value`;
//! - metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
//! - every sample family has a `# TYPE` line, appearing before samples;
//! - `# TYPE` kinds are `counter`, `gauge`, or `histogram`;
//! - histogram `_bucket` series are cumulative (non-decreasing) in
//!   ascending `le` order, end with `le="+Inf"`, and the `+Inf` bucket
//!   equals `_count`.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

fn legal_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && (bytes[0].is_ascii_alphabetic() || bytes[0] == b'_' || bytes[0] == b':')
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// `x_bucket`/`x_sum`/`x_count` belong to histogram family `x`; other
/// samples are their own family.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

struct Sample {
    name: String,
    le: Option<String>,
    value: f64,
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, value_part) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label set: {line:?}"))?;
            (&line[..open], line[close + 1..].trim())
        }
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let n = it.next().unwrap_or("");
            (n, it.next().unwrap_or("").trim())
        }
    };
    let le = line.find('{').and_then(|open| {
        let close = line.rfind('}').unwrap();
        line[open + 1..close].split(',').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k.trim() == "le").then(|| v.trim().trim_matches('"').to_string())
        })
    });
    let value: f64 = value_part
        .split_whitespace()
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("unparsable sample value: {line:?}"))?;
    Ok(Sample {
        name: name_part.trim().to_string(),
        le,
        value,
    })
}

fn le_key(le: &str) -> f64 {
    if le == "+Inf" {
        f64::INFINITY
    } else {
        le.parse().unwrap_or(f64::NAN)
    }
}

fn check(text: &str, require: &[String]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();

    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            if !legal_name(name) {
                errors.push(format!("line {ln}: illegal metric name in TYPE: {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                errors.push(format!("line {ln}: unknown TYPE kind {kind:?} for {name}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                errors.push(format!("line {ln}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        match parse_sample(line) {
            Ok(s) => {
                if !legal_name(&s.name) {
                    errors.push(format!("line {ln}: illegal metric name {:?}", s.name));
                }
                if !types.contains_key(family_of(&s.name, &types)) {
                    errors.push(format!(
                        "line {ln}: sample {} has no preceding # TYPE line",
                        s.name
                    ));
                }
                samples.push(s);
            }
            Err(e) => errors.push(format!("line {ln}: {e}")),
        }
    }

    // Histogram shape: cumulative buckets in le order, +Inf == _count.
    for (name, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == format!("{name}_bucket"))
            .collect();
        if buckets.is_empty() {
            errors.push(format!("histogram {name}: no _bucket samples"));
            continue;
        }
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = -1.0f64;
        for b in &buckets {
            let Some(le) = &b.le else {
                errors.push(format!("histogram {name}: bucket without le label"));
                continue;
            };
            let k = le_key(le);
            if k.is_nan() || k <= prev_le {
                errors.push(format!(
                    "histogram {name}: le {le:?} not in ascending order"
                ));
            }
            if b.value < prev_cum {
                errors.push(format!(
                    "histogram {name}: cumulative count decreases at le={le}"
                ));
            }
            prev_le = k;
            prev_cum = b.value;
        }
        match buckets.last().and_then(|b| b.le.as_deref()) {
            Some("+Inf") => {}
            other => errors.push(format!(
                "histogram {name}: last bucket le is {other:?}, expected \"+Inf\""
            )),
        }
        let count = samples
            .iter()
            .find(|s| s.name == format!("{name}_count"))
            .map(|s| s.value);
        match count {
            None => errors.push(format!("histogram {name}: missing _count")),
            Some(c) if Some(c) != buckets.last().map(|b| b.value) => errors.push(format!(
                "histogram {name}: +Inf bucket != _count ({:?} vs {c})",
                buckets.last().map(|b| b.value)
            )),
            _ => {}
        }
        if !samples.iter().any(|s| s.name == format!("{name}_sum")) {
            errors.push(format!("histogram {name}: missing _sum"));
        }
    }

    for prefix in require {
        let hit = samples.iter().any(|s| s.name.starts_with(prefix.as_str()));
        if !hit {
            errors.push(format!("required series prefix {prefix:?} has no samples"));
        }
    }

    errors
}

fn main() -> ExitCode {
    let mut require = Vec::new();
    let mut file = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require" => match args.next() {
                Some(p) => require.push(p),
                None => {
                    eprintln!("promcheck: --require needs a prefix argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: promcheck [--require PREFIX]... [FILE]");
                return ExitCode::SUCCESS;
            }
            other => file = Some(other.to_string()),
        }
    }
    let text = match &file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("promcheck: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut t = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut t) {
                eprintln!("promcheck: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            t
        }
    };
    let errors = check(&text, &require);
    if errors.is_empty() {
        let families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        eprintln!("promcheck: OK ({families} metric families)");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("promcheck: {e}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_renderers_output() {
        stream_trace::counter("promcheck.test.hits").add(3);
        stream_trace::set_gauge("promcheck.test.free", 2);
        stream_trace::histogram("promcheck.test.lat").record(9);
        let text = stream_trace::render_prometheus();
        let errors = check(&text, &["promcheck_test_".into()]);
        assert!(errors.is_empty(), "renderer output rejected: {errors:?}");
    }

    #[test]
    fn rejects_malformed_exposition() {
        assert!(!check("no_type_line 5\n", &[]).is_empty());
        assert!(!check("# TYPE m counter\n9bad 5\n", &[]).is_empty());
        assert!(!check("# TYPE m weird\nm 5\n", &[]).is_empty());
        let shrinking = "# TYPE h histogram\n\
                         h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\n\
                         h_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 2\n";
        assert!(check(shrinking, &[])
            .iter()
            .any(|e| e.contains("cumulative count decreases")));
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(check(no_inf, &[]).iter().any(|e| e.contains("+Inf")));
    }

    #[test]
    fn missing_required_prefix_is_an_error() {
        let text = "# TYPE a counter\na 1\n";
        assert!(check(text, &["tune_".into()])
            .iter()
            .any(|e| e.contains("tune_")));
        assert!(check(text, &["a".into()]).is_empty());
    }
}
