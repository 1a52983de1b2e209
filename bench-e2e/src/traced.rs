//! The end of every traced pass: layer metrics from the pass's own spans
//! and metric registry, then the layer probes in a fresh process, whose
//! timings join the trace as `bench/<layer>` spans.

use crate::layers;
use crate::probes::{self, ProbeSpan};
use crate::report::Outcome;
use crate::sys;
use crate::{Env, Workload, JOBS};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// Upper bound on the probe process (it takes a few seconds).
const PROBE_TIMEOUT: Duration = Duration::from_secs(120);
/// Trace thread id the `bench/<layer>` spans are drawn on, apart from the
/// program's own threads.
const BENCH_TID: u64 = 9_999;
/// The closing of a `stream_trace::chrome_trace_json` document.
const TRACE_END: &str = "\n],\"displayTimeUnit\":\"ms\"}\n";

/// Inserts `spans` as `bench/<layer>` complete events into a Chrome trace
/// document, offset to start `base_us` into its timeline.
///
/// # Errors
///
/// A document that does not end the way `stream-trace` ends its traces.
pub fn append_bench_spans(doc: &str, spans: &[ProbeSpan], base_us: u64) -> Result<String, String> {
    let body = doc
        .strip_suffix(TRACE_END)
        .ok_or("trace document does not end as a stream-trace trace")?;
    let mut out = String::with_capacity(doc.len() + spans.len() * 96);
    out.push_str(body);
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{BENCH_TID},\"ts\":{},\"dur\":{},\"cat\":\"bench\",\"name\":\"{}\"}}",
            base_us + s.start_us,
            s.dur_us,
            s.layer
        );
    }
    out.push_str(TRACE_END);
    Ok(out)
}

/// Derives the layer metrics of a traced pass that took `wall_s` and left
/// its caches in `cache_dir`, runs the probes, and writes
/// `<out>/<workload>.trace.json` (with the probe spans) and
/// `<out>/<workload>.prom`. Failures are recorded in `o`.
pub fn finish(
    env: &Env,
    workload: Workload,
    trace_doc: &str,
    prom_text: &str,
    wall_s: f64,
    cache_dir: &Path,
    o: &mut Outcome,
) {
    let spans = match layers::from_chrome(trace_doc) {
        Ok(spans) => spans,
        Err(e) => {
            o.error(format!("traced pass: {e}"));
            return;
        }
    };
    let prom = layers::parse_prometheus(prom_text);
    layers::record(&spans, &prom, wall_s, JOBS, &mut o.layers);
    let (files, bytes) = layers::disk_usage(cache_dir);
    o.layers.set("store.files", files as f64, "count");
    o.layers.set("store.disk_bytes", bytes as f64, "bytes");

    let mut doc = trace_doc.to_string();
    let mut cmd = Command::new(&env.harness);
    cmd.arg("--probes");
    crate::clean_env(&mut cmd);
    match sys::run(&mut cmd, PROBE_TIMEOUT) {
        Ok(done) if done.ok() => match probes::parse(&String::from_utf8_lossy(&done.stdout)) {
            Ok((probe_spans, metrics)) => {
                o.layers.extend(metrics);
                let base = spans
                    .iter()
                    .map(|s| s.start_us + s.dur_us)
                    .max()
                    .unwrap_or(0)
                    + 1_000;
                match append_bench_spans(&doc, &probe_spans, base) {
                    Ok(with_probes) => doc = with_probes,
                    Err(e) => o.error(format!("probe spans: {e}")),
                }
            }
            Err(e) => o.error(format!("probes: {e}")),
        },
        Ok(done) => o.error(format!(
            "probes failed (exit {:?}): {}",
            done.code,
            String::from_utf8_lossy(&done.stderr).trim_end()
        )),
        Err(e) => o.error(format!("probes: {e}")),
    }

    for (ext, text) in [("trace.json", doc.as_str()), ("prom", prom_text)] {
        let path = env.out.join(format!("{workload}.{ext}"));
        if let Err(e) = std::fs::write(&path, text) {
            o.error(format!("writing {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_spans_land_inside_a_stream_trace_document() {
        let doc = stream_trace::chrome_trace_json(&[]);
        let spans = [ProbeSpan {
            layer: "vlsi".to_string(),
            start_us: 5,
            dur_us: 7,
        }];
        let out = append_bench_spans(&doc, &spans, 100).unwrap();
        let parsed = layers::from_chrome(&out).unwrap();
        let bench: Vec<_> = parsed.iter().filter(|s| s.cat == "bench").collect();
        assert_eq!(bench.len(), 1);
        assert_eq!(
            (bench[0].name.as_str(), bench[0].start_us, bench[0].dur_us),
            ("vlsi", 105, 7)
        );
        assert!(append_bench_spans("{}", &spans, 0).is_err());
    }
}
