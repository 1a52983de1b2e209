//! Interpreter fast path: compiled execution tape vs the legacy tree-walk.
//!
//! Besides the criterion display benches, this harness self-times both
//! paths (the offline criterion shim has no machine-readable output) and
//! writes `BENCH_interp.json` at the repository root so CI can assert the
//! tape's speedup without scraping bench stdout.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use stream_ir::{execute_legacy, ExecConfig, Kernel, Scalar, Tape, Ty};
use stream_kernels::{convolve, KernelId};
use stream_machine::Machine;

/// Synthesizes deterministic well-typed input streams sized for
/// `iterations` loop iterations at `clusters` clusters.
fn synth_inputs(kernel: &Kernel, iterations: usize, clusters: usize) -> Vec<Vec<Scalar>> {
    kernel
        .inputs()
        .iter()
        .map(|decl| {
            let words = iterations * clusters * decl.record_width as usize;
            (0..words)
                .map(|i| match decl.ty {
                    Ty::I32 => Scalar::I32((i % 251) as i32 - 125),
                    Ty::F32 => Scalar::F32((i % 17) as f32 * 0.125 - 1.0),
                })
                .collect()
        })
        .collect()
}

struct Case {
    name: &'static str,
    kernel: Kernel,
    params: Vec<Scalar>,
    inputs: Vec<Vec<Scalar>>,
    cfg: ExecConfig,
}

fn cases() -> Vec<Case> {
    let machine = Machine::baseline();

    // Convolve over one 512-column row strip — the interpreter benchmark
    // the tape's >=5x acceptance criterion is judged on.
    let conv = convolve::kernel(&machine);
    let taps = convolve::Taps::gaussian();
    let rows = convolve::sample_rows(512, 3);
    let conv_inputs = convolve::input_streams(&rows);
    let conv_params = convolve::params(&taps);

    // FFT radix-4 stage over a 1K-point-sized strip (256 butterflies =
    // 32 iterations x 8 clusters), with synthetic but well-typed data.
    let fft = KernelId::Fft.build(&machine);
    let fft_inputs = synth_inputs(&fft, 32, 8);

    vec![
        Case {
            name: "convolve_512px",
            kernel: conv,
            params: conv_params,
            inputs: conv_inputs,
            cfg: ExecConfig::with_clusters(8),
        },
        Case {
            name: "fft_1k",
            kernel: fft,
            params: Vec::new(),
            inputs: fft_inputs,
            cfg: ExecConfig::with_clusters(8),
        },
    ]
}

/// Per-call ns for each path, as interleaved min-of-k windows: every
/// round times one short (~3ms) window per path back to back, and each
/// path keeps its best window mean. Interleaving plus the minimum makes
/// the *ratios* robust to background load — a noise burst inflates whole
/// windows, which the minimum then discards, instead of biasing one
/// path's single long run as a mean would.
fn time_paths<const N: usize>(mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut per = [0usize; N];
    for (i, f) in fs.iter_mut().enumerate() {
        f();
        let probe = Instant::now();
        f();
        let once = probe.elapsed().as_nanos().max(1);
        per[i] = ((3_000_000 / once) as usize).clamp(5, 2_000);
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..24 {
        for (i, f) in fs.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..per[i] {
                f();
            }
            best[i] = best[i].min(t0.elapsed().as_nanos() as f64 / per[i] as f64);
        }
    }
    best
}

/// Self-times both paths (legacy tree-walk and the compiled tape) and
/// writes `BENCH_interp.json` at the repo root; the `speedup` gate means
/// "tape over legacy". `recorder_overhead` times the tape with the flight
/// recorder off vs on and gates the ratio, so "always-on" observability
/// stays cheap enough to actually leave always on.
fn emit_json(cases: &[Case]) {
    let mut bench_entries = Vec::new();
    let mut speedup_entries = Vec::new();
    let mut recorder_entries = Vec::new();
    for case in cases {
        let tape = Tape::compile(&case.kernel);
        let expect = execute_legacy(&case.kernel, &case.params, &case.inputs, &case.cfg)
            .expect("legacy path executes");
        assert_eq!(
            tape.execute(&case.params, &case.inputs, &case.cfg)
                .expect("tape path executes"),
            expect,
            "tape and legacy outputs diverge on {}",
            case.name
        );

        let [legacy_ns, tape_ns] = time_paths([
            &mut || {
                execute_legacy(&case.kernel, &case.params, &case.inputs, &case.cfg).unwrap();
            },
            &mut || {
                tape.execute(&case.params, &case.inputs, &case.cfg).unwrap();
            },
        ]);
        // Flight-recorder overhead guard: the same tape hot loop with the
        // always-on recorder off vs on. Each closure re-asserts its own
        // recorder state (one relaxed RMW, symmetric across both paths) so
        // the interleaved windows can share the process-global bit. The
        // ratio is a hard bench gate: the recorder's pitch is "cheap enough
        // to leave on", so a regression past noise fails loudly here.
        let [rec_off_ns, rec_on_ns] = time_paths([
            &mut || {
                stream_trace::disable_flight_recorder();
                tape.execute(&case.params, &case.inputs, &case.cfg).unwrap();
            },
            &mut || {
                stream_trace::enable_flight_recorder();
                tape.execute(&case.params, &case.inputs, &case.cfg).unwrap();
            },
        ]);
        stream_trace::disable_flight_recorder();
        let recorder_ratio = rec_on_ns / rec_off_ns;
        assert!(
            recorder_ratio < 1.25,
            "flight recorder costs {:.2}x on {} (off {:.0} ns, on {:.0} ns); \
             the always-on path must stay within noise",
            recorder_ratio,
            case.name,
            rec_off_ns,
            rec_on_ns
        );

        let speedup = legacy_ns / tape_ns;
        println!(
            "interp/{}: legacy {:.0} ns, tape {:.0} ns, tape/legacy {:.2}x, \
             recorder on/off {:.3}x",
            case.name, legacy_ns, tape_ns, speedup, recorder_ratio
        );
        bench_entries.push(format!(
            "    \"legacy_{0}\": {{\"mean_ns\": {1:.1}}},\n    \
             \"tape_{0}\": {{\"mean_ns\": {2:.1}}}",
            case.name, legacy_ns, tape_ns
        ));
        speedup_entries.push(format!("    \"{}\": {:.3}", case.name, speedup));
        recorder_entries.push(format!("    \"{}\": {:.3}", case.name, recorder_ratio));
    }
    let json = format!
        ("{{\n  \"bench\": \"interp\",\n  \"unit\": \"ns_per_call\",\n  \"benchmarks\": {{\n{}\n  }},\n  \"speedup\": {{\n{}\n  }},\n  \"recorder_overhead\": {{\n{}\n  }}\n}}\n",
        bench_entries.join(",\n"),
        speedup_entries.join(",\n"),
        recorder_entries.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interp.json");
    std::fs::write(&path, json).expect("write BENCH_interp.json");
    println!("wrote {}", path.display());
}

fn bench_interp(c: &mut Criterion) {
    let cases = cases();
    emit_json(&cases);
    for case in &cases {
        let tape = Tape::compile(&case.kernel);
        c.bench_function(&format!("interp/tape_{}", case.name), |b| {
            b.iter(|| tape.execute(&case.params, &case.inputs, &case.cfg).unwrap())
        });
        c.bench_function(&format!("interp/legacy_{}", case.name), |b| {
            b.iter(|| execute_legacy(&case.kernel, &case.params, &case.inputs, &case.cfg).unwrap())
        });
    }
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
