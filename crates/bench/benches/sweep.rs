//! Benchmarks for the parallel sweep engine and the shared compiled-kernel
//! cache: cold vs warm compiles, and a figure-13-shaped grid at different
//! worker counts.
//!
//! Besides the criterion display benches, this harness self-times the
//! cold-compile and warm-lookup cache paths and the flight recorder's cost
//! on the cold compile (the offline criterion shim has no machine-readable
//! output) and writes `BENCH_sweep.json` at the repository root so CI can
//! assert the cache actually caches, and the recorder stays cheap, without
//! scraping bench stdout.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::{Duration, Instant};
use stream_grid::{Engine, KernelCache};
use stream_kernels::KernelId;
use stream_machine::Machine;
use stream_repro::ExperimentId;
use stream_sched::CompileOptions;
use stream_vlsi::Shape;

/// Mean ns/call over enough calls to fill ~200ms, after warmup.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_nanos().max(1);
    let samples = ((200_000_000 / once) as usize).clamp(10, 20_000);
    let t0 = Instant::now();
    for _ in 0..samples {
        f();
    }
    t0.elapsed().as_nanos() as f64 / samples as f64
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

/// Self-times the cache paths and the flight recorder's overhead, and
/// writes `BENCH_sweep.json` at the repo root.
fn emit_json() {
    let machine = Machine::baseline();
    let kernel = KernelId::Fft.build(&machine);
    let opts = CompileOptions::default();

    // Cold: a fresh cache per call, so every lookup runs the compiler.
    let cold_ns = time_ns(|| {
        let cache = KernelCache::new();
        cache.get_or_compile(&kernel, &machine, &opts).unwrap();
    });
    // Warm: the same cache every call, so every lookup is a hit.
    let warm_cache = KernelCache::new();
    warm_cache.get_or_compile(&kernel, &machine, &opts).unwrap();
    let warm_ns = time_ns(|| {
        warm_cache.get_or_compile(&kernel, &machine, &opts).unwrap();
    });

    // Flight-recorder overhead guard: the cold compile, where spans are
    // densest, with the always-on recorder off vs on. Each closure
    // re-asserts its own recorder state (one relaxed RMW, symmetric across
    // both paths) so the interleaved windows can share the process-global
    // bit. CI gates the ratio: the recorder's pitch is "cheap enough to
    // leave on", so a regression past noise fails loudly.
    let [rec_off_ns, rec_on_ns] = time_paths([
        &mut || {
            stream_trace::disable_flight_recorder();
            KernelCache::new()
                .get_or_compile(&kernel, &machine, &opts)
                .unwrap();
        },
        &mut || {
            stream_trace::enable_flight_recorder();
            KernelCache::new()
                .get_or_compile(&kernel, &machine, &opts)
                .unwrap();
        },
    ]);
    stream_trace::disable_flight_recorder();
    let recorder_overhead = rec_on_ns / rec_off_ns;

    let speedup = cold_ns / warm_ns;
    // Cold scheduler throughput, the number the auto-tuner's pruned search
    // spends: with the DDG build and height analysis hoisted out of the
    // per-factor loop, this is schedules (not kernels) per second.
    let cold_compiles_per_sec = 1e9 / cold_ns;
    println!(
        "sweep/kernel_cache: cold {cold_ns:.0} ns ({cold_compiles_per_sec:.1} compiles/s), \
         warm {warm_ns:.0} ns, speedup {speedup:.1}x, recorder on/off {recorder_overhead:.3}x"
    );
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"unit\": \"ns_per_call\",\n  \"benchmarks\": {{\n    \"cold_compile_fft\": {{\"mean_ns\": {cold_ns:.1}}},\n    \"warm_lookup_fft\": {{\"mean_ns\": {warm_ns:.1}}}\n  }},\n  \"cold_compiles_per_sec\": {cold_compiles_per_sec:.1},\n  \"speedup\": {{\n    \"warm_over_cold\": {speedup:.3}\n  }},\n  \"recorder_overhead\": {{\n    \"cold_compile_fft\": {recorder_overhead:.3}\n  }}\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    std::fs::write(&path, json).expect("write BENCH_sweep.json");
    println!("wrote {}", path.display());
}

fn bench_cache(c: &mut Criterion) {
    emit_json();

    let machine = Machine::baseline();
    let kernel = KernelId::Fft.build(&machine);
    let opts = CompileOptions::default();

    let mut g = c.benchmark_group("kernel_cache");
    g.measurement_time(Duration::from_secs(5));
    // Cold: a fresh cache per iteration, so every lookup compiles.
    g.bench_function("cold_compile_fft", |b| {
        b.iter_batched(
            KernelCache::new,
            |cache| cache.get_or_compile(&kernel, &machine, &opts).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // Warm: the same cache every iteration, so every lookup is a hit.
    let warm = KernelCache::new();
    warm.get_or_compile(&kernel, &machine, &opts).unwrap();
    g.bench_function("warm_lookup_fft", |b| {
        b.iter(|| warm.get_or_compile(&kernel, &machine, &opts).unwrap())
    });
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    // The figure-13 compile grid end to end — cache hits dominate after the
    // first iteration, so this mostly measures the sweep machinery.
    g.bench_function("fig13_serial", |b| {
        b.iter(|| stream_repro::run_with(ExperimentId::Fig13, &Engine::new(1)))
    });
    g.bench_function("fig13_default_parallelism", |b| {
        let engine = Engine::with_default_parallelism();
        b.iter(|| stream_repro::run_with(ExperimentId::Fig13, &engine))
    });
    // A figure-15-shaped app cell on the functional path: CONV end to end
    // through the engine, bound by the interpreter.
    g.bench_function("fig15_functional_conv_cell", |b| {
        let engine = Engine::new(1);
        b.iter(|| {
            engine
                .map(vec![8usize], |c| {
                    stream_apps::conv::run_functional(&stream_apps::conv::Config::small(), c)
                        .0
                        .len()
                })
                .results
        })
    });
    // The raw engine without any compilation: dispatch overhead per job.
    g.bench_function("dispatch_256_trivial_jobs", |b| {
        let engine = Engine::new(4);
        b.iter(|| {
            engine
                .map((0u64..256).collect::<Vec<_>>(), |i| {
                    Shape::new(1 + (i % 128) as u32, 1 + (i % 10) as u32).clusters
                })
                .results
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cache, bench_sweep);
criterion_main!(benches);
