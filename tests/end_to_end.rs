//! Cross-crate integration tests: the full pipeline from kernel source to
//! simulated application, exercised the way a user of the library would.

use std::sync::Arc;
use stream_scaling::apps::{self, AppId};
use stream_scaling::ir::{execute, ExecConfig, KernelBuilder, Scalar, Ty};
use stream_scaling::kernels::KernelId;
use stream_scaling::machine::{Machine, SystemParams};
use stream_scaling::sched::CompiledKernel;
use stream_scaling::sim::{simulate, ProgramBuilder};
use stream_scaling::vlsi::Shape;

/// Build a kernel, verify it functionally, compile it, wrap it in a stream
/// program, and simulate — the quickstart path end to end.
#[test]
fn write_verify_compile_simulate() {
    let mut b = KernelBuilder::new("gain_offset");
    let s = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    let gain = b.param(Ty::F32);
    let offset = b.param(Ty::F32);
    let x = b.read(s);
    let gx = b.mul(gain, x);
    let y = b.add(gx, offset);
    b.write(out, y);
    let kernel = b.finish().expect("valid kernel");

    // Functional.
    let input: Vec<Scalar> = (0..64).map(|i| Scalar::F32(i as f32)).collect();
    let outs = execute(
        &kernel,
        &[Scalar::F32(2.0), Scalar::F32(1.0)],
        &[input],
        &ExecConfig::with_clusters(8),
    )
    .expect("executes");
    assert_eq!(outs[0][10], Scalar::F32(21.0));

    // Compile and simulate on three machines.
    let sys = SystemParams::paper_2007();
    let mut last_cycles = u64::MAX;
    for shape in [Shape::new(8, 5), Shape::new(32, 5), Shape::new(128, 10)] {
        let machine = Machine::paper(shape);
        let compiled =
            Arc::new(CompiledKernel::compile_default(&kernel, &machine).expect("schedules"));
        // Sized so input + output fit the baseline machine's 44k-word SRF.
        let n = 1 << 14;
        let mut p = ProgramBuilder::new();
        let data = p.load(n);
        let o = p.kernel(&compiled, &[data], &[n], n);
        p.store(o[0]);
        let r = simulate(&p.finish(), &machine, &sys).expect("simulates");
        assert!(r.cycles > 0);
        assert!(r.cycles <= last_cycles, "bigger machine slower at {shape}");
        last_cycles = r.cycles;
    }
}

/// Every suite kernel compiles on every Figure 13/14 machine and its
/// inner-loop rate never decreases when clusters are added.
#[test]
fn suite_kernels_compile_everywhere_and_scale() {
    for id in KernelId::ALL {
        let mut last = 0.0f64;
        for &c in &[8u32, 16, 32, 64, 128] {
            let machine = Machine::paper(Shape::new(c, 5));
            let compiled = CompiledKernel::compile_default(&id.build(&machine), &machine)
                .unwrap_or_else(|e| panic!("{id} at C={c}: {e}"));
            let rate = compiled.elements_per_cycle();
            assert!(rate >= last, "{id}: rate dropped at C={c}");
            last = rate;
        }
    }
}

/// Functional application results match their scalar references at small
/// scale on two different SIMD widths.
#[test]
fn applications_verify_functionally() {
    // CONV
    let cfg = apps::conv::Config::small();
    let (s, e) = apps::conv::run_functional(&cfg, 8);
    let (rs, re) = apps::conv::reference(&cfg, 8);
    assert_eq!(s.len(), rs.len());
    for i in 0..s.len() {
        assert!((s[i] - rs[i]).abs() < 1e-3 * (1.0 + rs[i].abs()));
        assert!((e[i] - re[i]).abs() < 1e-3 * (1.0 + re[i].abs()));
    }
    // DEPTH (bit exact, integer)
    let cfg = apps::depth::Config::small();
    assert_eq!(
        apps::depth::run_functional(&cfg, 8),
        apps::depth::reference(&cfg, 8)
    );
    // RENDER
    let cfg = apps::render::Config::small();
    let got = apps::render::run_functional(&cfg, 4);
    let want = apps::render::reference(&cfg, 4);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-3 * (1.0 + w.abs()));
    }
}

/// All six paper-scale applications simulate on the paper's extreme
/// machines, and the cluster array is the busiest resource on at least the
/// compute-bound ones.
#[test]
fn paper_scale_apps_simulate_on_extremes() {
    let sys = SystemParams::paper_2007();
    for shape in [Shape::BASELINE, Shape::HEADLINE_1280] {
        let machine = Machine::paper(shape);
        for id in AppId::ALL {
            let app = id.program(&machine);
            let r = simulate(&app.program, &machine, &sys)
                .unwrap_or_else(|e| panic!("{id} at {shape}: {e}"));
            assert!(r.cycles > 0);
            assert!(r.peak_srf_words <= machine.srf_total_words());
        }
    }
    // DEPTH on the baseline is kernel-bound.
    let m = Machine::baseline();
    let r = simulate(&AppId::Depth.program(&m).program, &m, &sys).unwrap();
    assert!(r.cluster_utilization() > 0.8);
}

/// The QRD pipeline is numerically sound end to end: R reproduces the f64
/// reference and annihilates the subdiagonal.
#[test]
fn qrd_numerics_hold_up() {
    let cfg = apps::qrd::Config { rows: 24, cols: 16 };
    let got = apps::qrd::run_functional(&cfg, 4);
    let want = apps::qrd::reference(&cfg);
    for k in 0..cfg.cols {
        for r in 0..=k.min(cfg.rows - 1) {
            let g = f64::from(got[k][r]);
            assert!(
                (g - want[k][r]).abs() < 2e-2 * (1.0 + want[k][r].abs()),
                "R[{r},{k}]"
            );
        }
        for (r, v) in got[k].iter().enumerate().skip(k + 1) {
            assert!(v.abs() < 1e-2, "subdiagonal [{r},{k}]");
        }
    }
}

/// Machine elaboration is consistent with the cost model it embeds.
#[test]
fn machine_and_cost_model_agree() {
    for shape in [Shape::new(8, 5), Shape::new(64, 10), Shape::new(128, 14)] {
        let machine = Machine::paper(shape);
        let cost = machine.cost();
        assert_eq!(cost.shape(), shape);
        assert_eq!(
            machine.intercluster_cycles(),
            cost.delay.intercluster_cycles()
        );
        assert_eq!(
            machine.extra_intracluster_stages(),
            cost.delay.extra_intracluster_stages()
        );
    }
}
