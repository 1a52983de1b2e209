//! Extension experiments beyond the paper's tables and figures: the
//! bandwidth-hierarchy check (Section 2.2), the full-custom sensitivity
//! discussion (Section 4.3), the paper's proposed future work (sparse
//! crossbars), a software-pipelining ablation, and the dataset-scaling
//! claim of Section 5.3.

use crate::cells::App;
use crate::kernel_figs::FIG14_CS;
use crate::sweep::Ctx;
use crate::{ExperimentId, Report};
use stream_apps::{conv, depth, AppId};
use stream_kernels::KernelId;
use stream_machine::{BandwidthHierarchy, Machine, SystemParams};
use stream_sched::CompileOptions;
use stream_sim::simulate;
use stream_vlsi::{CostModel, ProcessNode, Projection, RegisterOrgComparison, Shape, TechParams};

/// The three-tier bandwidth hierarchy across the design space
/// (Section 2.2's 2.3/19.2/326.4 GB/s story, recomputed per machine).
pub fn bandwidth() -> Report {
    let sys = SystemParams::paper_2007();
    let mut r = Report::new(
        "bandwidth",
        "Data bandwidth hierarchy (GB/s at 1 GHz; memory : SRF : LRF)",
    )
    .with_headers([
        "machine",
        "memory",
        "SRF",
        "LRF",
        "SRF/mem",
        "LRF/SRF",
        "peak ops/mem word",
    ]);
    for shape in [
        Shape::new(8, 5),
        Shape::new(32, 5),
        Shape::new(128, 5),
        Shape::new(128, 10),
    ] {
        let m = Machine::paper(shape);
        let h = BandwidthHierarchy::compute(&m, &sys);
        r.row([
            shape.to_string(),
            format!("{:.1}", BandwidthHierarchy::gbps(h.memory_words, 1.0)),
            format!("{:.1}", BandwidthHierarchy::gbps(h.srf_words, 1.0)),
            format!("{:.1}", BandwidthHierarchy::gbps(h.lrf_words, 1.0)),
            format!("{:.1}x", h.srf_over_memory()),
            format!("{:.1}x", h.lrf_over_srf()),
            format!("{:.0}", h.ops_per_memory_word(&m)),
        ]);
    }
    r.note("Imagine (paper Section 2.2): 2.3 / 19.2 / 326.4 GB/s; applications need 57.9-473.3 ops/word");
    r
}

/// Full-custom methodology (20 FO4 clock): the paper argues relative
/// area/energy scaling is methodology-independent while communication
/// latencies in cycles grow.
pub fn full_custom() -> Report {
    let std_cell = CostModel::paper();
    let custom = CostModel::new(TechParams::full_custom());
    let mut r = Report::new(
        "full_custom",
        "Standard-cell (45 FO4) vs full-custom (20 FO4) methodology",
    )
    .with_headers(["metric", "std-cell", "full-custom"]);
    let ratio = |model: &CostModel, f: &dyn Fn(&CostModel, Shape) -> f64| -> f64 {
        f(model, Shape::HEADLINE_640) / f(model, Shape::BASELINE)
    };
    let area = |m: &CostModel, s: Shape| m.evaluate(s).area.per_alu();
    let energy = |m: &CostModel, s: Shape| m.evaluate(s).energy.per_alu_op();
    r.row([
        "area/ALU, C=128 N=5 vs C=8 N=5".to_string(),
        format!("{:.3}", ratio(&std_cell, &area)),
        format!("{:.3}", ratio(&custom, &area)),
    ]);
    r.row([
        "energy/op, C=128 N=5 vs C=8 N=5".to_string(),
        format!("{:.3}", ratio(&std_cell, &energy)),
        format!("{:.3}", ratio(&custom, &energy)),
    ]);
    for shape in [Shape::BASELINE, Shape::HEADLINE_640] {
        let ds = std_cell.evaluate(shape).delay;
        let dc = custom.evaluate(shape).delay;
        r.row([
            format!("COMM latency at {shape} (cycles)"),
            format!("{}", ds.intercluster_cycles()),
            format!("{}", dc.intercluster_cycles()),
        ]);
        r.row([
            format!("extra intracluster stages at {shape}"),
            format!("{}", ds.extra_intracluster_stages()),
            format!("{}", dc.extra_intracluster_stages()),
        ]);
    }
    r.note(
        "paper Section 4.3: similar relative results, higher latencies in cycles for full custom",
    );
    r
}

/// Sparse-crossbar ablation — the paper's proposed future work: how much
/// area/energy do non-fully-connected switches save at scale?
pub fn ablation_switch() -> Report {
    let mut r = Report::new(
        "ablation_switch",
        "Sparse crossbar ablation (C=128 N=10; relative to full crossbar)",
    )
    .with_headers(["density", "area/ALU", "energy/op", "switch area share"]);
    let shape = Shape::HEADLINE_1280;
    let full = CostModel::paper().evaluate(shape);
    for density in [1.0f64, 0.75, 0.5, 0.25] {
        let model = CostModel::new(TechParams::sparse_crossbar(density));
        let c = model.evaluate(shape);
        let switch_share = (c.area.intercluster_switch
            + shape.c() * c.area.cluster.intracluster_switch)
            / c.area.total();
        r.row([
            format!("{density:.2}"),
            format!("{:.3}", c.area.per_alu() / full.area.per_alu()),
            format!("{:.3}", c.energy.per_alu_op() / full.energy.per_alu_op()),
            format!("{:.1}%", switch_share * 100.0),
        ]);
    }
    r.note("paper conclusion: non-fully-connected crossbars are a path to higher efficiency");
    r
}

/// Software-pipelining ablation: kernel throughput with and without modulo
/// scheduling on the baseline machine.
pub(crate) fn ablation_swp_impl(ctx: &Ctx) -> Report {
    let machine = Machine::baseline();
    let mut r = Report::new(
        "ablation_swp",
        "Software pipelining ablation (C=8 N=5; elements/cycle/cluster)",
    )
    .with_headers(["kernel", "with SWP", "without SWP", "SWP gain"]);
    let no_swp = CompileOptions::new().without_software_pipelining();
    // One job per kernel; both compiles go through the shared cache (the
    // SWP build is the same schedule Figures 13/14 measure).
    let machine = &machine;
    let no_swp = &no_swp;
    let pairs = ctx.map(KernelId::ALL.to_vec(), |id| {
        let k = id.build(machine);
        let swp = ctx.scope.compile_default(&k, machine).expect("schedules");
        let flat = ctx.scope.compile(&k, machine, no_swp).expect("schedules");
        (
            swp.elements_per_cycle_per_cluster(),
            flat.elements_per_cycle_per_cluster(),
        )
    });
    for (id, (swp, flat)) in KernelId::ALL.iter().zip(pairs) {
        r.row([
            id.name().to_string(),
            format!("{swp:.3}"),
            format!("{flat:.3}"),
            format!("{:.1}x", swp / flat),
        ]);
    }
    r.note("Section 5.1 relies on software pipelining + unrolling to convert DLP into ILP");
    r
}

/// The software-pipelining ablation, on an engine sized to the host.
pub fn ablation_swp() -> Report {
    crate::run(ExperimentId::AblationSwp)
}

/// Section 5.3's closing claim: if dataset size scaled with machine size,
/// application speedups would track kernel speedups. Scales DEPTH's and
/// CONV's stream lengths (image width) with C and compares per-unit-work
/// speedups against the fixed-dataset runs.
pub(crate) fn scaled_datasets_impl(ctx: &Ctx) -> Report {
    let sys = SystemParams::paper_2007();
    let mut r = Report::new(
        "scaled_datasets",
        "Fixed vs machine-scaled datasets (speedup over C=8 N=5)",
    )
    .with_headers([
        "machine",
        "DEPTH fixed",
        "DEPTH scaled",
        "CONV fixed",
        "CONV scaled",
    ]);

    // Scaling the image *width* lengthens every stream a kernel call
    // consumes — exactly the short-stream remedy Section 5.3 describes
    // (scaling rows would only add more equally-short calls).
    let depth_at = |width: usize| {
        App::Depth(depth::Config {
            width,
            height: 384,
            disparities: 16,
        })
    };
    let conv_at = |width: usize| App::Conv(conv::Config { width, height: 384 });

    // One job per (machine, app, dataset) simulation; the C=8 fixed cells
    // double as the baselines (scale there is 1). The fixed cells are
    // Figure 15 cells, so a `repro all` run reads them from its memo.
    let cells: Vec<(u32, App)> = FIG14_CS
        .iter()
        .flat_map(|&c| {
            let scale = (c / 8) as usize;
            [
                depth_at(512),
                depth_at(512 * scale),
                conv_at(512),
                conv_at(512 * scale),
            ]
            .map(|app| (c, app))
        })
        .collect();
    let cycles = ctx.map(cells, |(c, app)| {
        ctx.cell(app, Shape::new(c, 5), &sys)
            .expect("simulates")
            .cycles
    });
    let base_depth = cycles[0];
    let base_conv = cycles[2];
    for (ci, &c) in FIG14_CS.iter().enumerate() {
        let scale = (c / 8) as usize;
        let at = |j: usize| cycles[ci * 4 + j];
        // Per-unit-work speedup for the scaled dataset: (work ratio) /
        // (time ratio).
        let depth_fixed = base_depth as f64 / at(0) as f64;
        let depth_scaled = scale as f64 * base_depth as f64 / at(1) as f64;
        let conv_fixed = base_conv as f64 / at(2) as f64;
        let conv_scaled = scale as f64 * base_conv as f64 / at(3) as f64;
        r.row([
            format!("C={c}"),
            format!("{depth_fixed:.1}x"),
            format!("{depth_scaled:.1}x"),
            format!("{conv_fixed:.1}x"),
            format!("{conv_scaled:.1}x"),
        ]);
    }
    r.note("paper: kernel scaling suggests larger application speedups if dataset size scaled with ALUs");
    r
}

/// The dataset-scaling comparison, on an engine sized to the host.
pub fn scaled_datasets() -> Report {
    crate::run(ExperimentId::ScaledDatasets)
}

/// Short-stream effects (Section 5.3 / Owens et al., reference 14): kernel call
/// efficiency (steady-state cycles / total call cycles) versus stream
/// length, per machine. As `C` grows, a fixed stream length covers fewer
/// loop iterations per call and the fixed overheads dominate.
pub(crate) fn short_streams_impl(ctx: &Ctx) -> Report {
    let mut r = Report::new(
        "short_streams",
        "Kernel call efficiency vs stream length (FFT kernel)",
    )
    .with_headers(["records", "C=8 N=5", "C=32 N=5", "C=128 N=5", "C=128 N=10"]);
    // One job per machine: compile the FFT kernel through the shared cache.
    let compiled = ctx.map(
        vec![(8u32, 5u32), (32, 5), (128, 5), (128, 10)],
        |(c, n)| {
            let m = Machine::paper(Shape::new(c, n));
            ctx.scope
                .compile_default(&KernelId::Fft.build(&m), &m)
                .expect("schedules")
        },
    );
    for records in [64u64, 256, 1024, 4096, 16384, 65536] {
        let mut row = vec![records.to_string()];
        for k in &compiled {
            let eff = k.inner_loop_cycles(records) as f64 / k.call_cycles(records) as f64;
            row.push(format!("{:.0}%", eff * 100.0));
        }
        r.row(row);
    }
    r.note("paper: with short streams a growing fraction of time goes to priming, prologue/epilogue and pipeline fill");
    r
}

/// The short-stream study, on an engine sized to the host.
pub fn short_streams() -> Report {
    crate::run(ExperimentId::ShortStreams)
}

/// The two FFT formulations: the local radix-4 kernel (partners gathered
/// into one record by SRF addressing) versus the radix-2 exchange kernel
/// (partners fetched over the intercluster switch). The exchange version
/// pays the pipelined COMM latency, which grows with the cluster grid —
/// the paper's FFT mixes both styles (Table 2: 40 comms per iteration).
pub(crate) fn fft_exchange_impl(ctx: &Ctx) -> Report {
    let mut r = Report::new(
        "fft_exchange",
        "FFT stage formulations: local gather vs intercluster exchange",
    )
    .with_headers([
        "machine",
        "COMM latency",
        "local: pts/cycle/cluster",
        "exchange: pts/cycle/cluster",
        "exchange penalty",
    ]);
    // One job per cluster count: both formulations compiled per machine.
    let rows = ctx.map(FIG14_CS.to_vec(), |c| {
        let machine = Machine::paper(Shape::new(c, 5));
        let local = ctx
            .scope
            .compile_default(&stream_kernels::fft::kernel(&machine), &machine)
            .expect("schedules");
        let exch = ctx
            .scope
            .compile_default(&stream_kernels::fft::exchange_kernel(&machine, 1), &machine)
            .expect("schedules");
        // Points per cycle: the radix-4 record covers four points, the
        // exchange record one.
        let local_pts = 4.0 * local.elements_per_cycle_per_cluster();
        let exch_pts = exch.elements_per_cycle_per_cluster();
        (
            machine.latency(stream_machine::OpClass::Comm),
            local_pts,
            exch_pts,
        )
    });
    for (&c, (comm, local_pts, exch_pts)) in FIG14_CS.iter().zip(rows) {
        r.row([
            format!("C={c} N=5"),
            format!("{comm}"),
            format!("{local_pts:.2}"),
            format!("{exch_pts:.2}"),
            format!("{:.1}x", local_pts / exch_pts),
        ]);
    }
    r.note("the local form leans on SRF gather bandwidth; the exchange form on the intercluster switch");
    r
}

/// The FFT formulation comparison, on an engine sized to the host.
pub fn fft_exchange() -> Report {
    crate::run(ExperimentId::FftExchange)
}

/// Register organization comparison (Section 3's "195 times less area, 430
/// times less energy" citation, re-derived with a consistent port-scaled
/// array model on both sides).
pub fn register_org() -> Report {
    let mut r = Report::new(
        "register_org",
        "Unified register file vs stream register organization",
    )
    .with_headers([
        "shape",
        "RF area ratio",
        "RF energy ratio",
        "incl. switch (area)",
        "incl. switch (energy)",
    ]);
    for shape in [
        Shape::new(8, 6),
        Shape::new(8, 5),
        Shape::new(32, 6),
        Shape::new(128, 10),
    ] {
        let cmp = RegisterOrgComparison::compute(shape, &TechParams::paper());
        r.row([
            shape.to_string(),
            format!("{:.0}x", cmp.area_ratio),
            format!("{:.0}x", cmp.energy_ratio),
            format!("{:.0}x", cmp.area_ratio_with_switch),
            format!("{:.1}x", cmp.energy_ratio_with_switch),
        ]);
    }
    r.note("paper (C=8 N=6, 48 ALUs): 195x less area, 430x less energy, 8% performance cost");
    r
}

/// Physical projection across the process roadmap — the paper's conclusion
/// quantified: peak TFLOPs, die area, and power per node.
pub fn projection() -> Report {
    let mut r = Report::new(
        "projection",
        "Process-node projection (Table 1 model de-normalized)",
    )
    .with_headers([
        "machine",
        "node",
        "clock",
        "peak GOPS",
        "die mm^2",
        "full-issue W",
        "W @ 20% activity",
    ]);
    for shape in [Shape::BASELINE, Shape::HEADLINE_640, Shape::HEADLINE_1280] {
        for node in ProcessNode::roadmap() {
            let p = Projection::compute(shape, &node);
            r.row([
                shape.to_string(),
                node.name.to_string(),
                format!("{:.2} GHz", p.clock_ghz),
                format!("{:.0}", p.peak_gops),
                format!("{:.0}", p.die_mm2),
                format!("{:.1}", p.full_activity_watts),
                format!("{:.1}", p.watts_at_activity(0.2)),
            ]);
        }
    }
    r.note("paper conclusion: by 2007 (45nm), 1280 ALUs reach >1 TFLOPs under 10 W (application-level activity)");
    r.note("Imagine sanity: the C=8 N=5 row at 180nm should look like the prototype (~0.25 GHz, a few W)");
    r
}

/// Memory access-pattern sensitivity (paper reference 17, memory access
/// scheduling): the same QRD program with its strip gathers treated as
/// sequential (a perfect access scheduler), strided (the default), and
/// random (no scheduling).
pub(crate) fn ablation_memory_impl(ctx: &Ctx) -> Report {
    use stream_sim::{AccessPattern, ProgramBuilder};
    let mut r = Report::new(
        "ablation_memory",
        "DRAM access-pattern sensitivity (one trailing-matrix sweep worth of traffic)",
    )
    .with_headers(["pattern", "cycles", "vs sequential"]);
    let machine = Machine::baseline();
    let sys = SystemParams::paper_2007();
    // A strip-sweep-shaped program: 32 strip loads + compute + stores.
    let kernel = ctx
        .scope
        .compile_default(&stream_apps::kernels::coldot(&machine), &machine)
        .expect("schedules");
    let machine = &machine;
    let sys = &sys;
    let kernel = &kernel;
    let patterns = [
        ("sequential", AccessPattern::Sequential),
        ("strided", AccessPattern::Strided),
        ("random", AccessPattern::Random),
    ];
    // One job per access pattern.
    let all_cycles = ctx.map(patterns.to_vec(), |(_, pattern)| {
        let mut p = ProgramBuilder::new();
        for _ in 0..32 {
            let strip = p.load_patterned(2048, pattern);
            let v = p.resident(256);
            let dots = p.kernel(kernel, &[strip, v], &[8], 256);
            p.store_patterned(dots[0], pattern);
        }
        simulate(&p.finish(), machine, sys)
            .expect("simulates")
            .cycles
    });
    let seq = all_cycles[0];
    for ((name, _), cycles) in patterns.iter().zip(all_cycles) {
        r.row([
            name.to_string(),
            cycles.to_string(),
            format!("{:.2}x", cycles as f64 / seq as f64),
        ]);
    }
    r.note("memory access scheduling is what keeps stream loads near the sequential row");
    r
}

/// The access-pattern ablation, on an engine sized to the host.
pub fn ablation_memory() -> Report {
    crate::run(ExperimentId::AblationMemory)
}

/// The paper's second future-work question: one big stream processor vs
/// several smaller ones on the same die. Cost side from the VLSI model
/// (M independent processors have no shared intercluster switch); the
/// performance side runs DEPTH partitioned across the processors (row
/// bands, shared memory bandwidth) and QRD pinned to one processor (its
/// reflector chain does not partition).
pub(crate) fn multiproc_impl(ctx: &Ctx) -> Report {
    let sys = SystemParams::paper_2007();
    let mut r = Report::new(
        "multiproc",
        "One big processor vs M smaller ones (640 ALUs total, N=5)",
    )
    .with_headers([
        "config",
        "area/ALU",
        "energy/op",
        "COMM cycles",
        "DEPTH speedup",
        "QRD speedup",
    ]);
    let mono = CostModel::paper().evaluate(Shape::new(128, 5));
    let sys = &sys;
    let app_cycles = |app: App, shape: Shape, sys: &SystemParams| -> u64 {
        ctx.cell(app, shape, sys).expect("simulates").cycles
    };
    // The bases, the QRD column and DEPTH on one processor are Figure 15
    // cells, so a `repro all` run reads them from its memo.
    let bases = ctx.map(vec![AppId::Depth, AppId::Qrd], |id| {
        app_cycles(id.into(), Shape::BASELINE, sys)
    });
    let (base_depth, base_qrd) = (bases[0], bases[1]);

    // One job per processor count M.
    let rows = ctx.map(vec![1u32, 2, 4, 8, 16], |m| {
        let shape = Shape::new(128 / m, 5);
        // Shared memory: each processor sees 1/M of the channel.
        let shared = SystemParams {
            memory_words_per_cycle: sys.memory_words_per_cycle / f64::from(m),
            ..sys.clone()
        };
        // DEPTH partitions by rows; every processor runs height/M of it.
        let rows = 384 / m as usize;
        let cfg = depth::Config {
            width: 512,
            height: rows.max(8),
            disparities: 16,
        };
        let part = app_cycles(App::Depth(cfg), shape, &shared);
        // QRD stays on one processor (full memory bandwidth, smaller array).
        let q = app_cycles(App::Qrd, shape, sys);
        (m, part, q)
    });
    for (m, part, q) in rows {
        let c = 128 / m;
        let cost = CostModel::paper().evaluate(Shape::new(c, 5));
        let machine = Machine::paper(Shape::new(c, 5));
        let depth_speedup = base_depth as f64 / part as f64;
        let qrd_speedup = base_qrd as f64 / q as f64;
        r.row([
            format!("{m} x C={c}"),
            format!(
                "{:.3}",
                f64::from(m) * cost.area.total()
                    / (128.0 * 5.0)
                    / (mono.area.total() / (128.0 * 5.0))
            ),
            format!("{:.3}", cost.energy.per_alu_op() / mono.energy.per_alu_op()),
            format!("{}", machine.intercluster_cycles()),
            format!("{depth_speedup:.1}x"),
            format!("{qrd_speedup:.1}x"),
        ]);
    }
    r.note("paper conclusion poses this comparison as future work; partitionable apps keep their speedup on M smaller processors (cheaper switches), serial-chain apps lose it");
    r
}

/// The multiprocessor comparison, on an engine sized to the host.
pub fn multiproc() -> Report {
    crate::run(ExperimentId::Multiproc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_patterns_order_correctly() {
        let r = ablation_memory();
        let at = |i: usize| -> f64 { r.rows[i][2].trim_end_matches('x').parse().unwrap() };
        assert_eq!(at(0), 1.0);
        assert!(at(1) >= at(0));
        assert!(at(2) > at(1));
    }

    #[test]
    fn multiproc_trades_partitionability_for_switch_cost() {
        let r = multiproc();
        assert_eq!(r.rows.len(), 5);
        let qrd = |i: usize| -> f64 { r.rows[i][5].trim_end_matches('x').parse().unwrap() };
        // QRD on one of 16 small processors is slower than on the big one.
        assert!(qrd(4) < qrd(0));
        // Per-ALU area of many small processors is not worse than the
        // monolith beyond a few percent (no giant intercluster switch).
        let area16: f64 = r.rows[4][1].parse().unwrap();
        assert!(area16 < 1.1);
    }

    #[test]
    fn projection_covers_roadmap() {
        let r = projection();
        assert_eq!(r.rows.len(), 12);
        // The 1280-ALU 45nm row is the paper's conclusion.
        let row = r
            .rows
            .iter()
            .find(|row| row[0] == "C=128 N=10" && row[1] == "45nm")
            .unwrap();
        let gops: f64 = row[3].parse().unwrap();
        assert!(gops > 1000.0);
    }

    #[test]
    fn bandwidth_hierarchy_report() {
        let r = bandwidth();
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn full_custom_needs_stages_at_baseline() {
        let r = full_custom();
        // 20 FO4 cycle: even the N=5 cluster needs an extra stage.
        let row = r
            .rows
            .iter()
            .find(|row| row[0].contains("extra intracluster stages at C=8"))
            .unwrap();
        assert_eq!(row[1], "0");
        assert_ne!(row[2], "0");
    }

    #[test]
    fn sparse_crossbars_save_area_and_energy() {
        let r = ablation_switch();
        let area_at = |i: usize| -> f64 { r.rows[i][1].parse().unwrap() };
        let energy_at = |i: usize| -> f64 { r.rows[i][2].parse().unwrap() };
        assert_eq!(area_at(0), 1.0);
        assert!(area_at(3) < area_at(0));
        assert!(energy_at(3) < energy_at(0));
    }

    #[test]
    fn swp_ablation_shows_multi_x_gains() {
        let r = ablation_swp();
        for row in &r.rows {
            let gain: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(gain >= 1.0, "{}: SWP gain {gain}", row[0]);
        }
        // At least one kernel gains more than 2x from SWP.
        let best: f64 = r
            .rows
            .iter()
            .map(|row| row[3].trim_end_matches('x').parse::<f64>().unwrap())
            .fold(0.0, f64::max);
        assert!(best > 2.0, "best SWP gain {best}");
    }
}
