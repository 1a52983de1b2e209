//! Section 5.3 reproductions: Figure 15 (application performance) and the
//! abstract's headline claims.

use crate::cells::Cell;
use crate::kernel_figs::FIG14_CS;
use crate::sweep::Ctx;
use crate::{ExperimentId, Report};
use stream_apps::AppId;
use stream_kernels::KernelId;
use stream_machine::{Machine, SystemParams};
use stream_vlsi::Shape;

/// The paper-dataset cell of `id` at `shape` under the paper's system.
fn paper_cell(ctx: &Ctx, id: AppId, shape: Shape) -> Cell {
    ctx.cell(id, shape, &SystemParams::paper_2007())
        .expect("paper-scale programs fit their machines")
}

fn harmonic_mean(values: &[f64]) -> f64 {
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// Figure 15: application speedups over the `C=8 N=5` baseline, with GOPS
/// annotations, across cluster counts at `N = 5` and at the `N = 10`
/// configurations the paper highlights.
pub(crate) fn fig15_impl(ctx: &Ctx) -> Report {
    let mut r = Report::new(
        "fig15",
        "Application Performance (speedup over C=8 N=5; GOPS in parentheses)",
    )
    .with_headers([
        "app",
        "C=8",
        "C=16",
        "C=32",
        "C=64",
        "C=128",
        "C=128 N=2",
        "C=128 N=10",
        "C=128 N=14",
        "paper C128N10",
    ]);
    // One sweep job per (app, shape) cell; the C=8 column doubles as the
    // speedup baseline.
    let shapes: Vec<Shape> = FIG14_CS
        .iter()
        .map(|&c| Shape::new(c, 5))
        .chain([2u32, 10, 14].map(|n| Shape::new(128, n)))
        .collect();
    let cells: Vec<(AppId, Shape)> = AppId::ALL
        .iter()
        .flat_map(|&id| shapes.iter().map(move |&s| (id, s)))
        .collect();
    let sims = ctx.map(cells, |(id, shape)| paper_cell(ctx, id, shape));
    let mut big_speedups = Vec::new();
    for (ai, id) in AppId::ALL.iter().enumerate() {
        let base_cycles = sims[ai * shapes.len()].cycles;
        let mut row = vec![id.name().to_string()];
        for (si, shape) in shapes.iter().enumerate() {
            let sim = sims[ai * shapes.len() + si];
            let speedup = base_cycles as f64 / sim.cycles as f64;
            let gops = sim.gops(1.0);
            if *shape == Shape::new(128, 10) {
                big_speedups.push(speedup);
            }
            row.push(format!("{speedup:.1} ({gops:.0})"));
        }
        let (pb, pg, px) = id.paper_fig15();
        row.push(format!("{px:.1} ({pb:.0}->{pg:.0})"));
        r.row(row);
    }
    let mut hm_row = vec!["Harmonic Mean".to_string()];
    hm_row.extend(std::iter::repeat_n(String::new(), 6));
    hm_row.push(format!("{:.1}", harmonic_mean(&big_speedups)));
    hm_row.push(String::new());
    hm_row.push("10.4".to_string());
    r.row(hm_row);
    r.note("paper: RENDER/DEPTH/CONV scale well; QRD and FFT1K poorly beyond C=32; FFT4K beats FFT1K at scale");
    r
}

/// Figure 15, on an engine sized to the host.
pub fn fig15() -> Report {
    crate::run(ExperimentId::Fig15)
}

/// The abstract's headline claims vs this reproduction.
pub(crate) fn headline_impl(ctx: &Ctx) -> Report {
    let model = stream_vlsi::CostModel::paper();
    let base = model.evaluate(Shape::BASELINE);
    let big = model.evaluate(Shape::HEADLINE_640);
    let area = big.area.per_alu() / base.area.per_alu() - 1.0;
    let energy = big.energy.per_alu_op() / base.energy.per_alu_op() - 1.0;

    let shapes = [Shape::BASELINE, Shape::HEADLINE_640, Shape::HEADLINE_1280];

    // One job per (kernel, shape): machine-wide throughput and ALU
    // ops/cycle, compiled through the shared cache.
    let kernel_cells: Vec<(KernelId, Shape)> = KernelId::ALL
        .iter()
        .flat_map(|&id| shapes.iter().map(move |&s| (id, s)))
        .collect();
    let kernel_vals = ctx.map(kernel_cells, |(id, shape)| {
        let m = Machine::paper(shape);
        let k = ctx
            .scope
            .compile_default(&id.build(&m), &m)
            .expect("suite kernels schedule on all paper machines");
        (k.elements_per_cycle(), k.alu_ops_per_cycle())
    });
    let kernel_at = |ki: usize, si: usize| kernel_vals[ki * shapes.len() + si];
    let kernel_speedup = |si: usize| -> f64 {
        let vals: Vec<f64> = (0..KernelId::ALL.len())
            .map(|ki| kernel_at(ki, si).0 / kernel_at(ki, 0).0)
            .collect();
        harmonic_mean(&vals)
    };
    let k640 = kernel_speedup(1);
    let k1280 = kernel_speedup(2);

    // One job per (app, shape): simulated cycle count.
    let app_cells: Vec<(AppId, Shape)> = AppId::ALL
        .iter()
        .flat_map(|&id| shapes.iter().map(move |&s| (id, s)))
        .collect();
    let app_cycles = ctx.map(app_cells, |(id, shape)| paper_cell(ctx, id, shape).cycles);
    let app_speedup = |si: usize| -> f64 {
        let vals: Vec<f64> = (0..AppId::ALL.len())
            .map(|ai| {
                app_cycles[ai * shapes.len()] as f64 / app_cycles[ai * shapes.len() + si] as f64
            })
            .collect();
        harmonic_mean(&vals)
    };
    let a640 = app_speedup(1);
    let a1280 = app_speedup(2);

    // Sustained kernel GOPS on the 640-ALU machine (best kernel).
    let gops640: f64 = (0..KernelId::ALL.len())
        .map(|ki| kernel_at(ki, 1).1)
        .fold(0.0f64, f64::max);

    let mut r = Report::new("headline", "Abstract claims vs reproduction")
        .with_headers(["claim", "paper", "measured"]);
    r.row([
        "640-ALU area per ALU vs 40-ALU".to_string(),
        "+2%".to_string(),
        format!("{:+.1}%", area * 100.0),
    ]);
    r.row([
        "640-ALU energy per ALU op vs 40-ALU".to_string(),
        "+7%".to_string(),
        format!("{:+.1}%", energy * 100.0),
    ]);
    r.row([
        "640-ALU kernel speedup (HM)".to_string(),
        "15.3x".to_string(),
        format!("{k640:.1}x"),
    ]);
    r.row([
        "640-ALU application speedup (HM)".to_string(),
        "8.0x".to_string(),
        format!("{a640:.1}x"),
    ]);
    r.row([
        "1280-ALU kernel speedup (HM)".to_string(),
        "27.9x".to_string(),
        format!("{k1280:.1}x"),
    ]);
    r.row([
        "1280-ALU application speedup (HM)".to_string(),
        "10.0x".to_string(),
        format!("{a1280:.1}x"),
    ]);
    r.row([
        "640-ALU peak kernel GOPS (best kernel)".to_string(),
        ">300".to_string(),
        format!("{gops640:.0}"),
    ]);
    r
}

/// The headline report, on an engine sized to the host.
pub fn headline() -> Report {
    crate::run(ExperimentId::Headline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_reports_all_apps() {
        let r = fig15();
        assert_eq!(r.rows.len(), 7); // 6 apps + harmonic mean
                                     // RENDER (well-scaling) speedup at C=128 N=10 should exceed QRD's.
        let find = |name: &str| -> f64 {
            let row = r.rows.iter().find(|row| row[0] == name).unwrap();
            row[7].split_whitespace().next().unwrap().parse().unwrap()
        };
        assert!(find("RENDER") > find("QRD"));
        assert!(find("FFT4K") > find("FFT1K"));
    }

    #[test]
    fn headline_directionally_matches() {
        let r = headline();
        let measured = |i: usize| -> f64 {
            r.rows[i][2]
                .trim_end_matches(['%', 'x'])
                .trim_start_matches('+')
                .parse()
                .unwrap()
        };
        assert!(measured(0) < 8.0); // area overhead small
        assert!(measured(1) < 13.0); // energy overhead small
        assert!(measured(2) > 10.0); // 640-ALU kernel speedup double digit
        assert!(measured(4) > measured(2)); // 1280 beats 640 on kernels
    }
}
