//! Quickstart: evaluate the VLSI cost model, compile a kernel, and time an
//! application — the three layers of the library in ~60 lines.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;
use stream_ir::{KernelBuilder, Ty};
use stream_scaling::machine::{Machine, SystemParams};
use stream_scaling::vlsi::{CostModel, Shape};
use stream_sched::CompiledKernel;
use stream_sim::{simulate, ProgramBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. VLSI cost model (paper Section 3): how much does a 640-ALU stream
    //    processor cost relative to today's 40-ALU machine?
    let model = CostModel::paper();
    let base = model.evaluate(Shape::BASELINE); // C=8,  N=5
    let big = model.evaluate(Shape::HEADLINE_640); // C=128, N=5
    println!(
        "== VLSI scaling: {} -> {} ==",
        Shape::BASELINE,
        Shape::HEADLINE_640
    );
    println!(
        "area per ALU:   {:+.1}%",
        (big.area.per_alu() / base.area.per_alu() - 1.0) * 100.0
    );
    println!(
        "energy per op:  {:+.1}%",
        (big.energy.per_alu_op() / base.energy.per_alu_op() - 1.0) * 100.0
    );
    println!(
        "COMM latency:   {} -> {} cycles",
        base.delay.intercluster_cycles(),
        big.delay.intercluster_cycles()
    );

    // 2. Write a kernel (KernelC-equivalent) and compile it for both
    //    machines (paper Section 5.1).
    let mut b = KernelBuilder::new("saxpy");
    let xs = b.in_stream(Ty::F32);
    let ys = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    let a = b.param(Ty::F32);
    let x = b.read(xs);
    let y = b.read(ys);
    let ax = b.mul(a, x);
    let r = b.add(ax, y);
    b.write(out, r);
    let kernel = b.finish()?;

    println!("\n== kernel compilation ==");
    let mut compiled = None;
    for shape in [Shape::BASELINE, Shape::HEADLINE_640] {
        let machine = Machine::paper(shape);
        let c = CompiledKernel::compile_default(&kernel, &machine)?;
        println!("{shape}: {c}");
        compiled = Some((machine, c));
    }

    // 3. Time a whole stream program on the big machine (paper Section 5.3).
    let (machine, c) = compiled.expect("compiled above");
    let n = 1 << 16;
    let mut p = ProgramBuilder::new();
    let x_stream = p.load(n);
    let y_stream = p.load(n);
    let outs = p.kernel(&Arc::new(c), &[x_stream, y_stream], &[n], n);
    p.store(outs[0]);
    let report = simulate(&p.finish(), &machine, &SystemParams::paper_2007())?;
    println!("\n== stream program on {} ==", machine);
    println!(
        "{} cycles, {:.1} GOPS sustained, {:.0}% cluster utilization",
        report.cycles,
        report.gops(1.0),
        report.cluster_utilization() * 100.0
    );
    Ok(())
}
