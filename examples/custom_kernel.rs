//! Build a custom media kernel with the IR builder, verify it functionally,
//! and watch its schedule change across machine configurations — the
//! complete "bring your own kernel" workflow.
//!
//! Run with: `cargo run --example custom_kernel`

use stream_ir::{execute, ExecConfig, KernelBuilder, Scalar, Ty};
use stream_scaling::machine::Machine;
use stream_scaling::vlsi::Shape;
use stream_sched::CompiledKernel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An alpha-blend kernel: out = a*src + (1-a)*dst, with a per-pixel
    // alpha stream — three inputs, one output, six ALU ops per pixel.
    let mut b = KernelBuilder::new("alpha_blend");
    let src_s = b.in_stream(Ty::F32);
    let dst_s = b.in_stream(Ty::F32);
    let alpha_s = b.in_stream(Ty::F32);
    let out_s = b.out_stream(Ty::F32);
    let src = b.read(src_s);
    let dst = b.read(dst_s);
    let alpha = b.read(alpha_s);
    let one = b.const_f(1.0);
    let inv = b.sub(one, alpha);
    let fore = b.mul(alpha, src);
    let back = b.mul(inv, dst);
    let blended = b.add(fore, back);
    b.write(out_s, blended);
    let kernel = b.finish()?;

    // Functional check against the obvious scalar loop.
    let n = 64;
    let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let dst: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
    let alpha: Vec<f32> = (0..n).map(|i| (i % 5) as f32 / 4.0).collect();
    let to_words = |v: &[f32]| v.iter().map(|&x| Scalar::F32(x)).collect::<Vec<_>>();
    let outs = execute(
        &kernel,
        &[],
        &[to_words(&src), to_words(&dst), to_words(&alpha)],
        &ExecConfig::with_clusters(8),
    )?;
    for i in 0..n {
        let want = alpha[i] * src[i] + (1.0 - alpha[i]) * dst[i];
        let got = outs[0][i].as_f32().expect("f32 output");
        assert!((got - want).abs() < 1e-5);
    }
    println!("functional check passed on {n} pixels");

    // The kernel body, one op per line with its scheduling class.
    println!("\n== kernel ==\n{}", kernel.dump());

    // Compile for a range of machines and report the schedule.
    println!(
        "{:<14} {:>4} {:>7} {:>7} {:>12} {:>14}",
        "machine", "II", "unroll", "stages", "elems/cycle", "GOPS @ 1 GHz"
    );
    for (c, n) in [(8u32, 2u32), (8, 5), (8, 10), (64, 5), (128, 10)] {
        let machine = Machine::paper(Shape::new(c, n));
        let compiled = CompiledKernel::compile_default(&kernel, &machine)?;
        println!(
            "{:<14} {:>4} {:>7} {:>7} {:>12.3} {:>14.1}",
            format!("C={c} N={n}"),
            compiled.ii(),
            compiled.unroll_factor(),
            compiled.stages(),
            compiled.elements_per_cycle(),
            compiled.alu_ops_per_cycle()
        );
    }

    // And the steady-state VLIW listing on the baseline machine.
    let baseline = Machine::baseline();
    let compiled = CompiledKernel::compile_default(&kernel, &baseline)?;
    println!(
        "\n== VLIW listing (C=8 N=5) ==\n{}",
        compiled.listing(&kernel, &baseline)
    );
    Ok(())
}
