//! Property-based tests over the kernel suite: functional correctness at
//! arbitrary SIMD widths and dataset sizes, and structural invariants of
//! the per-machine builds.

use proptest::prelude::*;
use stream_ir::{execute, ExecConfig};
use stream_kernels::{blocksad, convolve, dct, fft, irast, noise, update, KernelId};
use stream_machine::Machine;
use stream_vlsi::Shape;

fn pow2_clusters() -> impl Strategy<Value = u32> {
    prop_oneof![Just(2u32), Just(4), Just(8), Just(16), Just(32)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocksad matches its reference bit-for-bit at any width/size.
    #[test]
    fn blocksad_matches_reference(
        clusters in pow2_clusters(),
        strips in 1usize..6,
        seed in 1u32..5000,
    ) {
        let machine = Machine::paper(Shape::new(clusters, 5));
        let k = blocksad::kernel(&machine);
        let cols = clusters as usize * strips;
        let (left, right) = blocksad::sample_inputs(cols, seed);
        let outs = execute(
            &k,
            &[],
            &blocksad::input_streams(&left, &right),
            &ExecConfig::with_clusters(clusters as usize),
        )
        .unwrap();
        let got: Vec<i32> = outs[0].iter().map(|w| w.as_i32().unwrap()).collect();
        prop_assert_eq!(got, blocksad::reference(&left, &right, clusters as usize));
    }

    /// Convolve matches its reference to float tolerance at any width.
    #[test]
    fn convolve_matches_reference(
        clusters in pow2_clusters(),
        strips in 1usize..5,
        seed in 1u32..5000,
    ) {
        let machine = Machine::paper(Shape::new(clusters, 5));
        let k = convolve::kernel(&machine);
        let taps = convolve::Taps::gaussian();
        let cols = clusters as usize * strips;
        let rows = convolve::sample_rows(cols, seed);
        let outs = execute(
            &k,
            &convolve::params(&taps),
            &convolve::input_streams(&rows),
            &ExecConfig::with_clusters(clusters as usize),
        )
        .unwrap();
        let (smooth, edge) = convolve::reference(&rows, &taps, clusters as usize);
        for (i, want) in smooth.iter().enumerate() {
            let got = outs[0][i].as_f32().unwrap();
            prop_assert!((got - want).abs() < 1e-3 * (1.0 + want.abs()));
        }
        for (i, want) in edge.iter().enumerate() {
            let got = outs[1][i].as_f32().unwrap();
            prop_assert!((got - want).abs() < 1e-3 * (1.0 + want.abs()));
        }
    }

    /// Irast produces exactly the reference fragment sequence.
    #[test]
    fn irast_matches_reference(
        clusters in pow2_clusters(),
        strips in 1usize..6,
        seed in 1u32..5000,
    ) {
        let machine = Machine::paper(Shape::new(clusters, 5));
        let k = irast::kernel(&machine);
        let spans = irast::sample_spans(clusters as usize * strips, seed);
        let outs = execute(
            &k,
            &[],
            &irast::input_streams(&spans),
            &ExecConfig::with_clusters(clusters as usize),
        )
        .unwrap();
        let want = irast::reference(&spans, clusters as usize);
        prop_assert_eq!(outs[0].len(), want.len());
        for (i, f) in want.iter().enumerate() {
            prop_assert_eq!(outs[0][i].as_i32().unwrap(), f.packed);
            prop_assert_eq!(outs[1][i].as_f32().unwrap(), f.z);
        }
    }

    /// The DCT preserves energy (orthonormal) for arbitrary blocks.
    #[test]
    fn dct_preserves_energy(count in 1usize..4, seed in 1u32..5000) {
        let blocks = dct::sample_blocks(count * 8, seed);
        let out = dct::reference(&blocks);
        for (b, o) in blocks.chunks(dct::BLOCK).zip(out.chunks(dct::BLOCK)) {
            let eb: f32 = b.iter().map(|x| x * x).sum();
            let eo: f32 = o.iter().map(|x| x * x).sum();
            prop_assert!((eb - eo).abs() < 2e-2 * (1.0 + eb));
        }
    }

    /// Update is a contraction toward the Householder reflection: applying
    /// it twice with the same unit v and tau=2 gives back the original
    /// (H is an involution).
    #[test]
    fn householder_is_an_involution(seed in 1u32..5000) {
        let clusters = 8usize;
        let (a, mut v, _, _scale) = update::sample_inputs(2, clusters, seed);
        // Normalize v per column so H = I - 2 v v^T is orthogonal.
        let height = update::SEG * clusters;
        for col in v.chunks_mut(height) {
            let norm: f32 = col.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in col.iter_mut() {
                *x /= norm;
            }
        }
        let ones = vec![1.0f32; update::SCALE_TABLE];
        let once = update::reference(&a, &v, 2.0, &ones, clusters, 2);
        let twice = update::reference(&once, &v, 2.0, &ones, clusters, 2);
        for (x, y) in a.iter().zip(&twice) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    /// The noise kernel's output is bounded in [0, 1] for any coordinates.
    #[test]
    fn noise_reference_is_bounded(seed in 1u32..5000, count in 1usize..64) {
        let (xs, ys) = noise::sample_coords(count, seed);
        for v in noise::reference(&xs, &ys) {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    /// FFT of a pure tone concentrates energy in the right bin.
    #[test]
    fn fft_localizes_pure_tones(bin in 0usize..16) {
        let n = 16usize;
        let input: Vec<fft::C32> = (0..n)
            .map(|i| {
                let theta = 2.0 * std::f32::consts::PI * (bin * i) as f32 / n as f32;
                (theta.cos(), theta.sin())
            })
            .collect();
        let spec = fft::fft_reference(&input);
        for (k, &(re, im)) in spec.iter().enumerate() {
            let mag = (re * re + im * im).sqrt();
            if k == bin {
                prop_assert!((mag - n as f32).abs() < 0.1, "bin {k}: {mag}");
            } else {
                prop_assert!(mag < 0.1, "leak at {k}: {mag}");
            }
        }
    }

    /// Every suite kernel builds with consistent stream declarations on
    /// every power-of-two machine.
    #[test]
    fn suite_builds_are_structurally_consistent(
        clusters in pow2_clusters(),
        n in prop_oneof![Just(2u32), Just(5), Just(10), Just(14)],
    ) {
        let machine = Machine::paper(Shape::new(clusters, n));
        for id in KernelId::ALL {
            let k = id.build(&machine);
            // Stream budget: all input+output streams fit the cluster SBs.
            let total = k.inputs().len() + k.outputs().len();
            prop_assert!(
                total <= machine.derived().cluster_sbs as usize,
                "{id} uses {total} streams"
            );
            prop_assert!(k.sp_words() <= 256, "{id} scratchpad");
        }
    }
}
