//! Property-based tests (proptest) over the core invariants:
//! schedule legality, unroll semantics, stream scatter/gather, FFT
//! mathematics, kernel fingerprints, and an interpreter that is
//! deterministic and never panics.

use proptest::prelude::*;
use stream_scaling::grid::KernelCache;
use stream_scaling::ir::{
    execute, execute_with, unroll, ExecConfig, ExecOptions, Kernel, KernelBuilder, Scalar, Ty,
    ValueId,
};
use stream_scaling::kernels::fft::{dft_reference, fft_reference, C32};
use stream_scaling::kernels::split::{gather_words, max_chain, scatter_words, split_plan};
use stream_scaling::machine::Machine;
use stream_scaling::sched::{
    check_schedule, modulo_schedule, CompileOptions, CompiledKernel, Ddg, MiiBounds,
};
use stream_scaling::vlsi::Shape;

/// Builds a random elementwise kernel from a byte script: two input
/// streams, a chain of arithmetic ops over previously defined values, one
/// output.
fn elementwise_kernel(script: &[u8]) -> Kernel {
    let mut b = KernelBuilder::new("random_elementwise");
    let s0 = b.in_stream(Ty::F32);
    let s1 = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    let mut vals: Vec<ValueId> = vec![b.read(s0), b.read(s1)];
    for (i, &op) in script.iter().enumerate() {
        let a = vals[(op as usize / 7) % vals.len()];
        let c = vals[(op as usize / 3) % vals.len()];
        let v = match op % 6 {
            0 => b.add(a, c),
            1 => b.sub(a, c),
            2 => b.mul(a, c),
            3 => b.min(a, c),
            4 => b.max(a, c),
            _ => {
                let k = b.const_f(1.0 + (i as f32));
                b.add(a, k)
            }
        };
        vals.push(v);
    }
    let last = *vals.last().expect("nonempty");
    b.write(out, last);
    b.finish().expect("structurally valid")
}

/// A random kernel with loop-carried and memory structure, for scheduler
/// stress: recurrences, scratchpad traffic, COMM ops.
fn structured_kernel(script: &[u8], clusters: u32) -> Kernel {
    let mut b = KernelBuilder::new("random_structured");
    let s0 = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    b.require_sp(8);
    let acc = b.recurrence(Scalar::F32(0.0));
    let mut vals: Vec<ValueId> = vec![b.read(s0), acc];
    for &op in script {
        let a = vals[(op as usize / 5) % vals.len()];
        let c = vals[(op as usize / 11) % vals.len()];
        let v = match op % 8 {
            0 => b.add(a, c),
            1 => b.mul(a, c),
            2 => b.sub(a, c),
            3 => {
                let addr = b.const_i(i32::from(op % 8));
                b.sp_write(addr, a);
                b.sp_read(addr, Ty::F32)
            }
            4 => {
                let cid = b.cluster_id();
                let mask = b.const_i(clusters as i32 - 1);
                let one = b.const_i(1);
                let next = b.add(cid, one);
                let src = b.and(next, mask);
                b.comm(a, src)
            }
            5 => b.min(a, c),
            6 => b.max(a, c),
            _ => {
                let k = b.const_f(0.5);
                b.mul(a, k)
            }
        };
        vals.push(v);
    }
    let last = *vals.last().expect("nonempty");
    let next_acc = b.add(last, last);
    b.bind_next(acc, next_acc);
    b.write(out, next_acc);
    b.finish().expect("structurally valid")
}

/// A random kernel exercising conditional streams: a data-dependent
/// predicate gates a conditional input read and a conditional output
/// write, so output length varies with the data.
fn condstream_kernel(script: &[u8]) -> Kernel {
    let mut b = KernelBuilder::new("random_condstream");
    let s0 = b.in_stream(Ty::I32);
    let s1 = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    let x = b.read(s0);
    let one = b.const_i(1);
    let pred = b.and(x, one);
    let y = b.cond_read(s1, pred);
    let mut vals: Vec<ValueId> = vec![x, y, pred];
    for &op in script {
        let a = vals[(op as usize / 7) % vals.len()];
        let c = vals[(op as usize / 3) % vals.len()];
        let v = match op % 6 {
            0 => b.add(a, c),
            1 => b.sub(a, c),
            2 => b.mul(a, c),
            3 => b.xor(a, c),
            4 => b.min(a, c),
            _ => b.max(a, c),
        };
        vals.push(v);
    }
    let last = *vals.last().expect("nonempty");
    b.cond_write(out, pred, last);
    b.finish().expect("structurally valid")
}

/// A random kernel whose scratchpad addresses and COMM sources are words
/// of an `I32` input stream, so the caller's data picks them: in range,
/// out of range, or not `I32` at all.
fn indexed_kernel(script: &[u8]) -> Kernel {
    let mut b = KernelBuilder::new("random_indexed");
    let index = b.in_stream(Ty::I32);
    let data = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    b.require_sp(8);
    let mut vals: Vec<ValueId> = vec![b.read(data)];
    for &op in script {
        let a = vals[(op as usize / 4) % vals.len()];
        let v = match op % 4 {
            0 => {
                let addr = b.read(index);
                b.sp_write(addr, a);
                b.sp_read(addr, Ty::F32)
            }
            1 => {
                let addr = b.read(index);
                b.sp_read(addr, Ty::F32)
            }
            2 => {
                let src = b.read(index);
                b.comm(a, src)
            }
            _ => {
                let c = vals[(op as usize / 16) % vals.len()];
                b.add(a, c)
            }
        };
        vals.push(v);
    }
    let last = *vals.last().expect("nonempty");
    b.write(out, last);
    b.finish().expect("structurally valid")
}

/// A random well-typed kernel over every opcode family: both word types,
/// a parameter, constants, a recurrence, plain and conditional streams,
/// the scratchpad, and COMM. `consts` supplies the constants' bits.
fn builder_kernel(script: &[u8], consts: &[u32]) -> Kernel {
    let mut b = KernelBuilder::new(format!("fuzz{}", script.len()));
    let si = b.in_stream(Ty::I32);
    let sf = b.in_stream(Ty::F32);
    let sc = b.in_stream(Ty::F32);
    let oi = b.out_stream(Ty::I32);
    let of = b.out_stream(Ty::F32);
    let oc = b.out_stream(Ty::I32);
    b.require_sp(16);
    let acc = b.recurrence(Scalar::F32(0.5));
    let mut ints: Vec<ValueId> = vec![b.read(si), b.param(Ty::I32), b.iter_index()];
    let mut floats: Vec<ValueId> = vec![b.read(sf), acc];
    for (i, &op) in script.iter().enumerate() {
        let k = consts[i % consts.len()];
        let x = ints[usize::from(op) % ints.len()];
        let y = ints[usize::from(op / 3) % ints.len()];
        let f = floats[usize::from(op) % floats.len()];
        let g = floats[usize::from(op / 5) % floats.len()];
        match op % BUILDER_OPS {
            0 => ints.push(b.const_i(k as i32)),
            1 => {
                let c = f32::from_bits(k);
                floats.push(b.const_f(if c.is_finite() { c } else { k as f32 }));
            }
            2 => ints.push(b.add(x, y)),
            3 => floats.push(b.sub(f, g)),
            4 => floats.push(b.mul(f, g)),
            5 => ints.push(b.div(x, y)),
            6 => floats.push(b.max(f, g)),
            7 => ints.push(b.min(x, y)),
            8 => ints.push(b.xor(x, y)),
            9 => ints.push(b.shr(x, y)),
            10 => ints.push(b.lt(f, g)),
            11 => ints.push(b.ne(x, y)),
            12 => floats.push(b.sqrt(f)),
            13 => floats.push(b.floor(f)),
            14 => ints.push(b.ftoi(f)),
            15 => floats.push(b.itof(x)),
            16 => floats.push(b.select(x, f, g)),
            17 => {
                let cid = b.cluster_id();
                let n = b.cluster_count();
                let src = b.sub(n, cid);
                floats.push(b.comm(f, src));
            }
            18 => {
                b.sp_write(x, f);
                floats.push(b.sp_read(x, Ty::F32));
            }
            19 => ints.push(b.or(x, y)),
            20 => ints.push(b.shl(x, y)),
            21 => ints.push(b.eq(f, g)),
            _ => {
                let v = b.neg(x);
                ints.push(b.abs(v));
            }
        }
    }
    let last_i = *ints.last().expect("nonempty");
    let last_f = *floats.last().expect("nonempty");
    let next = b.add(acc, last_f);
    b.bind_next(acc, next);
    b.write(oi, last_i);
    b.write(of, next);
    let one = b.const_i(1);
    let pred = b.and(last_i, one);
    let popped = b.cond_read(sc, pred);
    let sign = b.le(popped, next);
    b.cond_write(oc, pred, sign);
    b.finish().expect("structurally valid")
}

/// The number of op shapes `builder_kernel` picks from with each script byte.
const BUILDER_OPS: u8 = 23;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Execution returns `Ok` or `Err` and never panics, whatever the
    /// caller passes: words of either type on any stream, ragged or short
    /// streams, any cluster count including zero, and inferred or explicit
    /// iteration counts.
    #[test]
    fn execution_never_panics(
        script in proptest::collection::vec(any::<u8>(), 1..24),
        kind in 0u8..5,
        clusters in prop_oneof![Just(0usize), Just(1), Just(3), Just(4), Just(8), Just(16)],
        explicit in any::<bool>(),
        iterations in 0usize..=4,
        aligned in any::<bool>(),
        lens in proptest::collection::vec(0usize..96, 3..4),
        words in proptest::collection::vec((any::<bool>(), -4i32..20), 1..64),
        consts in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        let k = match kind {
            0 => elementwise_kernel(&script),
            1 => structured_kernel(&script, clusters as u32),
            2 => condstream_kernel(&script),
            3 => indexed_kernel(&script),
            _ => builder_kernel(&script, &consts),
        };
        let mut pool = words.iter().cycle().map(|&(int, v)| {
            if int {
                Scalar::I32(v)
            } else {
                Scalar::F32(v as f32 * 0.5)
            }
        });
        // Aligned streams hold two whole strips; the others any length.
        let inputs: Vec<Vec<Scalar>> = k
            .inputs()
            .iter()
            .zip(&lens)
            .map(|(d, &len)| {
                let len = if aligned { 2 * clusters * d.record_width as usize } else { len };
                pool.by_ref().take(len).collect()
            })
            .collect();
        let params: Vec<Scalar> = pool.by_ref().take(k.param_tys().len()).collect();
        let opts = ExecOptions {
            params: &params,
            sp_init: None,
            iterations: explicit.then_some(iterations),
        };
        let cfg = ExecConfig::with_clusters(clusters);
        if let Ok(outs) = execute_with(&k, &opts, &inputs, &cfg) {
            prop_assert_eq!(outs.len(), k.outputs().len());
        }
    }

    /// Building the same kernel twice gives the same fingerprint, and two
    /// kernels that differ in one script byte or one constant bit share a
    /// fingerprint only if they are equal. A replaced script byte either
    /// picks any op or keeps its op over other operands.
    #[test]
    fn kernel_fingerprint_tells_kernels_apart(
        script in proptest::collection::vec(any::<u8>(), 1..48),
        consts in proptest::collection::vec(any::<u32>(), 1..8),
        edit in 0u8..3,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let a = builder_kernel(&script, &consts);
        prop_assert_eq!(a.fingerprint(), builder_kernel(&script, &consts).fingerprint());
        let (mut script_b, mut consts_b) = (script.clone(), consts.clone());
        match edit {
            0 => consts_b[at % consts.len()] ^= 1 << (byte % 32),
            1 => script_b[at % script.len()] = byte,
            _ => {
                let i = at % script.len();
                script_b[i] = script[i] % BUILDER_OPS + BUILDER_OPS * (byte % (255 / BUILDER_OPS));
            }
        }
        let b = builder_kernel(&script_b, &consts_b);
        if a.fingerprint() == b.fingerprint() {
            prop_assert_eq!(&a, &b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unrolling never changes what an elementwise kernel computes.
    #[test]
    fn unroll_preserves_elementwise_semantics(
        script in proptest::collection::vec(any::<u8>(), 1..24),
        factor in 2u32..=4,
        lanes in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let k = elementwise_kernel(&script);
        let n = 8 * factor as usize * lanes;
        let xs: Vec<Scalar> = (0..n).map(|i| Scalar::F32(i as f32 * 0.25 - 3.0)).collect();
        let ys: Vec<Scalar> = (0..n).map(|i| Scalar::F32(10.0 - i as f32 * 0.5)).collect();
        let cfg = ExecConfig::with_clusters(lanes);
        let base = execute(&k, &[], &[xs.clone(), ys.clone()], &cfg).unwrap();
        let u = unroll(&k, factor).unwrap();
        let got = execute(&u, &[], &[xs, ys], &cfg).unwrap();
        prop_assert_eq!(base, got);
    }

    /// Every modulo schedule the scheduler produces passes the independent
    /// verifier: dependences respected, no resource oversubscribed, and
    /// II >= max(ResMII, RecMII).
    #[test]
    fn modulo_schedules_are_legal(
        script in proptest::collection::vec(any::<u8>(), 1..40),
        n_alus in prop_oneof![Just(2u32), Just(5), Just(10), Just(14)],
    ) {
        let machine = Machine::paper(Shape::new(8, n_alus));
        let k = structured_kernel(&script, 8);
        let ddg = Ddg::build(&k, &machine);
        let (sched, bounds) = modulo_schedule(&ddg, &machine).expect("schedulable");
        let report = check_schedule(&ddg, &sched, &machine);
        prop_assert!(!report.has_errors(), "{}", report);
        prop_assert!(sched.ii >= MiiBounds::compute(&ddg, &machine).mii());
        prop_assert!(sched.ii >= bounds.res_mii && sched.ii >= bounds.rec_mii);
    }

    /// Compilation respects the LRF register budget.
    #[test]
    fn compiled_kernels_respect_registers(
        script in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let machine = Machine::baseline();
        let k = structured_kernel(&script, 8);
        let c = CompiledKernel::compile_default(&k, &machine).expect("compiles");
        prop_assert!(c.registers() <= machine.register_capacity());
        prop_assert!(c.elements_per_cycle_per_cluster() > 0.0);
    }

    /// A compiled kernel served from the shared cache is the same artifact
    /// a fresh compile produces, and it still passes the independent
    /// schedule verifier — caching never changes what the scheduler built.
    #[test]
    fn cached_compiles_match_fresh_compiles(
        script in proptest::collection::vec(any::<u8>(), 1..32),
        n_alus in prop_oneof![Just(2u32), Just(5), Just(10)],
    ) {
        let machine = Machine::paper(Shape::new(8, n_alus));
        let k = structured_kernel(&script, 8);
        let opts = CompileOptions::default();
        let cache = KernelCache::new();
        let first = cache.get_or_compile(&k, &machine, &opts).expect("compiles");
        let again = cache.get_or_compile(&k, &machine, &opts).expect("compiles");
        prop_assert!(std::sync::Arc::ptr_eq(&first, &again));
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(stats.entries, 1);
        let fresh = CompiledKernel::compile(&k, &machine, &opts).expect("compiles");
        prop_assert_eq!(first.ii(), fresh.ii());
        prop_assert_eq!(first.unroll_factor(), fresh.unroll_factor());
        prop_assert_eq!(first.schedule_length(), fresh.schedule_length());
        prop_assert_eq!(first.registers(), fresh.registers());
        prop_assert_eq!(first.listing(&k, &machine), fresh.listing(&k, &machine));
        let ddg = Ddg::build(&unroll(&k, first.unroll_factor()).unwrap(), &machine);
        let report = check_schedule(&ddg, first.schedule(), &machine);
        prop_assert!(!report.has_errors(), "cached schedule fails verification:\n{report}");
        prop_assert_eq!(first.verification(), &report);
    }

    /// Stream scatter/gather round-trips for every width/split combination.
    #[test]
    fn scatter_gather_round_trip(
        records in 1usize..24,
        width in 1u32..12,
        k in 1u32..12,
    ) {
        let words: Vec<Scalar> = (0..records * width as usize)
            .map(|i| Scalar::I32(i as i32))
            .collect();
        let split = scatter_words(&words, width, k);
        prop_assert_eq!(split.len(), k as usize);
        let back = gather_words(&split, width);
        prop_assert_eq!(back, words);
    }

    /// Split plans always respect the budget and never leave a chain longer
    /// than the unsplit width.
    #[test]
    fn split_plans_respect_budget(
        widths in proptest::collection::vec(1u32..16, 1..5),
        extra in 0u32..10,
    ) {
        let budget = widths.len() as u32 + extra;
        let plan = split_plan(&widths, budget);
        prop_assert_eq!(plan.len(), widths.len());
        prop_assert!(plan.iter().sum::<u32>() <= budget);
        prop_assert!(max_chain(&widths, &plan) <= widths.iter().copied().max().unwrap());
    }

    /// FFT is linear: F(a*x + y) = a*F(x) + F(y) (up to f32 tolerance).
    #[test]
    fn fft_is_linear(seed in 0u32..1000, scale in 0.25f32..4.0) {
        let n = 64usize;
        let mk = |s: u32| -> Vec<C32> {
            (0..n)
                .map(|i| {
                    let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(s)) as f32;
                    let w = (v / u32::MAX as f32) * 2.0 - 1.0;
                    (w, -w * 0.5)
                })
                .collect()
        };
        let x = mk(seed);
        let y = mk(seed.wrapping_add(17));
        let combo: Vec<C32> = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (scale * a.0 + b.0, scale * a.1 + b.1))
            .collect();
        let fx = fft_reference(&x);
        let fy = fft_reference(&y);
        let fc = fft_reference(&combo);
        for i in 0..n {
            let want = (scale * fx[i].0 + fy[i].0, scale * fx[i].1 + fy[i].1);
            prop_assert!((fc[i].0 - want.0).abs() < 2e-2 * (1.0 + want.0.abs()));
            prop_assert!((fc[i].1 - want.1).abs() < 2e-2 * (1.0 + want.1.abs()));
        }
    }

    /// Parseval: energy is preserved (scaled by n), checked against the DFT.
    #[test]
    fn fft_satisfies_parseval(seed in 0u32..1000) {
        let n = 16usize;
        let x: Vec<C32> = (0..n)
            .map(|i| {
                let v = ((i as u32).wrapping_mul(40503).wrapping_add(seed)) % 1000;
                (v as f32 / 500.0 - 1.0, (999 - v) as f32 / 500.0 - 1.0)
            })
            .collect();
        let f = fft_reference(&x);
        let d = dft_reference(&x);
        let e_f: f32 = f.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
        let e_t: f32 = x.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f32>() * n as f32;
        prop_assert!((e_f - e_t).abs() < 1e-2 * (1.0 + e_t));
        for i in 0..n {
            prop_assert!((f[i].0 - d[i].0).abs() < 1e-2 * (1.0 + d[i].0.abs()));
        }
    }

    /// The interpreter is deterministic (same kernel, same data, same
    /// result), and cluster count does not change elementwise results.
    #[test]
    fn interpreter_is_deterministic(
        script in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let k = elementwise_kernel(&script);
        let xs: Vec<Scalar> = (0..32).map(|i| Scalar::F32(i as f32)).collect();
        let ys: Vec<Scalar> = (0..32).map(|i| Scalar::F32(-(i as f32))).collect();
        let a = execute(&k, &[], &[xs.clone(), ys.clone()], &ExecConfig::with_clusters(4)).unwrap();
        let b = execute(&k, &[], &[xs.clone(), ys.clone()], &ExecConfig::with_clusters(4)).unwrap();
        let c = execute(&k, &[], &[xs, ys], &ExecConfig::with_clusters(8)).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// Cost model sanity across random shapes: positive, finite, and
    /// monotone total area in both dimensions.
    #[test]
    fn cost_model_monotone_total(c in 1u32..128, n in 1u32..64) {
        use stream_scaling::vlsi::{CostModel};
        let model = CostModel::paper();
        let base = model.evaluate(Shape::new(c, n));
        let more_c = model.evaluate(Shape::new(c + 1, n));
        let more_n = model.evaluate(Shape::new(c, n + 1));
        prop_assert!(base.area.total() > 0.0 && base.area.total().is_finite());
        prop_assert!(more_c.area.total() > base.area.total());
        prop_assert!(more_n.area.total() > base.area.total());
        prop_assert!(more_c.energy.total_per_cycle() > base.energy.total_per_cycle());
    }
}

/// Every suite and application kernel on every Figure 13/14 machine: two
/// builds share a fingerprint exactly when they are equal (deterministic
/// companion to the property above).
#[test]
fn suite_kernels_share_a_fingerprint_exactly_when_equal() {
    use std::collections::HashSet;
    use stream_scaling::apps::AppId;
    use stream_scaling::kernels::KernelId;
    use stream_scaling::repro::{FIG13_NS, FIG14_CS};
    let mut builds = 0;
    let mut distinct: Vec<(Kernel, u64)> = Vec::new();
    for c in FIG14_CS {
        for n in FIG13_NS {
            let machine = Machine::paper(Shape::new(c, n));
            let suite = KernelId::ALL.iter().map(|id| id.build(&machine));
            let apps = AppId::ALL.iter().flat_map(|app| app.kernels(&machine));
            for k in suite.chain(apps) {
                builds += 1;
                let fp = k.fingerprint();
                match distinct.iter().find(|(d, _)| *d == k) {
                    Some(&(_, seen)) => assert_eq!(fp, seen, "{} at C={c} N={n}", k.name()),
                    None => distinct.push((k, fp)),
                }
            }
        }
    }
    assert!(1 < distinct.len() && distinct.len() < builds);
    let fingerprints: HashSet<u64> = distinct.iter().map(|&(_, fp)| fp).collect();
    assert_eq!(fingerprints.len(), distinct.len());
}

/// The scheduler's per-SCC RecMII equals the verifier's independent
/// whole-graph search on every suite and application kernel, on every
/// Figure 13/14 machine, at every unroll factor the tuner can offer.
/// Shapes that only change latencies the graph does not use build the same
/// graph, so the (slow) oracle runs once per distinct graph.
#[test]
fn rec_mii_matches_the_verifier_oracle() {
    use std::collections::HashMap;
    use stream_scaling::apps::AppId;
    use stream_scaling::kernels::KernelId;
    use stream_scaling::repro::{FIG13_NS, FIG14_CS};
    use stream_scaling::sched::rec_mii;
    let mut oracle: HashMap<Vec<(usize, usize, u32, u32)>, u32> = HashMap::new();
    for c in FIG14_CS {
        for n in FIG13_NS {
            let machine = Machine::paper(Shape::new(c, n));
            let mut kernels: Vec<Kernel> =
                KernelId::ALL.iter().map(|id| id.build(&machine)).collect();
            for app in AppId::ALL {
                for k in app.kernels(&machine) {
                    if !kernels.contains(&k) {
                        kernels.push(k);
                    }
                }
            }
            for k in &kernels {
                for u in [1u32, 2, 3, 4, 6, 8, 12, 16] {
                    let ddg = Ddg::build(&unroll(k, u).unwrap(), &machine);
                    let key = ddg
                        .edges()
                        .iter()
                        .map(|e| (e.from, e.to, e.latency, e.distance))
                        .collect();
                    let want = *oracle
                        .entry(key)
                        .or_insert_with(|| stream_scaling::verify::rec_mii(ddg.graph()));
                    assert_eq!(rec_mii(&ddg), want, "{} x{u} at C={c} N={n}", k.name());
                }
            }
        }
    }
}

/// The scheduler's O(nodes + edges + II) MaxLive equals the verifier's
/// independent recomputation on a modulo schedule of every suite and
/// application kernel, on every Figure 13/14 machine, at every unroll
/// factor the tuner can offer.
#[test]
fn register_estimate_matches_the_verifier_oracle() {
    use stream_scaling::apps::AppId;
    use stream_scaling::kernels::KernelId;
    use stream_scaling::repro::{FIG13_NS, FIG14_CS};
    for c in FIG14_CS {
        for n in FIG13_NS {
            let machine = Machine::paper(Shape::new(c, n));
            let mut kernels: Vec<Kernel> =
                KernelId::ALL.iter().map(|id| id.build(&machine)).collect();
            for app in AppId::ALL {
                for k in app.kernels(&machine) {
                    if !kernels.contains(&k) {
                        kernels.push(k);
                    }
                }
            }
            for k in &kernels {
                for u in [1u32, 2, 3, 4, 6, 8, 12, 16] {
                    let ddg = Ddg::build(&unroll(k, u).unwrap(), &machine);
                    let (s, _) = modulo_schedule(&ddg, &machine).expect("schedulable");
                    let want = stream_scaling::verify::max_live(ddg.graph(), s.ii, &s.times);
                    assert_eq!(
                        s.register_estimate(&ddg),
                        want,
                        "{} x{u} at C={c} N={n}",
                        k.name()
                    );
                }
            }
        }
    }
}

/// FNV-1a over the schedule recipes of the 7 suite kernels on the 20
/// Figure 13/14 machines with default options. The digest pins every
/// scheduling decision: a change that moves it changes what the scheduler
/// picks, and must justify itself on the paper anchors.
#[test]
fn suite_schedules_match_the_pinned_digest() {
    use stream_scaling::kernels::KernelId;
    use stream_scaling::repro::{FIG13_NS, FIG14_CS};
    let mut bytes = Vec::new();
    for c in FIG14_CS {
        for n in FIG13_NS {
            let machine = Machine::paper(Shape::new(c, n));
            for id in KernelId::ALL {
                let compiled = CompiledKernel::compile_default(&id.build(&machine), &machine)
                    .unwrap_or_else(|e| panic!("{e}"));
                bytes.extend_from_slice(&compiled.recipe().encode());
            }
        }
    }
    let digest = stream_scaling::store::fnv1a(&bytes);
    assert_eq!(
        digest, 0xbdff_5471_70d0_72e9,
        "schedule digest {digest:#018x}"
    );
}

/// FNV-1a over the schedule recipes the tuner's seven unroll sets pick for
/// every suite and application kernel (deduplicated by fingerprint) at
/// three machine shapes. All compiles go through one cache, so later sets
/// reuse the factor schedules earlier sets compiled; the digest pins that
/// the reuse picks exactly what a standalone search over each set picks.
#[test]
fn tuner_schedules_match_the_pinned_digest() {
    use std::collections::HashSet;
    use stream_scaling::apps::AppId;
    use stream_scaling::kernels::KernelId;
    use stream_scaling::tune::UNROLL_SETS;
    let cache = KernelCache::new();
    let mut bytes = Vec::new();
    for (c, n) in [(8, 5), (64, 8), (128, 10)] {
        let machine = Machine::paper(Shape::new(c, n));
        let mut seen = HashSet::new();
        let kernels = KernelId::ALL
            .iter()
            .map(|id| id.build(&machine))
            .chain(AppId::ALL.iter().flat_map(|app| app.kernels(&machine)))
            .filter(|k| seen.insert(k.fingerprint()));
        for k in kernels {
            for set in UNROLL_SETS {
                let opts = CompileOptions::default().unroll_factors(set);
                let compiled = cache
                    .get_or_compile(&k, &machine, &opts)
                    .unwrap_or_else(|e| panic!("{e}"));
                bytes.extend_from_slice(&compiled.recipe().encode());
            }
        }
    }
    let digest = stream_scaling::store::fnv1a(&bytes);
    assert_eq!(
        digest, 0x6b35_1dc8_6118_2b6f,
        "tuner schedule digest {digest:#018x}"
    );
}
