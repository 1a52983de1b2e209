//! Property-based tests of the timing engine: random stream programs never
//! panic, obey causality, and respond monotonically to resources.

use proptest::prelude::*;
use std::sync::Arc;
use stream_ir::{KernelBuilder, Ty};
use stream_machine::{Machine, SystemParams};
use stream_sched::CompiledKernel;
use stream_sim::{simulate, ProgramBuilder, StreamProgram, StreamVar};

fn work_kernel(machine: &Machine, flops: usize) -> Arc<CompiledKernel> {
    let mut kb = KernelBuilder::new("work");
    let s = kb.in_stream(Ty::F32);
    let o = kb.out_stream(Ty::F32);
    let x = kb.read(s);
    let mut acc = x;
    for _ in 0..flops {
        acc = kb.add(acc, x);
    }
    kb.write(o, acc);
    Arc::new(CompiledKernel::compile_default(&kb.finish().unwrap(), machine).unwrap())
}

/// A random but well-formed program: a chain of load -> kernel -> ...
/// with occasional stores, sized to fit the baseline SRF.
fn random_program(machine: &Machine, script: &[u8]) -> StreamProgram {
    let kernel = work_kernel(machine, 8);
    let mut p = ProgramBuilder::new();
    let mut live: Vec<StreamVar> = Vec::new();
    for &op in script {
        match op % 4 {
            0 | 1 => {
                let words = 64 * (1 + u64::from(op % 8));
                live.push(p.load(words));
            }
            2 => {
                if let Some(&src) = live.last() {
                    let words = 256u64;
                    let outs = p.kernel(&kernel, &[src], &[words], words);
                    live.push(outs[0]);
                }
            }
            _ => {
                if let Some(src) = live.pop() {
                    p.store(src);
                }
            }
        }
        if live.len() > 8 {
            // Keep the resident set bounded.
            let src = live.remove(0);
            p.store(src);
        }
    }
    for src in live {
        p.store(src);
    }
    p.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs simulate without error and respect causality: every
    /// instruction ends after it starts, and total time covers them all.
    #[test]
    fn random_programs_are_causal(script in proptest::collection::vec(any::<u8>(), 1..40)) {
        let machine = Machine::baseline();
        let program = random_program(&machine, &script);
        let r = simulate(&program, &machine, &SystemParams::paper_2007()).unwrap();
        for t in &r.timeline {
            prop_assert!(t.end >= t.start);
            prop_assert!(t.end <= r.cycles);
        }
        prop_assert!(r.peak_srf_words <= machine.srf_total_words());
    }

    /// Faster memory never makes a program slower.
    #[test]
    fn memory_bandwidth_is_monotone(script in proptest::collection::vec(any::<u8>(), 1..32)) {
        let machine = Machine::baseline();
        let program = random_program(&machine, &script);
        let slow = SystemParams {
            memory_words_per_cycle: 2.0,
            ..SystemParams::paper_2007()
        };
        let fast = SystemParams {
            memory_words_per_cycle: 8.0,
            ..SystemParams::paper_2007()
        };
        let r_slow = simulate(&program, &machine, &slow).unwrap();
        let r_fast = simulate(&program, &machine, &fast).unwrap();
        prop_assert!(r_fast.cycles <= r_slow.cycles);
    }

    /// A faster host issue channel never slows a program down.
    #[test]
    fn host_bandwidth_is_monotone(script in proptest::collection::vec(any::<u8>(), 1..32)) {
        let machine = Machine::baseline();
        let program = random_program(&machine, &script);
        let slow = SystemParams {
            host_bytes_per_cycle: 1.0,
            ..SystemParams::paper_2007()
        };
        let fast = SystemParams {
            host_bytes_per_cycle: 8.0,
            ..SystemParams::paper_2007()
        };
        let r_slow = simulate(&program, &machine, &slow).unwrap();
        let r_fast = simulate(&program, &machine, &fast).unwrap();
        prop_assert!(r_fast.cycles <= r_slow.cycles);
    }

    /// Busy accounting never exceeds wall-clock integrals: kernel busy time
    /// fits in total time (kernels serialize on one microcontroller).
    #[test]
    fn busy_time_is_conservative(script in proptest::collection::vec(any::<u8>(), 1..40)) {
        let machine = Machine::baseline();
        let program = random_program(&machine, &script);
        let r = simulate(&program, &machine, &SystemParams::paper_2007()).unwrap();
        prop_assert!(r.kernel_busy <= r.cycles);
        prop_assert!(r.memory_busy <= r.cycles);
        prop_assert!(r.cluster_utilization() <= 1.0 + 1e-9);
    }

    /// Lengthening a stream never shortens a kernel call.
    #[test]
    fn call_cycles_monotone_in_records(records in 1u64..100_000) {
        let machine = Machine::baseline();
        let k = work_kernel(&machine, 8);
        prop_assert!(k.call_cycles(records) <= k.call_cycles(records + 64));
        prop_assert!(k.inner_loop_cycles(records) <= k.call_cycles(records));
    }
}
