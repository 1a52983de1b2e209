//! Property-based tests of the timing engine: random stream programs never
//! panic, obey causality, respond monotonically to resources, and reach the
//! SRF peak an independent interval oracle computes.

use proptest::prelude::*;
use std::sync::Arc;
use stream_ir::{KernelBuilder, Ty};
use stream_machine::{Machine, SystemParams};
use stream_sched::CompiledKernel;
use stream_sim::{
    simulate, InstrTiming, ProgramBuilder, SimError, StreamInstr, StreamProgram, StreamVar,
};
use stream_vlsi::Shape;

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

/// A kernel with two output streams (a sum and a product per record).
fn split_kernel(machine: &Machine) -> Arc<CompiledKernel> {
    let mut kb = KernelBuilder::new("split");
    let s = kb.in_stream(Ty::F32);
    let sum = kb.out_stream(Ty::F32);
    let product = kb.out_stream(Ty::F32);
    let x = kb.read(s);
    let y = kb.add(x, x);
    let z = kb.mul(x, x);
    kb.write(sum, y);
    kb.write(product, z);
    Arc::new(CompiledKernel::compile_default(&kb.finish().unwrap(), machine).unwrap())
}

/// A random but well-formed program with at most ten streams live at once
/// in issue order; `scale` multiplies every stream size. Each byte picks an
/// instruction (`op % 9`); its high bits pick a size of 64–512 words, a
/// kernel length of 256–2,048 records, and which live stream an operation
/// reads:
///
/// - 0, 1: load into a new live stream;
/// - 2: one-output kernel over a live stream;
/// - 3: store the newest live stream, which is then dead;
/// - 4: store a live stream that stays live (a write-back of a stream still
///   in use, so a later kernel can end before the store does);
/// - 5: a resident stream, live (so later read or stored);
/// - 6: a resident stream nothing ever reads;
/// - 7: a zero-word load, live;
/// - 8: two-output kernel over the newest and another live stream.
///
/// The oldest live streams are stored to keep the live set bounded, and
/// whatever is live at the end is stored.
fn random_program(machine: &Machine, script: &[u8], scale: u64) -> StreamProgram {
    let kernel = work_kernel(machine, 8);
    let split = split_kernel(machine);
    let mut p = ProgramBuilder::new();
    let mut live: Vec<StreamVar> = Vec::new();
    for &op in script {
        let words = scale * 64 * (1 + u64::from(op >> 5));
        let records = 256 * (1 + u64::from(op >> 5));
        let pick = (!live.is_empty()).then(|| live[usize::from(op >> 4) % live.len()]);
        match op % 9 {
            0 | 1 => live.push(p.load(words)),
            2 => {
                if let Some(src) = pick {
                    let [out] = p.kernel(&kernel, &[src], &[scale * 256], records);
                    live.push(out);
                }
            }
            3 => {
                if let Some(src) = live.pop() {
                    p.store(src);
                }
            }
            4 => {
                if let Some(src) = pick {
                    p.store(src);
                }
            }
            5 => live.push(p.resident(words)),
            6 => {
                p.resident(words);
            }
            7 => live.push(p.load(0)),
            _ => {
                if let (Some(&newest), Some(other)) = (live.last(), pick) {
                    let outs = p.kernel(
                        &split,
                        &[newest, other],
                        &[scale * 256, scale * 128],
                        records,
                    );
                    live.extend(outs);
                }
            }
        }
        while live.len() > 8 {
            let src = live.remove(0);
            p.store(src);
        }
    }
    for src in live {
        p.store(src);
    }
    p.finish()
}

/// The SRF peak as an independent oracle computes it: per stream, one
/// allocation at its producer's start and one free at the latest end among
/// its producer and readers (at least one cycle after the allocation),
/// with every event sorted by time, frees first at equal times.
fn oracle_peak(program: &StreamProgram, timeline: &[InstrTiming]) -> u64 {
    let n = program.stream_count();
    let mut produced_at: Vec<Option<u64>> = vec![None; n];
    let mut last_use_end = vec![0u64; n];
    for (instr, t) in program.instrs().iter().zip(timeline) {
        let (produced, read): (Vec<StreamVar>, Vec<StreamVar>) = match instr {
            StreamInstr::Resident { dst, .. } | StreamInstr::Load { dst, .. } => {
                (vec![*dst], vec![])
            }
            StreamInstr::Store { src, .. } => (vec![], vec![*src]),
            StreamInstr::Kernel(call) => (
                program.outputs(call).collect(),
                program.inputs(call).to_vec(),
            ),
        };
        for s in produced {
            produced_at[s.0 as usize] = Some(t.start);
            last_use_end[s.0 as usize] = last_use_end[s.0 as usize].max(t.end);
        }
        for s in read {
            last_use_end[s.0 as usize] = last_use_end[s.0 as usize].max(t.end);
        }
    }
    let mut events: Vec<(u64, i64)> = Vec::new();
    for s in 0..n {
        if let Some(start) = produced_at[s] {
            let words = program.size(StreamVar(s as u32)) as i64;
            events.push((start, words));
            events.push((last_use_end[s].max(start + 1), -words));
        }
    }
    events.sort_unstable();
    let mut resident = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        resident += delta;
        peak = peak.max(resident);
    }
    peak as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs simulate without error and respect causality: every
    /// instruction ends after it starts, and total time covers them all.
    #[test]
    fn random_programs_are_causal(script in proptest::collection::vec(any::<u8>(), 1..40)) {
        let machine = Machine::baseline();
        let program = random_program(&machine, &script, 1);
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
        let program = random_program(&machine, &script, 1);
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
        let program = random_program(&machine, &script, 1);
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
        let program = random_program(&machine, &script, 1);
        let r = simulate(&program, &machine, &SystemParams::paper_2007()).unwrap();
        prop_assert!(r.kernel_busy <= r.cycles);
        prop_assert!(r.memory_busy <= r.cycles);
        prop_assert!(r.cluster_utilization() <= 1.0 + 1e-9);
    }

    /// The SRF peak equals the interval oracle's, and the baseline machine
    /// overflows exactly when the oracle's peak exceeds its capacity, under
    /// the paper's system and with zero memory latency (where transfers can
    /// end the cycle they start). The timeline comes from a machine whose
    /// SRF holds every generated program: the capacity is the only part of
    /// the machine the simulator reads.
    #[test]
    fn srf_peak_matches_the_interval_oracle(
        script in proptest::collection::vec(any::<u8>(), 1..48),
        scale in 1u64..24,
    ) {
        let baseline = Machine::baseline();
        let roomy = Machine::paper(Shape::new(128, 14));
        let program = random_program(&baseline, &script, scale);
        let capacity = baseline.srf_total_words();
        for sys in [
            SystemParams::paper_2007(),
            SystemParams { memory_latency_cycles: 0, ..SystemParams::paper_2007() },
        ] {
            let r = simulate(&program, &roomy, &sys).unwrap();
            let peak = oracle_peak(&program, &r.timeline);
            prop_assert_eq!(r.peak_srf_words, peak);
            match simulate(&program, &baseline, &sys) {
                Ok(b) => {
                    prop_assert!(peak <= capacity);
                    prop_assert_eq!(b, r);
                }
                Err(e) => prop_assert_eq!(e, SimError::SrfOverflow { peak, capacity }),
            }
        }
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
