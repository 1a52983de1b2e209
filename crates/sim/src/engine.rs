//! The stream-level timing engine: a scoreboarded stream controller over a
//! bandwidth/latency memory system, an in-order host issue channel, and the
//! SIMD cluster array (Section 5's simulated system: 1 GHz, 16 GB/s memory,
//! 2 GB/s host channel).
//!
//! Memory transfers overlap kernel execution (the paper's application-level
//! concurrency); kernels serialize on the single microcontroller; SRF
//! residency is checked against the machine's capacity — programs that
//! exceed it must strip-mine or spill, which is an application decision.

use crate::{AccessPattern, StreamInstr, StreamProgram, StreamVar};
use std::error::Error;
use std::fmt;
use stream_machine::{Machine, SystemParams};

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program's peak SRF residency exceeds the machine's capacity.
    SrfOverflow {
        /// Peak resident words.
        peak: u64,
        /// SRF capacity in words.
        capacity: u64,
    },
    /// An instruction consumed a stream that was never produced.
    UseBeforeDef(StreamVar),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SrfOverflow { peak, capacity } => write!(
                f,
                "srf overflow: peak residency {peak} words exceeds capacity {capacity}"
            ),
            SimError::UseBeforeDef(s) => write!(f, "stream {s} used before definition"),
        }
    }
}

impl Error for SimError {}

/// Start/completion times of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTiming {
    /// Cycle the instruction began executing.
    pub start: u64,
    /// Cycle its results became available.
    pub end: u64,
}

/// The outcome of simulating one stream program.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total execution time in cycles.
    pub cycles: u64,
    /// Cycles the cluster array was running kernels.
    pub kernel_busy: u64,
    /// Cycles the memory channel moved data.
    pub memory_busy: u64,
    /// Peak SRF residency in words.
    pub peak_srf_words: u64,
    /// Total ALU operations executed.
    pub alu_ops: u64,
    /// Cycles the host channel spent issuing stream instructions.
    pub host_busy: u64,
    /// Per-instruction timeline.
    pub timeline: Vec<InstrTiming>,
}

impl SimReport {
    /// Sustained GOPS at `clock_ghz` (ALU operations only, matching the
    /// paper's accounting).
    pub fn gops(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.alu_ops as f64 * clock_ghz / self.cycles as f64
    }

    /// Fraction of time the cluster array was busy.
    pub fn cluster_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.kernel_busy as f64 / self.cycles as f64
    }
}

/// Simulates `program` on `machine` under `system` parameters.
///
/// # Errors
///
/// Returns [`SimError::SrfOverflow`] if the program's working set exceeds
/// the SRF (the caller should strip-mine), or
/// [`SimError::UseBeforeDef`] for malformed programs.
pub fn simulate(
    program: &StreamProgram,
    machine: &Machine,
    system: &SystemParams,
) -> Result<SimReport, SimError> {
    // This engine is analytic (one scoreboard pass over the instruction
    // list, not a per-cycle loop), so one span covers the whole call.
    let mut sim_span = stream_trace::span("sim", "simulate");
    sim_span.arg("instrs", program.instrs().len());

    // Per stream: the instruction that produced it and the one that uses it
    // last (the latest end; the producer until something reads it), both
    // indices into `timeline`.
    let mut streams: Vec<[u32; 2]> = vec![[UNPRODUCED; 2]; program.stream_count()];

    let issue_cycles = system.host_issue_cycles();
    let mut issue_done = 0u64;
    let mut mem_bw_free = 0u64;
    let mut clusters_free = 0u64;
    let mut kernel_busy = 0u64;
    let mut memory_busy = 0u64;
    let mut timeline: Vec<InstrTiming> = Vec::with_capacity(program.instrs().len());

    for (i, instr) in program.instrs().iter().enumerate() {
        let i = i as u32;
        issue_done += issue_cycles;
        match *instr {
            StreamInstr::Resident { dst, .. } => {
                timeline.push(InstrTiming { start: 0, end: 0 });
                streams[dst.0 as usize] = [i; 2];
            }
            StreamInstr::Load {
                dst,
                words,
                pattern,
            } => {
                let start = issue_done.max(mem_bw_free);
                let bw = transfer_cycles(words, pattern, system);
                let end = start + u64::from(system.memory_latency_cycles) + bw;
                mem_bw_free = start + bw;
                memory_busy += bw;
                timeline.push(InstrTiming { start, end });
                streams[dst.0 as usize] = [i; 2];
            }
            StreamInstr::Store { src, pattern } => {
                let data = ready(&streams, &timeline, src)?;
                let start = issue_done.max(data).max(mem_bw_free);
                let bw = transfer_cycles(program.size(src), pattern, system);
                let end = start + u64::from(system.memory_latency_cycles) + bw;
                mem_bw_free = start + bw;
                memory_busy += bw;
                timeline.push(InstrTiming { start, end });
                used_by(&mut streams, &timeline, src, i);
            }
            StreamInstr::Kernel(call) => {
                let inputs = program.inputs(&call);
                let mut data_ready = 0u64;
                for &s in inputs {
                    data_ready = data_ready.max(ready(&streams, &timeline, s)?);
                }
                let start = issue_done.max(data_ready).max(clusters_free);
                let dur = program.kernel(&call).call_cycles(call.records());
                let end = start + dur;
                clusters_free = end;
                kernel_busy += dur;
                timeline.push(InstrTiming { start, end });
                for &s in inputs {
                    used_by(&mut streams, &timeline, s, i);
                }
                for s in program.outputs(&call) {
                    streams[s.0 as usize] = [i; 2];
                }
            }
        }
    }

    let cycles = timeline.iter().map(|t| t.end).max().unwrap_or(0);
    let host_busy = issue_cycles * program.instrs().len() as u64;

    let peak = srf_peak(program, &timeline, &streams);
    let capacity = machine.srf_total_words();
    if peak > capacity {
        sim_span.arg("error", "srf_overflow");
        return Err(SimError::SrfOverflow { peak, capacity });
    }

    sim_span.arg("cycles", cycles);
    stream_trace::record("sim.cycles", cycles);

    Ok(SimReport {
        cycles,
        kernel_busy,
        memory_busy,
        peak_srf_words: peak,
        alu_ops: program.total_alu_ops(),
        host_busy,
        timeline,
    })
}

/// Marks a stream no instruction has produced yet.
const UNPRODUCED: u32 = u32::MAX;

/// The cycle stream `s` becomes available: its producer's end.
fn ready(streams: &[[u32; 2]], timeline: &[InstrTiming], s: StreamVar) -> Result<u64, SimError> {
    match streams.get(s.0 as usize) {
        Some(&[producer, _]) if producer != UNPRODUCED => Ok(timeline[producer as usize].end),
        _ => Err(SimError::UseBeforeDef(s)),
    }
}

/// Records that instruction `i`, already on the timeline, reads `s`.
fn used_by(streams: &mut [[u32; 2]], timeline: &[InstrTiming], s: StreamVar, i: u32) {
    let last = &mut streams[s.0 as usize][1];
    if timeline[i as usize].end >= timeline[*last as usize].end {
        *last = i;
    }
}

/// Peak SRF residency in words. Each stream occupies its words from its
/// producer's start to the end of its last user, and for at least one
/// cycle; at equal times, frees apply before allocations.
///
/// The sweep runs over per-instruction totals rather than two events per
/// stream, laid out class by class in issue order after the few one-cycle
/// frees: resident declarations (all at time zero), load starts,
/// memory-transfer ends, then each kernel call's start and end. Memory transfers start and end in non-decreasing
/// issue order (each starts no earlier than the previous one's start plus
/// its transfer cycles, and the latency is fixed), and each kernel call
/// starts at or after the previous call's end, so the list is a few
/// ascending runs, which the stable sort merges in near-linear time. Only
/// the speed rests on that order: the sort orders any list correctly.
fn srf_peak(program: &StreamProgram, timeline: &[InstrTiming], streams: &[[u32; 2]]) -> u64 {
    let instrs = program.instrs();
    let mut frees = vec![0u64; instrs.len()];
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * instrs.len());
    fn push(events: &mut Vec<(u64, i64)>, t: u64, delta: i64) {
        if delta != 0 {
            events.push((t, delta));
        }
    }
    for (s, &[producer, last]) in streams.iter().enumerate() {
        let words = program.size(StreamVar(s as u32));
        let start = timeline[producer as usize].start;
        if timeline[last as usize].end > start {
            frees[last as usize] += words;
        } else {
            // A zero-length interval (say, a resident stream nothing reads)
            // still holds its words for one cycle.
            push(&mut events, start + 1, -(words as i64));
        }
    }
    for instr in instrs {
        if let StreamInstr::Resident { words, .. } = *instr {
            push(&mut events, 0, words as i64);
        }
    }
    for (instr, t) in instrs.iter().zip(timeline) {
        if let StreamInstr::Load { words, .. } = *instr {
            push(&mut events, t.start, words as i64);
        }
    }
    for ((instr, t), &words) in instrs.iter().zip(timeline).zip(&frees) {
        if let StreamInstr::Load { .. } | StreamInstr::Store { .. } = instr {
            push(&mut events, t.end, -(words as i64));
        }
    }
    for ((instr, t), &words) in instrs.iter().zip(timeline).zip(&frees) {
        if let StreamInstr::Kernel(call) = instr {
            let allocated: u64 = program.outputs(call).map(|s| program.size(s)).sum();
            push(&mut events, t.start, allocated as i64);
            push(&mut events, t.end, -(words as i64));
        }
    }
    events.sort();
    let mut resident = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        resident += delta;
        peak = peak.max(resident);
    }
    peak as u64
}

/// Bandwidth-occupancy cycles of one transfer: peak bandwidth derated by
/// the access pattern's sustainable fraction (memory access scheduling
/// keeps sequential streams near peak; strided and random accesses lose
/// row-buffer locality).
fn transfer_cycles(words: u64, pattern: AccessPattern, system: &SystemParams) -> u64 {
    let efficiency = match pattern {
        AccessPattern::Sequential => 1.0,
        AccessPattern::Strided => 0.6,
        AccessPattern::Random => 0.3,
    };
    ((words as f64) / (system.memory_words_per_cycle * efficiency)).ceil() as u64
}

/// True if a working set of `words` fits in `machine`'s SRF with
/// double-buffering headroom `slack` (0.0 = exact fit, 0.5 = use at most
/// half). Applications use this to pick strip sizes.
pub fn fits_in_srf(machine: &Machine, words: u64, slack: f64) -> bool {
    let capacity = machine.srf_total_words() as f64;
    (words as f64) <= capacity * (1.0 - slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use std::sync::Arc;
    use stream_ir::{KernelBuilder, Ty};
    use stream_sched::CompiledKernel;

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

    fn simple_program(machine: &Machine, words: u64, flops: usize) -> StreamProgram {
        let k = work_kernel(machine, flops);
        let mut p = ProgramBuilder::new();
        let a = p.load(words);
        let outs = p.kernel(&k, &[a], &[words], words);
        p.store(outs[0]);
        p.finish()
    }

    #[test]
    fn pipeline_runs_and_reports() {
        let m = Machine::baseline();
        let prog = simple_program(&m, 4096, 10);
        let r = simulate(&prog, &m, &SystemParams::paper_2007()).unwrap();
        assert!(r.cycles > 0);
        assert_eq!(r.timeline.len(), 3);
        assert!(r.kernel_busy > 0 && r.memory_busy > 0);
        assert!(r.gops(1.0) > 0.0);
        assert!(r.cluster_utilization() <= 1.0);
    }

    #[test]
    fn dependencies_serialize() {
        let m = Machine::baseline();
        let prog = simple_program(&m, 4096, 10);
        let r = simulate(&prog, &m, &SystemParams::paper_2007()).unwrap();
        // Kernel starts only after the load's data arrives.
        assert!(r.timeline[1].start >= r.timeline[0].end);
        assert!(r.timeline[2].start >= r.timeline[1].end);
    }

    #[test]
    fn memory_latency_is_charged() {
        let m = Machine::baseline();
        let prog = simple_program(&m, 400, 2);
        let r = simulate(&prog, &m, &SystemParams::paper_2007()).unwrap();
        // Load: >= 55 latency + 100 bandwidth cycles.
        let load = r.timeline[0];
        assert!(load.end - load.start >= 155);
    }

    #[test]
    fn more_clusters_speed_up_kernel_bound_programs() {
        let big = Machine::paper(stream_vlsi::Shape::new(64, 5));
        let small = Machine::baseline();
        // A compute-heavy kernel so the program is cluster-bound rather
        // than memory-bound (an unstripped single pass cannot overlap its
        // own load/compute/store).
        let words = 1 << 13;
        let ps = simple_program(&small, words, 200);
        let pb = simple_program(&big, words, 200);
        let rs = simulate(&ps, &small, &SystemParams::paper_2007()).unwrap();
        let rb = simulate(&pb, &big, &SystemParams::paper_2007()).unwrap();
        let speedup = rs.cycles as f64 / rb.cycles as f64;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn srf_overflow_is_detected() {
        let m = Machine::baseline(); // 44_000 words
        let prog = simple_program(&m, 40_000, 2); // in + out = 80_000 live
        let err = simulate(&prog, &m, &SystemParams::paper_2007()).unwrap_err();
        assert!(matches!(err, SimError::SrfOverflow { .. }));
    }

    #[test]
    fn use_before_def_is_detected() {
        let m = Machine::baseline();
        let k = work_kernel(&m, 2);
        let mut p = ProgramBuilder::new();
        let ghost = StreamVar(7);
        let _ = p.load(64); // stream 0
        let _o = p.kernel(&k, &[ghost], &[64], 64);
        let err = simulate(&p.finish(), &m, &SystemParams::paper_2007());
        assert!(err.is_err());
    }

    #[test]
    fn loads_overlap_kernels() {
        // load A; kernel over A; load B (independent) — B's transfer should
        // overlap the kernel, so total < strict serialization.
        let m = Machine::baseline();
        let k = work_kernel(&m, 40);
        let words = 1 << 12;
        let mut p = ProgramBuilder::new();
        let a = p.load(words);
        let outs = p.kernel(&k, &[a], &[words], words);
        let b = p.load(words);
        let outs2 = p.kernel(&k, &[b], &[words], words);
        p.store(outs[0]);
        p.store(outs2[0]);
        let r = simulate(&p.finish(), &m, &SystemParams::paper_2007()).unwrap();
        // Second load starts while the first kernel runs.
        assert!(r.timeline[2].start < r.timeline[1].end);
    }

    #[test]
    fn resident_streams_cost_nothing_but_occupy_srf() {
        let m = Machine::baseline();
        let k = work_kernel(&m, 4);
        let mut p = ProgramBuilder::new();
        let a = p.resident(4096);
        let outs = p.kernel(&k, &[a], &[4096], 4096);
        p.store(outs[0]);
        let r = simulate(&p.finish(), &m, &SystemParams::paper_2007()).unwrap();
        // The resident declaration is free; the kernel can start as soon as
        // the host has issued it.
        assert_eq!(r.timeline[0].end, 0);
        assert!(r.peak_srf_words >= 8192);
    }

    #[test]
    fn access_patterns_derate_bandwidth() {
        let m = Machine::baseline();
        let sys = SystemParams::paper_2007();
        let k = work_kernel(&m, 2);
        let run = |pattern: crate::AccessPattern| -> u64 {
            let mut p = ProgramBuilder::new();
            let a = p.load_patterned(4096, pattern);
            let outs = p.kernel(&k, &[a], &[4096], 4096);
            p.store_patterned(outs[0], pattern);
            simulate(&p.finish(), &m, &sys).unwrap().cycles
        };
        let seq = run(crate::AccessPattern::Sequential);
        let strided = run(crate::AccessPattern::Strided);
        let random = run(crate::AccessPattern::Random);
        assert!(seq < strided, "{seq} vs {strided}");
        assert!(strided < random, "{strided} vs {random}");
    }

    #[test]
    fn fits_in_srf_helper() {
        let m = Machine::baseline();
        assert!(fits_in_srf(&m, 10_000, 0.5));
        assert!(!fits_in_srf(&m, 43_000, 0.5));
        assert!(fits_in_srf(&m, 43_000, 0.0));
    }
}
