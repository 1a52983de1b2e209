//! Stream programs: the StreamC-level representation the simulator times.
//!
//! A stream program is an ordered list of stream instructions — memory
//! loads/stores and kernel invocations over SRF-resident streams — exactly
//! what the host processor issues to the stream controller (Section 2.2).
//!
//! The representation is flat: an instruction owns no heap memory. A kernel
//! call names its kernel by index into the program's table of distinct
//! compiled kernels, its inputs by a range of one operand arena, and its
//! outputs by the first stream variable plus a count (the builder numbers
//! outputs consecutively), so building a program costs a few amortized
//! vector pushes per call and dropping it frees a handful of buffers.

use std::fmt;
use std::sync::Arc;
use stream_sched::CompiledKernel;

/// The DRAM access pattern of a memory transfer. The streaming memory
/// system (Rixner et al., "Memory access scheduling") sustains near-peak
/// bandwidth on sequential streams, less on strided ones, and a fraction on
/// random gathers; the simulator derates bandwidth accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessPattern {
    /// Unit-stride burst (row-buffer friendly).
    #[default]
    Sequential,
    /// Fixed-stride record gather (partial row reuse).
    Strided,
    /// Data-dependent gather/scatter (row-buffer hostile).
    Random,
}

/// Identifies an SRF-resident stream within one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamVar(pub u32);

impl fmt::Display for StreamVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One stream instruction.
#[derive(Debug, Clone, Copy)]
pub enum StreamInstr {
    /// Declare a stream already resident in the SRF at time zero (no
    /// transfer cost, but it occupies capacity). The paper's FFT results
    /// assume "input data already in the SRF".
    Resident {
        /// The pre-resident stream.
        dst: StreamVar,
        /// Its size in words.
        words: u64,
    },
    /// Transfer `words` from external memory into SRF stream `dst`.
    Load {
        /// Destination stream.
        dst: StreamVar,
        /// Transfer size in words.
        words: u64,
        /// DRAM access pattern.
        pattern: AccessPattern,
    },
    /// Transfer an SRF stream back to external memory.
    Store {
        /// Source stream.
        src: StreamVar,
        /// DRAM access pattern.
        pattern: AccessPattern,
    },
    /// Run a compiled kernel over input streams, producing output streams;
    /// [`StreamProgram::kernel`], [`StreamProgram::inputs`] and
    /// [`StreamProgram::outputs`] resolve its operands.
    Kernel(KernelCall),
}

/// One kernel invocation, by index into its program's tables.
#[derive(Debug, Clone, Copy)]
pub struct KernelCall {
    /// Index into [`StreamProgram::kernels`].
    kernel: u32,
    /// Start of the input streams in the operand arena.
    inputs_start: u32,
    /// Number of input streams.
    inputs_len: u16,
    /// Number of output streams, numbered from `first_output`.
    outputs_len: u16,
    /// The first output stream.
    first_output: StreamVar,
    /// Stream records processed (loop trip count = records / (C*U)).
    records: u64,
}

impl KernelCall {
    /// Stream records processed (loop trip count = records / (C*U)).
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// A complete stream program plus stream metadata.
#[derive(Debug, Clone, Default)]
pub struct StreamProgram {
    instrs: Vec<StreamInstr>,
    /// Size in words of each stream variable.
    sizes: Vec<u64>,
    /// The distinct compiled kernels the calls name, in first-call order,
    /// shared with every other program calling them and with the cache that
    /// compiled them.
    kernels: Vec<Arc<CompiledKernel>>,
    /// Every kernel call's input streams, back to back.
    operands: Vec<StreamVar>,
}

impl StreamProgram {
    /// The instructions, in host issue order.
    pub fn instrs(&self) -> &[StreamInstr] {
        &self.instrs
    }

    /// Size in words of `s`.
    pub fn size(&self, s: StreamVar) -> u64 {
        self.sizes[s.0 as usize]
    }

    /// Number of stream variables.
    pub fn stream_count(&self) -> usize {
        self.sizes.len()
    }

    /// The distinct kernels the program calls, in first-call order.
    pub fn kernels(&self) -> &[Arc<CompiledKernel>] {
        &self.kernels
    }

    /// The compiled kernel `call` runs (timing comes from its schedule).
    pub fn kernel(&self, call: &KernelCall) -> &Arc<CompiledKernel> {
        &self.kernels[call.kernel as usize]
    }

    /// The SRF streams `call` consumes.
    pub fn inputs(&self, call: &KernelCall) -> &[StreamVar] {
        let start = call.inputs_start as usize;
        &self.operands[start..start + usize::from(call.inputs_len)]
    }

    /// The SRF streams `call` produces; [`StreamProgram::size`] gives each
    /// one's words.
    pub fn outputs(&self, call: &KernelCall) -> impl ExactSizeIterator<Item = StreamVar> {
        let first = call.first_output.0;
        (first..first + u32::from(call.outputs_len)).map(StreamVar)
    }

    /// Total ALU operations the program performs (records x per-record ALU
    /// ops of each kernel) — the numerator of sustained GOPS.
    pub fn total_alu_ops(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                StreamInstr::Kernel(call) => {
                    let kernel = self.kernel(call);
                    // alu ops per record = per-cluster-per-cycle * ii /
                    // unroll ... simpler: stats were captured at compile
                    // time via alu_ops_per_cycle_per_cluster * ii / unroll.
                    let per_record = kernel.alu_ops_per_cycle_per_cluster()
                        * f64::from(kernel.ii())
                        / f64::from(kernel.unroll_factor());
                    (per_record * call.records as f64).round() as u64
                }
                _ => 0,
            })
            .sum()
    }

    /// Total words moved to/from external memory.
    pub fn total_memory_words(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                StreamInstr::Load { words, .. } => *words,
                StreamInstr::Store { src, .. } => self.size(*src),
                StreamInstr::Kernel(_) | StreamInstr::Resident { .. } => 0,
            })
            .sum()
    }
}

/// Incremental construction of a [`StreamProgram`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use stream_sim::{ProgramBuilder, StreamInstr};
/// use stream_machine::Machine;
/// use stream_sched::CompiledKernel;
/// use stream_ir::{KernelBuilder, Ty};
///
/// let machine = Machine::baseline();
/// let mut kb = KernelBuilder::new("copy");
/// let s = kb.in_stream(Ty::I32);
/// let o = kb.out_stream(Ty::I32);
/// let x = kb.read(s);
/// kb.write(o, x);
/// let kernel = Arc::new(CompiledKernel::compile_default(&kb.finish()?, &machine)?);
///
/// let mut p = ProgramBuilder::new();
/// let input = p.load(4096);
/// let [out] = p.kernel(&kernel, &[input], &[4096], 4096);
/// p.store(out);
/// let program = p.finish();
/// assert_eq!(program.instrs().len(), 3);
/// let StreamInstr::Kernel(call) = program.instrs()[1] else { unreachable!() };
/// assert_eq!(program.inputs(&call), &[input][..]);
/// assert!(program.outputs(&call).eq([out]));
/// assert!(Arc::ptr_eq(program.kernel(&call), &kernel));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    program: StreamProgram,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    fn new_stream(&mut self, words: u64) -> StreamVar {
        self.program.sizes.push(words);
        StreamVar(self.program.sizes.len() as u32 - 1)
    }

    /// Declares a stream already resident in the SRF (no transfer cost).
    pub fn resident(&mut self, words: u64) -> StreamVar {
        let dst = self.new_stream(words);
        self.program
            .instrs
            .push(StreamInstr::Resident { dst, words });
        dst
    }

    /// Loads `words` from memory into a new stream (sequential pattern).
    pub fn load(&mut self, words: u64) -> StreamVar {
        self.load_patterned(words, AccessPattern::Sequential)
    }

    /// Loads `words` with an explicit DRAM access pattern.
    pub fn load_patterned(&mut self, words: u64, pattern: AccessPattern) -> StreamVar {
        let dst = self.new_stream(words);
        self.program.instrs.push(StreamInstr::Load {
            dst,
            words,
            pattern,
        });
        dst
    }

    /// Runs `kernel` over `inputs`, producing one stream per entry of
    /// `output_words`; `records` is the stream length in records. The
    /// program shares `kernel` rather than copying its schedule.
    ///
    /// # Panics
    ///
    /// If `inputs` or `output_words` has more than `u16::MAX` entries.
    pub fn kernel<const N: usize>(
        &mut self,
        kernel: &Arc<CompiledKernel>,
        inputs: &[StreamVar],
        output_words: &[u64; N],
        records: u64,
    ) -> [StreamVar; N] {
        let program = &mut self.program;
        let index = match program.kernels.iter().position(|k| Arc::ptr_eq(k, kernel)) {
            Some(i) => i,
            None => {
                program.kernels.push(Arc::clone(kernel));
                program.kernels.len() - 1
            }
        };
        let first_output = StreamVar(program.sizes.len() as u32);
        let call = KernelCall {
            kernel: index as u32,
            inputs_start: program.operands.len() as u32,
            inputs_len: u16::try_from(inputs.len()).expect("at most u16::MAX kernel inputs"),
            outputs_len: u16::try_from(N).expect("at most u16::MAX kernel outputs"),
            first_output,
            records,
        };
        program.operands.extend_from_slice(inputs);
        program.sizes.extend_from_slice(output_words);
        program.instrs.push(StreamInstr::Kernel(call));
        std::array::from_fn(|i| StreamVar(first_output.0 + i as u32))
    }

    /// Stores a stream back to memory (sequential pattern).
    pub fn store(&mut self, src: StreamVar) {
        self.store_patterned(src, AccessPattern::Sequential);
    }

    /// Stores a stream with an explicit DRAM access pattern.
    pub fn store_patterned(&mut self, src: StreamVar, pattern: AccessPattern) {
        self.program
            .instrs
            .push(StreamInstr::Store { src, pattern });
    }

    /// Finishes the program.
    pub fn finish(self) -> StreamProgram {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_ir::{KernelBuilder, Ty};
    use stream_machine::Machine;

    fn copy_kernel() -> Arc<CompiledKernel> {
        let mut kb = KernelBuilder::new("copy");
        let s = kb.in_stream(Ty::I32);
        let o = kb.out_stream(Ty::I32);
        let x = kb.read(s);
        let y = kb.add(x, x);
        kb.write(o, y);
        Arc::new(
            CompiledKernel::compile_default(&kb.finish().unwrap(), &Machine::baseline()).unwrap(),
        )
    }

    #[test]
    fn builder_assigns_stream_ids() {
        let k = copy_kernel();
        let mut p = ProgramBuilder::new();
        let a = p.load(100);
        let outs = p.kernel(&k, &[a], &[100, 50], 100);
        p.store(outs[0]);
        let prog = p.finish();
        assert_eq!(prog.stream_count(), 3);
        assert_eq!(prog.size(a), 100);
        assert_eq!(prog.size(outs[1]), 50);
    }

    #[test]
    fn calls_resolve_through_the_program_tables() {
        let k = copy_kernel();
        let other = copy_kernel();
        let mut p = ProgramBuilder::new();
        let a = p.load(64);
        let b = p.resident(32);
        let [x, y] = p.kernel(&k, &[a, b], &[64, 16], 64);
        let [z] = p.kernel(&other, &[], &[8], 8);
        let [w] = p.kernel(&k, &[y, x, a], &[4], 64);
        let prog = p.finish();
        // One table entry per distinct `Arc`, in first-call order, even
        // where two entries compiled the same kernel.
        assert_eq!(prog.kernels().len(), 2);
        assert!(Arc::ptr_eq(&prog.kernels()[0], &k));
        assert!(Arc::ptr_eq(&prog.kernels()[1], &other));
        let calls: Vec<KernelCall> = prog
            .instrs()
            .iter()
            .filter_map(|i| match i {
                StreamInstr::Kernel(call) => Some(*call),
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 3);
        assert!(Arc::ptr_eq(prog.kernel(&calls[2]), &k));
        assert_eq!(prog.inputs(&calls[0]), &[a, b][..]);
        assert!(prog.inputs(&calls[1]).is_empty());
        assert_eq!(prog.inputs(&calls[2]), &[y, x, a][..]);
        assert!(prog.outputs(&calls[0]).eq([x, y]));
        assert!(prog.outputs(&calls[1]).eq([z]));
        assert!(prog.outputs(&calls[2]).eq([w]));
        assert_eq!(calls[2].records(), 64);
        assert_eq!((prog.size(y), prog.size(z), prog.size(w)), (16, 8, 4));
    }

    #[test]
    fn totals_account_memory_and_alu() {
        let k = copy_kernel();
        let mut p = ProgramBuilder::new();
        let a = p.load(256);
        let outs = p.kernel(&k, &[a], &[256], 256);
        p.store(outs[0]);
        let prog = p.finish();
        assert_eq!(prog.total_memory_words(), 512);
        // One i32 add per record.
        assert_eq!(prog.total_alu_ops(), 256);
    }
}
