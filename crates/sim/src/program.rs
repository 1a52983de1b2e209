//! Stream programs: the StreamC-level representation the simulator times.
//!
//! A stream program is an ordered list of stream instructions — memory
//! loads/stores and kernel invocations over SRF-resident streams — exactly
//! what the host processor issues to the stream controller (Section 2.2).

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
#[derive(Debug, Clone)]
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
    /// Run a compiled kernel over input streams, producing output streams.
    Kernel {
        /// The compiled kernel (timing comes from its schedule), shared
        /// with every other call of the same kernel and with the cache that
        /// compiled it.
        kernel: Arc<CompiledKernel>,
        /// SRF streams consumed.
        inputs: Vec<StreamVar>,
        /// SRF streams produced, with their sizes in words.
        outputs: Vec<(StreamVar, u64)>,
        /// Stream records processed (loop trip count = records / (C*U)).
        records: u64,
    },
}

/// A complete stream program plus stream metadata.
#[derive(Debug, Clone, Default)]
pub struct StreamProgram {
    instrs: Vec<StreamInstr>,
    /// Size in words of each stream variable.
    sizes: Vec<u64>,
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

    /// Total ALU operations the program performs (records x per-record ALU
    /// ops of each kernel) — the numerator of sustained GOPS.
    pub fn total_alu_ops(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                StreamInstr::Kernel {
                    kernel, records, ..
                } => {
                    // alu ops per record = per-cluster-per-cycle * ii /
                    // unroll ... simpler: stats were captured at compile
                    // time via alu_ops_per_cycle_per_cluster * ii / unroll.
                    let per_record = kernel.alu_ops_per_cycle_per_cluster()
                        * f64::from(kernel.ii())
                        / f64::from(kernel.unroll_factor());
                    (per_record * *records as f64).round() as u64
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
                StreamInstr::Kernel { .. } | StreamInstr::Resident { .. } => 0,
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
/// use stream_sim::ProgramBuilder;
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
/// let out = p.kernel(&kernel, &[input], &[4096], 4096);
/// p.store(out[0]);
/// let program = p.finish();
/// assert_eq!(program.instrs().len(), 3);
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
    pub fn kernel(
        &mut self,
        kernel: &Arc<CompiledKernel>,
        inputs: &[StreamVar],
        output_words: &[u64],
        records: u64,
    ) -> Vec<StreamVar> {
        let outputs: Vec<(StreamVar, u64)> = output_words
            .iter()
            .map(|&w| (self.new_stream(w), w))
            .collect();
        let vars: Vec<StreamVar> = outputs.iter().map(|&(v, _)| v).collect();
        self.program.instrs.push(StreamInstr::Kernel {
            kernel: Arc::clone(kernel),
            inputs: inputs.to_vec(),
            outputs,
            records,
        });
        vars
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
