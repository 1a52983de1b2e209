//! Compiled execution tape — the interpreter's fast path.
//!
//! [`Tape::compile`] validates and lowers a kernel **once** into a flat
//! instruction list: every kernel-IR op becomes exactly one instruction,
//! with pre-resolved operand slots, precomputed stream record
//! widths/word offsets, a `ValueId -> recurrence slot` index, and opcodes
//! pre-specialized by static type. Execution then runs over untagged
//! 32-bit value lanes in structure-of-arrays layout
//! (`vals[value * C + cluster]`), so the per-iteration loop is clone-free,
//! allocation-free, and dispatches on a dense enum.
//!
//! The tape's one compile-time transformation is **hoisting**:
//! iteration-invariant ops (constants, params, cluster ids, and pure chains
//! rooted in them) run once per kernel call, in a prologue.
//!
//! A tape runs one way: serially, on the caller's thread, with the cluster
//! count a runtime value. The paper's parallelism lives in the simulated
//! `(C, N)` machine; the tape only computes the values a kernel produces.
//!
//! The legacy tree-walk interpreter ([`crate::execute_legacy`]) stays as
//! the differential-test oracle; the tape reproduces its observable
//! behavior exactly, including error values and error ordering. The one
//! semantic gap is the legacy interpreter's *dynamic* typing of input
//! stream words: when an input word's runtime type disagrees with the
//! stream declaration, the tape falls back to the oracle wholesale rather
//! than guess.

mod check;
mod exec;
mod instr;
mod scratch;

use crate::interp::{execute_with_legacy, infer_iterations_decls, ExecConfig, ExecOptions};
use crate::{IrError, Kernel, Opcode, Scalar, Ty, ValueId};
use instr::{bits_of, Instr, RecurSlot};
use scratch::Scratchpad;

pub use check::{TapeCheckKind, TapeFinding};

#[doc(hidden)]
pub use check::TapeMutation;

/// Whether every [`Tape::compile`] should be translation-validated, with
/// error-severity findings turned into a panic. Defaults to on in debug
/// builds and off in release; the `STREAM_TAPE_VALIDATE` environment
/// variable (`on`/`1`/`true` or `off`/`0`/`false`) overrides either way.
fn validate_on_compile() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("STREAM_TAPE_VALIDATE") {
        Ok(v) => match v.as_str() {
            "on" | "1" | "true" => true,
            "off" | "0" | "false" => false,
            other => {
                if cfg!(debug_assertions) {
                    eprintln!(
                        "stream-ir: unrecognized STREAM_TAPE_VALIDATE value {other:?} \
                         (expected on/1/true or off/0/false); using the default"
                    );
                }
                cfg!(debug_assertions)
            }
        },
        Err(_) => cfg!(debug_assertions),
    })
}

/// A kernel lowered once into a flat, type-specialized instruction tape.
///
/// Compile with [`Tape::compile`], then run any number of strips with
/// [`Tape::execute`]/[`Tape::execute_with`] — the per-call cost is pure
/// execution, with no per-iteration cloning or dispatch on the tree IR.
/// The tape is cluster-count independent: one compile serves every `C`.
///
/// # Examples
///
/// ```
/// use stream_ir::{ExecConfig, KernelBuilder, Scalar, Tape, Ty};
///
/// let mut b = KernelBuilder::new("double");
/// let s = b.in_stream(Ty::I32);
/// let out = b.out_stream(Ty::I32);
/// let x = b.read(s);
/// let two = b.const_i(2);
/// let y = b.mul(x, two);
/// b.write(out, y);
/// let tape = Tape::compile(&b.finish()?);
///
/// let input: Vec<Scalar> = (0..16).map(Scalar::I32).collect();
/// let outs = tape.execute(&[], &[input], &ExecConfig::with_clusters(8))?;
/// assert_eq!(outs[0][3], Scalar::I32(6));
/// # Ok::<(), stream_ir::IrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tape {
    kernel: Kernel,
    /// Iteration-invariant instructions, run once per kernel call.
    prologue: Vec<Instr>,
    /// The per-iteration loop body, in program order.
    body: Vec<Instr>,
    recurs: Vec<RecurSlot>,
    n_vals: usize,
    uses_sp: bool,
}

impl Tape {
    /// Lowers `kernel` to an execution tape, one instruction per op, with
    /// iteration-invariant instructions hoisted into the prologue.
    /// Infallible for kernels built with [`crate::KernelBuilder`] (any type
    /// inconsistency lowers to a runtime fault instruction, matching the
    /// legacy interpreter).
    pub fn compile(kernel: &Kernel) -> Self {
        let mut compile_span = stream_trace::span("tape", "compile");
        compile_span.arg("kernel", kernel.name());
        compile_span.arg("ops", kernel.ops().len());
        let ops = kernel.ops();
        let n = ops.len();

        // ValueId -> recurrence slot index (satellite of the legacy linear
        // scan fix: the tape never searches at runtime).
        let mut recur_slot = vec![u32::MAX; n];
        let mut recurs = Vec::new();
        for (slot, (r, next)) in kernel.recurrences().enumerate() {
            let init = match &ops[r.index()].opcode {
                Opcode::Recur(init) => *init,
                _ => unreachable!("recurrences() yields Recur ops"),
            };
            recur_slot[r.index()] = slot as u32;
            recurs.push(RecurSlot {
                init_bits: bits_of(init),
                next: next.0,
            });
        }

        // Word offsets of stream accesses within their record, in access
        // order (same counting as the legacy interpreter).
        let mut in_seen = vec![0u32; kernel.inputs().len()];
        let mut out_seen = vec![0u32; kernel.outputs().len()];

        let mut prologue = Vec::new();
        let mut body = Vec::new();
        let mut uses_sp = false;

        for (i, op) in ops.iter().enumerate() {
            let dst = i as u32;
            let arg = |j: usize| op.args[j].0;
            let aty = |j: usize| kernel.ty(op.args[j]);
            // The legacy interpreter's dynamic-dispatch failure value.
            let fault = Instr::Fault {
                at: dst,
                expected: Ty::F32,
                found: op.args.first().map_or(Ty::I32, |&a| kernel.ty(a)),
            };
            // A two-operand instruction, and its i32/f32 specializations
            // picked by the first operand's static type.
            macro_rules! bin {
                ($v:ident) => {
                    Instr::$v {
                        dst,
                        a: arg(0),
                        b: arg(1),
                    }
                };
            }
            macro_rules! typed {
                ($i:ident, $f:ident) => {
                    match aty(0) {
                        Ty::I32 => bin!($i),
                        Ty::F32 => bin!($f),
                    }
                };
            }
            use Opcode::*;
            let ins = match &op.opcode {
                Const(s) => {
                    prologue.push(Instr::ConstBits {
                        dst,
                        bits: bits_of(*s),
                    });
                    continue;
                }
                Param(idx, _) => {
                    prologue.push(Instr::Param { dst, idx: *idx });
                    continue;
                }
                ClusterId => {
                    prologue.push(Instr::ClusterId { dst });
                    continue;
                }
                ClusterCount => {
                    prologue.push(Instr::ClusterCount { dst });
                    continue;
                }
                IterIndex => Instr::IterIndex { dst },
                Recur(_) => Instr::LoadRecur {
                    dst,
                    slot: recur_slot[i],
                },
                Read(s) => {
                    let offset = in_seen[s.index()];
                    in_seen[s.index()] += 1;
                    Instr::Read {
                        dst,
                        stream: s.0,
                        width: kernel.inputs()[s.index()].record_width,
                        offset,
                    }
                }
                Write(s) => {
                    let offset = out_seen[s.index()];
                    out_seen[s.index()] += 1;
                    Instr::Write {
                        src: arg(0),
                        stream: s.0,
                        width: kernel.outputs()[s.index()].record_width,
                        offset,
                    }
                }
                CondRead(s) => {
                    in_seen[s.index()] += 1;
                    Instr::CondRead {
                        dst,
                        pred: arg(0),
                        stream: s.0,
                    }
                }
                CondWrite(s) => {
                    out_seen[s.index()] += 1;
                    Instr::CondWrite {
                        pred: arg(0),
                        src: arg(1),
                        stream: s.0,
                    }
                }
                SpRead(ty) => {
                    uses_sp = true;
                    Instr::SpRead {
                        dst,
                        addr: arg(0),
                        ty: *ty,
                    }
                }
                SpWrite => {
                    uses_sp = true;
                    Instr::SpWrite {
                        at: dst,
                        addr: arg(0),
                        src: arg(1),
                        ty: aty(1),
                    }
                }
                Comm => Instr::Comm {
                    dst,
                    data: arg(0),
                    src: arg(1),
                },
                Add | Sub | Mul | Div | Min | Max if aty(0) != aty(1) => fault,
                Add => typed!(AddI, AddF),
                Sub => typed!(SubI, SubF),
                Mul => typed!(MulI, MulF),
                Div => typed!(DivI, DivF),
                Min => typed!(MinI, MinF),
                Max => typed!(MaxI, MaxF),
                Sqrt if aty(0) == Ty::F32 => Instr::Sqrt { dst, a: arg(0) },
                Floor if aty(0) == Ty::F32 => Instr::Floor { dst, a: arg(0) },
                Neg => match aty(0) {
                    Ty::I32 => Instr::NegI { dst, a: arg(0) },
                    Ty::F32 => Instr::NegF { dst, a: arg(0) },
                },
                Abs => match aty(0) {
                    Ty::I32 => Instr::AbsI { dst, a: arg(0) },
                    Ty::F32 => Instr::AbsF { dst, a: arg(0) },
                },
                And | Or | Xor | Shl | Shr if aty(0) != Ty::I32 || aty(1) != Ty::I32 => fault,
                And => bin!(And),
                Or => bin!(Or),
                Xor => bin!(Xor),
                Shl => bin!(Shl),
                Shr => bin!(Shr),
                Eq | Ne if aty(0) != aty(1) => {
                    // Legacy `scalar_eq` on mixed types is a constant
                    // (false), not an error; hoist the constant.
                    let bits = u32::from(matches!(op.opcode, Ne));
                    prologue.push(Instr::ConstBits { dst, bits });
                    continue;
                }
                Eq => typed!(EqI, EqF),
                Ne => typed!(NeI, NeF),
                Lt | Le if aty(0) != aty(1) => fault,
                Lt => typed!(LtI, LtF),
                Le => typed!(LeI, LeF),
                // Builder-validated kernels always have an i32 condition,
                // so `is_true` reduces to `bits != 0`.
                Select => Instr::Select {
                    dst,
                    cond: arg(0),
                    a: arg(1),
                    b: arg(2),
                },
                ItoF if aty(0) == Ty::I32 => Instr::ItoF { dst, a: arg(0) },
                FtoI if aty(0) == Ty::F32 => Instr::FtoI { dst, a: arg(0) },
                Sqrt | Floor | ItoF | FtoI => fault,
            };
            body.push(ins);
        }

        // Sink transitively iteration-invariant ops (chains rooted at
        // constants, params, and cluster ids) into the prologue.
        hoist_invariants(&mut prologue, &mut body, n);
        compile_span.arg("hoisted", prologue.len());

        let tape = Self {
            kernel: kernel.clone(),
            prologue,
            body,
            recurs,
            n_vals: n,
            uses_sp,
        };
        if validate_on_compile() {
            let errors: Vec<_> = tape
                .validate()
                .into_iter()
                .filter(|f| f.kind.is_error())
                .collect();
            assert!(
                errors.is_empty(),
                "tape translation validation failed for kernel `{}`:\n{}",
                kernel.name(),
                errors
                    .iter()
                    .map(|f| format!("  {f}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        tape
    }

    /// Translation-validates this tape against its kernel and runs the
    /// value-range analysis, returning every finding (errors sort before
    /// warnings). No error-severity finding is a proof of per-iteration
    /// equivalence with the legacy interpreter.
    ///
    /// Runs automatically on every debug-mode compile (see the
    /// `STREAM_TAPE_VALIDATE` environment variable); call it directly to
    /// validate release-mode compiles or to inspect warnings.
    pub fn validate(&self) -> Vec<TapeFinding> {
        let mut span = stream_trace::span("tape", "validate");
        span.arg("kernel", self.kernel.name());
        let findings = check::check_tape(self);
        let errors = findings.iter().filter(|f| f.kind.is_error()).count();
        stream_trace::count("tape.validated", 1);
        stream_trace::count("tape.check_failures", errors as u64);
        span.arg("findings", findings.len());
        findings
    }

    /// The kernel this tape was compiled from.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Number of instructions executed once per kernel call (hoisted
    /// iteration-invariant ops).
    pub fn hoisted_len(&self) -> usize {
        self.prologue.len()
    }

    /// Number of instructions executed every SIMD iteration.
    pub fn loop_len(&self) -> usize {
        self.body.len()
    }

    /// Executes the tape, inferring the iteration count from the first
    /// plain input stream. Drop-in equivalent of [`crate::execute`].
    ///
    /// # Errors
    ///
    /// As [`crate::execute`].
    pub fn execute(
        &self,
        params: &[Scalar],
        inputs: &[Vec<Scalar>],
        cfg: &ExecConfig,
    ) -> Result<Vec<Vec<Scalar>>, IrError> {
        let opts = ExecOptions {
            params,
            sp_init: None,
            iterations: None,
        };
        self.execute_with(&opts, inputs, cfg)
    }

    /// Executes the tape for an explicit number of SIMD iterations.
    ///
    /// # Errors
    ///
    /// As [`crate::execute_iters`].
    pub fn execute_iters(
        &self,
        params: &[Scalar],
        inputs: &[Vec<Scalar>],
        iterations: usize,
        cfg: &ExecConfig,
    ) -> Result<Vec<Vec<Scalar>>, IrError> {
        let opts = ExecOptions {
            params,
            sp_init: None,
            iterations: Some(iterations),
        };
        self.execute_with(&opts, inputs, cfg)
    }

    /// Executes the tape with full [`ExecOptions`]. Drop-in equivalent of
    /// [`crate::execute_with`].
    ///
    /// # Errors
    ///
    /// As [`crate::execute_with`].
    pub fn execute_with(
        &self,
        opts: &ExecOptions<'_>,
        inputs: &[Vec<Scalar>],
        cfg: &ExecConfig,
    ) -> Result<Vec<Vec<Scalar>>, IrError> {
        let mut exec_span = stream_trace::span("tape", "execute");
        exec_span.arg("kernel", self.kernel.name());
        let result = self.execute_with_inner(opts, inputs, cfg, &mut exec_span);
        if let Err(e) = &result {
            note_runtime_error(e);
        }
        result
    }

    fn execute_with_inner(
        &self,
        opts: &ExecOptions<'_>,
        inputs: &[Vec<Scalar>],
        cfg: &ExecConfig,
        exec_span: &mut stream_trace::Span,
    ) -> Result<Vec<Vec<Scalar>>, IrError> {
        let iterations = match opts.iterations {
            Some(n) => n,
            None => infer_iterations_decls(self.kernel.inputs(), inputs, cfg)?,
        };
        if inputs.len() != self.kernel.inputs().len() {
            return Err(IrError::WrongInputCount {
                expected: self.kernel.inputs().len(),
                found: inputs.len(),
            });
        }
        if opts.params.len() != self.kernel.param_tys().len() {
            return Err(IrError::WrongInputCount {
                expected: self.kernel.param_tys().len(),
                found: opts.params.len(),
            });
        }
        for (i, (&ty, p)) in self.kernel.param_tys().iter().zip(opts.params).enumerate() {
            if p.ty() != ty {
                return Err(IrError::TypeMismatch {
                    at: ValueId(i as u32),
                    expected: ty,
                    found: p.ty(),
                });
            }
        }
        if cfg.clusters == 0 {
            // Degenerate no-lane config: let the oracle define behavior.
            stream_trace::count("tape.fallback", 1);
            exec_span.arg("fallback", "zero_clusters");
            return execute_with_legacy(&self.kernel, opts, inputs, cfg);
        }

        // Convert inputs to untagged bit lanes. The legacy interpreter
        // types stream words dynamically; if any word disagrees with its
        // declaration, it — not the tape — defines the behavior.
        let mut in_bits: Vec<Vec<u32>> = Vec::with_capacity(inputs.len());
        for (decl, words) in self.kernel.inputs().iter().zip(inputs) {
            // Validate, then convert, as two separate exitless passes
            // (see [`well_typed`]); the convert pass's per-tag branches
            // collapse (both variants store their payload bits) into a
            // strided copy. The fused Option-collect this replaces ran
            // ~4x slower — per-element early exits defeat vectorization,
            // and this pair is most of the per-call floor for small
            // kernels.
            if !well_typed(decl.ty, words) {
                stream_trace::count("tape.fallback", 1);
                exec_span.arg("fallback", "ill_typed_input");
                return execute_with_legacy(&self.kernel, opts, inputs, cfg);
            }
            in_bits.push(words.iter().map(|&w| bits_of(w)).collect());
        }

        let mut sp = self.build_scratchpad(opts, cfg)?;

        exec::run(self, iterations, opts.params, &in_bits, &mut sp, cfg)
    }

    /// Allocates (or skips) the scratchpad for one execution and seeds it
    /// from `sp_init`.
    fn build_scratchpad(
        &self,
        opts: &ExecOptions<'_>,
        cfg: &ExecConfig,
    ) -> Result<Scratchpad, IrError> {
        let mut sp = if self.uses_sp || opts.sp_init.is_some() {
            Scratchpad::new(cfg.sp_words, cfg.clusters)
        } else {
            Scratchpad::unused()
        };
        if let Some(init) = opts.sp_init {
            for (addr, &word) in init.iter().enumerate() {
                if addr >= cfg.sp_words {
                    return Err(IrError::SpOutOfBounds {
                        at: ValueId(0),
                        addr: addr as i32,
                        capacity: cfg.sp_words,
                    });
                }
                sp.broadcast(addr, cfg.clusters, bits_of(word), word.ty());
            }
        }
        Ok(sp)
    }
}

/// Sinks iteration-invariant body instructions into the prologue: any
/// hoistable instruction whose operands are all defined by the prologue
/// (constants, params, cluster ids — or an already-sunk instruction)
/// computes the same lanes every iteration, so it runs once per kernel call
/// instead.
fn hoist_invariants(prologue: &mut Vec<Instr>, body: &mut Vec<Instr>, n_vals: usize) {
    let mut invariant = vec![false; n_vals];
    for d in prologue.iter().filter_map(Instr::def) {
        invariant[d as usize] = true;
    }
    body.retain(|ins| {
        let Some(dst) = ins.def() else { return true };
        let mut all_invariant = ins.hoistable();
        ins.for_each_operand(|v| all_invariant &= invariant[v as usize]);
        if !all_invariant {
            return true;
        }
        invariant[dst as usize] = true;
        prologue.push(*ins);
        false
    });
}

/// Exitless well-typedness scan of one input stream against its declared
/// type: reduces with `&` instead of short-circuiting so LLVM can
/// vectorize the tag scan.
fn well_typed(ty: Ty, words: &[Scalar]) -> bool {
    match ty {
        Ty::I32 => words
            .iter()
            .fold(true, |a, w| a & matches!(w, Scalar::I32(_))),
        Ty::F32 => words
            .iter()
            .fold(true, |a, w| a & matches!(w, Scalar::F32(_))),
    }
}

/// Classifies an execution error into the trace registry: bounds-style
/// errors (a stream or scratchpad access outside its extent) vs. faults
/// (type confusion, bad comm source, division by zero).
fn note_runtime_error(e: &IrError) {
    let name = match e {
        IrError::StreamExhausted { .. } | IrError::SpOutOfBounds { .. } => "tape.bounds_error",
        IrError::TypeMismatch { .. } | IrError::BadCommSource { .. } | IrError::DivideByZero(_) => {
            "tape.fault"
        }
        _ => return,
    };
    stream_trace::count(name, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_legacy, execute_with, KernelBuilder, StreamId};

    fn cfg(c: usize) -> ExecConfig {
        ExecConfig::with_clusters(c)
    }

    /// A kernel exercising recurrences, COMM, scratchpad, conditional
    /// streams, and both type families at once.
    fn busy_kernel() -> Kernel {
        let mut b = KernelBuilder::new("busy");
        let si = b.in_stream(Ty::I32);
        let sf = b.in_stream(Ty::F32);
        let out_f = b.out_stream(Ty::F32);
        let out_c = b.out_stream(Ty::I32);
        b.require_sp(8);
        let p = b.param(Ty::F32);
        let x = b.read(si);
        let f = b.read(sf);
        let acc = b.recurrence(Scalar::I32(0));
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        let cid = b.cluster_id();
        let cc = b.cluster_count();
        let one = b.const_i(1);
        let nxt = b.add(cid, one);
        let m = b.sub(cc, one);
        let src = b.and(nxt, m); // (cid + 1) & (C - 1): C must be a power of 2
        let rot = b.comm(x, src);
        let seven = b.const_i(7);
        let addr = b.and(x, seven);
        b.sp_write(addr, f);
        let g = b.sp_read(addr, Ty::F32);
        let xf = b.itof(rot);
        let y = b.mul(xf, p);
        let z = b.add(y, g);
        let az = b.abs(z);
        let r = b.sqrt(az);
        b.write(out_f, r);
        let odd = b.and(sum, one);
        b.cond_write(out_c, odd, sum);
        b.finish().unwrap()
    }

    fn busy_inputs(iters: usize, c: usize) -> Vec<Vec<Scalar>> {
        let n = iters * c;
        let ints: Vec<Scalar> = (0..n)
            .map(|i| Scalar::I32((i * 7 % 23) as i32 - 5))
            .collect();
        let floats: Vec<Scalar> = (0..n).map(|i| Scalar::F32(i as f32 * 0.25 - 3.0)).collect();
        vec![ints, floats]
    }

    /// A float kernel with a parameter, two reads, and a constant operand.
    fn saxpy_kernel() -> Kernel {
        let mut b = KernelBuilder::new("saxpy");
        let sx = b.in_stream(Ty::F32);
        let sy = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let a = b.param(Ty::F32);
        let x = b.read(sx);
        let y = b.read(sy);
        let ax = b.mul(a, x);
        let r = b.add(ax, y);
        let half = b.const_f(0.5);
        let scaled = b.mul(r, half);
        b.write(out, scaled);
        b.finish().unwrap()
    }

    fn saxpy_inputs(iters: usize, c: usize) -> Vec<Vec<Scalar>> {
        let n = iters * c;
        let xs: Vec<Scalar> = (0..n).map(|i| Scalar::F32(i as f32 * 0.5 - 7.0)).collect();
        let ys: Vec<Scalar> = (0..n).map(|i| Scalar::F32(3.0 - i as f32 * 0.25)).collect();
        vec![xs, ys]
    }

    #[test]
    fn tape_matches_legacy_on_busy_kernel() {
        let k = busy_kernel();
        let tape = Tape::compile(&k);
        for c in [1usize, 2, 4, 8] {
            let inputs = busy_inputs(6, c);
            let params = [Scalar::F32(1.5)];
            let want = execute_legacy(&k, &params, &inputs, &cfg(c)).unwrap();
            let got = tape.execute(&params, &inputs, &cfg(c)).unwrap();
            assert_eq!(got, want, "C={c}");
        }
    }

    #[test]
    fn execute_routes_through_tape_and_matches_oracle() {
        let k = busy_kernel();
        let inputs = busy_inputs(4, 4);
        let params = [Scalar::F32(-0.75)];
        let want = execute_legacy(&k, &params, &inputs, &cfg(4)).unwrap();
        let got = crate::execute(&k, &params, &inputs, &cfg(4)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn iteration_invariant_ops_are_hoisted() {
        let k = busy_kernel();
        let tape = Tape::compile(&k);
        // Consts, the param, cluster id/count, and the comm-source chain
        // built from them never re-execute per iteration.
        assert!(tape.hoisted_len() >= 8, "{}", tape.hoisted_len());
    }

    #[test]
    fn each_op_lowers_to_one_instruction() {
        for k in [saxpy_kernel(), busy_kernel()] {
            let tape = Tape::compile(&k);
            assert_eq!(tape.hoisted_len() + tape.loop_len(), k.ops().len());
        }
        let k = saxpy_kernel();
        let tape = Tape::compile(&k);
        let params = [Scalar::F32(2.5)];
        for c in [1usize, 3, 4, 8] {
            let inputs = saxpy_inputs(5, c);
            let want = execute_legacy(&k, &params, &inputs, &cfg(c)).unwrap();
            assert_eq!(tape.execute(&params, &inputs, &cfg(c)).unwrap(), want);
        }
    }

    #[test]
    fn errors_follow_program_order() {
        // With BOTH streams exhausting at the same iteration, program order
        // blames the first read (stream 0), even though its single use sits
        // past the second read.
        let mut b = KernelBuilder::new("gap");
        let sa = b.in_stream(Ty::I32);
        let sb = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(sa);
        let y = b.read(sb);
        let s = b.add(y, y);
        let r = b.add(x, s);
        b.write(out, r);
        let k = b.finish().unwrap();
        let tape = Tape::compile(&k);
        let short_a: Vec<Scalar> = (0..5).map(Scalar::I32).collect();
        let short_b: Vec<Scalar> = (0..5).map(Scalar::I32).collect();
        let inputs = vec![short_a, short_b];
        let opts = ExecOptions {
            params: &[],
            sp_init: None,
            iterations: Some(2),
        };
        let want = execute_with_legacy(&k, &opts, &inputs, &cfg(4)).unwrap_err();
        let got = tape.execute_with(&opts, &inputs, &cfg(4)).unwrap_err();
        assert_eq!(got, want);
        assert_eq!(
            got,
            IrError::StreamExhausted {
                stream: StreamId(0),
                iteration: 1
            }
        );
    }

    #[test]
    fn errors_match_legacy() {
        // Integer divide by zero.
        let mut b = KernelBuilder::new("divz");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let zero = b.const_i(0);
        let q = b.div(x, zero);
        b.write(out, q);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let want = execute_legacy(&k, &[], std::slice::from_ref(&input), &cfg(8)).unwrap_err();
        let got = Tape::compile(&k)
            .execute(&[], &[input], &cfg(8))
            .unwrap_err();
        assert_eq!(got, want);

        // Stream exhaustion under an explicit iteration count.
        let mut b = KernelBuilder::new("exhaust");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let tape = Tape::compile(&k);
        let got = tape
            .execute_iters(&[], std::slice::from_ref(&input), 3, &cfg(4))
            .unwrap_err();
        assert_eq!(
            got,
            IrError::StreamExhausted {
                stream: StreamId(0),
                iteration: 2
            }
        );

        // Scratchpad out of bounds.
        let mut b = KernelBuilder::new("oob");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let addr = b.const_i(10_000);
        b.sp_write(addr, x);
        let y = b.sp_read(addr, Ty::I32);
        b.write(out, y);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let want = execute_legacy(&k, &[], std::slice::from_ref(&input), &cfg(8)).unwrap_err();
        let got = Tape::compile(&k)
            .execute(&[], &[input], &cfg(8))
            .unwrap_err();
        assert_eq!(got, want);

        // Bad COMM source.
        let mut b = KernelBuilder::new("badcomm");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let src = b.const_i(99);
        let v = b.comm(x, src);
        b.write(out, v);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let want = execute_legacy(&k, &[], std::slice::from_ref(&input), &cfg(8)).unwrap_err();
        let got = Tape::compile(&k)
            .execute(&[], &[input], &cfg(8))
            .unwrap_err();
        assert_eq!(got, want);
    }

    #[test]
    fn ill_typed_input_words_fall_back_to_the_oracle() {
        // Declared i32, fed f32: the legacy interpreter's dynamic typing
        // passes the words through a plain copy kernel untouched.
        let mut b = KernelBuilder::new("id");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = (0..8).map(|i| Scalar::F32(i as f32)).collect();
        let want = execute_legacy(&k, &[], std::slice::from_ref(&input), &cfg(8)).unwrap();
        let got = Tape::compile(&k).execute(&[], &[input], &cfg(8)).unwrap();
        assert_eq!(got, want);
        assert_eq!(got[0][3], Scalar::F32(3.0));
    }

    #[test]
    fn fallback_counter_fires_exactly_once_per_wholesale_fallback() {
        // Both wholesale-fallback triggers (ill-typed input words, zero
        // clusters) bump `tape.fallback` exactly once per execute, and the
        // fallen-back result is the oracle's, bit for bit. One test covers
        // both triggers: it is the only test in this crate toggling the
        // process-global trace flag, so it needs no cross-test lock.
        let mut b = KernelBuilder::new("id");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        let tape = Tape::compile(&k);
        let fallback = stream_trace::counter("tape.fallback");

        stream_trace::enable();

        // Ill-typed input words: declared i32, fed f32.
        let ill: Vec<Scalar> = (0..8).map(|i| Scalar::F32(i as f32)).collect();
        let before = fallback.get();
        let got = tape.execute(&[], std::slice::from_ref(&ill), &cfg(8));
        assert_eq!(fallback.get(), before + 1, "ill-typed fallback count");
        assert_eq!(
            got,
            execute_legacy(&k, &[], std::slice::from_ref(&ill), &cfg(8))
        );

        // Zero clusters: the degenerate no-lane config. Iterations must be
        // explicit — inference already rejects C=0 before the fallback, on
        // both paths, via the shared helper.
        let well: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let opts = ExecOptions {
            params: &[],
            sp_init: None,
            iterations: Some(1),
        };
        let before = fallback.get();
        let got = tape.execute_with(&opts, std::slice::from_ref(&well), &cfg(0));
        assert_eq!(fallback.get(), before + 1, "zero-cluster fallback count");
        assert_eq!(
            got,
            execute_with(&k, &opts, std::slice::from_ref(&well), &cfg(0))
        );

        // A well-typed run at a sane config takes the tape path: no bump.
        let before = fallback.get();
        tape.execute(&[], std::slice::from_ref(&well), &cfg(8))
            .unwrap();
        assert_eq!(fallback.get(), before, "tape path must not count");

        stream_trace::disable();
        let _ = stream_trace::take_events();
    }

    #[test]
    fn sp_init_round_trips_through_options() {
        let mut b = KernelBuilder::new("table");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::F32);
        b.require_sp(4);
        let x = b.read(s);
        let three = b.const_i(3);
        let addr = b.and(x, three);
        let v = b.sp_read(addr, Ty::F32);
        b.write(out, v);
        let k = b.finish().unwrap();
        let table = [
            Scalar::F32(10.0),
            Scalar::F32(20.0),
            Scalar::F32(30.0),
            Scalar::F32(40.0),
        ];
        let input: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let opts = ExecOptions {
            params: &[],
            sp_init: Some(&table),
            iterations: None,
        };
        let want = execute_with(&k, &opts, std::slice::from_ref(&input), &cfg(4)).unwrap();
        let got = Tape::compile(&k)
            .execute_with(&opts, &[input], &cfg(4))
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(got[0][2], Scalar::F32(30.0));
    }

    #[test]
    fn sp_init_with_zero_capacity_errors_even_at_zero_iterations() {
        // The seed loop runs before any iteration: with sp_words == 0 the
        // very first table word is out of bounds, and a zero-iteration run
        // must still report it — exactly as the legacy interpreter does.
        let mut b = KernelBuilder::new("nosp");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        let table = [Scalar::I32(7)];
        let opts = ExecOptions {
            params: &[],
            sp_init: Some(&table),
            iterations: Some(0),
        };
        let cfg0 = ExecConfig {
            clusters: 4,
            sp_words: 0,
        };
        let inputs = [Vec::new()];
        let want = execute_with_legacy(&k, &opts, &inputs, &cfg0).unwrap_err();
        let got = Tape::compile(&k)
            .execute_with(&opts, &inputs, &cfg0)
            .unwrap_err();
        assert_eq!(got, want);
        assert_eq!(
            got,
            IrError::SpOutOfBounds {
                at: ValueId(0),
                addr: 0,
                capacity: 0
            }
        );
    }

    #[test]
    fn zero_iterations_yield_empty_outputs() {
        let k = busy_kernel();
        let outs = Tape::compile(&k)
            .execute(&[Scalar::F32(0.0)], &[vec![], vec![]], &cfg(8))
            .unwrap();
        assert!(outs.iter().all(Vec::is_empty));
    }

    #[test]
    fn negative_zero_and_nan_semantics_match_legacy() {
        // -0.0 is falsy (bits are nonzero!) and NaN != NaN; both must flow
        // through Eq/Ne and Select exactly as the tagged interpreter does.
        let mut b = KernelBuilder::new("ieee");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let eq = b.eq(x, x);
        let zero = b.const_f(0.0);
        let isz = b.eq(x, zero);
        let seven = b.const_i(7);
        let nine = b.const_i(9);
        let pick = b.select(isz, seven, nine);
        let r = b.add(eq, pick);
        b.write(out, r);
        let k = b.finish().unwrap();
        let input = vec![
            Scalar::F32(f32::NAN),
            Scalar::F32(-0.0),
            Scalar::F32(0.0),
            Scalar::F32(1.0),
        ];
        let want = execute_legacy(&k, &[], std::slice::from_ref(&input), &cfg(4)).unwrap();
        let got = Tape::compile(&k).execute(&[], &[input], &cfg(4)).unwrap();
        assert_eq!(got, want);
        // NaN: eq=0, not zero -> 9; -0.0: eq=1, == 0.0 -> 7 (i.e. 8).
        let ints: Vec<i32> = got[0].iter().map(|s| s.as_i32().unwrap()).collect();
        assert_eq!(ints, vec![9, 8, 8, 10]);
    }
}
