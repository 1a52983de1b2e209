//! Functional SIMD interpreter for kernels.
//!
//! Executes a kernel exactly as `C` clusters would: iteration `i` processes
//! records `i*C .. i*C+C` of every plain stream (records striped across
//! clusters), scratchpads are per-cluster memories, COMM ops move words
//! between clusters, and conditional streams compact/expand across clusters
//! in cluster order.
//!
//! It walks the kernel's op list directly, one op at a time for every
//! cluster: this is the one definition of what a kernel computes.

use crate::{IrError, Kernel, Opcode, Scalar, StreamDir, Ty, ValueId};

/// Execution configuration: how many clusters run the kernel SIMD, and how
/// big each per-cluster scratchpad is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of SIMD clusters (`C`).
    pub clusters: usize,
    /// Scratchpad capacity per cluster, in words (Imagine: 256).
    pub sp_words: usize,
}

impl ExecConfig {
    /// `C` clusters with the Imagine 256-word scratchpad.
    pub fn with_clusters(clusters: usize) -> Self {
        Self {
            clusters,
            sp_words: 256,
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::with_clusters(8)
    }
}

/// Executes `kernel` over `inputs`, inferring the iteration count from the
/// first plain input stream.
///
/// Each element of `inputs` is the flat word contents of the corresponding
/// declared input stream. The result is one flat word vector per output
/// stream.
///
/// # Errors
///
/// Returns an error if stream lengths are ragged or not a whole number of
/// SIMD strips, parameters mismatch, a scratchpad or COMM access is out of
/// bounds, an input word of the wrong type reaches an op that needs the
/// other, or an integer divide by zero occurs.
///
/// # Examples
///
/// ```
/// use stream_ir::{execute, ExecConfig, KernelBuilder, Scalar, Ty};
///
/// let mut b = KernelBuilder::new("double");
/// let s = b.in_stream(Ty::I32);
/// let out = b.out_stream(Ty::I32);
/// let x = b.read(s);
/// let two = b.const_i(2);
/// let y = b.mul(x, two);
/// b.write(out, y);
/// let k = b.finish()?;
///
/// let input: Vec<Scalar> = (0..16).map(Scalar::I32).collect();
/// let outs = execute(&k, &[], &[input], &ExecConfig::with_clusters(8))?;
/// assert_eq!(outs[0][3], Scalar::I32(6));
/// # Ok::<(), stream_ir::IrError>(())
/// ```
pub fn execute(
    kernel: &Kernel,
    params: &[Scalar],
    inputs: &[Vec<Scalar>],
    cfg: &ExecConfig,
) -> Result<Vec<Vec<Scalar>>, IrError> {
    let opts = ExecOptions {
        params,
        sp_init: None,
        iterations: None,
    };
    execute_with(kernel, &opts, inputs, cfg)
}

/// Number of SIMD loop iterations needed to consume `inputs`, from the first
/// plain (unconditional) input stream.
///
/// # Errors
///
/// Returns an error if stream lengths are ragged, not strip-aligned, or
/// inconsistent across plain streams.
pub fn infer_iterations(
    kernel: &Kernel,
    inputs: &[Vec<Scalar>],
    cfg: &ExecConfig,
) -> Result<usize, IrError> {
    let decls = kernel.inputs();
    if inputs.len() != decls.len() {
        return Err(IrError::WrongInputCount {
            expected: decls.len(),
            found: inputs.len(),
        });
    }
    let mut iterations: Option<usize> = None;
    for (idx, (decl, words)) in decls.iter().zip(inputs).enumerate() {
        if decl.conditional || decl.record_width == 0 {
            continue;
        }
        let width = decl.record_width as usize;
        if words.len() % width != 0 {
            return Err(IrError::RaggedStream {
                stream: crate::StreamId(idx as u32),
                words: words.len(),
                record_width: width,
            });
        }
        let records = words.len() / width;
        if !records.is_multiple_of(cfg.clusters) {
            return Err(IrError::RaggedStream {
                stream: crate::StreamId(idx as u32),
                words: words.len(),
                record_width: width * cfg.clusters,
            });
        }
        // With no clusters only empty streams get here, and they run zero
        // iterations.
        let iters = records.checked_div(cfg.clusters).unwrap_or(0);
        match iterations {
            None => iterations = Some(iters),
            Some(prev) if prev != iters => {
                return Err(IrError::StreamExhausted {
                    stream: crate::StreamId(idx as u32),
                    iteration: prev.min(iters),
                })
            }
            Some(_) => {}
        }
    }
    Ok(iterations.unwrap_or(0))
}

/// Executes `kernel` for an explicit number of SIMD iterations.
///
/// # Errors
///
/// As [`execute`], plus exhaustion errors if `iterations` over-runs an input
/// stream.
pub fn execute_iters(
    kernel: &Kernel,
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
    execute_with(kernel, &opts, inputs, cfg)
}

/// Full execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Uniform scalar parameters, matching [`Kernel::param_tys`].
    pub params: &'a [Scalar],
    /// Initial scratchpad contents, replicated into every cluster (a
    /// kernel-prologue table load, e.g. FFT twiddles or a Perlin permutation
    /// table). `None` leaves scratchpads unwritten.
    pub sp_init: Option<&'a [Scalar]>,
    /// Explicit SIMD iteration count; inferred from the first plain input
    /// stream when `None`.
    pub iterations: Option<usize>,
}

/// Executes `kernel` with full [`ExecOptions`].
///
/// # Errors
///
/// As [`execute`].
pub fn execute_with(
    kernel: &Kernel,
    opts: &ExecOptions<'_>,
    inputs: &[Vec<Scalar>],
    cfg: &ExecConfig,
) -> Result<Vec<Vec<Scalar>>, IrError> {
    let iterations = match opts.iterations {
        Some(n) => n,
        None => infer_iterations(kernel, inputs, cfg)?,
    };
    let mut interp = Interp::new(kernel, opts.params, inputs, cfg)?;
    if let Some(init) = opts.sp_init {
        for (addr, &word) in init.iter().enumerate() {
            if addr >= cfg.sp_words {
                return Err(IrError::SpOutOfBounds {
                    at: ValueId(0),
                    addr: addr as i32,
                    capacity: cfg.sp_words,
                });
            }
            for c in 0..cfg.clusters {
                interp.sp[c][addr] = Some(word);
            }
        }
    }
    interp.run(iterations)
}

/// Word offsets of each stream-access op within its record, plus access
/// bookkeeping, precomputed once per kernel execution.
struct Interp<'a> {
    kernel: &'a Kernel,
    params: Vec<Scalar>,
    inputs: &'a [Vec<Scalar>],
    cfg: ExecConfig,
    clusters: usize,
    /// For each op that accesses a stream: its word offset within the record.
    word_offset: Vec<usize>,
    /// Runtime cursors for conditional input streams (in words).
    cond_cursor: Vec<usize>,
    /// Output buffers, indexed by output stream.
    outputs: Vec<Vec<Scalar>>,
    /// Per-cluster scratchpads (None = never written).
    sp: Vec<Vec<Option<Scalar>>>,
    /// Per-recurrence per-cluster state.
    recur_state: Vec<(ValueId, Vec<Scalar>)>,
    /// Op index -> index into `recur_state` (usize::MAX for non-Recur ops).
    recur_pos: Vec<usize>,
    /// Value lattice: vals[cluster][op].
    vals: Vec<Vec<Scalar>>,
}

impl<'a> Interp<'a> {
    fn new(
        kernel: &'a Kernel,
        params: &[Scalar],
        inputs: &'a [Vec<Scalar>],
        cfg: &ExecConfig,
    ) -> Result<Self, IrError> {
        if inputs.len() != kernel.inputs().len() {
            return Err(IrError::WrongInputCount {
                expected: kernel.inputs().len(),
                found: inputs.len(),
            });
        }
        // Check parameters.
        if params.len() != kernel.param_tys().len() {
            return Err(IrError::WrongInputCount {
                expected: kernel.param_tys().len(),
                found: params.len(),
            });
        }
        for (i, (&ty, p)) in kernel.param_tys().iter().zip(params).enumerate() {
            if p.ty() != ty {
                return Err(IrError::TypeMismatch {
                    at: ValueId(i as u32),
                    expected: ty,
                    found: p.ty(),
                });
            }
        }

        // Precompute word offsets for stream accesses.
        let mut in_seen = vec![0usize; kernel.inputs().len()];
        let mut out_seen = vec![0usize; kernel.outputs().len()];
        let mut word_offset = vec![0usize; kernel.ops().len()];
        for (i, op) in kernel.ops().iter().enumerate() {
            if let Some((s, dir)) = op.opcode.stream() {
                let seen = match dir {
                    StreamDir::Input => &mut in_seen[s.index()],
                    StreamDir::Output => &mut out_seen[s.index()],
                };
                word_offset[i] = *seen;
                *seen += 1;
            }
        }

        let clusters = cfg.clusters;
        let mut recur_pos = vec![usize::MAX; kernel.ops().len()];
        let recur_state: Vec<(ValueId, Vec<Scalar>)> = kernel
            .recurrences()
            .enumerate()
            .map(|(i, (r, _))| {
                let init = match &kernel.ops()[r.index()].opcode {
                    Opcode::Recur(init) => *init,
                    _ => unreachable!("recurrences() yields Recur ops"),
                };
                recur_pos[r.index()] = i;
                (r, vec![init; clusters])
            })
            .collect();

        Ok(Self {
            kernel,
            params: params.to_vec(),
            inputs,
            cfg: *cfg,
            clusters,
            word_offset,
            cond_cursor: vec![0; kernel.inputs().len()],
            outputs: kernel.outputs().iter().map(|_| Vec::new()).collect(),
            sp: vec![vec![None; cfg.sp_words]; clusters],
            recur_state,
            recur_pos,
            vals: vec![vec![Scalar::I32(0); kernel.ops().len()]; clusters],
        })
    }

    fn run(mut self, iterations: usize) -> Result<Vec<Vec<Scalar>>, IrError> {
        // Preallocate plain output buffers; reserve conditional ones to
        // their upper bound (every cluster active every iteration) so
        // cond-write pushes never reallocate mid-run.
        for (s, decl) in self.kernel.outputs().iter().enumerate() {
            let words = iterations * self.clusters * decl.record_width as usize;
            if !decl.conditional {
                self.outputs[s] = vec![Scalar::zero(decl.ty); words];
            } else {
                self.outputs[s].reserve(words);
            }
        }
        for iter in 0..iterations {
            self.run_iteration(iter)?;
        }
        Ok(self.outputs)
    }

    fn run_iteration(&mut self, iter: usize) -> Result<(), IrError> {
        let n_ops = self.kernel.ops().len();
        for i in 0..n_ops {
            self.eval_op(ValueId(i as u32), iter)?;
        }
        // Advance recurrences.
        for idx in 0..self.recur_state.len() {
            let (r, _) = self.recur_state[idx];
            let next = self
                .kernel
                .recur_next(r)
                .expect("validated kernels have bound recurrences");
            for c in 0..self.clusters {
                self.recur_state[idx].1[c] = self.vals[c][next.index()];
            }
        }
        Ok(())
    }

    fn eval_op(&mut self, v: ValueId, iter: usize) -> Result<(), IrError> {
        let op = &self.kernel.ops()[v.index()];
        let opcode = op.opcode.clone();
        let args = op.args.clone();
        match opcode {
            Opcode::Const(s) => self.broadcast(v, |_| s),
            Opcode::Param(idx, _) => {
                let s = self.params[idx as usize];
                self.broadcast(v, |_| s);
            }
            Opcode::IterIndex => self.broadcast(v, |_| Scalar::I32(iter as i32)),
            Opcode::ClusterId => self.broadcast(v, |c| Scalar::I32(c as i32)),
            Opcode::ClusterCount => {
                let c = self.clusters as i32;
                self.broadcast(v, |_| Scalar::I32(c));
            }
            Opcode::Recur(_) => {
                let idx = self.recur_pos[v.index()];
                for c in 0..self.clusters {
                    self.vals[c][v.index()] = self.recur_state[idx].1[c];
                }
            }
            Opcode::Read(s) => {
                let width = self.kernel.inputs()[s.index()].record_width as usize;
                let offset = self.word_offset[v.index()];
                for c in 0..self.clusters {
                    let record = iter * self.clusters + c;
                    let idx = record * width + offset;
                    let word = self.inputs[s.index()].get(idx).copied().ok_or(
                        IrError::StreamExhausted {
                            stream: s,
                            iteration: iter,
                        },
                    )?;
                    self.vals[c][v.index()] = word;
                }
            }
            Opcode::Write(s) => {
                let width = self.kernel.outputs()[s.index()].record_width as usize;
                let offset = self.word_offset[v.index()];
                for c in 0..self.clusters {
                    let record = iter * self.clusters + c;
                    let idx = record * width + offset;
                    let val = self.vals[c][args[0].index()];
                    self.outputs[s.index()][idx] = val;
                }
            }
            Opcode::CondRead(s) => {
                for c in 0..self.clusters {
                    let pred = self.vals[c][args[0].index()].is_true();
                    let ty = self.kernel.inputs()[s.index()].ty;
                    self.vals[c][v.index()] = if pred {
                        let cursor = &mut self.cond_cursor[s.index()];
                        let word = self.inputs[s.index()].get(*cursor).copied().ok_or(
                            IrError::StreamExhausted {
                                stream: s,
                                iteration: iter,
                            },
                        )?;
                        *cursor += 1;
                        word
                    } else {
                        Scalar::zero(ty)
                    };
                }
            }
            Opcode::CondWrite(s) => {
                for c in 0..self.clusters {
                    if self.vals[c][args[0].index()].is_true() {
                        let val = self.vals[c][args[1].index()];
                        self.outputs[s.index()].push(val);
                    }
                }
            }
            Opcode::SpRead(ty) => {
                for c in 0..self.clusters {
                    let addr = self.i32_operand(c, args[0], v)?;
                    let slot = self.sp_slot(c, addr, v)?;
                    let stored = self.sp[c][slot].unwrap_or(Scalar::zero(ty));
                    if stored.ty() != ty {
                        return Err(IrError::TypeMismatch {
                            at: v,
                            expected: ty,
                            found: stored.ty(),
                        });
                    }
                    self.vals[c][v.index()] = stored;
                }
            }
            Opcode::SpWrite => {
                for c in 0..self.clusters {
                    let addr = self.i32_operand(c, args[0], v)?;
                    let slot = self.sp_slot(c, addr, v)?;
                    self.sp[c][slot] = Some(self.vals[c][args[1].index()]);
                }
            }
            Opcode::Comm => {
                let mut received = vec![Scalar::I32(0); self.clusters];
                for (c, slot) in received.iter_mut().enumerate() {
                    let src = self.i32_operand(c, args[1], v)?;
                    if src < 0 || src as usize >= self.clusters {
                        return Err(IrError::BadCommSource {
                            at: v,
                            src,
                            clusters: self.clusters,
                        });
                    }
                    *slot = self.vals[src as usize][args[0].index()];
                }
                for c in 0..self.clusters {
                    self.vals[c][v.index()] = received[c];
                }
            }
            _ => {
                // Pure arithmetic.
                for c in 0..self.clusters {
                    let a: Vec<Scalar> = args.iter().map(|&x| self.vals[c][x.index()]).collect();
                    self.vals[c][v.index()] = eval_arith(&opcode, &a, v)?;
                }
            }
        }
        Ok(())
    }

    /// Cluster `c`'s value of `operand`, a scratchpad address or COMM
    /// source. The builder types those `I32`, but an input stream word of
    /// the other type can still reach them at run time.
    fn i32_operand(&self, c: usize, operand: ValueId, at: ValueId) -> Result<i32, IrError> {
        match self.vals[c][operand.index()] {
            Scalar::I32(x) => Ok(x),
            word => Err(IrError::TypeMismatch {
                at,
                expected: Ty::I32,
                found: word.ty(),
            }),
        }
    }

    fn broadcast(&mut self, v: ValueId, f: impl Fn(usize) -> Scalar) {
        for c in 0..self.clusters {
            self.vals[c][v.index()] = f(c);
        }
    }

    fn sp_slot(&self, _cluster: usize, addr: i32, at: ValueId) -> Result<usize, IrError> {
        if addr < 0 || addr as usize >= self.cfg.sp_words {
            return Err(IrError::SpOutOfBounds {
                at,
                addr,
                capacity: self.cfg.sp_words,
            });
        }
        Ok(addr as usize)
    }
}

/// Evaluates a pure arithmetic opcode on scalar operands.
fn eval_arith(opcode: &Opcode, a: &[Scalar], at: ValueId) -> Result<Scalar, IrError> {
    use Opcode::*;
    use Scalar::{F32, I32};
    let bool_i32 = |b: bool| I32(i32::from(b));
    Ok(match (opcode, a) {
        (Add, [I32(x), I32(y)]) => I32(x.wrapping_add(*y)),
        (Add, [F32(x), F32(y)]) => F32(x + y),
        (Sub, [I32(x), I32(y)]) => I32(x.wrapping_sub(*y)),
        (Sub, [F32(x), F32(y)]) => F32(x - y),
        (Mul, [I32(x), I32(y)]) => I32(x.wrapping_mul(*y)),
        (Mul, [F32(x), F32(y)]) => F32(x * y),
        (Div, [I32(_), I32(0)]) => return Err(IrError::DivideByZero(at)),
        (Div, [I32(x), I32(y)]) => I32(x.wrapping_div(*y)),
        (Div, [F32(x), F32(y)]) => F32(x / y),
        (Sqrt, [F32(x)]) => F32(x.sqrt()),
        (Min, [I32(x), I32(y)]) => I32(*x.min(y)),
        (Min, [F32(x), F32(y)]) => F32(x.min(*y)),
        (Max, [I32(x), I32(y)]) => I32(*x.max(y)),
        (Max, [F32(x), F32(y)]) => F32(x.max(*y)),
        (Neg, [I32(x)]) => I32(x.wrapping_neg()),
        (Neg, [F32(x)]) => F32(-x),
        (Abs, [I32(x)]) => I32(x.wrapping_abs()),
        (Abs, [F32(x)]) => F32(x.abs()),
        (Floor, [F32(x)]) => F32(x.floor()),
        (And, [I32(x), I32(y)]) => I32(x & y),
        (Or, [I32(x), I32(y)]) => I32(x | y),
        (Xor, [I32(x), I32(y)]) => I32(x ^ y),
        (Shl, [I32(x), I32(y)]) => I32(x.wrapping_shl(*y as u32)),
        (Shr, [I32(x), I32(y)]) => I32(x.wrapping_shr(*y as u32)),
        (Eq, [x, y]) => bool_i32(scalar_eq(x, y)),
        (Ne, [x, y]) => bool_i32(!scalar_eq(x, y)),
        (Lt, [I32(x), I32(y)]) => bool_i32(x < y),
        (Lt, [F32(x), F32(y)]) => bool_i32(x < y),
        (Le, [I32(x), I32(y)]) => bool_i32(x <= y),
        (Le, [F32(x), F32(y)]) => bool_i32(x <= y),
        (Select, [cond, x, y]) => {
            if cond.is_true() {
                *x
            } else {
                *y
            }
        }
        (ItoF, [I32(x)]) => F32(*x as f32),
        (FtoI, [F32(x)]) => I32(*x as i32),
        (op, args) => {
            // Builder type checking makes this unreachable for built
            // kernels; report a type error rather than panic for kernels
            // constructed by other means.
            let found = args.first().map_or(Ty::I32, Scalar::ty);
            let _ = op;
            return Err(IrError::TypeMismatch {
                at,
                expected: Ty::F32,
                found,
            });
        }
    })
}

fn scalar_eq(x: &Scalar, y: &Scalar) -> bool {
    match (x, y) {
        (Scalar::I32(a), Scalar::I32(b)) => a == b,
        (Scalar::F32(a), Scalar::F32(b)) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    fn cfg(c: usize) -> ExecConfig {
        ExecConfig::with_clusters(c)
    }

    #[test]
    fn saxpy_computes() {
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
        let k = b.finish().unwrap();

        let xs: Vec<Scalar> = (0..16).map(|i| Scalar::F32(i as f32)).collect();
        let ys: Vec<Scalar> = (0..16).map(|i| Scalar::F32(100.0 + i as f32)).collect();
        let outs = execute(&k, &[Scalar::F32(2.0)], &[xs, ys], &cfg(8)).unwrap();
        for i in 0..16 {
            assert_eq!(outs[0][i], Scalar::F32(2.0 * i as f32 + 100.0 + i as f32));
        }
    }

    #[test]
    fn iteration_inference_rejects_ragged() {
        let mut b = KernelBuilder::new("id");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        // 10 words is not a multiple of 8 clusters.
        let input: Vec<Scalar> = (0..10).map(Scalar::I32).collect();
        let err = execute(&k, &[], &[input], &cfg(8)).unwrap_err();
        assert!(matches!(err, IrError::RaggedStream { .. }));
    }

    #[test]
    fn recurrence_accumulates_per_cluster() {
        // Running sum over each cluster's records.
        let mut b = KernelBuilder::new("prefix");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let acc = b.recurrence(Scalar::I32(0));
        let x = b.read(s);
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        b.write(out, sum);
        let k = b.finish().unwrap();

        // 2 clusters, 4 iterations: cluster 0 sees 0,2,4,6; cluster 1 sees
        // 1,3,5,7.
        let input: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let outs = execute(&k, &[], &[input], &cfg(2)).unwrap();
        let got: Vec<i32> = outs[0].iter().map(|s| s.as_i32().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 4, 6, 9, 12, 16]);
    }

    #[test]
    fn comm_rotates_between_clusters() {
        // Each cluster reads from its left neighbor (c + C - 1) % C.
        let mut b = KernelBuilder::new("rotate");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let cid = b.cluster_id();
        let cc = b.cluster_count();
        let one = b.const_i(1);
        let sum = b.add(cid, cc);
        let left = b.sub(sum, one);
        let cc2 = b.cluster_count();
        let q = b.div(left, cc2);
        let qc = b.mul(q, cc2);
        let src = b.sub(left, qc); // (cid + C - 1) mod C
        let v = b.comm(x, src);
        b.write(out, v);
        let k = b.finish().unwrap();

        let input: Vec<Scalar> = (0..4).map(Scalar::I32).collect();
        let outs = execute(&k, &[], &[input], &cfg(4)).unwrap();
        let got: Vec<i32> = outs[0].iter().map(|s| s.as_i32().unwrap()).collect();
        assert_eq!(got, vec![3, 0, 1, 2]);
    }

    #[test]
    fn cond_streams_compact_in_cluster_order() {
        // Keep only even inputs.
        let mut b = KernelBuilder::new("compact");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let one = b.const_i(1);
        let two = b.const_i(2);
        let h = b.div(x, two);
        let h2 = b.mul(h, two);
        let odd = b.sub(x, h2);
        let even = b.sub(one, odd);
        b.cond_write(out, even, x);
        let k = b.finish().unwrap();

        let input: Vec<Scalar> = (0..16).map(Scalar::I32).collect();
        let outs = execute(&k, &[], &[input], &cfg(4)).unwrap();
        let got: Vec<i32> = outs[0].iter().map(|s| s.as_i32().unwrap()).collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn cond_read_distributes() {
        // Every cluster with cid < 2 pops an element.
        let mut b = KernelBuilder::new("expand");
        let data = b.in_stream(Ty::I32);
        let trigger = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let _t = b.read(trigger); // drives the iteration count
        let cid = b.cluster_id();
        let two = b.const_i(2);
        let pred = b.lt(cid, two);
        let v = b.cond_read(data, pred);
        b.write(out, v);
        let k = b.finish().unwrap();

        let data: Vec<Scalar> = (100..104).map(Scalar::I32).collect();
        let trigger: Vec<Scalar> = vec![Scalar::I32(0); 8]; // 2 iterations of 4
        let outs = execute(&k, &[], &[data, trigger], &cfg(4)).unwrap();
        let got: Vec<i32> = outs[0].iter().map(|s| s.as_i32().unwrap()).collect();
        assert_eq!(got, vec![100, 101, 0, 0, 102, 103, 0, 0]);
    }

    #[test]
    fn scratchpad_round_trips_per_cluster() {
        let mut b = KernelBuilder::new("sp");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        b.require_sp(4);
        let x = b.read(s);
        let addr = b.const_i(2);
        b.sp_write(addr, x);
        let y = b.sp_read(addr, Ty::F32);
        b.write(out, y);
        let k = b.finish().unwrap();

        let input: Vec<Scalar> = (0..8).map(|i| Scalar::F32(i as f32)).collect();
        let outs = execute(&k, &[], std::slice::from_ref(&input), &cfg(8)).unwrap();
        assert_eq!(outs[0], input);
    }

    #[test]
    fn sp_out_of_bounds_is_reported() {
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
        let err = execute(&k, &[], &[input], &cfg(8)).unwrap_err();
        assert!(matches!(err, IrError::SpOutOfBounds { .. }));
    }

    #[test]
    fn integer_divide_by_zero_is_reported() {
        let mut b = KernelBuilder::new("divz");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let zero = b.const_i(0);
        let q = b.div(x, zero);
        b.write(out, q);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = (0..8).map(Scalar::I32).collect();
        let err = execute(&k, &[], &[input], &cfg(8)).unwrap_err();
        assert_eq!(err, IrError::DivideByZero(ValueId(2)));
    }

    #[test]
    fn param_type_is_checked() {
        let mut b = KernelBuilder::new("p");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let p = b.param(Ty::F32);
        let x = b.read(s);
        let r = b.mul(p, x);
        b.write(out, r);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = vec![Scalar::F32(1.0); 8];
        let err = execute(&k, &[Scalar::I32(3)], &[input], &cfg(8)).unwrap_err();
        assert!(matches!(err, IrError::TypeMismatch { .. }));
    }

    #[test]
    fn multi_word_records_stripe_correctly() {
        // Complex magnitude-squared: records of (re, im).
        let mut b = KernelBuilder::new("mag2");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let re = b.read(s);
        let im = b.read(s);
        let rr = b.mul(re, re);
        let ii = b.mul(im, im);
        let m = b.add(rr, ii);
        b.write(out, m);
        let k = b.finish().unwrap();

        // 4 records of 2 words on 2 clusters -> 2 iterations.
        let input: Vec<Scalar> = vec![
            Scalar::F32(1.0),
            Scalar::F32(2.0),
            Scalar::F32(3.0),
            Scalar::F32(4.0),
            Scalar::F32(0.0),
            Scalar::F32(5.0),
            Scalar::F32(6.0),
            Scalar::F32(0.0),
        ];
        let outs = execute(&k, &[], &[input], &cfg(2)).unwrap();
        let got: Vec<f32> = outs[0].iter().map(|s| s.as_f32().unwrap()).collect();
        assert_eq!(got, vec![5.0, 25.0, 25.0, 36.0]);
    }

    #[test]
    fn iter_index_is_global() {
        let mut b = KernelBuilder::new("iters");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let _x = b.read(s);
        let i = b.iter_index();
        b.write(out, i);
        let k = b.finish().unwrap();
        let input: Vec<Scalar> = vec![Scalar::I32(0); 8];
        let outs = execute(&k, &[], &[input], &cfg(4)).unwrap();
        let got: Vec<i32> = outs[0].iter().map(|s| s.as_i32().unwrap()).collect();
        assert_eq!(got, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn zero_iteration_execution_is_empty() {
        let mut b = KernelBuilder::new("empty");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        let outs = execute(&k, &[], &[vec![]], &cfg(8)).unwrap();
        assert!(outs[0].is_empty());
    }

    #[test]
    fn zero_clusters_with_empty_streams_run_zero_iterations() {
        let mut b = KernelBuilder::new("none");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        let k = b.finish().unwrap();
        let outs = execute(&k, &[], &[vec![]], &cfg(0)).unwrap();
        assert_eq!(outs, vec![Vec::<Scalar>::new()]);
    }

    #[test]
    fn non_i32_sp_address_is_a_type_mismatch() {
        // The address is an input word, which the stream's declared type
        // does not bind. v1 is the sp_write, or the sp_read when there is
        // no write.
        let addressed = |write: bool| {
            let mut b = KernelBuilder::new("sp_addr");
            let s = b.in_stream(Ty::I32);
            let out = b.out_stream(Ty::I32);
            b.require_sp(4);
            let addr = b.read(s);
            if write {
                b.sp_write(addr, addr);
            }
            let y = b.sp_read(addr, Ty::I32);
            b.write(out, y);
            b.finish().unwrap()
        };
        let input = vec![Scalar::I32(0), Scalar::F32(1.0)];
        for write in [true, false] {
            let err = execute(
                &addressed(write),
                &[],
                std::slice::from_ref(&input),
                &cfg(2),
            );
            assert_eq!(
                err,
                Err(IrError::TypeMismatch {
                    at: ValueId(1),
                    expected: Ty::I32,
                    found: Ty::F32,
                })
            );
        }
    }

    #[test]
    fn non_i32_comm_source_is_a_type_mismatch() {
        let mut b = KernelBuilder::new("comm_src");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let src = b.read(s);
        let v = b.comm(src, src);
        b.write(out, v);
        let k = b.finish().unwrap();
        let input = vec![Scalar::I32(0), Scalar::F32(0.0)];
        let err = execute(&k, &[], &[input], &cfg(2));
        assert_eq!(
            err,
            Err(IrError::TypeMismatch {
                at: ValueId(1),
                expected: Ty::I32,
                found: Ty::F32,
            })
        );
    }
}
