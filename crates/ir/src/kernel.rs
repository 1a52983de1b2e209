//! Kernels: straight-line SIMD loop bodies over streams, and the builder
//! used to construct them (the KernelC equivalent).

use crate::{IrError, Op, Opcode, Scalar, StreamDir, StreamId, Ty, ValueId};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use stream_machine::OpClass;

/// Declaration of one kernel stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDecl {
    /// Word type of every element word in the stream.
    pub ty: Ty,
    /// Words accessed per loop iteration (the record width). Computed from
    /// the kernel body at [`KernelBuilder::finish`].
    pub record_width: u32,
    /// Whether this stream is accessed conditionally (compacting access
    /// through the intercluster switch).
    pub conditional: bool,
}

/// A compiled-from-source kernel: the body of one stream-program kernel's
/// inner loop, executed SIMD across all clusters.
///
/// Build one with [`KernelBuilder`]; run it with
/// [`execute`](crate::execute); schedule it with the `stream-sched` crate.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    ops: Vec<Op>,
    types: Vec<Ty>,
    inputs: Vec<StreamDecl>,
    outputs: Vec<StreamDecl>,
    recur_next: BTreeMap<ValueId, ValueId>,
    sp_words: u32,
    param_tys: Vec<Ty>,
}

impl Kernel {
    /// The kernel's name (used in reports and Table 2/4 rows).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ops of the loop body, in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The static type of a value.
    pub fn ty(&self, v: ValueId) -> Ty {
        self.types[v.index()]
    }

    /// Input stream declarations.
    pub fn inputs(&self) -> &[StreamDecl] {
        &self.inputs
    }

    /// Output stream declarations.
    pub fn outputs(&self) -> &[StreamDecl] {
        &self.outputs
    }

    /// Scratchpad words this kernel requires per cluster.
    pub fn sp_words(&self) -> u32 {
        self.sp_words
    }

    /// The declared types of the kernel's uniform scalar parameters, in
    /// declaration order.
    pub fn param_tys(&self) -> &[Ty] {
        &self.param_tys
    }

    /// The bound next-iteration value for a recurrence op.
    pub fn recur_next(&self, recurrence: ValueId) -> Option<ValueId> {
        self.recur_next.get(&recurrence).copied()
    }

    /// All `(recurrence, next)` pairs — the loop-carried dependences.
    pub fn recurrences(&self) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        self.recur_next.iter().map(|(&r, &n)| (r, n))
    }

    /// The scheduling class of an op (`None` for free ops).
    pub fn class_of(&self, v: ValueId) -> Option<OpClass> {
        let op = &self.ops[v.index()];
        let arg_tys: Vec<Ty> = op.args.iter().map(|&a| self.ty(a)).collect();
        op.opcode.class(self.ty(v), &arg_tys)
    }

    /// Per-iteration operation statistics — one Table 2 row.
    pub fn stats(&self) -> KernelStats {
        let mut by_class: BTreeMap<OpClass, u32> = BTreeMap::new();
        for i in 0..self.ops.len() {
            if let Some(class) = self.class_of(ValueId(i as u32)) {
                *by_class.entry(class).or_insert(0) += 1;
            }
        }
        let count = |c: OpClass| by_class.get(&c).copied().unwrap_or(0);
        let cond = count(OpClass::CondStream);
        KernelStats {
            alu_ops: by_class
                .iter()
                .filter(|(c, _)| c.is_alu_op())
                .map(|(_, n)| n)
                .sum(),
            srf_accesses: count(OpClass::SbRead) + count(OpClass::SbWrite) + cond,
            comms: count(OpClass::Comm) + cond,
            sp_accesses: count(OpClass::SpRead) + count(OpClass::SpWrite),
            by_class,
        }
    }

    /// A human-readable listing of the kernel body, one op per line with
    /// its scheduling class.
    ///
    /// # Examples
    ///
    /// ```
    /// use stream_ir::{KernelBuilder, Ty};
    ///
    /// let mut b = KernelBuilder::new("demo");
    /// let s = b.in_stream(Ty::F32);
    /// let o = b.out_stream(Ty::F32);
    /// let x = b.read(s);
    /// let y = b.mul(x, x);
    /// b.write(o, y);
    /// let k = b.finish()?;
    /// assert!(k.dump().contains("Mul"));
    /// # Ok::<(), stream_ir::IrError>(())
    /// ```
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel {} ({} in, {} out, {} params, {} sp words)",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.param_tys.len(),
            self.sp_words
        );
        for (i, op) in self.ops.iter().enumerate() {
            let v = ValueId(i as u32);
            let args: Vec<String> = op.args.iter().map(ToString::to_string).collect();
            let class = self
                .class_of(v)
                .map(|c| c.to_string())
                .unwrap_or_else(|| "free".to_string());
            let _ = writeln!(
                out,
                "  {v}: {ty} = {opcode:?}({args}) [{class}]",
                ty = self.types[i],
                opcode = op.opcode,
                args = args.join(", ")
            );
        }
        for (r, n) in self.recurrences() {
            let _ = writeln!(out, "  loop: {r} <- {n}");
        }
        out
    }

    /// A stable 64-bit FNV-1a fingerprint of the kernel's identity, for
    /// cache keys: the name, each input's and each output's word type,
    /// `sp_words`, every op's opcode, immediate and operand ids, and the
    /// recurrence bindings. Everything else a [`Kernel`] holds is derived
    /// from those. Lists are length-prefixed, and constants enter as their
    /// type and raw bits, so `0.0` and `-0.0` differ here although they
    /// compare equal.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        h.write_usize(self.name.len());
        h.write(self.name.as_bytes());
        for decls in [&self.inputs, &self.outputs] {
            h.write_usize(decls.len());
            for d in decls {
                d.ty.hash(&mut h);
            }
        }
        h.write_u32(self.sp_words);
        h.write_usize(self.ops.len());
        for op in &self.ops {
            std::mem::discriminant(&op.opcode).hash(&mut h);
            match op.opcode {
                Opcode::Const(s) | Opcode::Recur(s) => {
                    s.ty().hash(&mut h);
                    h.write_u32(match s {
                        Scalar::I32(v) => v as u32,
                        Scalar::F32(v) => v.to_bits(),
                    });
                }
                Opcode::Param(index, ty) => {
                    h.write_u32(index);
                    ty.hash(&mut h);
                }
                Opcode::Read(s) | Opcode::Write(s) | Opcode::CondRead(s) | Opcode::CondWrite(s) => {
                    s.hash(&mut h)
                }
                Opcode::SpRead(ty) => ty.hash(&mut h),
                _ => {}
            }
            op.args.hash(&mut h);
        }
        self.recur_next.hash(&mut h);
        h.finish()
    }

    /// Program-order accesses to each input (`.0`) and output (`.1`) stream.
    /// The scheduler uses this to keep same-stream pops ordered.
    pub fn stream_access_order(&self) -> (Vec<Vec<ValueId>>, Vec<Vec<ValueId>>) {
        let mut ins: Vec<Vec<ValueId>> = vec![Vec::new(); self.inputs.len()];
        let mut outs: Vec<Vec<ValueId>> = vec![Vec::new(); self.outputs.len()];
        for (i, op) in self.ops.iter().enumerate() {
            if let Some((s, dir)) = op.opcode.stream() {
                match dir {
                    StreamDir::Input => ins[s.index()].push(ValueId(i as u32)),
                    StreamDir::Output => outs[s.index()].push(ValueId(i as u32)),
                }
            }
        }
        (ins, outs)
    }
}

/// FNV-1a as a [`Hasher`], so [`Kernel::fingerprint`] can feed the derived
/// `Hash` of ids, types and opcode discriminants.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "kernel {} ({} ops: {} ALU, {} SRF, {} COMM, {} SP)",
            self.name,
            self.ops.len(),
            s.alu_ops,
            s.srf_accesses,
            s.comms,
            s.sp_accesses
        )
    }
}

/// Per-iteration operation counts — the measurements behind Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Operations executing on ALUs (the paper's "ALU Ops" column and the
    /// numerator of all GOPS figures).
    pub alu_ops: u32,
    /// SRF accesses: plain stream reads/writes plus conditional-stream
    /// accesses.
    pub srf_accesses: u32,
    /// Intercluster communications: COMM ops plus conditional-stream
    /// accesses (which route through the intercluster switch).
    pub comms: u32,
    /// Scratchpad accesses.
    pub sp_accesses: u32,
    /// Raw per-class counts.
    pub by_class: BTreeMap<OpClass, u32>,
}

impl KernelStats {
    /// Accesses per ALU op, the parenthesized ratios in Table 2.
    pub fn per_alu_op(&self, count: u32) -> f64 {
        f64::from(count) / f64::from(self.alu_ops.max(1))
    }
}

/// Incremental, type-checked construction of a [`Kernel`].
///
/// Arithmetic methods panic on type errors — a kernel with mismatched types
/// is a programming bug in the kernel, not a runtime condition. Structural
/// problems that can only be judged once the body is complete (unbound
/// recurrences, stream shapes) are reported by [`KernelBuilder::finish`].
///
/// # Examples
///
/// ```
/// use stream_ir::{KernelBuilder, Ty};
///
/// // out[i] = a[i] * a[i] + 1.0
/// let mut b = KernelBuilder::new("square_plus_one");
/// let a = b.in_stream(Ty::F32);
/// let out = b.out_stream(Ty::F32);
/// let x = b.read(a);
/// let sq = b.mul(x, x);
/// let one = b.const_f(1.0);
/// let y = b.add(sq, one);
/// b.write(out, y);
/// let kernel = b.finish()?;
/// assert_eq!(kernel.stats().alu_ops, 2);
/// # Ok::<(), stream_ir::IrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    ops: Vec<Op>,
    types: Vec<Ty>,
    inputs: Vec<(Ty, Option<bool>)>,
    outputs: Vec<(Ty, Option<bool>)>,
    recur_next: BTreeMap<ValueId, Option<ValueId>>,
    sp_words: u32,
    param_tys: Vec<Ty>,
}

impl KernelBuilder {
    /// Starts a new kernel.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ops: Vec::new(),
            types: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            recur_next: BTreeMap::new(),
            sp_words: 0,
            param_tys: Vec::new(),
        }
    }

    /// Declares a uniform scalar parameter of type `ty`, set per invocation.
    pub fn param(&mut self, ty: Ty) -> ValueId {
        let idx = self.param_tys.len() as u32;
        self.param_tys.push(ty);
        self.push(Opcode::Param(idx, ty), vec![], ty)
    }

    /// Declares an input stream of `ty` words.
    pub fn in_stream(&mut self, ty: Ty) -> StreamId {
        self.inputs.push((ty, None));
        StreamId(self.inputs.len() as u32 - 1)
    }

    /// Declares an output stream of `ty` words.
    pub fn out_stream(&mut self, ty: Ty) -> StreamId {
        self.outputs.push((ty, None));
        StreamId(self.outputs.len() as u32 - 1)
    }

    /// Declares that the kernel uses `words` of per-cluster scratchpad.
    pub fn require_sp(&mut self, words: u32) {
        self.sp_words = self.sp_words.max(words);
    }

    fn push(&mut self, opcode: Opcode, args: Vec<ValueId>, ty: Ty) -> ValueId {
        debug_assert_eq!(opcode.arity(), args.len());
        self.ops.push(Op { opcode, args });
        self.types.push(ty);
        ValueId(self.ops.len() as u32 - 1)
    }

    /// Checks that `v` names an earlier op that produces a value.
    fn check_value(&self, v: ValueId, ctx: &str) -> Result<(), String> {
        match self.ops.get(v.index()) {
            None => Err(format!("{ctx}: {v} is not defined yet")),
            Some(op) if !op.opcode.produces_value() => {
                Err(format!("{ctx}: {v} does not produce a value"))
            }
            Some(_) => Ok(()),
        }
    }

    /// The word type of a declared stream accessed plainly or
    /// conditionally, or why the access is illegal.
    fn stream_ty(
        &self,
        s: StreamId,
        dir: StreamDir,
        conditional: bool,
        ctx: &str,
    ) -> Result<Ty, String> {
        let decls = match dir {
            StreamDir::Input => &self.inputs,
            StreamDir::Output => &self.outputs,
        };
        match decls.get(s.index()) {
            None => Err(format!("{ctx}: stream {s} is not declared")),
            Some(&(_, Some(prev))) if prev != conditional => {
                Err(format!("stream {s} mixes plain and conditional access"))
            }
            Some(&(ty, _)) => Ok(ty),
        }
    }

    /// Appends `opcode` over `args` after checking the IR's typing and
    /// stream rules, or says which rule the operands break (`ctx` names the
    /// operation in the message). The one home of those rules: the typed
    /// methods below panic with its message. On an error the builder is
    /// unchanged.
    fn try_op(&mut self, opcode: Opcode, args: &[ValueId], ctx: &str) -> Result<ValueId, String> {
        if args.len() != opcode.arity() {
            return Err(format!(
                "{ctx}: takes {} operand(s), found {}",
                opcode.arity(),
                args.len()
            ));
        }
        for &v in args {
            self.check_value(v, ctx)?;
        }
        let ty = |j: usize| self.types[args[j].index()];
        let want = |j: usize, want: Ty| {
            if ty(j) == want {
                Ok(want)
            } else {
                Err(format!(
                    "{ctx}: {} has type {}, expected {want}",
                    args[j],
                    ty(j)
                ))
            }
        };
        let same = |i: usize, j: usize| {
            if ty(i) == ty(j) {
                Ok(ty(i))
            } else {
                Err(format!(
                    "{ctx}: operand types differ ({}: {}, {}: {})",
                    args[i],
                    ty(i),
                    args[j],
                    ty(j)
                ))
            }
        };
        use Opcode::*;
        use StreamDir::{Input, Output};
        let result = match opcode {
            Const(s) => s.ty(),
            IterIndex | ClusterId | ClusterCount => Ty::I32,
            Param(..) | Recur(_) => unreachable!("params and recurrences have their own methods"),
            Add | Sub | Mul | Div | Min | Max => same(0, 1)?,
            And | Or | Xor | Shl | Shr => {
                want(0, Ty::I32)?;
                want(1, Ty::I32)?
            }
            Eq | Ne | Lt | Le => {
                same(0, 1)?;
                Ty::I32
            }
            Sqrt | Floor => want(0, Ty::F32)?,
            Neg | Abs => ty(0),
            ItoF => {
                want(0, Ty::I32)?;
                Ty::F32
            }
            FtoI => {
                want(0, Ty::F32)?;
                Ty::I32
            }
            Select => {
                want(0, Ty::I32)?;
                same(1, 2)?
            }
            Read(s) => self.stream_ty(s, Input, false, ctx)?,
            Write(s) => want(0, self.stream_ty(s, Output, false, ctx)?)?,
            CondRead(s) => {
                want(0, Ty::I32)?;
                self.stream_ty(s, Input, true, ctx)?
            }
            CondWrite(s) => {
                want(0, Ty::I32)?;
                want(1, self.stream_ty(s, Output, true, ctx)?)?
            }
            SpRead(t) => {
                want(0, Ty::I32)?;
                t
            }
            SpWrite => {
                want(0, Ty::I32)?;
                ty(1)
            }
            Comm => {
                want(1, Ty::I32)?;
                ty(0)
            }
        };
        if let Some((s, dir)) = opcode.stream() {
            let decl = match dir {
                Input => &mut self.inputs[s.index()],
                Output => &mut self.outputs[s.index()],
            };
            decl.1 = Some(matches!(opcode, CondRead(_) | CondWrite(_)));
        }
        Ok(self.push(opcode, args.to_vec(), result))
    }

    /// [`KernelBuilder::try_op`], panicking on a broken rule.
    fn op(&mut self, opcode: Opcode, args: &[ValueId], ctx: &str) -> ValueId {
        self.try_op(opcode, args, ctx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Emits a constant.
    pub fn constant(&mut self, value: Scalar) -> ValueId {
        let ty = value.ty();
        self.push(Opcode::Const(value), vec![], ty)
    }

    /// Emits an i32 constant.
    pub fn const_i(&mut self, value: i32) -> ValueId {
        self.constant(Scalar::I32(value))
    }

    /// Emits an f32 constant.
    pub fn const_f(&mut self, value: f32) -> ValueId {
        self.constant(Scalar::F32(value))
    }

    /// The global loop-iteration index (i32).
    pub fn iter_index(&mut self) -> ValueId {
        self.push(Opcode::IterIndex, vec![], Ty::I32)
    }

    /// This cluster's index (i32).
    pub fn cluster_id(&mut self) -> ValueId {
        self.push(Opcode::ClusterId, vec![], Ty::I32)
    }

    /// The cluster count `C` (i32).
    pub fn cluster_count(&mut self) -> ValueId {
        self.push(Opcode::ClusterCount, vec![], Ty::I32)
    }

    /// Declares a loop-carried value initialized to `init`. Bind its
    /// next-iteration value with [`KernelBuilder::bind_next`] before
    /// finishing.
    pub fn recurrence(&mut self, init: Scalar) -> ValueId {
        let ty = init.ty();
        let v = self.push(Opcode::Recur(init), vec![], ty);
        self.recur_next.insert(v, None);
        v
    }

    /// Binds `next` as the value `recurrence` takes on the following
    /// iteration.
    ///
    /// # Panics
    ///
    /// Panics if `recurrence` is not an unbound recurrence or if the types
    /// differ.
    pub fn bind_next(&mut self, recurrence: ValueId, next: ValueId) {
        self.try_bind_next(recurrence, next)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`KernelBuilder::bind_next`], reporting a broken rule instead of
    /// panicking.
    fn try_bind_next(&mut self, recurrence: ValueId, next: ValueId) -> Result<(), String> {
        self.check_value(next, "bind_next")?;
        match self.recur_next.get(&recurrence) {
            None => return Err(format!("bind_next: {recurrence} is not a recurrence")),
            Some(Some(_)) => return Err(format!("bind_next: {recurrence} already bound")),
            Some(None) => {}
        }
        let (rt, nt) = (self.types[recurrence.index()], self.types[next.index()]);
        if rt != nt {
            return Err(format!(
                "bind_next: recurrence {recurrence} is {rt}, next {next} is {nt}"
            ));
        }
        self.recur_next.insert(recurrence, Some(next));
        Ok(())
    }

    /// `a + b`.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Add, &[a, b], "add")
    }

    /// `a - b`.
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Sub, &[a, b], "sub")
    }

    /// `a * b`.
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Mul, &[a, b], "mul")
    }

    /// `a / b`.
    pub fn div(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Div, &[a, b], "div")
    }

    /// `min(a, b)`.
    pub fn min(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Min, &[a, b], "min")
    }

    /// `max(a, b)`.
    pub fn max(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Max, &[a, b], "max")
    }

    /// `sqrt(a)` (f32).
    pub fn sqrt(&mut self, a: ValueId) -> ValueId {
        self.op(Opcode::Sqrt, &[a], "sqrt")
    }

    /// `-a`.
    pub fn neg(&mut self, a: ValueId) -> ValueId {
        self.op(Opcode::Neg, &[a], "neg")
    }

    /// `|a|`.
    pub fn abs(&mut self, a: ValueId) -> ValueId {
        self.op(Opcode::Abs, &[a], "abs")
    }

    /// `floor(a)` (f32).
    pub fn floor(&mut self, a: ValueId) -> ValueId {
        self.op(Opcode::Floor, &[a], "floor")
    }

    /// Bitwise `a & b` (i32).
    pub fn and(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::And, &[a, b], "and")
    }

    /// Bitwise `a | b` (i32).
    pub fn or(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Or, &[a, b], "or")
    }

    /// Bitwise `a ^ b` (i32).
    pub fn xor(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Xor, &[a, b], "xor")
    }

    /// `a << b` (i32).
    pub fn shl(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Shl, &[a, b], "shl")
    }

    /// `a >> b` (arithmetic, i32).
    pub fn shr(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Shr, &[a, b], "shr")
    }

    /// `a == b` -> i32 0/1.
    pub fn eq(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Eq, &[a, b], "eq")
    }

    /// `a != b` -> i32 0/1.
    pub fn ne(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Ne, &[a, b], "ne")
    }

    /// `a < b` -> i32 0/1.
    pub fn lt(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Lt, &[a, b], "lt")
    }

    /// `a <= b` -> i32 0/1.
    pub fn le(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Le, &[a, b], "le")
    }

    /// `cond ? a : b` (cond is i32).
    pub fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId {
        self.op(Opcode::Select, &[cond, a, b], "select")
    }

    /// Convert i32 -> f32.
    pub fn itof(&mut self, a: ValueId) -> ValueId {
        self.op(Opcode::ItoF, &[a], "itof")
    }

    /// Convert f32 -> i32 (truncating).
    pub fn ftoi(&mut self, a: ValueId) -> ValueId {
        self.op(Opcode::FtoI, &[a], "ftoi")
    }

    /// Reads the next word of this cluster's record from input stream `s`.
    pub fn read(&mut self, s: StreamId) -> ValueId {
        self.op(Opcode::Read(s), &[], "read")
    }

    /// Writes `v` as the next word of this cluster's record on output
    /// stream `s`.
    pub fn write(&mut self, s: StreamId, v: ValueId) {
        self.op(Opcode::Write(s), &[v], "write");
    }

    /// Conditional read: clusters whose `pred` is nonzero pop successive
    /// elements of `s` in cluster order; inactive clusters receive zero.
    pub fn cond_read(&mut self, s: StreamId, pred: ValueId) -> ValueId {
        self.op(Opcode::CondRead(s), &[pred], "cond_read")
    }

    /// Conditional write: clusters whose `pred` is nonzero append `v` to
    /// `s` in cluster order.
    pub fn cond_write(&mut self, s: StreamId, pred: ValueId, v: ValueId) {
        self.op(Opcode::CondWrite(s), &[pred, v], "cond_write");
    }

    /// Reads scratchpad word `addr` (i32 address) as a `ty` value.
    pub fn sp_read(&mut self, addr: ValueId, ty: Ty) -> ValueId {
        self.op(Opcode::SpRead(ty), &[addr], "sp_read")
    }

    /// Writes `v` to scratchpad word `addr`.
    pub fn sp_write(&mut self, addr: ValueId, v: ValueId) {
        self.op(Opcode::SpWrite, &[addr, v], "sp_write");
    }

    /// Intercluster communication: every cluster receives `data` from
    /// cluster `src` (an i32 computed per cluster, `0..C`).
    pub fn comm(&mut self, data: ValueId, src: ValueId) -> ValueId {
        self.op(Opcode::Comm, &[data, src], "comm")
    }

    /// Finishes the kernel, running structural validation.
    ///
    /// # Errors
    ///
    /// Returns an error if a recurrence is unbound, a conditional stream has
    /// a record wider than one word, or a declared stream is never accessed.
    pub fn finish(self) -> Result<Kernel, IrError> {
        // Resolve recurrences.
        let mut recur_next = BTreeMap::new();
        for (&r, &next) in &self.recur_next {
            match next {
                Some(n) => {
                    recur_next.insert(r, n);
                }
                None => return Err(IrError::UnboundRecurrence(r)),
            }
        }

        // Compute record widths from access counts.
        let mut in_width = vec![0u32; self.inputs.len()];
        let mut out_width = vec![0u32; self.outputs.len()];
        for op in &self.ops {
            if let Some((s, dir)) = op.opcode.stream() {
                match dir {
                    StreamDir::Input => in_width[s.index()] += 1,
                    StreamDir::Output => out_width[s.index()] += 1,
                }
            }
        }

        let build_decls = |decls: &[(Ty, Option<bool>)], widths: &[u32]| -> Vec<StreamDecl> {
            decls
                .iter()
                .zip(widths)
                .map(|(&(ty, conditional), &record_width)| StreamDecl {
                    ty,
                    record_width,
                    conditional: conditional.unwrap_or(false),
                })
                .collect()
        };

        let kernel = Kernel {
            name: self.name,
            ops: self.ops,
            types: self.types,
            inputs: build_decls(&self.inputs, &in_width),
            outputs: build_decls(&self.outputs, &out_width),
            recur_next,
            sp_words: self.sp_words,
            param_tys: self.param_tys,
        };
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saxpy() -> Kernel {
        // out = a*x + y, all f32.
        let mut b = KernelBuilder::new("saxpy");
        let x = b.in_stream(Ty::F32);
        let y = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let a = b.const_f(2.5);
        let xv = b.read(x);
        let yv = b.read(y);
        let ax = b.mul(a, xv);
        let r = b.add(ax, yv);
        b.write(out, r);
        b.finish().unwrap()
    }

    #[test]
    fn saxpy_shape() {
        let k = saxpy();
        assert_eq!(k.inputs().len(), 2);
        assert_eq!(k.outputs().len(), 1);
        assert_eq!(k.inputs()[0].record_width, 1);
        assert_eq!(k.outputs()[0].record_width, 1);
        assert!(!k.inputs()[0].conditional);
    }

    #[test]
    fn saxpy_stats() {
        let s = saxpy().stats();
        assert_eq!(s.alu_ops, 2); // mul + add
        assert_eq!(s.srf_accesses, 3); // 2 reads + 1 write
        assert_eq!(s.comms, 0);
        assert_eq!(s.sp_accesses, 0);
        assert!((s.per_alu_op(s.srf_accesses) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn class_of_distinguishes_types() {
        let k = saxpy();
        // v3 = mul (f32) -> FloatMul, v4 = add -> FloatAdd.
        assert_eq!(k.class_of(ValueId(3)), Some(OpClass::FloatMul));
        assert_eq!(k.class_of(ValueId(4)), Some(OpClass::FloatAdd));
        // The constant is free.
        assert_eq!(k.class_of(ValueId(0)), None);
    }

    #[test]
    fn recurrence_must_be_bound() {
        let mut b = KernelBuilder::new("acc");
        let s = b.in_stream(Ty::F32);
        let acc = b.recurrence(Scalar::F32(0.0));
        let x = b.read(s);
        let _sum = b.add(acc, x);
        // forgot bind_next
        let err = b.finish().unwrap_err();
        assert_eq!(err, IrError::UnboundRecurrence(acc));
    }

    #[test]
    fn bound_recurrence_round_trips() {
        let mut b = KernelBuilder::new("acc");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let acc = b.recurrence(Scalar::F32(0.0));
        let x = b.read(s);
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        b.write(out, sum);
        let k = b.finish().unwrap();
        assert_eq!(k.recur_next(acc), Some(sum));
        assert_eq!(k.recurrences().count(), 1);
    }

    #[test]
    #[should_panic(expected = "operand types differ")]
    fn type_mismatch_panics_at_build_time() {
        let mut b = KernelBuilder::new("bad");
        let i = b.const_i(1);
        let f = b.const_f(1.0);
        let _ = b.add(i, f);
    }

    #[test]
    #[should_panic(expected = "does not produce a value")]
    fn using_a_write_as_operand_panics() {
        let mut b = KernelBuilder::new("bad");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        // The write op is the last value id.
        let w = ValueId(1);
        let _ = b.add(w, w);
    }

    #[test]
    #[should_panic(expected = "mixes plain and conditional")]
    fn mixed_stream_access_panics() {
        let mut b = KernelBuilder::new("bad");
        let s = b.in_stream(Ty::I32);
        let _plain = b.read(s);
        let p = b.const_i(1);
        let _cond = b.cond_read(s, p);
    }

    #[test]
    fn multiple_conditional_accesses_are_legal() {
        // Variable-rate kernels (like the rasterizer) append several times
        // per iteration; each conditional access is an independent pop.
        let mut b = KernelBuilder::new("multi");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let p = b.const_i(1);
        b.cond_write(out, p, x);
        b.cond_write(out, p, x);
        let k = b.finish().unwrap();
        assert!(k.outputs()[0].conditional);
        assert_eq!(k.outputs()[0].record_width, 2);
    }

    #[test]
    fn multi_word_records_counted() {
        let mut b = KernelBuilder::new("wide");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let a = b.read(s);
        let c = b.read(s);
        let r = b.add(a, c);
        b.write(out, r);
        let k = b.finish().unwrap();
        assert_eq!(k.inputs()[0].record_width, 2);
        let (ins, outs) = k.stream_access_order();
        assert_eq!(ins[0].len(), 2);
        assert_eq!(outs[0].len(), 1);
    }

    #[test]
    fn display_summarizes() {
        let k = saxpy();
        let s = k.to_string();
        assert!(s.contains("saxpy"));
        assert!(s.contains("2 ALU"));
    }

    #[test]
    fn comm_and_sp_counted_in_stats() {
        let mut b = KernelBuilder::new("mix");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        b.require_sp(16);
        let x = b.read(s);
        let cid = b.cluster_id();
        let v = b.comm(x, cid);
        let addr = b.const_i(3);
        b.sp_write(addr, v);
        let y = b.sp_read(addr, Ty::I32);
        b.write(out, y);
        let k = b.finish().unwrap();
        let st = k.stats();
        assert_eq!(st.comms, 1);
        assert_eq!(st.sp_accesses, 2);
        assert_eq!(k.sp_words(), 16);
    }

    #[test]
    fn broken_builder_rules_are_reported_and_change_nothing() {
        type Case = fn(&mut KernelBuilder) -> Result<(), String>;
        let cases: [(&str, Case); 7] = [
            ("read: stream s1 is not declared", |b| {
                b.try_op(Opcode::Read(StreamId(1)), &[], "read").map(drop)
            }),
            ("write: stream s3 is not declared", |b| {
                b.try_op(Opcode::Write(StreamId(3)), &[ValueId(0)], "write")
                    .map(drop)
            }),
            ("sqrt: v0 has type i32, expected f32", |b| {
                b.try_op(Opcode::Sqrt, &[ValueId(0)], "sqrt").map(drop)
            }),
            ("add: v9 is not defined yet", |b| {
                b.try_op(Opcode::Add, &[ValueId(0), ValueId(9)], "add")
                    .map(drop)
            }),
            ("bind_next: v0 is not a recurrence", |b| {
                b.try_bind_next(ValueId(0), ValueId(0))
            }),
            ("bind_next: v1 already bound", |b| {
                b.try_bind_next(ValueId(1), ValueId(2))
            }),
            ("bind_next: recurrence v3 is f32, next v0 is i32", |b| {
                b.try_bind_next(ValueId(3), ValueId(0))
            }),
        ];
        for (want, case) in cases {
            // v0 = read s0 (i32); v1 = recur f32, bound to v2 = add v1 v1;
            // v3 = recur f32, unbound.
            let mut b = KernelBuilder::new("rules");
            let s = b.in_stream(Ty::I32);
            b.out_stream(Ty::I32);
            b.read(s);
            let r = b.recurrence(Scalar::F32(0.0));
            let n = b.add(r, r);
            b.bind_next(r, n);
            b.recurrence(Scalar::F32(1.0));
            let (ops, bindings) = (b.ops.clone(), b.recur_next.clone());
            assert_eq!(case(&mut b), Err(want.to_string()));
            assert_eq!((b.ops, b.recur_next), (ops, bindings), "{want}");
        }
    }

    #[test]
    fn fingerprint_keeps_signed_zeros_apart() {
        let build = |zero: f32| {
            let mut b = KernelBuilder::new("zero");
            let o = b.out_stream(Ty::F32);
            let z = b.const_f(zero);
            b.write(o, z);
            b.finish().unwrap()
        };
        let (pos, neg) = (build(0.0), build(-0.0));
        assert_eq!(pos, neg);
        assert_ne!(pos.fingerprint(), neg.fingerprint());
        assert_eq!(pos.fingerprint(), build(0.0).fingerprint());
    }
}
