//! Translation validation and abstract interpretation for compiled tapes.
//!
//! [`check_tape`] symbolically re-executes one abstract iteration of both
//! the kernel IR (the reference semantics) and its compiled [`Tape`] over
//! a hash-consed expression arena, then proves the two equivalent:
//!
//! * every output word is written with a bit-identical expression
//!   (operand order preserved exactly; nothing is canonicalized);
//! * the ordered list of *potential-fault sites* (stream bounds checks,
//!   conditional reads, scratchpad accesses, comm shuffles, integer
//!   division, dynamic-dispatch faults) is identical, so the first
//!   failing site — and therefore the reported error — agrees on every
//!   input;
//! * recurrence slots are wired to the same initial bits and feed
//!   expressions;
//! * every instruction respects the SSA slot layout the executor's
//!   `split*` helpers rely on (operands strictly below the destination,
//!   each slot defined before use and at most once).
//!
//! On top of the same arena, an interval/constant **value-range analysis**
//! classifies each fallible site as provably-in-bounds (dead check,
//! [`TapeCheckKind::DeadCheck`]) or provably-faulting
//! ([`TapeCheckKind::StaticFault`]) — the groundwork for check elimination
//! in the executor.
//!
//! Soundness argument, in brief: the reference and the tape are compared
//! as functions of the same uninterpreted leaves (stream words, params,
//! iteration index, cluster topology, recurrence state). If the ordered
//! fault-site lists are equal site-by-site (same condition expression,
//! same error payload), then on any concrete input the first failing site
//! is the same, so both fail identically; if no site fails, equal write
//! expressions make every output word bit-identical. One abstract
//! iteration suffices because the tape body is straight-line and
//! iteration-independent by construction — all cross-iteration state
//! (recurrences, cond-stream cursors, the scratchpad) is modeled
//! explicitly (recurrence feeds, cursor sequence numbers, write epochs).

use super::instr::{bits_of, Instr};
use super::Tape;
use crate::{Kernel, Opcode, Ty};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

// ---------------------------------------------------------------- findings

/// The structural class of a translation-validation finding. Each kind
/// maps 1:1 to a stable `stream-verify` diagnostic code (`E2xx`/`W2xx`,
/// see `docs/lint_codes.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TapeCheckKind {
    /// E201: an output word's tape expression differs from the reference.
    WriteMismatch,
    /// E202: the tape writes a different set of output words than the
    /// reference (missing, extra, or duplicated).
    WriteCoverage,
    /// E203: the ordered list of potential-fault sites diverges, so some
    /// input would make the tape report a different first error.
    ErrorOrder,
    /// E204: a recurrence slot's initial bits or feed expression differ
    /// from the kernel's binding.
    RecurrenceWiring,
    /// E205: the SSA slot layout is violated (an operand at or above its
    /// destination, or a redefined slot).
    OperandOrder,
    /// E206: an instruction reads a slot no prior instruction defined.
    UndefinedSlot,
    /// E207: a fallible or per-iteration instruction was hoisted into the
    /// once-per-call prologue.
    HoistedEffect,
    /// E209: a conditional stream's ordered (predicate, source) sequence
    /// diverges from the reference.
    CondStreamMismatch,
    /// E211: a stream access disagrees with the stream declaration
    /// (stream index, record width, in-record offset, or conditionality).
    AccessShape,
    /// W202: a bounds check is provably dead (the access is in range for
    /// every input) — a check-elimination candidate.
    DeadCheck,
    /// W203: an access provably faults on every input reaching it.
    StaticFault,
}

impl TapeCheckKind {
    /// Every kind, in catalog order.
    pub const ALL: [TapeCheckKind; 11] = [
        TapeCheckKind::WriteMismatch,
        TapeCheckKind::WriteCoverage,
        TapeCheckKind::ErrorOrder,
        TapeCheckKind::RecurrenceWiring,
        TapeCheckKind::OperandOrder,
        TapeCheckKind::UndefinedSlot,
        TapeCheckKind::HoistedEffect,
        TapeCheckKind::CondStreamMismatch,
        TapeCheckKind::AccessShape,
        TapeCheckKind::DeadCheck,
        TapeCheckKind::StaticFault,
    ];

    /// Whether this kind denotes a miscompile (as opposed to an advisory
    /// warning from the value-range analysis).
    pub fn is_error(self) -> bool {
        !matches!(self, TapeCheckKind::DeadCheck | TapeCheckKind::StaticFault)
    }

    /// Short stable name, e.g. `"write-mismatch"`.
    pub fn name(self) -> &'static str {
        match self {
            TapeCheckKind::WriteMismatch => "write-mismatch",
            TapeCheckKind::WriteCoverage => "write-coverage",
            TapeCheckKind::ErrorOrder => "error-order",
            TapeCheckKind::RecurrenceWiring => "recurrence-wiring",
            TapeCheckKind::OperandOrder => "operand-order",
            TapeCheckKind::UndefinedSlot => "undefined-slot",
            TapeCheckKind::HoistedEffect => "hoisted-effect",
            TapeCheckKind::CondStreamMismatch => "cond-stream-mismatch",
            TapeCheckKind::AccessShape => "access-shape",
            TapeCheckKind::DeadCheck => "dead-check",
            TapeCheckKind::StaticFault => "static-fault",
        }
    }
}

impl fmt::Display for TapeCheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One translation-validation or value-range finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeFinding {
    /// The structural class (maps to a stable diagnostic code).
    pub kind: TapeCheckKind,
    /// Human-readable description with concrete slots and streams.
    pub message: String,
}

impl fmt::Display for TapeFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

// ------------------------------------------------------- expression arena

type ExprId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum UnKind {
    NegI,
    NegF,
    AbsI,
    AbsF,
    Sqrt,
    Floor,
    ItoF,
    FtoI,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BinKind {
    AddI,
    AddF,
    SubI,
    SubF,
    MulI,
    MulF,
    DivI,
    DivF,
    MinI,
    MinF,
    MaxI,
    MaxF,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    EqI,
    EqF,
    NeI,
    NeF,
    LtI,
    LtF,
    LeI,
    LeF,
}

/// A node in the hash-consed symbolic-value arena. Leaves are the
/// uninterpreted inputs of one abstract iteration; interior nodes keep
/// exact operand order (no reassociation or commutation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Const(u32),
    Param(u32),
    Iter,
    ClusterId,
    ClusterCount,
    Recur(u32),
    /// The record word at `offset` of input `stream`, this iteration.
    Read {
        stream: u32,
        offset: u32,
    },
    /// The `seq`-th conditional read of `stream` this iteration, under
    /// predicate `pred` (the shared cursor makes order semantic).
    CondRead {
        stream: u32,
        seq: u32,
        pred: ExprId,
    },
    /// A scratchpad load at `addr` observing write epoch `epoch`.
    SpRead {
        epoch: u32,
        addr: ExprId,
        ty: Ty,
    },
    /// An inter-cluster shuffle of `data` from lane `src`.
    Comm {
        data: ExprId,
        src: ExprId,
    },
    Un(UnKind, ExprId),
    Bin(BinKind, ExprId, ExprId),
    Select {
        cond: ExprId,
        a: ExprId,
        b: ExprId,
    },
}

#[derive(Default)]
struct Arena {
    nodes: Vec<Node>,
    memo: HashMap<Node, ExprId>,
}

impl Arena {
    fn intern(&mut self, n: Node) -> ExprId {
        if let Some(&id) = self.memo.get(&n) {
            return id;
        }
        let id = self.nodes.len() as ExprId;
        self.nodes.push(n);
        self.memo.insert(n, id);
        id
    }

    fn node(&self, e: ExprId) -> Node {
        self.nodes[e as usize]
    }

    /// Renders `e` as a depth-capped s-expression for messages.
    fn render(&self, e: ExprId, depth: u32) -> String {
        if depth == 0 {
            return "…".into();
        }
        match self.node(e) {
            Node::Const(bits) => format!("#{bits:#x}"),
            Node::Param(i) => format!("param{i}"),
            Node::Iter => "iter".into(),
            Node::ClusterId => "cid".into(),
            Node::ClusterCount => "ccount".into(),
            Node::Recur(s) => format!("recur{s}"),
            Node::Read { stream, offset } => format!("s{stream}[{offset}]"),
            Node::CondRead { stream, seq, .. } => format!("cond(s{stream}#{seq})"),
            Node::SpRead { epoch, addr, .. } => {
                format!("sp@{}·e{epoch}", self.render(addr, depth - 1))
            }
            Node::Comm { data, src } => format!(
                "comm({}, {})",
                self.render(data, depth - 1),
                self.render(src, depth - 1)
            ),
            Node::Un(k, a) => format!("{k:?}({})", self.render(a, depth - 1)),
            Node::Bin(k, a, b) => format!(
                "{k:?}({}, {})",
                self.render(a, depth - 1),
                self.render(b, depth - 1)
            ),
            Node::Select { cond, a, b } => format!(
                "sel({}, {}, {})",
                self.render(cond, depth - 1),
                self.render(a, depth - 1),
                self.render(b, depth - 1)
            ),
        }
    }
}

// ------------------------------------------------------------ fault sites

/// One potential-fault site, in program order. Two executions with equal
/// ordered site lists (same condition expressions, same error payloads)
/// report the same first error on every input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Bounds check of a plain read of `stream` at in-record `offset`
    /// (fails iff the stream runs out at this iteration — `StreamExhausted`).
    ReadBounds { stream: u32, offset: u32 },
    /// The `seq`-th conditional read of `stream`, gated by `pred`.
    CondRead { stream: u32, seq: u32, pred: ExprId },
    /// Scratchpad load: faults iff `addr` is out of capacity, at op `at`.
    SpRead { at: u32, addr: ExprId },
    /// Scratchpad store: bounds like a load, and `src`/`ty` determine the
    /// words every later epoch observes.
    SpWrite {
        at: u32,
        addr: ExprId,
        src: ExprId,
        ty: Ty,
    },
    /// Comm shuffle at op `at`: faults iff `src` is not a live lane, and
    /// `data` determines the shuffled words.
    Comm { at: u32, data: ExprId, src: ExprId },
    /// Integer division at op `at`: faults iff `divisor` is zero.
    DivZero { at: u32, divisor: ExprId },
    /// Unconditional dynamic-dispatch fault at op `at`.
    Fault { at: u32, expected: Ty, found: Ty },
}

fn event_desc(ar: &Arena, e: &Event) -> String {
    match *e {
        Event::ReadBounds { stream, offset } => format!("read s{stream}[{offset}]"),
        Event::CondRead { stream, seq, .. } => format!("cond-read s{stream}#{seq}"),
        Event::SpRead { at, addr } => format!("sp-read@v{at}[{}]", ar.render(addr, 3)),
        Event::SpWrite { at, addr, .. } => format!("sp-write@v{at}[{}]", ar.render(addr, 3)),
        Event::Comm { at, src, .. } => format!("comm@v{at}<{}>", ar.render(src, 3)),
        Event::DivZero { at, divisor } => format!("div@v{at}/{}", ar.render(divisor, 3)),
        Event::Fault { at, .. } => format!("fault@v{at}"),
    }
}

// -------------------------------------------------- reference semantics

/// The kernel-IR side of the comparison: expressions per value id, the
/// ordered fault-site list, output write map, conditional-write sequences,
/// and recurrence feeds.
struct Semantics {
    expr: Vec<ExprId>,
    events: Vec<Event>,
    /// (output stream, in-record offset) -> written expression.
    writes: BTreeMap<(u32, u32), ExprId>,
    /// Per output stream: ordered (predicate, source) conditional writes.
    cond_writes: Vec<Vec<(ExprId, ExprId)>>,
    /// Per recurrence slot: (init bits, feed expression).
    recurs: Vec<(u32, ExprId)>,
}

fn reference_semantics(kernel: &Kernel, ar: &mut Arena) -> Semantics {
    let ops = kernel.ops();
    let zero = ar.intern(Node::Const(0));
    let mut sem = Semantics {
        expr: vec![zero; ops.len()],
        events: Vec::new(),
        writes: BTreeMap::new(),
        cond_writes: vec![Vec::new(); kernel.outputs().len()],
        recurs: Vec::new(),
    };
    let mut recur_slot = vec![u32::MAX; ops.len()];
    for (slot, (r, _)) in kernel.recurrences().enumerate() {
        recur_slot[r.index()] = slot as u32;
    }
    let mut in_seen = vec![0u32; kernel.inputs().len()];
    let mut out_seen = vec![0u32; kernel.outputs().len()];
    let mut cond_seq = vec![0u32; kernel.inputs().len()];
    let mut sp_epoch = 0u32;

    for (i, op) in ops.iter().enumerate() {
        let at = i as u32;
        let e = |sem: &Semantics, j: usize| sem.expr[op.args[j].index()];
        let aty = |j: usize| kernel.ty(op.args[j]);
        // The legacy interpreter's dynamic-dispatch failure: the op
        // faults unconditionally and its value is never produced (the
        // lattice default, zero, stands in — same as the tape).
        macro_rules! fault {
            () => {{
                sem.events.push(Event::Fault {
                    at,
                    expected: Ty::F32,
                    found: op.args.first().map_or(Ty::I32, |&a| kernel.ty(a)),
                });
                zero
            }};
        }
        macro_rules! bin {
            ($i:ident, $f:ident) => {{
                let (a, b) = (e(&sem, 0), e(&sem, 1));
                if aty(0) != aty(1) {
                    fault!()
                } else {
                    let k = match aty(0) {
                        Ty::I32 => BinKind::$i,
                        Ty::F32 => BinKind::$f,
                    };
                    ar.intern(Node::Bin(k, a, b))
                }
            }};
        }
        macro_rules! int_bin {
            ($k:ident) => {{
                let (a, b) = (e(&sem, 0), e(&sem, 1));
                if aty(0) != Ty::I32 || aty(1) != Ty::I32 {
                    fault!()
                } else {
                    ar.intern(Node::Bin(BinKind::$k, a, b))
                }
            }};
        }
        use Opcode::*;
        let expr = match &op.opcode {
            Const(s) => ar.intern(Node::Const(bits_of(*s))),
            Param(idx, _) => ar.intern(Node::Param(*idx)),
            IterIndex => ar.intern(Node::Iter),
            ClusterId => ar.intern(Node::ClusterId),
            ClusterCount => ar.intern(Node::ClusterCount),
            Recur(_) => ar.intern(Node::Recur(recur_slot[i])),
            Read(s) => {
                let offset = in_seen[s.index()];
                in_seen[s.index()] += 1;
                sem.events.push(Event::ReadBounds {
                    stream: s.0,
                    offset,
                });
                ar.intern(Node::Read {
                    stream: s.0,
                    offset,
                })
            }
            Write(s) => {
                let offset = out_seen[s.index()];
                out_seen[s.index()] += 1;
                sem.writes.insert((s.0, offset), e(&sem, 0));
                zero
            }
            CondRead(s) => {
                in_seen[s.index()] += 1;
                let seq = cond_seq[s.index()];
                cond_seq[s.index()] += 1;
                let pred = e(&sem, 0);
                sem.events.push(Event::CondRead {
                    stream: s.0,
                    seq,
                    pred,
                });
                ar.intern(Node::CondRead {
                    stream: s.0,
                    seq,
                    pred,
                })
            }
            CondWrite(s) => {
                out_seen[s.index()] += 1;
                let pair = (e(&sem, 0), e(&sem, 1));
                sem.cond_writes[s.index()].push(pair);
                zero
            }
            SpRead(ty) => {
                let addr = e(&sem, 0);
                sem.events.push(Event::SpRead { at, addr });
                ar.intern(Node::SpRead {
                    epoch: sp_epoch,
                    addr,
                    ty: *ty,
                })
            }
            SpWrite => {
                sem.events.push(Event::SpWrite {
                    at,
                    addr: e(&sem, 0),
                    src: e(&sem, 1),
                    ty: aty(1),
                });
                sp_epoch += 1;
                zero
            }
            Comm => {
                let (data, src) = (e(&sem, 0), e(&sem, 1));
                sem.events.push(Event::Comm { at, data, src });
                ar.intern(Node::Comm { data, src })
            }
            Add => bin!(AddI, AddF),
            Sub => bin!(SubI, SubF),
            Mul => bin!(MulI, MulF),
            Div => {
                let (a, b) = (e(&sem, 0), e(&sem, 1));
                if aty(0) != aty(1) {
                    fault!()
                } else if aty(0) == Ty::I32 {
                    sem.events.push(Event::DivZero { at, divisor: b });
                    ar.intern(Node::Bin(BinKind::DivI, a, b))
                } else {
                    ar.intern(Node::Bin(BinKind::DivF, a, b))
                }
            }
            Min => bin!(MinI, MinF),
            Max => bin!(MaxI, MaxF),
            Sqrt => {
                if aty(0) == Ty::F32 {
                    let a = e(&sem, 0);
                    ar.intern(Node::Un(UnKind::Sqrt, a))
                } else {
                    fault!()
                }
            }
            Floor => {
                if aty(0) == Ty::F32 {
                    let a = e(&sem, 0);
                    ar.intern(Node::Un(UnKind::Floor, a))
                } else {
                    fault!()
                }
            }
            Neg => {
                let k = match aty(0) {
                    Ty::I32 => UnKind::NegI,
                    Ty::F32 => UnKind::NegF,
                };
                let a = e(&sem, 0);
                ar.intern(Node::Un(k, a))
            }
            Abs => {
                let k = match aty(0) {
                    Ty::I32 => UnKind::AbsI,
                    Ty::F32 => UnKind::AbsF,
                };
                let a = e(&sem, 0);
                ar.intern(Node::Un(k, a))
            }
            And => int_bin!(And),
            Or => int_bin!(Or),
            Xor => int_bin!(Xor),
            Shl => int_bin!(Shl),
            Shr => int_bin!(Shr),
            Eq | Ne if aty(0) != aty(1) => {
                // Legacy `scalar_eq` on mixed types is a constant, not an
                // error.
                ar.intern(Node::Const(u32::from(matches!(op.opcode, Ne))))
            }
            Eq => bin!(EqI, EqF),
            Ne => bin!(NeI, NeF),
            Lt => bin!(LtI, LtF),
            Le => bin!(LeI, LeF),
            Select => {
                let (cond, a, b) = (e(&sem, 0), e(&sem, 1), e(&sem, 2));
                ar.intern(Node::Select { cond, a, b })
            }
            ItoF => {
                if aty(0) == Ty::I32 {
                    let a = e(&sem, 0);
                    ar.intern(Node::Un(UnKind::ItoF, a))
                } else {
                    fault!()
                }
            }
            FtoI => {
                if aty(0) == Ty::F32 {
                    let a = e(&sem, 0);
                    ar.intern(Node::Un(UnKind::FtoI, a))
                } else {
                    fault!()
                }
            }
        };
        sem.expr[i] = expr;
    }
    for (slot, (r, next)) in kernel.recurrences().enumerate() {
        let init = match &ops[r.index()].opcode {
            Opcode::Recur(init) => *init,
            _ => unreachable!("recurrences() yields Recur ops"),
        };
        let _ = slot;
        sem.recurs.push((bits_of(init), sem.expr[next.index()]));
    }
    sem
}

// ------------------------------------------------------- tape semantics

/// Symbolic execution of the compiled tape (prologue then one body pass),
/// accumulating structural findings as it goes.
struct TapeExec<'t> {
    tape: &'t Tape,
    env: Vec<ExprId>,
    defined: Vec<bool>,
    events: Vec<Event>,
    writes: BTreeMap<(u32, u32), ExprId>,
    cond_writes: Vec<Vec<(ExprId, ExprId)>>,
    cond_seq: Vec<u32>,
    sp_epoch: u32,
    findings: Vec<TapeFinding>,
}

impl<'t> TapeExec<'t> {
    fn new(tape: &'t Tape, zero: ExprId) -> Self {
        Self {
            tape,
            env: vec![zero; tape.n_vals],
            defined: vec![false; tape.n_vals],
            events: Vec::new(),
            writes: BTreeMap::new(),
            cond_writes: vec![Vec::new(); tape.kernel.outputs().len()],
            cond_seq: vec![0u32; tape.kernel.inputs().len()],
            sp_epoch: 0,
            findings: Vec::new(),
        }
    }

    fn push(&mut self, kind: TapeCheckKind, message: String) {
        self.findings.push(TapeFinding { kind, message });
    }

    /// Reads operand slot `v`. `below` carries the destination slot when
    /// the executor's `split_*` layout requires `v < below`.
    fn opnd(&mut self, v: u32, below: Option<u32>) -> ExprId {
        if v as usize >= self.env.len() {
            self.push(
                TapeCheckKind::OperandOrder,
                format!(
                    "operand v{v} outside the value lattice ({})",
                    self.env.len()
                ),
            );
            return self.env[0];
        }
        if let Some(d) = below {
            if v >= d {
                self.push(
                    TapeCheckKind::OperandOrder,
                    format!("operand v{v} not strictly below destination v{d}"),
                );
            }
        }
        if !self.defined[v as usize] {
            self.push(
                TapeCheckKind::UndefinedSlot,
                format!("operand v{v} read before any definition"),
            );
        }
        self.env[v as usize]
    }

    fn define(&mut self, d: u32, e: ExprId) {
        if d as usize >= self.env.len() {
            self.push(
                TapeCheckKind::OperandOrder,
                format!(
                    "destination v{d} outside the value lattice ({})",
                    self.env.len()
                ),
            );
            return;
        }
        if self.defined[d as usize] {
            self.push(
                TapeCheckKind::OperandOrder,
                format!("slot v{d} defined more than once"),
            );
        }
        self.defined[d as usize] = true;
        self.env[d as usize] = e;
    }

    /// Validates a raw input access and returns its leaf expression;
    /// emits the bounds-check event.
    fn input_read(&mut self, ar: &mut Arena, stream: u32, width: u32, offset: u32) -> ExprId {
        let inputs = self.tape.kernel.inputs();
        match inputs.get(stream as usize) {
            None => self.push(
                TapeCheckKind::AccessShape,
                format!("read of undeclared input stream s{stream}"),
            ),
            Some(d) => {
                if d.conditional {
                    self.push(
                        TapeCheckKind::AccessShape,
                        format!("plain read of conditional input stream s{stream}"),
                    );
                }
                if width != d.record_width || offset >= d.record_width.max(1) {
                    self.push(
                        TapeCheckKind::AccessShape,
                        format!(
                            "read of s{stream} uses width {width} offset {offset}, \
                             declared record width {}",
                            d.record_width
                        ),
                    );
                }
            }
        }
        self.events.push(Event::ReadBounds { stream, offset });
        ar.intern(Node::Read { stream, offset })
    }

    /// Records a plain output write, checking the declaration.
    fn output_write(&mut self, stream: u32, width: u32, offset: u32, e: ExprId) {
        match self.tape.kernel.outputs().get(stream as usize) {
            None => self.push(
                TapeCheckKind::AccessShape,
                format!("write to undeclared output stream s{stream}"),
            ),
            Some(d) => {
                if d.conditional {
                    self.push(
                        TapeCheckKind::AccessShape,
                        format!("plain write to conditional output stream s{stream}"),
                    );
                }
                if width != d.record_width || offset >= d.record_width.max(1) {
                    self.push(
                        TapeCheckKind::AccessShape,
                        format!(
                            "write to s{stream} uses width {width} offset {offset}, \
                             declared record width {}",
                            d.record_width
                        ),
                    );
                }
            }
        }
        if self.writes.insert((stream, offset), e).is_some() {
            self.push(
                TapeCheckKind::WriteCoverage,
                format!("output word s{stream}[{offset}] written more than once"),
            );
        }
    }

    /// Symbolically steps one instruction. `in_prologue` instructions
    /// additionally must be hoistable (pure, infallible, iteration-free).
    fn step(&mut self, ar: &mut Arena, ins: &Instr, in_prologue: bool) {
        if in_prologue && !ins.hoistable() {
            self.push(
                TapeCheckKind::HoistedEffect,
                format!("fallible or per-iteration instruction hoisted into the prologue: {ins:?}"),
            );
        }
        use Instr::*;
        macro_rules! plain_bin {
            ($k:ident, $dst:expr, $a:expr, $b:expr) => {{
                let (a, b) = (self.opnd($a, Some($dst)), self.opnd($b, Some($dst)));
                let e = ar.intern(Node::Bin(BinKind::$k, a, b));
                self.define($dst, e);
            }};
        }
        macro_rules! plain_un {
            ($k:ident, $dst:expr, $a:expr) => {{
                let a = self.opnd($a, Some($dst));
                let e = ar.intern(Node::Un(UnKind::$k, a));
                self.define($dst, e);
            }};
        }
        match *ins {
            ConstBits { dst, bits } => {
                let e = ar.intern(Node::Const(bits));
                self.define(dst, e);
            }
            Param { dst, idx } => {
                if idx as usize >= self.tape.kernel.param_tys().len() {
                    self.push(
                        TapeCheckKind::OperandOrder,
                        format!("parameter index {idx} out of range"),
                    );
                }
                let e = ar.intern(Node::Param(idx));
                self.define(dst, e);
            }
            IterIndex { dst } => {
                let e = ar.intern(Node::Iter);
                self.define(dst, e);
            }
            ClusterId { dst } => {
                let e = ar.intern(Node::ClusterId);
                self.define(dst, e);
            }
            ClusterCount { dst } => {
                let e = ar.intern(Node::ClusterCount);
                self.define(dst, e);
            }
            LoadRecur { dst, slot } => {
                if slot as usize >= self.tape.recurs.len() {
                    self.push(
                        TapeCheckKind::RecurrenceWiring,
                        format!("load of undeclared recurrence slot {slot}"),
                    );
                }
                let e = ar.intern(Node::Recur(slot));
                self.define(dst, e);
            }
            Read {
                dst,
                stream,
                width,
                offset,
            } => {
                let e = self.input_read(ar, stream, width, offset);
                self.define(dst, e);
            }
            CondRead { dst, pred, stream } => {
                match self.tape.kernel.inputs().get(stream as usize) {
                    Some(d) if d.conditional => {}
                    _ => self.push(
                        TapeCheckKind::AccessShape,
                        format!("conditional read of non-conditional stream s{stream}"),
                    ),
                }
                let p = self.opnd(pred, Some(dst));
                let seq = self
                    .cond_seq
                    .get(stream as usize)
                    .copied()
                    .unwrap_or_default();
                if let Some(c) = self.cond_seq.get_mut(stream as usize) {
                    *c += 1;
                }
                self.events.push(Event::CondRead {
                    stream,
                    seq,
                    pred: p,
                });
                let e = ar.intern(Node::CondRead {
                    stream,
                    seq,
                    pred: p,
                });
                self.define(dst, e);
            }
            Write {
                src,
                stream,
                width,
                offset,
            } => {
                let e = self.opnd(src, None);
                self.output_write(stream, width, offset, e);
            }
            CondWrite { pred, src, stream } => {
                match self.tape.kernel.outputs().get(stream as usize) {
                    Some(d) if d.conditional => {}
                    _ => self.push(
                        TapeCheckKind::AccessShape,
                        format!("conditional write to non-conditional stream s{stream}"),
                    ),
                }
                let p = self.opnd(pred, None);
                let s = self.opnd(src, None);
                if let Some(list) = self.cond_writes.get_mut(stream as usize) {
                    list.push((p, s));
                }
            }
            SpRead { dst, addr, ty } => {
                let a = self.opnd(addr, Some(dst));
                self.events.push(Event::SpRead { at: dst, addr: a });
                let e = ar.intern(Node::SpRead {
                    epoch: self.sp_epoch,
                    addr: a,
                    ty,
                });
                self.define(dst, e);
            }
            SpWrite { at, addr, src, ty } => {
                let a = self.opnd(addr, None);
                let s = self.opnd(src, None);
                self.events.push(Event::SpWrite {
                    at,
                    addr: a,
                    src: s,
                    ty,
                });
                self.sp_epoch += 1;
            }
            Comm { dst, data, src } => {
                let d = self.opnd(data, Some(dst));
                let s = self.opnd(src, Some(dst));
                self.events.push(Event::Comm {
                    at: dst,
                    data: d,
                    src: s,
                });
                let e = ar.intern(Node::Comm { data: d, src: s });
                self.define(dst, e);
            }
            DivI { dst, a, b } => {
                let (ea, eb) = (self.opnd(a, Some(dst)), self.opnd(b, Some(dst)));
                self.events.push(Event::DivZero {
                    at: dst,
                    divisor: eb,
                });
                let e = ar.intern(Node::Bin(BinKind::DivI, ea, eb));
                self.define(dst, e);
            }
            Fault {
                at,
                expected,
                found,
            } => {
                self.events.push(Event::Fault {
                    at,
                    expected,
                    found,
                });
                // The faulted op's value is never produced; the lattice
                // default (zero) stands in, same as the reference.
                let z = ar.intern(Node::Const(0));
                self.define(at, z);
            }
            AddI { dst, a, b } => plain_bin!(AddI, dst, a, b),
            AddF { dst, a, b } => plain_bin!(AddF, dst, a, b),
            SubI { dst, a, b } => plain_bin!(SubI, dst, a, b),
            SubF { dst, a, b } => plain_bin!(SubF, dst, a, b),
            MulI { dst, a, b } => plain_bin!(MulI, dst, a, b),
            MulF { dst, a, b } => plain_bin!(MulF, dst, a, b),
            DivF { dst, a, b } => plain_bin!(DivF, dst, a, b),
            MinI { dst, a, b } => plain_bin!(MinI, dst, a, b),
            MinF { dst, a, b } => plain_bin!(MinF, dst, a, b),
            MaxI { dst, a, b } => plain_bin!(MaxI, dst, a, b),
            MaxF { dst, a, b } => plain_bin!(MaxF, dst, a, b),
            And { dst, a, b } => plain_bin!(And, dst, a, b),
            Or { dst, a, b } => plain_bin!(Or, dst, a, b),
            Xor { dst, a, b } => plain_bin!(Xor, dst, a, b),
            Shl { dst, a, b } => plain_bin!(Shl, dst, a, b),
            Shr { dst, a, b } => plain_bin!(Shr, dst, a, b),
            EqI { dst, a, b } => plain_bin!(EqI, dst, a, b),
            EqF { dst, a, b } => plain_bin!(EqF, dst, a, b),
            NeI { dst, a, b } => plain_bin!(NeI, dst, a, b),
            NeF { dst, a, b } => plain_bin!(NeF, dst, a, b),
            LtI { dst, a, b } => plain_bin!(LtI, dst, a, b),
            LtF { dst, a, b } => plain_bin!(LtF, dst, a, b),
            LeI { dst, a, b } => plain_bin!(LeI, dst, a, b),
            LeF { dst, a, b } => plain_bin!(LeF, dst, a, b),
            NegI { dst, a } => plain_un!(NegI, dst, a),
            NegF { dst, a } => plain_un!(NegF, dst, a),
            AbsI { dst, a } => plain_un!(AbsI, dst, a),
            AbsF { dst, a } => plain_un!(AbsF, dst, a),
            Sqrt { dst, a } => plain_un!(Sqrt, dst, a),
            Floor { dst, a } => plain_un!(Floor, dst, a),
            ItoF { dst, a } => plain_un!(ItoF, dst, a),
            FtoI { dst, a } => plain_un!(FtoI, dst, a),
            Select { dst, cond, a, b } => {
                let c = self.opnd(cond, Some(dst));
                let ea = self.opnd(a, Some(dst));
                let eb = self.opnd(b, Some(dst));
                let e = ar.intern(Node::Select {
                    cond: c,
                    a: ea,
                    b: eb,
                });
                self.define(dst, e);
            }
        }
    }
}

// ----------------------------------------------------------- comparison

/// Translation-validates `tape` against its kernel and runs the
/// value-range analysis. Returns every finding, errors first in discovery
/// order, then warnings.
pub(crate) fn check_tape(tape: &Tape) -> Vec<TapeFinding> {
    let kernel = &tape.kernel;
    let mut ar = Arena::default();
    let zero = ar.intern(Node::Const(0));

    if tape.n_vals != kernel.ops().len() {
        return vec![TapeFinding {
            kind: TapeCheckKind::OperandOrder,
            message: format!(
                "value lattice has {} slots for {} kernel ops",
                tape.n_vals,
                kernel.ops().len()
            ),
        }];
    }

    let reference = reference_semantics(kernel, &mut ar);
    let mut exec = TapeExec::new(tape, zero);
    for ins in &tape.prologue {
        exec.step(&mut ar, ins, true);
    }
    for ins in &tape.body {
        exec.step(&mut ar, ins, false);
    }
    let TapeExec {
        env,
        defined,
        events,
        writes,
        cond_writes,
        mut findings,
        ..
    } = exec;

    // Fault-site order: first divergence only, to avoid cascades.
    let mut order_diverged = false;
    for (i, (t, r)) in events.iter().zip(&reference.events).enumerate() {
        if t != r {
            findings.push(TapeFinding {
                kind: TapeCheckKind::ErrorOrder,
                message: format!(
                    "fault site {i} is {} in the tape but {} in the reference",
                    event_desc(&ar, t),
                    event_desc(&ar, r)
                ),
            });
            order_diverged = true;
            break;
        }
    }
    if !order_diverged && events.len() != reference.events.len() {
        findings.push(TapeFinding {
            kind: TapeCheckKind::ErrorOrder,
            message: format!(
                "tape has {} fault sites, reference has {}",
                events.len(),
                reference.events.len()
            ),
        });
    }

    // Output write coverage and per-word expressions.
    for (&(stream, offset), &re) in &reference.writes {
        match writes.get(&(stream, offset)) {
            None => findings.push(TapeFinding {
                kind: TapeCheckKind::WriteCoverage,
                message: format!("output word s{stream}[{offset}] is never written"),
            }),
            Some(&te) if te != re => findings.push(TapeFinding {
                kind: TapeCheckKind::WriteMismatch,
                message: format!(
                    "output word s{stream}[{offset}] is {} in the tape but {} in the reference",
                    ar.render(te, 6),
                    ar.render(re, 6)
                ),
            }),
            Some(_) => {}
        }
    }
    for &(stream, offset) in writes.keys() {
        if !reference.writes.contains_key(&(stream, offset)) {
            findings.push(TapeFinding {
                kind: TapeCheckKind::WriteCoverage,
                message: format!("tape writes s{stream}[{offset}], which the reference never does"),
            });
        }
    }

    // Conditional-write sequences, per stream.
    for (s, (t, r)) in cond_writes.iter().zip(&reference.cond_writes).enumerate() {
        if t != r {
            findings.push(TapeFinding {
                kind: TapeCheckKind::CondStreamMismatch,
                message: format!(
                    "conditional writes to s{s} diverge ({} in the tape, {} in the reference)",
                    t.len(),
                    r.len()
                ),
            });
        }
    }

    // Recurrence wiring: count, init bits, and feed expressions.
    if tape.recurs.len() != reference.recurs.len() {
        findings.push(TapeFinding {
            kind: TapeCheckKind::RecurrenceWiring,
            message: format!(
                "tape has {} recurrence slots, kernel declares {}",
                tape.recurs.len(),
                reference.recurs.len()
            ),
        });
    }
    for (slot, (t, &(init, feed))) in tape.recurs.iter().zip(&reference.recurs).enumerate() {
        if t.init_bits != init {
            findings.push(TapeFinding {
                kind: TapeCheckKind::RecurrenceWiring,
                message: format!(
                    "recurrence slot {slot} initializes to {:#x}, kernel says {init:#x}",
                    t.init_bits
                ),
            });
        }
        let next = t.next as usize;
        if next >= env.len() || !defined[next] {
            findings.push(TapeFinding {
                kind: TapeCheckKind::RecurrenceWiring,
                message: format!(
                    "recurrence slot {slot} feeds from undefined slot v{}",
                    t.next
                ),
            });
        } else if env[next] != feed {
            findings.push(TapeFinding {
                kind: TapeCheckKind::RecurrenceWiring,
                message: format!(
                    "recurrence slot {slot} feeds {} but the kernel binds {}",
                    ar.render(env[next], 6),
                    ar.render(feed, 6)
                ),
            });
        }
    }

    // Value-range analysis over the tape's fault sites.
    let mut memo: Vec<Option<Option<Iv>>> = vec![None; ar.nodes.len()];
    let sp_words = kernel.sp_words() as i64;
    for ev in &events {
        match *ev {
            Event::SpRead { at, addr } | Event::SpWrite { at, addr, .. } => {
                if let Some(iv) = interval(&ar, &mut memo, addr) {
                    if iv.hi < 0 || (sp_words > 0 && iv.lo >= sp_words) {
                        findings.push(TapeFinding {
                            kind: TapeCheckKind::StaticFault,
                            message: format!(
                                "scratchpad access at v{at} is always out of the declared \
                                 {sp_words}-word capacity (address in [{}, {}])",
                                iv.lo, iv.hi
                            ),
                        });
                    } else if sp_words > 0 && iv.lo >= 0 && iv.hi < sp_words {
                        findings.push(TapeFinding {
                            kind: TapeCheckKind::DeadCheck,
                            message: format!(
                                "scratchpad bounds check at v{at} is dead: address in \
                                 [{}, {}] within the declared {sp_words}-word capacity",
                                iv.lo, iv.hi
                            ),
                        });
                    }
                }
            }
            Event::DivZero { at, divisor } => {
                if let Some(iv) = interval(&ar, &mut memo, divisor) {
                    if iv.lo == 0 && iv.hi == 0 {
                        findings.push(TapeFinding {
                            kind: TapeCheckKind::StaticFault,
                            message: format!("division at v{at} divides by constant zero"),
                        });
                    } else if iv.lo > 0 || iv.hi < 0 {
                        findings.push(TapeFinding {
                            kind: TapeCheckKind::DeadCheck,
                            message: format!(
                                "divide-by-zero check at v{at} is dead: divisor in [{}, {}]",
                                iv.lo, iv.hi
                            ),
                        });
                    }
                }
            }
            Event::Comm { at, src, .. } => {
                if let Some(iv) = interval(&ar, &mut memo, src) {
                    if iv.hi < 0 {
                        findings.push(TapeFinding {
                            kind: TapeCheckKind::StaticFault,
                            message: format!(
                                "comm at v{at} always names a negative source lane \
                                 ([{}, {}])",
                                iv.lo, iv.hi
                            ),
                        });
                    } else if iv.lo == 0 && iv.hi == 0 {
                        findings.push(TapeFinding {
                            kind: TapeCheckKind::DeadCheck,
                            message: format!(
                                "comm source check at v{at} is dead: lane 0 is valid for \
                                 every cluster count"
                            ),
                        });
                    }
                }
            }
            Event::Fault { at, .. } => {
                findings.push(TapeFinding {
                    kind: TapeCheckKind::StaticFault,
                    message: format!(
                        "op v{at} is a compile-time-known dynamic-dispatch fault \
                         (ill-typed kernel op)"
                    ),
                });
            }
            Event::ReadBounds { .. } | Event::CondRead { .. } => {}
        }
    }

    findings.sort_by_key(|f| !f.kind.is_error());
    findings
}

// -------------------------------------------------- value-range analysis

/// A closed interval of i32 values (in i64 to keep arithmetic exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: i64,
    hi: i64,
}

impl Iv {
    fn point(k: i64) -> Self {
        Self { lo: k, hi: k }
    }
}

const I32: Iv = Iv {
    lo: i32::MIN as i64,
    hi: i32::MAX as i64,
};

/// Clamps an exactly computed i64 interval back into the i32 domain, or
/// gives up (wrapping) when it escapes.
fn fit(lo: i64, hi: i64) -> Option<Iv> {
    (lo >= I32.lo && hi <= I32.hi).then_some(Iv { lo, hi })
}

/// Fills every bit below the highest set bit (upper bound for bitwise-or
/// of non-negative values).
fn smear(mut x: i64) -> i64 {
    x |= x >> 1;
    x |= x >> 2;
    x |= x >> 4;
    x |= x >> 8;
    x |= x >> 16;
    x |= x >> 32;
    x
}

/// Interval of `e` as a signed 32-bit integer, or `None` (unknown).
/// Sound for the executor's wrapping semantics: any case that could wrap
/// returns unknown.
fn interval(ar: &Arena, memo: &mut Vec<Option<Option<Iv>>>, e: ExprId) -> Option<Iv> {
    if let Some(done) = memo[e as usize] {
        return done;
    }
    let iv = match ar.node(e) {
        Node::Const(bits) => Some(Iv::point(bits as i32 as i64)),
        Node::Iter => Some(Iv { lo: 0, hi: I32.hi }),
        Node::ClusterId => Some(Iv { lo: 0, hi: I32.hi }),
        Node::ClusterCount => Some(Iv { lo: 1, hi: I32.hi }),
        Node::Param(_)
        | Node::Recur(_)
        | Node::Read { .. }
        | Node::CondRead { .. }
        | Node::SpRead { .. }
        | Node::Comm { .. }
        | Node::Un(..) => None,
        Node::Select { a, b, .. } => {
            let (ia, ib) = (interval(ar, memo, a), interval(ar, memo, b));
            match (ia, ib) {
                (Some(x), Some(y)) => Some(Iv {
                    lo: x.lo.min(y.lo),
                    hi: x.hi.max(y.hi),
                }),
                _ => None,
            }
        }
        Node::Bin(k, a, b) => {
            let ia = interval(ar, memo, a);
            let ib = interval(ar, memo, b);
            match k {
                BinKind::AddI => match (ia, ib) {
                    (Some(x), Some(y)) => fit(x.lo + y.lo, x.hi + y.hi),
                    _ => None,
                },
                BinKind::SubI => match (ia, ib) {
                    (Some(x), Some(y)) => fit(x.lo - y.hi, x.hi - y.lo),
                    _ => None,
                },
                BinKind::MulI => match (ia, ib) {
                    (Some(x), Some(y)) => {
                        let c = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi];
                        fit(
                            c.iter().copied().min().unwrap_or(0),
                            c.iter().copied().max().unwrap_or(0),
                        )
                    }
                    _ => None,
                },
                BinKind::And => {
                    // A non-negative mask bounds the result regardless of
                    // the other side's sign.
                    let mask = |iv: Option<Iv>| match iv {
                        Some(iv) if iv.lo == iv.hi && iv.lo >= 0 => Some(iv.lo),
                        _ => None,
                    };
                    match (mask(ia), mask(ib)) {
                        (Some(m), _) | (_, Some(m)) => Some(Iv { lo: 0, hi: m }),
                        _ => match (ia, ib) {
                            (Some(x), Some(y)) if x.lo >= 0 && y.lo >= 0 => Some(Iv {
                                lo: 0,
                                hi: x.hi.min(y.hi),
                            }),
                            _ => None,
                        },
                    }
                }
                BinKind::Or => match (ia, ib) {
                    (Some(x), Some(y)) if x.lo >= 0 && y.lo >= 0 => Some(Iv {
                        lo: 0,
                        hi: smear(x.hi | y.hi),
                    }),
                    _ => None,
                },
                BinKind::MinI => match (ia, ib) {
                    (Some(x), Some(y)) => Some(Iv {
                        lo: x.lo.min(y.lo),
                        hi: x.hi.min(y.hi),
                    }),
                    _ => None,
                },
                BinKind::MaxI => match (ia, ib) {
                    (Some(x), Some(y)) => Some(Iv {
                        lo: x.lo.max(y.lo),
                        hi: x.hi.max(y.hi),
                    }),
                    _ => None,
                },
                BinKind::EqI
                | BinKind::EqF
                | BinKind::NeI
                | BinKind::NeF
                | BinKind::LtI
                | BinKind::LtF
                | BinKind::LeI
                | BinKind::LeF => Some(Iv { lo: 0, hi: 1 }),
                _ => None,
            }
        }
    };
    memo[e as usize] = Some(iv);
    iv
}

// ---------------------------------------------------------- corruptions

/// Test-support corruptions: each applies one targeted miscompile to a
/// compiled tape so the negative-fixture suite can assert the validator
/// rejects it with its designated code. Panics when the tape has no site
/// the corruption applies to — fixtures pick kernels that do.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeMutation {
    /// Swap the operands of the first float subtract — float sub does not
    /// commute → `WriteMismatch`.
    SwapSubOperands,
    /// Swap the body's first two stream reads — their bounds checks change
    /// order → `ErrorOrder`.
    SwapReads,
    /// Move the first fallible body instruction into the prologue →
    /// `HoistedEffect`.
    HoistFallible,
    /// Bump the first plain write's in-record offset → `AccessShape`.
    RetargetWrite,
    /// Flip bits of the first prologue constant → `WriteMismatch`.
    CorruptConstBits,
    /// Rewire the first recurrence's feed to the recurrence's own
    /// loaded value → `RecurrenceWiring`.
    RewireRecurrence,
    /// Flip the first recurrence's initial bits → `RecurrenceWiring`.
    CorruptRecurrenceInit,
    /// Delete the first output write → `WriteCoverage`.
    DropWrite,
    /// Delete the first defining body instruction whose value is used
    /// later → `UndefinedSlot`.
    DropDef,
    /// Point the first plain binary's left operand at its own
    /// destination → `OperandOrder`.
    SelfOperand,
    /// Swap the first conditional write's predicate and source →
    /// `CondStreamMismatch`.
    SwapCondWriteOperands,
}

impl Tape {
    /// Returns a copy of this tape with `mutation` applied — a targeted
    /// miscompile for exercising the translation validator. Test support
    /// only; panics when the tape has no applicable site.
    #[doc(hidden)]
    pub fn corrupted(&self, mutation: TapeMutation) -> Tape {
        let mut t = self.clone();
        let applied = match mutation {
            TapeMutation::SwapSubOperands => t.body.iter_mut().any(|ins| match ins {
                Instr::SubF { a, b, .. } => {
                    std::mem::swap(a, b);
                    true
                }
                _ => false,
            }),
            TapeMutation::SwapReads => {
                let mut reads = t
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(_, ins)| matches!(ins, Instr::Read { .. }))
                    .map(|(i, _)| i);
                match (reads.next(), reads.next()) {
                    (Some(i), Some(j)) => {
                        t.body.swap(i, j);
                        true
                    }
                    _ => false,
                }
            }
            TapeMutation::HoistFallible => match t.body.iter().position(|ins| ins.fallible()) {
                Some(i) => {
                    let ins = t.body.remove(i);
                    t.prologue.push(ins);
                    true
                }
                None => false,
            },
            TapeMutation::RetargetWrite => t.body.iter_mut().any(|ins| match ins {
                Instr::Write { offset, .. } => {
                    *offset += 1;
                    true
                }
                _ => false,
            }),
            TapeMutation::CorruptConstBits => t.prologue.iter_mut().any(|ins| match ins {
                Instr::ConstBits { bits, .. } => {
                    *bits ^= 0x3f;
                    true
                }
                _ => false,
            }),
            TapeMutation::RewireRecurrence => {
                let feed = t.body.iter().find_map(|ins| match *ins {
                    Instr::LoadRecur { dst, slot: 0 } => Some(dst),
                    _ => None,
                });
                match (feed, t.recurs.first_mut()) {
                    (Some(dst), Some(r)) if r.next != dst => {
                        r.next = dst;
                        true
                    }
                    _ => false,
                }
            }
            TapeMutation::CorruptRecurrenceInit => match t.recurs.first_mut() {
                Some(r) => {
                    r.init_bits ^= 1;
                    true
                }
                None => false,
            },
            TapeMutation::DropWrite => {
                let i = t
                    .body
                    .iter()
                    .position(|ins| matches!(ins, Instr::Write { .. }));
                match i {
                    Some(i) => {
                        t.body.remove(i);
                        true
                    }
                    None => false,
                }
            }
            TapeMutation::DropDef => {
                let mut victim = None;
                for (i, ins) in t.body.iter().enumerate() {
                    let Some(d) = ins.def() else { continue };
                    let used_later = t.body.iter().skip(i + 1).any(|later| {
                        let mut hit = false;
                        later.for_each_operand(|v| hit |= v == d);
                        hit
                    });
                    if used_later {
                        victim = Some(i);
                        break;
                    }
                }
                match victim {
                    Some(i) => {
                        t.body.remove(i);
                        true
                    }
                    None => false,
                }
            }
            TapeMutation::SelfOperand => t.body.iter_mut().any(|ins| match ins {
                Instr::AddI { dst, a, .. }
                | Instr::AddF { dst, a, .. }
                | Instr::SubI { dst, a, .. }
                | Instr::SubF { dst, a, .. }
                | Instr::MulI { dst, a, .. }
                | Instr::MulF { dst, a, .. } => {
                    *a = *dst;
                    true
                }
                _ => false,
            }),
            TapeMutation::SwapCondWriteOperands => t.body.iter_mut().any(|ins| match ins {
                Instr::CondWrite { pred, src, .. } => {
                    std::mem::swap(pred, src);
                    true
                }
                _ => false,
            }),
        };
        assert!(
            applied,
            "tape has no site for the {mutation:?} corruption — pick a fixture kernel that does"
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::super::Tape;
    use super::*;
    use crate::{KernelBuilder, Scalar};

    fn saxpy() -> Kernel {
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

    /// A read, a fallible divide, and plain integer arithmetic: sites for
    /// the hoist, drop and self-operand corruptions.
    fn gap() -> Kernel {
        let mut b = KernelBuilder::new("gap");
        let sa = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let p = b.param(Ty::I32);
        let x = b.read(sa);
        let q = b.div(p, p);
        let r = b.add(x, q);
        let sq = b.mul(r, r);
        b.write(out, sq);
        b.finish().unwrap()
    }

    fn fsub() -> Kernel {
        let mut b = KernelBuilder::new("fsub");
        let sa = b.in_stream(Ty::F32);
        let sb = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(sa);
        let y = b.read(sb);
        let d = b.sub(x, y);
        b.write(out, d);
        b.finish().unwrap()
    }

    /// Recurrence + conditional output: every recurrence- and
    /// cond-stream-shaped mutation site.
    fn accum() -> Kernel {
        let mut b = KernelBuilder::new("accum");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let oc = b.out_stream(Ty::I32);
        let acc = b.recurrence(Scalar::I32(1));
        let x = b.read(s);
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        b.write(out, sum);
        let one = b.const_i(1);
        let odd = b.and(sum, one);
        b.cond_write(oc, odd, sum);
        b.finish().unwrap()
    }

    fn copy() -> Kernel {
        let mut b = KernelBuilder::new("copy");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        b.write(out, x);
        b.finish().unwrap()
    }

    fn errors(findings: &[TapeFinding]) -> Vec<&TapeFinding> {
        findings.iter().filter(|f| f.kind.is_error()).collect()
    }

    #[test]
    fn trunk_tapes_validate_clean() {
        for k in [saxpy(), gap(), fsub(), accum(), copy()] {
            let findings = Tape::compile(&k).validate();
            assert!(
                errors(&findings).is_empty(),
                "kernel `{}`: {findings:?}",
                k.name()
            );
        }
    }

    #[test]
    fn every_mutation_is_caught_with_its_designated_kind() {
        use TapeCheckKind as K;
        use TapeMutation as M;
        let cases: Vec<(M, Tape, K)> = vec![
            (M::SwapSubOperands, Tape::compile(&fsub()), K::WriteMismatch),
            (M::SwapReads, Tape::compile(&saxpy()), K::ErrorOrder),
            (M::HoistFallible, Tape::compile(&gap()), K::HoistedEffect),
            (M::RetargetWrite, Tape::compile(&saxpy()), K::AccessShape),
            (
                M::CorruptConstBits,
                Tape::compile(&saxpy()),
                K::WriteMismatch,
            ),
            (
                M::RewireRecurrence,
                Tape::compile(&accum()),
                K::RecurrenceWiring,
            ),
            (
                M::CorruptRecurrenceInit,
                Tape::compile(&accum()),
                K::RecurrenceWiring,
            ),
            (M::DropWrite, Tape::compile(&saxpy()), K::WriteCoverage),
            (M::DropDef, Tape::compile(&gap()), K::UndefinedSlot),
            (M::SelfOperand, Tape::compile(&gap()), K::OperandOrder),
            (
                M::SwapCondWriteOperands,
                Tape::compile(&accum()),
                K::CondStreamMismatch,
            ),
        ];
        for (mutation, tape, want) in cases {
            let findings = tape.corrupted(mutation).validate();
            assert!(
                findings.iter().any(|f| f.kind == want),
                "{mutation:?} must be caught as {want:?}, got {findings:?}"
            );
            if want.is_error() {
                assert!(
                    !errors(&findings).is_empty(),
                    "{mutation:?} must be error-severity, got {findings:?}"
                );
            }
        }
    }

    #[test]
    fn division_by_constant_zero_is_a_static_fault() {
        let mut b = KernelBuilder::new("divz");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let zero = b.const_i(0);
        let q = b.div(x, zero);
        b.write(out, q);
        let k = b.finish().unwrap();
        let findings = Tape::compile(&k).validate();
        assert!(
            findings
                .iter()
                .any(|f| f.kind == TapeCheckKind::StaticFault),
            "{findings:?}"
        );
        assert!(errors(&findings).is_empty(), "{findings:?}");
    }

    #[test]
    fn masked_scratchpad_address_is_a_dead_check() {
        // addr = x & 7 with an 8-word scratchpad: both accesses are
        // provably in bounds, so both checks are flagged dead.
        let mut b = KernelBuilder::new("lut");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        b.require_sp(8);
        let x = b.read(s);
        let seven = b.const_i(7);
        let addr = b.and(x, seven);
        b.sp_write(addr, x);
        let y = b.sp_read(addr, Ty::I32);
        b.write(out, y);
        let k = b.finish().unwrap();
        let findings = Tape::compile(&k).validate();
        let dead = findings
            .iter()
            .filter(|f| f.kind == TapeCheckKind::DeadCheck)
            .count();
        assert_eq!(dead, 2, "{findings:?}");
        assert!(errors(&findings).is_empty(), "{findings:?}");
    }

    #[test]
    fn nonzero_divisor_is_a_dead_divide_check() {
        // divisor = (x & 7) + 1 lies in [1, 8]: zero is excluded.
        let mut b = KernelBuilder::new("safediv");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let seven = b.const_i(7);
        let m = b.and(x, seven);
        let one = b.const_i(1);
        let d = b.add(m, one);
        let q = b.div(x, d);
        b.write(out, q);
        let k = b.finish().unwrap();
        let findings = Tape::compile(&k).validate();
        assert!(
            findings.iter().any(|f| f.kind == TapeCheckKind::DeadCheck),
            "{findings:?}"
        );
    }

    #[test]
    fn kinds_catalog_is_total() {
        assert_eq!(TapeCheckKind::ALL.len(), 11);
        for k in TapeCheckKind::ALL {
            assert!(!k.name().is_empty());
        }
        let errors = TapeCheckKind::ALL.iter().filter(|k| k.is_error()).count();
        assert_eq!(errors, 9);
    }
}
