//! The peephole fusion pass: collapses hot two/three-instruction chains of
//! the lowered body into fused superinstructions, once, at compile time.
//!
//! Patterns, in priority order per consumer:
//!
//! 1. **mul→add/sub** (float and int): a multiply whose value feeds exactly
//!    one add/sub of the same type family collapses into a
//!    multiply-accumulate shape. Both-operands-are-muls collapses three
//!    instructions into one (`MulMulAddF` — the complex-multiply shape).
//!    Operand order is preserved exactly, and float forms keep two
//!    roundings, so results stay bit-identical to the unfused tape.
//! 2. **op→write**: a binary whose only consumer is a plain stream write
//!    sends its lanes straight to the output range (`BinW`).
//! 3. **read→op**: a single-use stream read feeding a binary gathers its
//!    lanes inside the op (`BinRL`/`BinRR`). The read's bounds check moves
//!    to the consumer's position, so this only fires when no *fallible*
//!    instruction sits between producer and consumer — otherwise a run that
//!    fails both ways could report the wrong error first.
//! 4. **const-operand**: a binary with a compile-time-constant operand
//!    embeds the constant's bits (`BinKR`/`BinKL`), skipping one row read
//!    per iteration. Nothing is removed (the hoisted constant may have
//!    other uses), so this is always safe.
//!
//! Only *infallible, pure* producers are ever moved (a multiply cannot
//! fault), with the one audited exception of reads under rule 3. Values
//! consumed by recurrences, COMM, conditional streams, or more than one
//! instruction are never removed, so the value lattice keeps its slots —
//! fusion never renumbers.

use super::instr::{BinOp, Instr, RecurSlot};

/// What a body instruction defines, if anything.
pub(crate) fn def_of(ins: &Instr) -> Option<u32> {
    use Instr::*;
    match *ins {
        ConstBits { dst, .. }
        | Param { dst, .. }
        | IterIndex { dst }
        | ClusterId { dst }
        | ClusterCount { dst }
        | LoadRecur { dst, .. }
        | Read { dst, .. }
        | CondRead { dst, .. }
        | SpRead { dst, .. }
        | Comm { dst, .. }
        | AddI { dst, .. }
        | AddF { dst, .. }
        | SubI { dst, .. }
        | SubF { dst, .. }
        | MulI { dst, .. }
        | MulF { dst, .. }
        | DivI { dst, .. }
        | DivF { dst, .. }
        | Sqrt { dst, .. }
        | MinI { dst, .. }
        | MinF { dst, .. }
        | MaxI { dst, .. }
        | MaxF { dst, .. }
        | NegI { dst, .. }
        | NegF { dst, .. }
        | AbsI { dst, .. }
        | AbsF { dst, .. }
        | Floor { dst, .. }
        | And { dst, .. }
        | Or { dst, .. }
        | Xor { dst, .. }
        | Shl { dst, .. }
        | Shr { dst, .. }
        | EqI { dst, .. }
        | EqF { dst, .. }
        | NeI { dst, .. }
        | NeF { dst, .. }
        | LtI { dst, .. }
        | LtF { dst, .. }
        | LeI { dst, .. }
        | LeF { dst, .. }
        | Select { dst, .. }
        | ItoF { dst, .. }
        | FtoI { dst, .. } => Some(dst),
        Write { .. } | CondWrite { .. } | SpWrite { .. } | Fault { .. } => None,
        // Fused forms never exist before the pass runs.
        MulAddF { dst, .. }
        | AddMulF { dst, .. }
        | MulSubF { dst, .. }
        | SubMulF { dst, .. }
        | MulMulAddF { dst, .. }
        | MulMulSubF { dst, .. }
        | MulAddI { dst, .. }
        | MulSubI { dst, .. }
        | SubMulI { dst, .. }
        | BinKR { dst, .. }
        | BinKL { dst, .. }
        | BinRL { dst, .. }
        | BinRR { dst, .. } => Some(dst),
        BinW { .. } => None,
        // Pair-fused forms define two slots; they are only created after
        // the def/use maps are built, so no single answer is ever needed.
        CMulF { .. } | BflyF { .. } | BflyWF { .. } | Read2 { .. } => None,
    }
}

/// Calls `f` for every value slot this instruction reads.
pub(crate) fn for_each_operand(ins: &Instr, mut f: impl FnMut(u32)) {
    use Instr::*;
    match *ins {
        ConstBits { .. }
        | Param { .. }
        | IterIndex { .. }
        | ClusterId { .. }
        | ClusterCount { .. }
        | LoadRecur { .. }
        | Read { .. }
        | Fault { .. } => {}
        Write { src, .. } => f(src),
        CondRead { pred, .. } => f(pred),
        CondWrite { pred, src, .. } => {
            f(pred);
            f(src);
        }
        SpRead { addr, .. } => f(addr),
        SpWrite { addr, src, .. } => {
            f(addr);
            f(src);
        }
        Comm { data, src, .. } => {
            f(data);
            f(src);
        }
        AddI { a, b, .. }
        | AddF { a, b, .. }
        | SubI { a, b, .. }
        | SubF { a, b, .. }
        | MulI { a, b, .. }
        | MulF { a, b, .. }
        | DivI { a, b, .. }
        | DivF { a, b, .. }
        | MinI { a, b, .. }
        | MinF { a, b, .. }
        | MaxI { a, b, .. }
        | MaxF { a, b, .. }
        | And { a, b, .. }
        | Or { a, b, .. }
        | Xor { a, b, .. }
        | Shl { a, b, .. }
        | Shr { a, b, .. }
        | EqI { a, b, .. }
        | EqF { a, b, .. }
        | NeI { a, b, .. }
        | NeF { a, b, .. }
        | LtI { a, b, .. }
        | LtF { a, b, .. }
        | LeI { a, b, .. }
        | LeF { a, b, .. } => {
            f(a);
            f(b);
        }
        Sqrt { a, .. }
        | Floor { a, .. }
        | NegI { a, .. }
        | NegF { a, .. }
        | AbsI { a, .. }
        | AbsF { a, .. }
        | ItoF { a, .. }
        | FtoI { a, .. } => f(a),
        Select { cond, a, b, .. } => {
            f(cond);
            f(a);
            f(b);
        }
        MulAddF { a, b, c, .. }
        | MulSubF { a, b, c, .. }
        | MulAddI { a, b, c, .. }
        | MulSubI { a, b, c, .. } => {
            f(a);
            f(b);
            f(c);
        }
        AddMulF { c, a, b, .. } | SubMulF { c, a, b, .. } | SubMulI { c, a, b, .. } => {
            f(c);
            f(a);
            f(b);
        }
        MulMulAddF { a, b, c, d, .. } | MulMulSubF { a, b, c, d, .. } => {
            f(a);
            f(b);
            f(c);
            f(d);
        }
        BinKR { a, .. } => f(a),
        BinKL { b, .. } => f(b),
        BinW { a, b, .. } => {
            f(a);
            f(b);
        }
        BinRL { b, .. } => f(b),
        BinRR { a, .. } => f(a),
        CMulF { a, b, c, d, .. } => {
            f(a);
            f(b);
            f(c);
            f(d);
        }
        BflyF { a, b, .. } | BflyWF { a, b, .. } => {
            f(a);
            f(b);
        }
        Read2 { .. } => {}
    }
}

// ---------------------------------------------------------------------
// Shared soundness predicates.
//
// The fusion/hoist passes *apply* these rules and the translation
// validator (`super::check`) independently *re-checks* them; both sides
// call the same pure functions, so a drift between "what the optimizer
// does" and "what validation accepts" shows up as a test failure here,
// not as a latent miscompile. None of these mutate anything.

/// Prefix counts of fallible instructions: `out[k]` is the number of
/// fallible instructions among `body[..k]` (so `out.len() == body.len()+1`).
pub(crate) fn fallible_prefix(body: &[Instr]) -> Vec<u32> {
    let mut fal = vec![0u32; body.len() + 1];
    for (i, ins) in body.iter().enumerate() {
        fal[i + 1] = fal[i] + u32::from(ins.fallible());
    }
    fal
}

/// Whether a fallible *read* defined at `def_at` may legally move to its
/// consumer at `use_at` (`def_at < use_at`): the read's bounds check
/// travels with it, so nothing fallible may sit strictly between the two
/// sites — otherwise a run that fails both ways could report the wrong
/// error first. `fal` is the [`fallible_prefix`] of the same body.
pub(crate) fn read_move_legal(fal: &[u32], def_at: usize, use_at: usize) -> bool {
    fal[use_at] - fal[def_at + 1] == 0
}

/// Whether `ins` may sink into the once-per-call prologue: pure,
/// infallible, and not per-iteration state. Hoisting a fallible
/// instruction would surface its error even on zero-iteration runs, which
/// the legacy interpreter never does.
pub(crate) fn hoistable(ins: &Instr) -> bool {
    !ins.fallible() && !matches!(ins, Instr::IterIndex { .. } | Instr::LoadRecur { .. })
}

/// Whether `ins` couples consecutive iterations through shared mutable
/// state (conditional-stream cursors, the scratchpad).
pub(crate) fn iteration_coupler(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::CondRead { .. } | Instr::CondWrite { .. } | Instr::SpWrite { .. }
    )
}

/// Whether `ins` observes the lane topology (cluster index/count, the
/// iteration number, inter-cluster comm, scratchpad addressing) — exactly
/// what macro-batching changes when it widens the lane vector.
pub(crate) fn lane_topology_sensitive(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::ClusterId { .. }
            | Instr::ClusterCount { .. }
            | Instr::IterIndex { .. }
            | Instr::Comm { .. }
            | Instr::SpRead { .. }
            | Instr::SpWrite { .. }
    )
}

/// Batch eligibility derived from the final instruction stream: no
/// recurrences, no iteration-coupling instruction in the body, and no
/// instruction anywhere that observes the lane topology.
pub(crate) fn derive_batchable(prologue: &[Instr], body: &[Instr], n_recurs: usize) -> bool {
    n_recurs == 0
        && !body.iter().any(iteration_coupler)
        && !prologue
            .iter()
            .chain(body.iter())
            .any(lane_topology_sensitive)
}

/// Sinks iteration-invariant body instructions into the prologue: any
/// pure, infallible instruction whose operands are all defined by the
/// prologue (constants, params, cluster ids — or an already-sunk
/// instruction) computes the same lanes every iteration, so it runs once
/// per kernel call instead. Fallible instructions stay put — hoisting one
/// would surface its error even on zero-iteration runs, which the legacy
/// interpreter never does.
pub(super) fn hoist_invariants(
    prologue: &mut Vec<Instr>,
    body: &mut Vec<Instr>,
    n_vals: usize,
) -> usize {
    let mut invariant = vec![false; n_vals];
    for ins in prologue.iter() {
        if let Some(d) = def_of(ins) {
            invariant[d as usize] = true;
        }
    }
    let mut moved = 0usize;
    body.retain(|ins| {
        let Some(dst) = def_of(ins) else { return true };
        if !hoistable(ins) {
            return true;
        }
        let mut all_invariant = true;
        for_each_operand(ins, |v| all_invariant &= invariant[v as usize]);
        if !all_invariant {
            return true;
        }
        invariant[dst as usize] = true;
        prologue.push(*ins);
        moved += 1;
        false
    });
    moved
}

/// Maps a plain, infallible binary to its `BinOp` and operands.
fn bin_op_of(ins: &Instr) -> Option<(BinOp, u32, u32)> {
    use Instr::*;
    Some(match *ins {
        AddI { a, b, .. } => (BinOp::AddI, a, b),
        AddF { a, b, .. } => (BinOp::AddF, a, b),
        SubI { a, b, .. } => (BinOp::SubI, a, b),
        SubF { a, b, .. } => (BinOp::SubF, a, b),
        MulI { a, b, .. } => (BinOp::MulI, a, b),
        MulF { a, b, .. } => (BinOp::MulF, a, b),
        DivF { a, b, .. } => (BinOp::DivF, a, b),
        MinI { a, b, .. } => (BinOp::MinI, a, b),
        MinF { a, b, .. } => (BinOp::MinF, a, b),
        MaxI { a, b, .. } => (BinOp::MaxI, a, b),
        MaxF { a, b, .. } => (BinOp::MaxF, a, b),
        And { a, b, .. } => (BinOp::And, a, b),
        Or { a, b, .. } => (BinOp::Or, a, b),
        Xor { a, b, .. } => (BinOp::Xor, a, b),
        Shl { a, b, .. } => (BinOp::Shl, a, b),
        Shr { a, b, .. } => (BinOp::Shr, a, b),
        EqI { a, b, .. } => (BinOp::EqI, a, b),
        EqF { a, b, .. } => (BinOp::EqF, a, b),
        NeI { a, b, .. } => (BinOp::NeI, a, b),
        NeF { a, b, .. } => (BinOp::NeF, a, b),
        LtI { a, b, .. } => (BinOp::LtI, a, b),
        LtF { a, b, .. } => (BinOp::LtF, a, b),
        LeI { a, b, .. } => (BinOp::LeI, a, b),
        LeF { a, b, .. } => (BinOp::LeF, a, b),
        _ => return None,
    })
}

/// Runs the peephole pass over `body` in place. `const_bits` maps value
/// slots to compile-time-known constant bits (hoisted `Const` ops);
/// `recurs` pins values feeding recurrences. Returns the number of fusion
/// rewrites applied (the `tape.fused_ops` counter).
pub(super) fn fuse(
    body: &mut Vec<Instr>,
    n_vals: usize,
    recurs: &[RecurSlot],
    const_bits: &[Option<u32>],
) -> usize {
    let n = body.len();
    // Per-value bookkeeping over the ORIGINAL body: definition site, use
    // count (recurrence feeds included), and the single body consumer.
    let mut def: Vec<Option<usize>> = vec![None; n_vals];
    let mut uses: Vec<u32> = vec![0; n_vals];
    let mut last_use: Vec<Option<usize>> = vec![None; n_vals];
    for (i, ins) in body.iter().enumerate() {
        if let Some(d) = def_of(ins) {
            def[d as usize] = Some(i);
        }
        for_each_operand(ins, |v| {
            uses[v as usize] += 1;
            last_use[v as usize] = Some(i);
        });
    }
    for r in recurs {
        uses[r.next as usize] += 1;
    }
    // Prefix count of fallible instructions, for the read-move legality
    // check: `fal[k]` = fallible instructions among body[0..k].
    let fal = fallible_prefix(body);

    let mut cur: Vec<Option<Instr>> = body.iter().copied().map(Some).collect();
    let mut fused = 0usize;

    // A single-use producer at `i` matching `pat`, still unrewritten.
    macro_rules! producer {
        ($v:expr, $pat:pat => $out:expr) => {
            match def[$v as usize] {
                Some(i) if uses[$v as usize] == 1 => match cur[i] {
                    Some($pat) => Some((i, $out)),
                    _ => None,
                },
                _ => None,
            }
        };
    }

    for j in 0..n {
        let Some(ins) = cur[j] else { continue };
        // Generic fallbacks shared by every plain binary: read-operand
        // fusion (legal only with no fallible instruction between the
        // read's old and new positions), then const-operand embedding.
        // An op whose only consumer is a plain write is left alone — the
        // stronger op-into-write fusion claims it when the write is
        // visited, and rewriting it here would hide it from `bin_op_of`.
        macro_rules! try_read_const {
            ($op:expr, $dst:expr, $a:expr, $b:expr) => {{
                let (op, dst, a, b) = ($op, $dst, $a, $b);
                let feeds_write = uses[dst as usize] == 1
                    && last_use[dst as usize]
                        .is_some_and(|u| matches!(body[u], Instr::Write { .. }));
                let ra = (producer!(a, Instr::Read { stream, width, offset, .. } => (stream, width, offset)))
                    .filter(|&(i, _)| read_move_legal(&fal, i, j));
                let rb = (producer!(b, Instr::Read { stream, width, offset, .. } => (stream, width, offset)))
                    .filter(|&(i, _)| read_move_legal(&fal, i, j));
                if feeds_write {
                    // claimed by BinW later
                } else if let Some((i, (stream, width, offset))) = ra {
                    cur[i] = None;
                    cur[j] = Some(Instr::BinRL {
                        op,
                        dst,
                        b,
                        stream,
                        width,
                        offset,
                    });
                    fused += 1;
                } else if let Some((i, (stream, width, offset))) = rb {
                    cur[i] = None;
                    cur[j] = Some(Instr::BinRR {
                        op,
                        dst,
                        a,
                        stream,
                        width,
                        offset,
                    });
                    fused += 1;
                } else if let Some(k) = const_bits[a as usize] {
                    cur[j] = Some(Instr::BinKL { op, dst, k, b });
                    fused += 1;
                } else if let Some(k) = const_bits[b as usize] {
                    cur[j] = Some(Instr::BinKR { op, dst, a, k });
                    fused += 1;
                }
            }};
        }
        // A multiply that will be claimed by its unique float/int add or
        // sub consumer must stay plain until that consumer is visited.
        macro_rules! feeds_accumulate {
            ($dst:expr, $($acc:ident)|+) => {
                uses[$dst as usize] == 1
                    && last_use[$dst as usize]
                        .is_some_and(|u| matches!(body[u], $(Instr::$acc { .. })|+))
            };
        }

        match ins {
            Instr::AddF { dst, a, b } => {
                let ma = producer!(a, Instr::MulF { a, b, .. } => (a, b));
                let mb = producer!(b, Instr::MulF { a, b, .. } => (a, b));
                match (ma, mb) {
                    (Some((ia, (aa, ab))), Some((ib, (ba, bb)))) => {
                        cur[ia] = None;
                        cur[ib] = None;
                        cur[j] = Some(Instr::MulMulAddF {
                            dst,
                            a: aa,
                            b: ab,
                            c: ba,
                            d: bb,
                        });
                        fused += 2;
                    }
                    (Some((ia, (aa, ab))), None) => {
                        cur[ia] = None;
                        cur[j] = Some(Instr::MulAddF {
                            dst,
                            a: aa,
                            b: ab,
                            c: b,
                        });
                        fused += 1;
                    }
                    (None, Some((ib, (ba, bb)))) => {
                        cur[ib] = None;
                        cur[j] = Some(Instr::AddMulF {
                            dst,
                            c: a,
                            a: ba,
                            b: bb,
                        });
                        fused += 1;
                    }
                    (None, None) => try_read_const!(BinOp::AddF, dst, a, b),
                }
            }
            Instr::SubF { dst, a, b } => {
                let ma = producer!(a, Instr::MulF { a, b, .. } => (a, b));
                let mb = producer!(b, Instr::MulF { a, b, .. } => (a, b));
                match (ma, mb) {
                    (Some((ia, (aa, ab))), Some((ib, (ba, bb)))) => {
                        cur[ia] = None;
                        cur[ib] = None;
                        cur[j] = Some(Instr::MulMulSubF {
                            dst,
                            a: aa,
                            b: ab,
                            c: ba,
                            d: bb,
                        });
                        fused += 2;
                    }
                    (Some((ia, (aa, ab))), None) => {
                        cur[ia] = None;
                        cur[j] = Some(Instr::MulSubF {
                            dst,
                            a: aa,
                            b: ab,
                            c: b,
                        });
                        fused += 1;
                    }
                    (None, Some((ib, (ba, bb)))) => {
                        cur[ib] = None;
                        cur[j] = Some(Instr::SubMulF {
                            dst,
                            c: a,
                            a: ba,
                            b: bb,
                        });
                        fused += 1;
                    }
                    (None, None) => try_read_const!(BinOp::SubF, dst, a, b),
                }
            }
            Instr::AddI { dst, a, b } => {
                // Wrapping add commutes, so one shape covers both orders.
                if let Some((ia, (aa, ab))) = producer!(a, Instr::MulI { a, b, .. } => (a, b)) {
                    cur[ia] = None;
                    cur[j] = Some(Instr::MulAddI {
                        dst,
                        a: aa,
                        b: ab,
                        c: b,
                    });
                    fused += 1;
                } else if let Some((ib, (ba, bb))) =
                    producer!(b, Instr::MulI { a, b, .. } => (a, b))
                {
                    cur[ib] = None;
                    cur[j] = Some(Instr::MulAddI {
                        dst,
                        a: ba,
                        b: bb,
                        c: a,
                    });
                    fused += 1;
                } else {
                    try_read_const!(BinOp::AddI, dst, a, b);
                }
            }
            Instr::SubI { dst, a, b } => {
                if let Some((ia, (aa, ab))) = producer!(a, Instr::MulI { a, b, .. } => (a, b)) {
                    cur[ia] = None;
                    cur[j] = Some(Instr::MulSubI {
                        dst,
                        a: aa,
                        b: ab,
                        c: b,
                    });
                    fused += 1;
                } else if let Some((ib, (ba, bb))) =
                    producer!(b, Instr::MulI { a, b, .. } => (a, b))
                {
                    cur[ib] = None;
                    cur[j] = Some(Instr::SubMulI {
                        dst,
                        c: a,
                        a: ba,
                        b: bb,
                    });
                    fused += 1;
                } else {
                    try_read_const!(BinOp::SubI, dst, a, b);
                }
            }
            Instr::MulF { dst, a, b } => {
                if !feeds_accumulate!(dst, AddF | SubF) {
                    try_read_const!(BinOp::MulF, dst, a, b);
                }
            }
            Instr::MulI { dst, a, b } => {
                if !feeds_accumulate!(dst, AddI | SubI) {
                    try_read_const!(BinOp::MulI, dst, a, b);
                }
            }
            Instr::Write {
                src,
                stream,
                width,
                offset,
            } => {
                if uses[src as usize] == 1 {
                    if let Some(i) = def[src as usize] {
                        if let Some((op, a, b)) = cur[i].as_ref().and_then(bin_op_of) {
                            cur[i] = None;
                            cur[j] = Some(Instr::BinW {
                                op,
                                a,
                                b,
                                stream,
                                width,
                                offset,
                            });
                            fused += 1;
                        }
                    }
                }
            }
            // Remaining plain binaries: read/const operand fusion only.
            other => {
                if let Some((op, a, b)) = bin_op_of(&other) {
                    if let Some(dst) = def_of(&other) {
                        try_read_const!(op, dst, a, b);
                    }
                }
            }
        }
    }

    *body = cur.into_iter().flatten().collect();
    fused + pair_fuse(body)
}

// Pair-key tags for `pair_fuse`'s pending map.
const K_ADDF: u8 = 0;
const K_SUBF: u8 = 1;
const K_MMADD: u8 = 2;
const K_MMSUB: u8 = 3;
const K_WADD: u8 = 4;
const K_WSUB: u8 = 5;

/// The pair pass: merges two instructions that share one operand set into
/// a single two-result superinstruction. Three shapes, all dominant in the
/// FFT butterfly:
///
/// * `AddF`/`SubF` over the same `(a, b)` (exact operand order — float add
///   is never treated as commutative at the bit level) → [`Instr::BflyF`];
/// * the complex-multiply halves `a*b - c*d` / `a*d + c*b` → [`Instr::CMulF`];
/// * `BinW AddF`/`BinW SubF` over the same `(a, b)` → [`Instr::BflyWF`];
/// * two `Read`s separated by nothing fallible → [`Instr::Read2`], which
///   keeps both bounds checks in original program order (a read depends
///   only on the iteration index, so hopping over pure instructions whose
///   results it cannot mention is free).
///
/// The merged instruction replaces the *earlier* member, so the later
/// member's computation moves up. That is sound because the pair shares
/// its operand set: every operand was already legally readable at the
/// earlier position, both results are fresh SSA slots nothing in between
/// can mention, and all three shapes are infallible (plain-stream writes
/// land in disjoint preallocated slots, and outputs are only observable on
/// error-free runs), so no error can be reordered past one.
fn pair_fuse(body: &mut Vec<Instr>) -> usize {
    use std::collections::HashMap;
    let mut pend: HashMap<(u8, u32, u32, u32, u32), usize> = HashMap::new();
    let mut cur: Vec<Option<Instr>> = body.iter().copied().map(Some).collect();
    let mut fused = 0usize;
    // A lone read waiting for a partner; forfeited when any other fallible
    // instruction would sit between the pair.
    let mut pending_read: Option<usize> = None;
    for j in 0..cur.len() {
        let Some(ins) = cur[j] else { continue };
        if let Instr::Read {
            dst: db,
            stream: sb,
            width: wb,
            offset: ob,
        } = ins
        {
            if let Some(i) = pending_read.take() {
                let Some(Instr::Read {
                    dst: da,
                    stream: sa,
                    width: wa,
                    offset: oa,
                }) = cur[i]
                else {
                    unreachable!("pending read always marks a read")
                };
                cur[i] = Some(Instr::Read2 {
                    da,
                    sa,
                    wa,
                    oa,
                    db,
                    sb,
                    wb,
                    ob,
                });
                cur[j] = None;
                fused += 1;
            } else {
                pending_read = Some(j);
            }
            continue;
        }
        if ins.fallible() {
            pending_read = None;
        }
        match ins {
            Instr::AddF { dst, a, b } => {
                if let Some(i) = pend.remove(&(K_SUBF, a, b, 0, 0)) {
                    let Some(Instr::SubF { dst: sub_dst, .. }) = cur[i] else {
                        unreachable!("pending key always marks its own shape")
                    };
                    cur[i] = Some(Instr::BflyF {
                        add_dst: dst,
                        sub_dst,
                        a,
                        b,
                    });
                    cur[j] = None;
                    fused += 1;
                } else {
                    pend.insert((K_ADDF, a, b, 0, 0), j);
                }
            }
            Instr::SubF { dst, a, b } => {
                if let Some(i) = pend.remove(&(K_ADDF, a, b, 0, 0)) {
                    let Some(Instr::AddF { dst: add_dst, .. }) = cur[i] else {
                        unreachable!("pending key always marks its own shape")
                    };
                    cur[i] = Some(Instr::BflyF {
                        add_dst,
                        sub_dst: dst,
                        a,
                        b,
                    });
                    cur[j] = None;
                    fused += 1;
                } else {
                    pend.insert((K_SUBF, a, b, 0, 0), j);
                }
            }
            // Complement relation: Sub(a, b, c, d) = a*b - c*d pairs with
            // Add(a2, b2, c2, d2) = a2*b2 + c2*d2 when a2 = a, b2 = d,
            // c2 = c, d2 = b — exactly the two halves of one complex
            // multiply. `CMulF` keeps the Sub's field order, computing
            // `im = a*d + c*b` in the Add's original operand order.
            Instr::MulMulAddF { dst, a, b, c, d } => {
                if let Some(i) = pend.remove(&(K_MMSUB, a, d, c, b)) {
                    let Some(Instr::MulMulSubF {
                        dst: re_dst,
                        a,
                        b,
                        c,
                        d,
                    }) = cur[i]
                    else {
                        unreachable!("pending key always marks its own shape")
                    };
                    cur[i] = Some(Instr::CMulF {
                        re_dst,
                        im_dst: dst,
                        a,
                        b,
                        c,
                        d,
                    });
                    cur[j] = None;
                    fused += 1;
                } else {
                    pend.insert((K_MMADD, a, b, c, d), j);
                }
            }
            Instr::MulMulSubF { dst, a, b, c, d } => {
                if let Some(i) = pend.remove(&(K_MMADD, a, d, c, b)) {
                    let Some(Instr::MulMulAddF { dst: im_dst, .. }) = cur[i] else {
                        unreachable!("pending key always marks its own shape")
                    };
                    cur[i] = Some(Instr::CMulF {
                        re_dst: dst,
                        im_dst,
                        a,
                        b,
                        c,
                        d,
                    });
                    cur[j] = None;
                    fused += 1;
                } else {
                    pend.insert((K_MMSUB, a, b, c, d), j);
                }
            }
            Instr::BinW {
                op: BinOp::AddF,
                a,
                b,
                stream,
                width,
                offset,
            } => {
                if let Some(i) = pend.remove(&(K_WSUB, a, b, 0, 0)) {
                    let Some(Instr::BinW {
                        stream: sub_stream,
                        width: sub_width,
                        offset: sub_offset,
                        ..
                    }) = cur[i]
                    else {
                        unreachable!("pending key always marks its own shape")
                    };
                    cur[i] = Some(Instr::BflyWF {
                        a,
                        b,
                        add_stream: stream,
                        add_width: width,
                        add_offset: offset,
                        sub_stream,
                        sub_width,
                        sub_offset,
                    });
                    cur[j] = None;
                    fused += 1;
                } else {
                    pend.insert((K_WADD, a, b, 0, 0), j);
                }
            }
            Instr::BinW {
                op: BinOp::SubF,
                a,
                b,
                stream,
                width,
                offset,
            } => {
                if let Some(i) = pend.remove(&(K_WADD, a, b, 0, 0)) {
                    let Some(Instr::BinW {
                        stream: add_stream,
                        width: add_width,
                        offset: add_offset,
                        ..
                    }) = cur[i]
                    else {
                        unreachable!("pending key always marks its own shape")
                    };
                    cur[i] = Some(Instr::BflyWF {
                        a,
                        b,
                        add_stream,
                        add_width,
                        add_offset,
                        sub_stream: stream,
                        sub_width: width,
                        sub_offset: offset,
                    });
                    cur[j] = None;
                    fused += 1;
                } else {
                    pend.insert((K_WSUB, a, b, 0, 0), j);
                }
            }
            _ => {}
        }
    }
    *body = cur.into_iter().flatten().collect();
    fused
}
