//! The tape's execution engine: lane-specialized stepping and serial
//! macro-batching, on the caller's thread.
//!
//! # Lane specialization
//!
//! The per-lane loops in [`step`] run over `C` clusters. Passing the
//! cluster count as a runtime value would leave every inner loop with
//! dynamic trip-count overhead, so the whole stepping path is
//! monomorphized over `const C: usize` for the common widths (1, 4, 8, 16)
//! — the compiler sees fixed-length loops it can fully unroll and
//! vectorize — with `C = 0` denoting the runtime-width generic fallback
//! ([`lanes`] folds the two cases). [`dispatch`] picks the instantiation
//! once per kernel call.

use super::instr::{
    bits_of, fill, for_binop, row, split2, split3, split_dst, split_dst2, BinOp, Instr,
};
use super::scratch::Scratchpad;
use super::Tape;
use crate::interp::ExecConfig;
use crate::{IrError, Scalar, StreamId, ValueId};

/// Value-lattice budget (in u32 words) for the serial macro-batching
/// path. The batch factor is chosen as the largest iteration count whose
/// fused `n_vals * c * batch` lattice still fits this budget, keeping the
/// whole working set L1-resident; 4096 words = 16 KiB.
const BATCH_VALS_WORDS: usize = 4096;

/// Folds the const-generic lane count with the runtime one: `C = 0` is the
/// generic instantiation, any other `C` is a compile-time-fixed width.
#[inline(always)]
const fn lanes<const C: usize>(c: usize) -> usize {
    if C == 0 {
        c
    } else {
        C
    }
}

/// Runs a compiled tape and converts the untagged output lanes back to
/// scalars.
pub(super) fn run(
    tape: &Tape,
    iterations: usize,
    params: &[Scalar],
    in_bits: &[Vec<u32>],
    sp: &mut Scratchpad,
    cfg: &ExecConfig,
) -> Result<Vec<Vec<Scalar>>, IrError> {
    let mut run_span = stream_trace::span("tape", "run");
    run_span.arg("iterations", iterations);
    run_span.arg("clusters", cfg.clusters);
    let c = cfg.clusters;
    let params_bits: Vec<u32> = params.iter().map(|&p| bits_of(p)).collect();
    let outs = tape.kernel.outputs();

    // Unconditional outputs are written in place at exact offsets;
    // conditional outputs are push-only and kept in separate storage.
    let mut plain: Vec<Vec<u32>> = outs
        .iter()
        .map(|d| {
            if d.conditional {
                Vec::new()
            } else {
                vec![0u32; iterations * c * d.record_width as usize]
            }
        })
        .collect();
    let mut cond: Vec<Vec<u32>> = outs
        .iter()
        .map(|d| {
            if d.conditional {
                Vec::with_capacity(iterations * c * d.record_width as usize)
            } else {
                Vec::new()
            }
        })
        .collect();

    run_serial(
        tape,
        iterations,
        c,
        cfg.sp_words,
        &params_bits,
        in_bits,
        &mut plain,
        &mut cond,
        sp,
    )?;

    // Convert untagged output bits back to scalars; the per-stream type is
    // hoisted out of the word loop ([`scalars_of`]).
    Ok(outs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let bits = if d.conditional { &cond[i] } else { &plain[i] };
            scalars_of(bits, d.ty)
        })
        .collect())
}

/// Serial execution with iteration macro-batching. For lane-topology
/// neutral tapes (the `batchable` flag), `BATCH` consecutive iterations
/// execute as a single dispatch over `BATCH * c` lanes: the flattened
/// stream index formula `(iter * lanes + lane) * width + offset` under
/// `iter = block, lanes = BATCH * c` enumerates exactly the words the
/// per-iteration schedule touches, in the same order, and every surviving
/// instruction is pure lane-wise arithmetic — so outputs are
/// bit-identical while dispatch overhead drops by `BATCH` and the lane
/// loops get `BATCH`-times longer contiguous rows to vectorize.
///
/// The only observable the wide dispatch gets wrong is the iteration
/// number attached to an error (a block index). Errors are rare and
/// outputs of failed runs are discarded, so a failing batched run is
/// simply rerun unbatched to surface the exact per-iteration error.
#[allow(clippy::too_many_arguments)]
fn run_serial(
    tape: &Tape,
    iterations: usize,
    c: usize,
    sp_words: usize,
    params: &[u32],
    in_bits: &[Vec<u32>],
    plain: &mut [Vec<u32>],
    cond: &mut [Vec<u32>],
    sp: &mut Scratchpad,
) -> Result<(), IrError> {
    if tape.batchable {
        // Largest power-of-two batch whose fused lattice fits the budget:
        // power-of-two factors keep `c * batch` on the specialized widths
        // for the common cluster counts.
        let budget = (BATCH_VALS_WORDS / (tape.n_vals * c).max(1)).min(iterations);
        let batch = if budget >= 2 {
            1usize << (usize::BITS - 1 - budget.leading_zeros())
        } else {
            budget
        };
        let blocks = if batch >= 2 { iterations / batch } else { 0 };
        if blocks >= 1 {
            let head = dispatch(
                tape,
                0,
                blocks,
                c * batch,
                sp_words,
                params,
                in_bits,
                plain,
                cond,
                sp,
            );
            if head.is_ok() {
                if blocks * batch == iterations {
                    return Ok(());
                }
                // Tail iterations that don't fill a block run at the
                // unbatched width, at their absolute iteration indices.
                return dispatch(
                    tape,
                    blocks * batch,
                    iterations,
                    c,
                    sp_words,
                    params,
                    in_bits,
                    plain,
                    cond,
                    sp,
                );
            }
        }
    }
    dispatch(
        tape, 0, iterations, c, sp_words, params, in_bits, plain, cond, sp,
    )
}

/// Constant-stride gather: `dst[lane] = src[first + lane * w]`. The
/// common small record widths get monomorphic loops — a constant stride
/// is what LLVM's interleaved-access vectorizer needs; a dynamic one
/// forces scalar element loads.
#[inline(always)]
fn gather(dst: &mut [u32], src: &[u32], first: usize, w: usize) {
    macro_rules! go {
        ($w:expr) => {
            for (lane, v) in dst.iter_mut().enumerate() {
                *v = src[first + lane * $w];
            }
        };
    }
    match w {
        1 => dst.copy_from_slice(&src[first..first + dst.len()]),
        2 => go!(2),
        3 => go!(3),
        4 => go!(4),
        w => go!(w),
    }
}

/// Constant-stride scatter: `out[first + lane * w] = src[lane]`.
#[inline(always)]
fn scatter(out: &mut [u32], first: usize, w: usize, src: &[u32]) {
    macro_rules! go {
        ($w:expr) => {
            for (lane, &v) in src.iter().enumerate() {
                out[first + lane * $w] = v;
            }
        };
    }
    match w {
        1 => out[first..first + src.len()].copy_from_slice(src),
        2 => go!(2),
        3 => go!(3),
        4 => go!(4),
        w => go!(w),
    }
}

/// Constant-stride float scatter-map:
/// `out[first + lane * w] = f(xs[lane], ys[lane])`.
#[inline(always)]
fn scatter_f(
    out: &mut [u32],
    first: usize,
    w: usize,
    xs: &[u32],
    ys: &[u32],
    f: impl Fn(f32, f32) -> f32,
) {
    macro_rules! go {
        ($w:expr) => {
            for (lane, (&x, &y)) in xs.iter().zip(ys).enumerate() {
                out[first + lane * $w] = f(f32::from_bits(x), f32::from_bits(y)).to_bits();
            }
        };
    }
    match w {
        1 => go!(1),
        2 => go!(2),
        3 => go!(3),
        4 => go!(4),
        w => go!(w),
    }
}

/// Bulk bits-to-scalar conversion with the stream type hoisted out of
/// the loop, so each arm is a branch-free map.
fn scalars_of(bits: &[u32], ty: crate::Ty) -> Vec<Scalar> {
    match ty {
        crate::Ty::I32 => bits.iter().map(|&b| Scalar::I32(b as i32)).collect(),
        crate::Ty::F32 => bits
            .iter()
            .map(|&b| Scalar::F32(f32::from_bits(b)))
            .collect(),
    }
}

/// Picks the lane-specialized instantiation for this cluster count.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    tape: &Tape,
    lo: usize,
    hi: usize,
    c: usize,
    sp_words: usize,
    params: &[u32],
    in_bits: &[Vec<u32>],
    plain: &mut [Vec<u32>],
    cond: &mut [Vec<u32>],
    sp: &mut Scratchpad,
) -> Result<(), IrError> {
    macro_rules! go {
        ($C:literal) => {
            run_range::<$C>(tape, lo, hi, c, sp_words, params, in_bits, plain, cond, sp)
        };
    }
    match c {
        1 => go!(1),
        4 => go!(4),
        8 => go!(8),
        16 => go!(16),
        // Macro-batched widths (c * batch for power-of-two batches).
        32 => go!(32),
        64 => go!(64),
        _ => go!(0),
    }
}

/// Executes iterations `lo..hi` with its own value lattice.
#[allow(clippy::too_many_arguments)]
fn run_range<const C: usize>(
    tape: &Tape,
    lo: usize,
    hi: usize,
    c: usize,
    sp_words: usize,
    params: &[u32],
    in_bits: &[Vec<u32>],
    plain: &mut [Vec<u32>],
    cond: &mut [Vec<u32>],
    sp: &mut Scratchpad,
) -> Result<(), IrError> {
    let c = lanes::<C>(c);
    let mut vals = vec![0u32; tape.n_vals * c];
    let mut recur = vec![0u32; tape.recurs.len() * c];
    for (slot, r) in tape.recurs.iter().enumerate() {
        recur[slot * c..slot * c + c].fill(r.init_bits);
    }
    let mut cond_cursor = vec![0usize; in_bits.len()];

    for ins in &tape.prologue {
        step::<C>(
            ins,
            0,
            c,
            sp_words,
            &mut vals,
            &recur,
            params,
            in_bits,
            plain,
            cond,
            sp,
            &mut cond_cursor,
        )?;
    }
    for iter in lo..hi {
        for ins in &tape.body {
            step::<C>(
                ins,
                iter,
                c,
                sp_words,
                &mut vals,
                &recur,
                params,
                in_bits,
                plain,
                cond,
                sp,
                &mut cond_cursor,
            )?;
        }
        for (slot, r) in tape.recurs.iter().enumerate() {
            let src = r.next as usize * c;
            recur[slot * c..slot * c + c].copy_from_slice(&vals[src..src + c]);
        }
    }
    Ok(())
}

macro_rules! bin_i {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $b:expr, $f:expr) => {{
        let (dst, xs, ys) = split3($vals, $c, $d, $a, $b);
        for ((d, &x), &y) in dst.iter_mut().zip(xs).zip(ys) {
            *d = $f(x as i32, y as i32) as u32;
        }
    }};
}

macro_rules! bin_f {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $b:expr, $f:expr) => {{
        let (dst, xs, ys) = split3($vals, $c, $d, $a, $b);
        for ((d, &x), &y) in dst.iter_mut().zip(xs).zip(ys) {
            *d = $f(f32::from_bits(x), f32::from_bits(y)).to_bits();
        }
    }};
}

macro_rules! cmp_i {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $b:expr, $f:expr) => {{
        let (dst, xs, ys) = split3($vals, $c, $d, $a, $b);
        for ((d, &x), &y) in dst.iter_mut().zip(xs).zip(ys) {
            *d = u32::from($f(x as i32, y as i32));
        }
    }};
}

macro_rules! cmp_f {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $b:expr, $f:expr) => {{
        let (dst, xs, ys) = split3($vals, $c, $d, $a, $b);
        for ((d, &x), &y) in dst.iter_mut().zip(xs).zip(ys) {
            *d = u32::from($f(f32::from_bits(x), f32::from_bits(y)));
        }
    }};
}

macro_rules! un_i {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $f:expr) => {{
        let (dst, xs) = split2($vals, $c, $d, $a);
        for (d, &x) in dst.iter_mut().zip(xs) {
            *d = $f(x as i32) as u32;
        }
    }};
}

macro_rules! un_f {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $f:expr) => {{
        let (dst, xs) = split2($vals, $c, $d, $a);
        for (d, &x) in dst.iter_mut().zip(xs) {
            *d = $f(f32::from_bits(x)).to_bits();
        }
    }};
}

/// Three-operand float superinstruction: `dst = f(a, b, e)` per lane,
/// computed with the same per-op roundings as the unfused chain.
macro_rules! tri_f {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $b:expr, $e:expr, $f:expr) => {{
        let (dst, lo) = split_dst($vals, $c, $d);
        let (xs, ys, zs) = (row(lo, $c, $a), row(lo, $c, $b), row(lo, $c, $e));
        for (((d, &x), &y), &z) in dst.iter_mut().zip(xs).zip(ys).zip(zs) {
            *d = $f(f32::from_bits(x), f32::from_bits(y), f32::from_bits(z)).to_bits();
        }
    }};
}

macro_rules! tri_i {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $b:expr, $e:expr, $f:expr) => {{
        let (dst, lo) = split_dst($vals, $c, $d);
        let (xs, ys, zs) = (row(lo, $c, $a), row(lo, $c, $b), row(lo, $c, $e));
        for (((d, &x), &y), &z) in dst.iter_mut().zip(xs).zip(ys).zip(zs) {
            *d = $f(x as i32, y as i32, z as i32) as u32;
        }
    }};
}

/// Four-operand float superinstruction (the complex-multiply shape).
macro_rules! quad_f {
    ($vals:expr, $c:expr, $d:expr, $a:expr, $b:expr, $e:expr, $g:expr, $f:expr) => {{
        let (dst, lo) = split_dst($vals, $c, $d);
        let (xs, ys, zs, ws) = (
            row(lo, $c, $a),
            row(lo, $c, $b),
            row(lo, $c, $e),
            row(lo, $c, $g),
        );
        for ((((d, &x), &y), &z), &w) in dst.iter_mut().zip(xs).zip(ys).zip(zs).zip(ws) {
            *d = $f(
                f32::from_bits(x),
                f32::from_bits(y),
                f32::from_bits(z),
                f32::from_bits(w),
            )
            .to_bits();
        }
    }};
}

/// Executes one tape instruction across all `C` (or `c`) lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step<const C: usize>(
    ins: &Instr,
    iter: usize,
    c: usize,
    sp_words: usize,
    vals: &mut [u32],
    recur: &[u32],
    params: &[u32],
    in_bits: &[Vec<u32>],
    plain: &mut [Vec<u32>],
    cond: &mut [Vec<u32>],
    sp: &mut Scratchpad,
    cond_cursor: &mut [usize],
) -> Result<(), IrError> {
    let c = lanes::<C>(c);
    match *ins {
        Instr::ConstBits { dst, bits } => fill(vals, c, dst, bits),
        Instr::Param { dst, idx } => fill(vals, c, dst, params[idx as usize]),
        Instr::IterIndex { dst } => fill(vals, c, dst, iter as i32 as u32),
        Instr::ClusterId { dst } => {
            let d = dst as usize * c;
            for (lane, v) in vals[d..d + c].iter_mut().enumerate() {
                *v = lane as i32 as u32;
            }
        }
        Instr::ClusterCount { dst } => fill(vals, c, dst, c as i32 as u32),
        Instr::LoadRecur { dst, slot } => {
            let d = dst as usize * c;
            let s = slot as usize * c;
            vals[d..d + c].copy_from_slice(&recur[s..s + c]);
        }
        Instr::Read {
            dst,
            stream,
            width,
            offset,
        } => {
            let s = &in_bits[stream as usize];
            let w = width as usize;
            let first = (iter * c) * w + offset as usize;
            // Lane indices increase with the cluster id; checking the last
            // lane hoists the per-lane bounds check.
            if first + (c - 1) * w >= s.len() {
                return Err(IrError::StreamExhausted {
                    stream: StreamId(stream),
                    iteration: iter,
                });
            }
            let d = dst as usize * c;
            gather(&mut vals[d..d + c], s, first, w);
        }
        Instr::Write {
            src,
            stream,
            width,
            offset,
        } => {
            let out = &mut *plain[stream as usize];
            let w = width as usize;
            let first = (iter * c) * w + offset as usize;
            let s = src as usize * c;
            scatter(out, first, w, &vals[s..s + c]);
        }
        Instr::CondRead { dst, pred, stream } => {
            let s = &in_bits[stream as usize];
            let cur = &mut cond_cursor[stream as usize];
            let (dstl, preds) = split2(vals, c, dst, pred);
            for (d, &p) in dstl.iter_mut().zip(preds) {
                *d = if p != 0 {
                    match s.get(*cur) {
                        Some(&w) => {
                            *cur += 1;
                            w
                        }
                        None => {
                            return Err(IrError::StreamExhausted {
                                stream: StreamId(stream),
                                iteration: iter,
                            })
                        }
                    }
                } else {
                    0
                };
            }
        }
        Instr::CondWrite { pred, src, stream } => {
            let out = &mut cond[stream as usize];
            let p = pred as usize * c;
            let s = src as usize * c;
            for lane in 0..c {
                if vals[p + lane] != 0 {
                    out.push(vals[s + lane]);
                }
            }
        }
        Instr::SpRead { dst, addr, ty } => {
            let (dstl, addrs) = split2(vals, c, dst, addr);
            for (lane, (d, &ab)) in dstl.iter_mut().zip(addrs).enumerate() {
                let a = ab as i32;
                if a < 0 || a as usize >= sp_words {
                    return Err(IrError::SpOutOfBounds {
                        at: ValueId(dst),
                        addr: a,
                        capacity: sp_words,
                    });
                }
                match sp.read(a as usize * c + lane, ty) {
                    Ok(bits) => *d = bits,
                    Err(found) => {
                        return Err(IrError::TypeMismatch {
                            at: ValueId(dst),
                            expected: ty,
                            found,
                        })
                    }
                }
            }
        }
        Instr::SpWrite { at, addr, src, ty } => {
            let a0 = addr as usize * c;
            let s0 = src as usize * c;
            for lane in 0..c {
                let a = vals[a0 + lane] as i32;
                if a < 0 || a as usize >= sp_words {
                    return Err(IrError::SpOutOfBounds {
                        at: ValueId(at),
                        addr: a,
                        capacity: sp_words,
                    });
                }
                sp.write(a as usize * c + lane, vals[s0 + lane], ty);
            }
        }
        Instr::Comm { dst, data, src } => {
            let (dstl, datas, srcs) = split3(vals, c, dst, data, src);
            for (d, &sb) in dstl.iter_mut().zip(srcs) {
                let si = sb as i32;
                if si < 0 || si as usize >= c {
                    return Err(IrError::BadCommSource {
                        at: ValueId(dst),
                        src: si,
                        clusters: c,
                    });
                }
                *d = datas[si as usize];
            }
        }
        Instr::AddI { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.wrapping_add(y)),
        Instr::AddF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x + y),
        Instr::SubI { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.wrapping_sub(y)),
        Instr::SubF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x - y),
        Instr::MulI { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.wrapping_mul(y)),
        Instr::MulF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x * y),
        Instr::DivI { dst, a, b } => {
            let (dstl, xs, ys) = split3(vals, c, dst, a, b);
            for ((d, &x), &y) in dstl.iter_mut().zip(xs).zip(ys) {
                let y = y as i32;
                if y == 0 {
                    return Err(IrError::DivideByZero(ValueId(dst)));
                }
                *d = (x as i32).wrapping_div(y) as u32;
            }
        }
        Instr::DivF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x / y),
        Instr::Sqrt { dst, a } => un_f!(vals, c, dst, a, |x: f32| x.sqrt()),
        Instr::MinI { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.min(y)),
        Instr::MinF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x.min(y)),
        Instr::MaxI { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.max(y)),
        Instr::MaxF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x.max(y)),
        Instr::NegI { dst, a } => un_i!(vals, c, dst, a, |x: i32| x.wrapping_neg()),
        Instr::NegF { dst, a } => un_f!(vals, c, dst, a, |x: f32| -x),
        Instr::AbsI { dst, a } => un_i!(vals, c, dst, a, |x: i32| x.wrapping_abs()),
        Instr::AbsF { dst, a } => un_f!(vals, c, dst, a, |x: f32| x.abs()),
        Instr::Floor { dst, a } => un_f!(vals, c, dst, a, |x: f32| x.floor()),
        Instr::And { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x & y),
        Instr::Or { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x | y),
        Instr::Xor { dst, a, b } => bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x ^ y),
        Instr::Shl { dst, a, b } => {
            bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x
                .wrapping_shl(y as u32))
        }
        Instr::Shr { dst, a, b } => {
            bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x
                .wrapping_shr(y as u32))
        }
        Instr::EqI { dst, a, b } => cmp_i!(vals, c, dst, a, b, |x: i32, y: i32| x == y),
        Instr::EqF { dst, a, b } => cmp_f!(vals, c, dst, a, b, |x: f32, y: f32| x == y),
        Instr::NeI { dst, a, b } => cmp_i!(vals, c, dst, a, b, |x: i32, y: i32| x != y),
        Instr::NeF { dst, a, b } => cmp_f!(vals, c, dst, a, b, |x: f32, y: f32| x != y),
        Instr::LtI { dst, a, b } => cmp_i!(vals, c, dst, a, b, |x: i32, y: i32| x < y),
        Instr::LtF { dst, a, b } => cmp_f!(vals, c, dst, a, b, |x: f32, y: f32| x < y),
        Instr::LeI { dst, a, b } => cmp_i!(vals, c, dst, a, b, |x: i32, y: i32| x <= y),
        Instr::LeF { dst, a, b } => cmp_f!(vals, c, dst, a, b, |x: f32, y: f32| x <= y),
        Instr::Select { dst, cond, a, b } => {
            let (lo, hi) = vals.split_at_mut(dst as usize * c);
            let conds = &lo[cond as usize * c..cond as usize * c + c];
            let xs = &lo[a as usize * c..a as usize * c + c];
            let ys = &lo[b as usize * c..b as usize * c + c];
            for (((d, &cv), &x), &y) in hi[..c].iter_mut().zip(conds).zip(xs).zip(ys) {
                *d = if cv != 0 { x } else { y };
            }
        }
        Instr::ItoF { dst, a } => {
            let (dstl, xs) = split2(vals, c, dst, a);
            for (d, &x) in dstl.iter_mut().zip(xs) {
                *d = ((x as i32) as f32).to_bits();
            }
        }
        Instr::FtoI { dst, a } => {
            let (dstl, xs) = split2(vals, c, dst, a);
            for (d, &x) in dstl.iter_mut().zip(xs) {
                *d = (f32::from_bits(x) as i32) as u32;
            }
        }
        Instr::Fault {
            at,
            expected,
            found,
        } => {
            return Err(IrError::TypeMismatch {
                at: ValueId(at),
                expected,
                found,
            })
        }
        // ---- fused superinstructions ----
        Instr::MulAddF { dst, a, b, c: e } => {
            tri_f!(vals, c, dst, a, b, e, |x: f32, y: f32, z: f32| x * y + z)
        }
        Instr::AddMulF { dst, c: e, a, b } => {
            tri_f!(vals, c, dst, a, b, e, |x: f32, y: f32, z: f32| z + x * y)
        }
        Instr::MulSubF { dst, a, b, c: e } => {
            tri_f!(vals, c, dst, a, b, e, |x: f32, y: f32, z: f32| x * y - z)
        }
        Instr::SubMulF { dst, c: e, a, b } => {
            tri_f!(vals, c, dst, a, b, e, |x: f32, y: f32, z: f32| z - x * y)
        }
        Instr::MulMulAddF { dst, a, b, c: e, d } => {
            quad_f!(
                vals,
                c,
                dst,
                a,
                b,
                e,
                d,
                |x: f32, y: f32, z: f32, w: f32| { x * y + z * w }
            )
        }
        Instr::MulMulSubF { dst, a, b, c: e, d } => {
            quad_f!(
                vals,
                c,
                dst,
                a,
                b,
                e,
                d,
                |x: f32, y: f32, z: f32, w: f32| { x * y - z * w }
            )
        }
        Instr::MulAddI { dst, a, b, c: e } => {
            tri_i!(vals, c, dst, a, b, e, |x: i32, y: i32, z: i32| x
                .wrapping_mul(y)
                .wrapping_add(z))
        }
        Instr::MulSubI { dst, a, b, c: e } => {
            tri_i!(vals, c, dst, a, b, e, |x: i32, y: i32, z: i32| x
                .wrapping_mul(y)
                .wrapping_sub(z))
        }
        Instr::SubMulI { dst, c: e, a, b } => {
            tri_i!(vals, c, dst, a, b, e, |x: i32, y: i32, z: i32| z
                .wrapping_sub(x.wrapping_mul(y)))
        }
        Instr::BinKR { op, dst, a, k } => {
            let (dstl, xs) = split2(vals, c, dst, a);
            macro_rules! go {
                ($f:expr) => {{
                    let f = $f;
                    for (d, &x) in dstl.iter_mut().zip(xs) {
                        *d = f(x, k);
                    }
                }};
            }
            for_binop!(op, go);
        }
        Instr::BinKL { op, dst, k, b } => {
            let (dstl, ys) = split2(vals, c, dst, b);
            macro_rules! go {
                ($f:expr) => {{
                    let f = $f;
                    for (d, &y) in dstl.iter_mut().zip(ys) {
                        *d = f(k, y);
                    }
                }};
            }
            for_binop!(op, go);
        }
        Instr::BinW {
            op,
            a,
            b,
            stream,
            width,
            offset,
        } => {
            let out = &mut *plain[stream as usize];
            let w = width as usize;
            let first = (iter * c) * w + offset as usize;
            let xs = &vals[a as usize * c..a as usize * c + c];
            let ys = &vals[b as usize * c..b as usize * c + c];
            macro_rules! go {
                ($f:expr) => {{
                    let f = $f;
                    for (lane, (&x, &y)) in xs.iter().zip(ys).enumerate() {
                        out[first + lane * w] = f(x, y);
                    }
                }};
            }
            for_binop!(op, go);
        }
        Instr::BinRL {
            op,
            dst,
            b,
            stream,
            width,
            offset,
        } => {
            let s = &in_bits[stream as usize];
            let w = width as usize;
            let first = (iter * c) * w + offset as usize;
            // The read's original bounds check, moved to the fused site.
            if first + (c - 1) * w >= s.len() {
                return Err(IrError::StreamExhausted {
                    stream: StreamId(stream),
                    iteration: iter,
                });
            }
            let (dstl, ys) = split2(vals, c, dst, b);
            macro_rules! go {
                ($f:expr) => {{
                    let f = $f;
                    for (lane, (d, &y)) in dstl.iter_mut().zip(ys).enumerate() {
                        *d = f(s[first + lane * w], y);
                    }
                }};
            }
            for_binop!(op, go);
        }
        Instr::BinRR {
            op,
            dst,
            a,
            stream,
            width,
            offset,
        } => {
            let s = &in_bits[stream as usize];
            let w = width as usize;
            let first = (iter * c) * w + offset as usize;
            if first + (c - 1) * w >= s.len() {
                return Err(IrError::StreamExhausted {
                    stream: StreamId(stream),
                    iteration: iter,
                });
            }
            let (dstl, xs) = split2(vals, c, dst, a);
            macro_rules! go {
                ($f:expr) => {{
                    let f = $f;
                    for (lane, (d, &x)) in dstl.iter_mut().zip(xs).enumerate() {
                        *d = f(x, s[first + lane * w]);
                    }
                }};
            }
            for_binop!(op, go);
        }
        // ---- pair-fused superinstructions ----
        Instr::Read2 {
            da,
            sa,
            wa,
            oa,
            db,
            sb,
            wb,
            ob,
        } => {
            let s_a = &in_bits[sa as usize];
            let w_a = wa as usize;
            let first_a = (iter * c) * w_a + oa as usize;
            if first_a + (c - 1) * w_a >= s_a.len() {
                return Err(IrError::StreamExhausted {
                    stream: StreamId(sa),
                    iteration: iter,
                });
            }
            let s_b = &in_bits[sb as usize];
            let w_b = wb as usize;
            let first_b = (iter * c) * w_b + ob as usize;
            if first_b + (c - 1) * w_b >= s_b.len() {
                return Err(IrError::StreamExhausted {
                    stream: StreamId(sb),
                    iteration: iter,
                });
            }
            let (rda, rdb, _) = split_dst2(vals, c, da, db);
            gather(rda, s_a, first_a, w_a);
            gather(rdb, s_b, first_b, w_b);
        }
        Instr::CMulF {
            re_dst,
            im_dst,
            a,
            b,
            c: e,
            d,
        } => {
            let (res, ims, lo) = split_dst2(vals, c, re_dst, im_dst);
            let (xs, ys, zs, ws) = (row(lo, c, a), row(lo, c, b), row(lo, c, e), row(lo, c, d));
            let ops = xs.iter().zip(ys).zip(zs.iter().zip(ws));
            for ((re, im), ((&xb, &yb), (&zb, &wb))) in res.iter_mut().zip(ims.iter_mut()).zip(ops)
            {
                let (x, y) = (f32::from_bits(xb), f32::from_bits(yb));
                let (z, w) = (f32::from_bits(zb), f32::from_bits(wb));
                *re = (x * y - z * w).to_bits();
                *im = (x * w + z * y).to_bits();
            }
        }
        Instr::BflyF {
            add_dst,
            sub_dst,
            a,
            b,
        } => {
            let (adds, subs, lo) = split_dst2(vals, c, add_dst, sub_dst);
            let (xs, ys) = (row(lo, c, a), row(lo, c, b));
            for ((ad, sd), (&xb, &yb)) in
                adds.iter_mut().zip(subs.iter_mut()).zip(xs.iter().zip(ys))
            {
                let (x, y) = (f32::from_bits(xb), f32::from_bits(yb));
                *ad = (x + y).to_bits();
                *sd = (x - y).to_bits();
            }
        }
        Instr::BflyWF {
            a,
            b,
            add_stream,
            add_width,
            add_offset,
            sub_stream,
            sub_width,
            sub_offset,
        } => {
            let xs = &vals[a as usize * c..a as usize * c + c];
            let ys = &vals[b as usize * c..b as usize * c + c];
            let aw = add_width as usize;
            let first_add = (iter * c) * aw + add_offset as usize;
            let out = &mut *plain[add_stream as usize];
            scatter_f(out, first_add, aw, xs, ys, |x, y| x + y);
            let sw = sub_width as usize;
            let first_sub = (iter * c) * sw + sub_offset as usize;
            let out = &mut *plain[sub_stream as usize];
            scatter_f(out, first_sub, sw, xs, ys, |x, y| x - y);
        }
    }
    Ok(())
}
