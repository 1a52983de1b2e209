//! The tape's execution engine: one serial loop on the caller's thread,
//! with the cluster count `c` a runtime value. Every instruction runs
//! across all `c` lanes of the structure-of-arrays value lattice
//! (`vals[value * c + lane]`).

use super::instr::{bits_of, Instr};
use super::scratch::Scratchpad;
use super::Tape;
use crate::interp::ExecConfig;
use crate::{IrError, Scalar, StreamId, ValueId};

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

    // The one serial loop: the prologue once, then the body once per
    // iteration.
    let mut vals = vec![0u32; tape.n_vals * c];
    let mut recur = vec![0u32; tape.recurs.len() * c];
    for (slot, r) in tape.recurs.iter().enumerate() {
        recur[slot * c..slot * c + c].fill(r.init_bits);
    }
    let mut cond_cursor = vec![0usize; in_bits.len()];
    let mut lanes = Lanes {
        c,
        sp_words: cfg.sp_words,
        params: &params_bits,
        in_bits,
        plain: &mut plain,
        cond: &mut cond,
        sp,
        cond_cursor: &mut cond_cursor,
    };
    for ins in &tape.prologue {
        lanes.step(ins, 0, &mut vals, &recur)?;
    }
    for iter in 0..iterations {
        for ins in &tape.body {
            lanes.step(ins, iter, &mut vals, &recur)?;
        }
        for (slot, r) in tape.recurs.iter().enumerate() {
            let src = r.next as usize * c;
            recur[slot * c..slot * c + c].copy_from_slice(&vals[src..src + c]);
        }
    }

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

/// Everything an instruction touches besides the value lattice and the
/// recurrence state.
struct Lanes<'a> {
    c: usize,
    sp_words: usize,
    params: &'a [u32],
    in_bits: &'a [Vec<u32>],
    plain: &'a mut [Vec<u32>],
    cond: &'a mut [Vec<u32>],
    sp: &'a mut Scratchpad,
    cond_cursor: &'a mut [usize],
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

impl Lanes<'_> {
    /// Executes one tape instruction across all `c` lanes.
    #[inline(always)]
    fn step(
        &mut self,
        ins: &Instr,
        iter: usize,
        vals: &mut [u32],
        recur: &[u32],
    ) -> Result<(), IrError> {
        let c = self.c;
        let sp_words = self.sp_words;
        let params = self.params;
        let in_bits = self.in_bits;
        let plain = &mut *self.plain;
        let cond = &mut *self.cond;
        let sp = &mut *self.sp;
        let cond_cursor = &mut *self.cond_cursor;
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
                for (lane, v) in vals[d..d + c].iter_mut().enumerate() {
                    *v = s[first + lane * w];
                }
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
                for (lane, &v) in vals[s..s + c].iter().enumerate() {
                    out[first + lane * w] = v;
                }
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
            Instr::AddI { dst, a, b } => {
                bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.wrapping_add(y))
            }
            Instr::AddF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x + y),
            Instr::SubI { dst, a, b } => {
                bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.wrapping_sub(y))
            }
            Instr::SubF { dst, a, b } => bin_f!(vals, c, dst, a, b, |x: f32, y: f32| x - y),
            Instr::MulI { dst, a, b } => {
                bin_i!(vals, c, dst, a, b, |x: i32, y: i32| x.wrapping_mul(y))
            }
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
        }
        Ok(())
    }
}

/// Splits the value lattice into the `dst` lane row and the (strictly
/// earlier, by SSA) operand rows.
#[inline(always)]
pub(crate) fn split2(vals: &mut [u32], c: usize, dst: u32, a: u32) -> (&mut [u32], &[u32]) {
    let (lo, hi) = vals.split_at_mut(dst as usize * c);
    (&mut hi[..c], &lo[a as usize * c..a as usize * c + c])
}

#[inline(always)]
#[allow(clippy::type_complexity)]
pub(crate) fn split3(
    vals: &mut [u32],
    c: usize,
    dst: u32,
    a: u32,
    b: u32,
) -> (&mut [u32], &[u32], &[u32]) {
    let (lo, hi) = vals.split_at_mut(dst as usize * c);
    (
        &mut hi[..c],
        &lo[a as usize * c..a as usize * c + c],
        &lo[b as usize * c..b as usize * c + c],
    )
}

#[inline(always)]
pub(crate) fn fill(vals: &mut [u32], c: usize, dst: u32, bits: u32) {
    let d = dst as usize * c;
    vals[d..d + c].fill(bits);
}
