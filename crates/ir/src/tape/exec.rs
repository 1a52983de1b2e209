//! The tape's execution engine: lane-specialized stepping and
//! strip-parallel iteration partitioning.
//!
//! # Lane specialization
//!
//! The per-lane loops in [`step`] run over `C` clusters. v1 received the
//! cluster count as a runtime value, so every inner loop carried dynamic
//! trip-count overhead. Here the whole stepping path is monomorphized over
//! `const C: usize` for the common widths (1, 4, 8, 16) — the compiler
//! sees fixed-length loops it can fully unroll and vectorize — with `C = 0`
//! denoting the runtime-width generic fallback ([`lanes`] folds the two
//! cases). [`dispatch`] picks the instantiation once per kernel call.
//!
//! # Strip parallelism
//!
//! A kernel with no recurrences, no conditional streams, and no scratchpad
//! writes computes each SIMD iteration independently — exactly the
//! stream-program property the paper's strip-mining exploits. Eligible
//! kernels may partition their iteration range into contiguous strips
//! executed by scoped worker threads. Each worker owns disjoint slices of
//! every output vector (split before spawning, so the borrow checker
//! proves disjointness), its own value lattice, and its own clone of the
//! read-only scratchpad; inputs are shared immutably. Results are
//! therefore bit-identical to the serial schedule, and when strips fail,
//! the error from the *earliest* iteration is reported — the same error
//! the serial loop would have hit first.
//!
//! Worker threads are budgeted by the process-wide [`stream_pool`] permit
//! pool (shared with the sweep engine), so nested parallelism never
//! oversubscribes the machine. An eligible kernel that gets no permits
//! (or too little work to amortize a thread spawn) runs serially and
//! counts `tape.strip_fallback`.

use super::instr::{
    bits_of, fill, for_binop, row, split2, split3, split_dst, split_dst2, BinOp, Instr,
};
use super::scratch::Scratchpad;
use super::{LaneMode, StripMode, Tape};
use crate::interp::ExecConfig;
use crate::{IrError, Scalar, StreamId, ValueId};
use std::sync::OnceLock;

/// Minimum `iterations * body_len * clusters` before Auto mode considers
/// thread spawns worth their cost.
const STRIP_WORK_THRESHOLD: usize = 1 << 16;

/// Most strips Auto mode will ask for; Force mode uses a fixed small count
/// so determinism smoke tests exercise real partitioning on any machine.
const MAX_AUTO_STRIPS: usize = 8;
const FORCE_STRIPS: usize = 4;

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

/// A parsed `STREAM_TAPE_STRIPS` value: a pinned mode or an exact count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StripOverride {
    Mode(StripMode),
    Count(usize),
}

/// `STREAM_TAPE_STRIPS` override, read once per process: `on`/`force` pin
/// Force, `off`/`serial` pin Serial, and a number pins an exact strip
/// count (bypassing the work threshold and permit pool, like Force). Only
/// consulted by tapes left in Auto — an explicit per-tape [`StripMode`]
/// always wins.
///
/// Out-of-range counts — zero, or more strips than the calling thread
/// plus every permit the global pool could grant — are a configuration
/// error: the override is ignored with a one-time debug-build diagnostic,
/// never silently clamped to something runnable.
fn env_strip_override() -> Option<StripOverride> {
    static MODE: OnceLock<Option<StripOverride>> = OnceLock::new();
    *MODE.get_or_init(|| {
        let v = match std::env::var("STREAM_TAPE_STRIPS") {
            Ok(v) => v,
            Err(_) => return None,
        };
        if v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("force") {
            return Some(StripOverride::Mode(StripMode::Force));
        }
        if v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("serial") {
            return Some(StripOverride::Mode(StripMode::Serial));
        }
        if let Ok(n) = v.parse::<usize>() {
            let max = stream_pool::global().available() + 1;
            if n >= 1 && n <= max {
                return Some(StripOverride::Count(n));
            }
            if cfg!(debug_assertions) {
                eprintln!(
                    "note[stream-ir]: STREAM_TAPE_STRIPS={v} is out of range \
                     (this host supports 1..={max}); override ignored"
                );
            }
            return None;
        }
        if cfg!(debug_assertions) {
            eprintln!(
                "note[stream-ir]: unrecognized STREAM_TAPE_STRIPS={v:?} \
                 (want on/force, off/serial, or a strip count); override ignored"
            );
        }
        None
    })
}

/// Decides the strip count for this call: `(strips, permits_taken)`.
fn plan_strips(tape: &Tape, iterations: usize, c: usize) -> (usize, usize) {
    let overridden = match tape.config.strips {
        StripMode::Auto => env_strip_override(),
        m => Some(StripOverride::Mode(m)),
    };
    if iterations < 2 {
        return (1, 0);
    }
    if let Some(StripOverride::Count(n)) = overridden {
        if !tape.strip_eligible {
            stream_trace::count("tape.strip_fallback", 1);
            return (1, 0);
        }
        return (iterations.min(n), 0);
    }
    let mode = match overridden {
        Some(StripOverride::Mode(m)) => m,
        _ => StripMode::Auto,
    };
    if mode == StripMode::Serial {
        return (1, 0);
    }
    if !tape.strip_eligible {
        // Recurrences, conditional streams, or SP writes couple iterations:
        // silently serial. Force mode records that it had to give up.
        if mode == StripMode::Force {
            stream_trace::count("tape.strip_fallback", 1);
        }
        return (1, 0);
    }
    if mode == StripMode::Force {
        return (iterations.min(FORCE_STRIPS), 0);
    }
    let work = iterations * tape.body.len().max(1) * c;
    if work < STRIP_WORK_THRESHOLD {
        return (1, 0);
    }
    let desired = iterations.min(MAX_AUTO_STRIPS);
    let granted = stream_pool::global().take(desired - 1);
    if granted == 0 {
        stream_trace::count("tape.strip_fallback", 1);
        return (1, 0);
    }
    (granted + 1, granted)
}

/// Test-only probe of the strip planner: the strip count a run of
/// `iterations` over `c` clusters would use, with any borrowed permits
/// returned immediately. Exists so the `STREAM_TAPE_STRIPS` handling can
/// be asserted from an own-process integration test without executing.
#[doc(hidden)]
pub fn probe_planned_strips(tape: &Tape, iterations: usize, c: usize) -> usize {
    let (strips, permits) = plan_strips(tape, iterations, c);
    if permits > 0 {
        stream_pool::global().give(permits);
    }
    strips
}

/// Runs a compiled tape: plans strips, executes (parallel or serial), and
/// converts the untagged output lanes back to scalars.
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
    let sp_words = cfg.sp_words;
    let params_bits: Vec<u32> = params.iter().map(|&p| bits_of(p)).collect();
    let outs = tape.kernel.outputs();

    // Unconditional outputs are written in place at exact offsets;
    // conditional outputs are push-only and kept in separate storage.
    let mut plain_store: Vec<Vec<u32>> = outs
        .iter()
        .map(|d| {
            if d.conditional {
                Vec::new()
            } else {
                vec![0u32; iterations * c * d.record_width as usize]
            }
        })
        .collect();
    // Words each plain_store entry holds per iteration, for strip slicing.
    let per_iter: Vec<usize> = outs
        .iter()
        .map(|d| {
            if d.conditional {
                0
            } else {
                c * d.record_width as usize
            }
        })
        .collect();
    let mut cond_store: Vec<Vec<u32>> = outs
        .iter()
        .map(|d| {
            if d.conditional {
                Vec::with_capacity(iterations * c * d.record_width as usize)
            } else {
                Vec::new()
            }
        })
        .collect();

    let (nstrips, permits) = plan_strips(tape, iterations, c);
    if nstrips <= 1 {
        let mut plain: Vec<&mut [u32]> = plain_store.iter_mut().map(Vec::as_mut_slice).collect();
        run_serial(
            tape,
            iterations,
            c,
            sp_words,
            &params_bits,
            in_bits,
            &mut plain,
            &mut cond_store,
            sp,
        )
        .map_err(|(_, e)| e)?;
    } else {
        run_span.arg("strips", nstrips);
        stream_trace::count("tape.strips", nstrips as u64);

        let bounds = strip_bounds(iterations, nstrips);
        let strip_plain = split_strips(&mut plain_store, &per_iter, &bounds);

        let n_outs = outs.len();
        let results: Vec<Result<(), (usize, IrError)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .zip(strip_plain)
                .map(|(&(blo, bhi), mut plain)| {
                    // Eligibility guarantees the body never writes SP, so a
                    // clone of the (possibly sp_init-seeded) scratchpad is a
                    // read-only snapshot identical across strips.
                    let mut strip_sp = sp.clone();
                    let params_bits = &params_bits;
                    scope.spawn(move || {
                        let mut cond: Vec<Vec<u32>> = vec![Vec::new(); n_outs];
                        dispatch(
                            tape,
                            blo,
                            bhi,
                            blo,
                            c,
                            sp_words,
                            params_bits,
                            in_bits,
                            &mut plain,
                            &mut cond,
                            &mut strip_sp,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("strip worker panicked"))
                .collect()
        });
        if permits > 0 {
            stream_pool::global().give(permits);
        }
        // Strips cover disjoint iteration ranges, so the minimum failing
        // iteration is exactly the error the serial schedule hits first.
        if let Some((_, e)) = results
            .into_iter()
            .filter_map(Result::err)
            .min_by_key(|&(iter, _)| iter)
        {
            return Err(e);
        }
    }

    // Convert untagged output bits back to scalars; the per-stream type is
    // hoisted out of the word loop ([`scalars_of`]).
    Ok(outs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let bits = if d.conditional {
                &cond_store[i]
            } else {
                &plain_store[i]
            };
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
    plain: &mut [&mut [u32]],
    cond: &mut [Vec<u32>],
    sp: &mut Scratchpad,
) -> Result<(), (usize, IrError)> {
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
                0,
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
                // Tail iterations that don't fill a block run at the unbatched
                // width; out_base 0 keeps their write offsets absolute.
                return dispatch(
                    tape,
                    blocks * batch,
                    iterations,
                    0,
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
        tape, 0, iterations, 0, c, sp_words, params, in_bits, plain, cond, sp,
    )
}

/// Contiguous per-strip iteration ranges, remainder spread over the front.
fn strip_bounds(iterations: usize, nstrips: usize) -> Vec<(usize, usize)> {
    let base = iterations / nstrips;
    let rem = iterations % nstrips;
    let mut bounds = Vec::with_capacity(nstrips);
    let mut lo = 0usize;
    for i in 0..nstrips {
        let len = base + usize::from(i < rem);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

/// Slices every output vector into per-strip disjoint windows
/// (`per_iter[i]` elements per iteration), so the borrow checker proves
/// worker disjointness before any thread spawns.
fn split_strips<'a, T>(
    stores: &'a mut [Vec<T>],
    per_iter: &[usize],
    bounds: &[(usize, usize)],
) -> Vec<Vec<&'a mut [T]>> {
    let mut strips: Vec<Vec<&mut [T]>> = (0..bounds.len())
        .map(|_| Vec::with_capacity(stores.len()))
        .collect();
    for (oi, v) in stores.iter_mut().enumerate() {
        let mut rest = v.as_mut_slice();
        for (si, &(blo, bhi)) in bounds.iter().enumerate() {
            let (head, tail) = rest.split_at_mut((bhi - blo) * per_iter[oi]);
            strips[si].push(head);
            rest = tail;
        }
    }
    strips
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
    out_base: usize,
    c: usize,
    sp_words: usize,
    params: &[u32],
    in_bits: &[Vec<u32>],
    plain: &mut [&mut [u32]],
    cond: &mut [Vec<u32>],
    sp: &mut Scratchpad,
) -> Result<(), (usize, IrError)> {
    macro_rules! go {
        ($C:literal) => {
            run_range::<$C>(
                tape, lo, hi, out_base, c, sp_words, params, in_bits, plain, cond, sp,
            )
        };
    }
    if tape.config.lanes == LaneMode::Generic {
        return go!(0);
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

/// Executes iterations `lo..hi` with its own value lattice. Errors carry
/// the failing iteration so strip results can be ordered.
#[allow(clippy::too_many_arguments)]
fn run_range<const C: usize>(
    tape: &Tape,
    lo: usize,
    hi: usize,
    out_base: usize,
    c: usize,
    sp_words: usize,
    params: &[u32],
    in_bits: &[Vec<u32>],
    plain: &mut [&mut [u32]],
    cond: &mut [Vec<u32>],
    sp: &mut Scratchpad,
) -> Result<(), (usize, IrError)> {
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
            out_base,
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
        )
        .map_err(|e| (lo, e))?;
    }
    for iter in lo..hi {
        for ins in &tape.body {
            step::<C>(
                ins,
                iter,
                out_base,
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
            )
            .map_err(|e| (iter, e))?;
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
    out_base: usize,
    c: usize,
    sp_words: usize,
    vals: &mut [u32],
    recur: &[u32],
    params: &[u32],
    in_bits: &[Vec<u32>],
    plain: &mut [&mut [u32]],
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
            let first = ((iter - out_base) * c) * w + offset as usize;
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
            let first = ((iter - out_base) * c) * w + offset as usize;
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
            let first_add = ((iter - out_base) * c) * aw + add_offset as usize;
            let out = &mut *plain[add_stream as usize];
            scatter_f(out, first_add, aw, xs, ys, |x, y| x + y);
            let sw = sub_width as usize;
            let first_sub = ((iter - out_base) * c) * sw + sub_offset as usize;
            let out = &mut *plain[sub_stream as usize];
            scatter_f(out, first_sub, sw, xs, ys, |x, y| x - y);
        }
    }
    Ok(())
}
