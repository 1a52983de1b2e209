//! Deterministic fuzzing of the textual kernel format: `parse_kernel`
//! never panics on lines assembled from the format's own vocabulary, what
//! it accepts runs without panicking, and it inverts `to_text` on random
//! builder kernels.

use proptest::prelude::*;
use stream_ir::{
    execute_with, parse_kernel, to_text, ExecConfig, ExecOptions, Kernel, KernelBuilder, Scalar,
    Ty, ValueId,
};

const OPCODES: [&str; 35] = [
    "const",
    "recur",
    "param",
    "iter",
    "cid",
    "nclusters",
    "read",
    "write",
    "cond_rd",
    "cond_wr",
    "sp_rd",
    "sp_wr",
    "comm",
    "select",
    "sqrt",
    "neg",
    "abs",
    "floor",
    "itof",
    "ftoi",
    "add",
    "sub",
    "mul",
    "div",
    "min",
    "max",
    "and",
    "or",
    "xor",
    "shl",
    "shr",
    "eq",
    "ne",
    "lt",
    "le",
];

const LITERALS: [&str; 12] = [
    "0",
    "1",
    "-7",
    "2147483647",
    "-2147483648",
    "99999999999",
    "0.5",
    "-0.0",
    "1e38",
    "nan",
    "inf",
    "x",
];

/// One token of any kind: a type, a value id (mostly near the defined
/// range), a stream id, or a literal.
fn token(seed: u8, defined: usize) -> String {
    let pick = usize::from(seed >> 2);
    match seed % 4 {
        0 => ["i32", "f32"][pick % 2].to_string(),
        1 => format!("v{}", pick % (defined + 2)),
        2 => format!("s{}", pick % 4),
        _ => LITERALS[pick % LITERALS.len()].to_string(),
    }
}

/// The operand shape of `op`: how many leading immediates (a type, a
/// literal, a stream id) it takes, then how many value operands.
fn shape(op: &str) -> (&'static [&'static str], usize) {
    match op {
        "const" | "recur" => (&["ty", "lit"], 0),
        "param" => (&["ty"], 0),
        "iter" | "cid" | "nclusters" => (&[], 0),
        "read" => (&["stream"], 0),
        "write" | "cond_rd" => (&["stream"], 1),
        "cond_wr" => (&["stream"], 2),
        "sp_rd" => (&["ty"], 1),
        "sqrt" | "neg" | "abs" | "floor" | "itof" | "ftoi" => (&[], 1),
        "select" => (&[], 3),
        _ => (&[], 2),
    }
}

/// Renders one line of kernel text from the bytes of `script`. Most lines
/// are op lines with the next dense value id and the opcode's own operand
/// shape, so the parser gets past its syntax checks and into the IR's
/// typing and stream rules; one token in eight is replaced by a random one.
fn line(script: u64, defined: &mut usize) -> String {
    let s = script.to_le_bytes();
    let mut k = 2;
    let mut next = |defined: usize, want: &str| {
        let b = s[k % 8];
        k += 1;
        if b.is_multiple_of(8) {
            return token(b >> 3, defined);
        }
        let pick = usize::from(b >> 3);
        match want {
            "ty" => ["i32", "f32"][pick % 2].to_string(),
            "lit" => LITERALS[pick % LITERALS.len()].to_string(),
            "stream" => format!("s{}", pick % 4),
            _ => format!("v{}", pick % defined.max(1)),
        }
    };
    match s[0] % 16 {
        0 => format!("in {}", ["i32", "f32", "u8"][usize::from(s[1]) % 3]),
        1 => format!("out {}", ["i32", "f32", ""][usize::from(s[1]) % 3]),
        2 => format!("sp {}", LITERALS[usize::from(s[1]) % LITERALS.len()]),
        3 => format!("loop {} <- {}", next(*defined, "v"), next(*defined, "v")),
        4 => format!("kernel k{}", s[1]),
        5 => (0..3)
            .map(|_| next(*defined, "any"))
            .collect::<Vec<_>>()
            .join(" "),
        _ => {
            let id = if s[1] < 248 {
                *defined
            } else {
                usize::from(s[7])
            };
            let op = OPCODES[usize::from(s[1]) % OPCODES.len()];
            let (immediates, values) = shape(op);
            let mut toks: Vec<String> = immediates.iter().map(|w| next(*defined, w)).collect();
            toks.extend((0..values).map(|_| next(*defined, "v")));
            *defined += 1;
            format!("v{id} = {op} {}", toks.join(" "))
        }
    }
}

/// A random well-typed kernel over every opcode family: both word types,
/// a parameter, constants, a recurrence, plain and conditional streams,
/// the scratchpad, and COMM.
fn builder_kernel(script: &[u8], consts: &[u32]) -> Kernel {
    let mut b = KernelBuilder::new(format!("fuzz{}", script.len()));
    let si = b.in_stream(Ty::I32);
    let sf = b.in_stream(Ty::F32);
    let sc = b.in_stream(Ty::F32);
    let oi = b.out_stream(Ty::I32);
    let of = b.out_stream(Ty::F32);
    let oc = b.out_stream(Ty::I32);
    b.require_sp(16);
    let acc = b.recurrence(Scalar::F32(0.5));
    let mut ints: Vec<ValueId> = vec![b.read(si), b.param(Ty::I32), b.iter_index()];
    let mut floats: Vec<ValueId> = vec![b.read(sf), acc];
    for (i, &op) in script.iter().enumerate() {
        let k = consts[i % consts.len()];
        let x = ints[usize::from(op) % ints.len()];
        let y = ints[usize::from(op / 3) % ints.len()];
        let f = floats[usize::from(op) % floats.len()];
        let g = floats[usize::from(op / 5) % floats.len()];
        match op % 20 {
            0 => ints.push(b.const_i(k as i32)),
            1 => {
                let c = f32::from_bits(k);
                floats.push(b.const_f(if c.is_finite() { c } else { k as f32 }));
            }
            2 => ints.push(b.add(x, y)),
            3 => floats.push(b.sub(f, g)),
            4 => floats.push(b.mul(f, g)),
            5 => ints.push(b.div(x, y)),
            6 => floats.push(b.max(f, g)),
            7 => ints.push(b.min(x, y)),
            8 => ints.push(b.xor(x, y)),
            9 => ints.push(b.shr(x, y)),
            10 => ints.push(b.lt(f, g)),
            11 => ints.push(b.ne(x, y)),
            12 => floats.push(b.sqrt(f)),
            13 => floats.push(b.floor(f)),
            14 => ints.push(b.ftoi(f)),
            15 => floats.push(b.itof(x)),
            16 => floats.push(b.select(x, f, g)),
            17 => {
                let cid = b.cluster_id();
                let n = b.cluster_count();
                let src = b.sub(n, cid);
                floats.push(b.comm(f, src));
            }
            18 => {
                b.sp_write(x, f);
                floats.push(b.sp_read(x, Ty::F32));
            }
            _ => {
                let v = b.neg(x);
                ints.push(b.abs(v));
            }
        }
    }
    let last_i = *ints.last().expect("nonempty");
    let last_f = *floats.last().expect("nonempty");
    let next = b.add(acc, last_f);
    b.bind_next(acc, next);
    b.write(oi, last_i);
    b.write(of, next);
    let one = b.const_i(1);
    let pred = b.and(last_i, one);
    let popped = b.cond_read(sc, pred);
    let sign = b.le(popped, next);
    b.cond_write(oc, pred, sign);
    b.finish().expect("structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lines built from the format's keywords, value ids, stream ids and
    /// literals never make `parse_kernel` panic, and whatever it accepts
    /// is a kernel that executes without panicking and re-renders stably.
    #[test]
    fn parse_kernel_never_panics_on_format_vocabulary(
        lines in proptest::collection::vec(any::<u64>(), 0..24),
        header in any::<bool>(),
    ) {
        let mut defined = 0usize;
        let mut text = String::new();
        if header {
            text.push_str(
                "kernel fuzz\nin i32\nin f32\nout i32\nout f32\nsp 8\n\
                 v0 = read s0\nv1 = read s1\nv2 = param i32\nv3 = const f32 0.5\n",
            );
            defined = 4;
        }
        for s in lines {
            text.push_str(&line(s, &mut defined));
            text.push('\n');
        }
        if let Ok(k) = parse_kernel(&text) {
            // One iteration at C = 4 on zero words of the declared types.
            let cfg = ExecConfig::with_clusters(4);
            let params: Vec<Scalar> = k.param_tys().iter().map(|&ty| Scalar::zero(ty)).collect();
            let inputs: Vec<Vec<Scalar>> = k
                .inputs()
                .iter()
                .map(|d| vec![Scalar::zero(d.ty); cfg.clusters * d.record_width as usize])
                .collect();
            let opts = ExecOptions {
                params: &params,
                sp_init: None,
                iterations: Some(1),
            };
            let _ = execute_with(&k, &opts, &inputs, &cfg);
            let rendered = to_text(&k);
            let again = parse_kernel(&rendered).map(|k| to_text(&k));
            prop_assert_eq!(again, Ok(rendered));
        }
    }

    /// `parse_kernel(&to_text(k)) == k` for random builder kernels.
    #[test]
    fn parse_inverts_to_text(
        script in proptest::collection::vec(any::<u8>(), 1..48),
        consts in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        let k = builder_kernel(&script, &consts);
        let text = to_text(&k);
        prop_assert_eq!(parse_kernel(&text), Ok(k));
    }
}
