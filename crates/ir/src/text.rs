//! A textual kernel format: serialize kernels to a stable, human-editable
//! listing and parse them back — for golden tests, interchange, and
//! kernel authoring outside Rust.
//!
//! The format is line-oriented: a header declares the kernel name, streams,
//! and scratchpad; then one op per line in SSA program order (`#` starts a
//! comment); then `loop` lines bind recurrences:
//!
//! ```text
//! kernel saxpy
//! in f32
//! in f32
//! out f32
//! v0 = param f32
//! v1 = read s0
//! v2 = read s1
//! v3 = mul v0 v1
//! v4 = add v3 v2
//! v5 = write s0 v4
//! ```

use crate::{Kernel, KernelBuilder, Opcode, Scalar, StreamId, Ty, ValueId};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A syntax or semantic error while parsing kernel text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn ty_name(ty: Ty) -> &'static str {
    match ty {
        Ty::I32 => "i32",
        Ty::F32 => "f32",
    }
}

fn scalar_text(s: Scalar) -> String {
    match s {
        Scalar::I32(v) => format!("i32 {v}"),
        Scalar::F32(v) => {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("f32 {v:.1}")
            } else {
                format!("f32 {v}")
            }
        }
    }
}

/// Serializes `kernel` to the textual format.
///
/// # Examples
///
/// ```
/// use stream_ir::{parse_kernel, to_text, KernelBuilder, Ty};
///
/// let mut b = KernelBuilder::new("double");
/// let s = b.in_stream(Ty::I32);
/// let o = b.out_stream(Ty::I32);
/// let x = b.read(s);
/// let y = b.add(x, x);
/// b.write(o, y);
/// let kernel = b.finish()?;
///
/// let text = to_text(&kernel);
/// let back = parse_kernel(&text)?;
/// assert_eq!(kernel, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_text(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "kernel {}", kernel.name());
    for decl in kernel.inputs() {
        let _ = writeln!(out, "in {}", ty_name(decl.ty));
    }
    for decl in kernel.outputs() {
        let _ = writeln!(out, "out {}", ty_name(decl.ty));
    }
    if kernel.sp_words() > 0 {
        let _ = writeln!(out, "sp {}", kernel.sp_words());
    }
    for (i, op) in kernel.ops().iter().enumerate() {
        let v = ValueId(i as u32);
        let args: Vec<String> = op.args.iter().map(ToString::to_string).collect();
        let a = args.join(" ");
        let line = match &op.opcode {
            Opcode::Const(s) => format!("const {}", scalar_text(*s)),
            Opcode::Param(_, ty) => format!("param {}", ty_name(*ty)),
            Opcode::IterIndex => "iter".to_string(),
            Opcode::ClusterId => "cid".to_string(),
            Opcode::ClusterCount => "nclusters".to_string(),
            Opcode::Recur(init) => format!("recur {}", scalar_text(*init)),
            Opcode::Add => format!("add {a}"),
            Opcode::Sub => format!("sub {a}"),
            Opcode::Mul => format!("mul {a}"),
            Opcode::Div => format!("div {a}"),
            Opcode::Sqrt => format!("sqrt {a}"),
            Opcode::Min => format!("min {a}"),
            Opcode::Max => format!("max {a}"),
            Opcode::Neg => format!("neg {a}"),
            Opcode::Abs => format!("abs {a}"),
            Opcode::Floor => format!("floor {a}"),
            Opcode::And => format!("and {a}"),
            Opcode::Or => format!("or {a}"),
            Opcode::Xor => format!("xor {a}"),
            Opcode::Shl => format!("shl {a}"),
            Opcode::Shr => format!("shr {a}"),
            Opcode::Eq => format!("eq {a}"),
            Opcode::Ne => format!("ne {a}"),
            Opcode::Lt => format!("lt {a}"),
            Opcode::Le => format!("le {a}"),
            Opcode::Select => format!("select {a}"),
            Opcode::ItoF => format!("itof {a}"),
            Opcode::FtoI => format!("ftoi {a}"),
            Opcode::Read(s) => format!("read {s}"),
            Opcode::Write(s) => format!("write {s} {a}"),
            Opcode::CondRead(s) => format!("cond_rd {s} {a}"),
            Opcode::CondWrite(s) => format!("cond_wr {s} {a}"),
            Opcode::SpRead(ty) => format!("sp_rd {} {a}", ty_name(*ty)),
            Opcode::SpWrite => format!("sp_wr {a}"),
            Opcode::Comm => format!("comm {a}"),
        };
        let _ = writeln!(out, "{v} = {line}");
    }
    for (r, n) in kernel.recurrences() {
        let _ = writeln!(out, "loop {r} <- {n}");
    }
    out
}

/// Parses a kernel from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for syntax problems,
/// undefined or non-dense value ids, unknown opcodes, operands that break
/// the IR's typing or stream rules, or structural errors (unbound
/// recurrences are reported against the last line). Never panics.
pub fn parse_kernel(text: &str) -> Result<Kernel, ParseError> {
    let mut builder = KernelBuilder::new("unnamed");
    // values[i] = Some(id) for value-producing lines, None for writes.
    let mut values: Vec<Option<ValueId>> = Vec::new();
    let mut last_line = 0usize;

    let fail = |line: usize, message: String| ParseError { line, message };

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        last_line = line_no;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();

        let parse_ty = |tok: Option<&&str>| -> Result<Ty, ParseError> {
            match tok.copied() {
                Some("i32") => Ok(Ty::I32),
                Some("f32") => Ok(Ty::F32),
                other => Err(fail(line_no, format!("expected type, found {other:?}"))),
            }
        };
        let parse_scalar = |toks: &[&str]| -> Result<Scalar, ParseError> {
            let [ty, lit] = toks else {
                return Err(fail(line_no, "expected `<ty> <literal>`".into()));
            };
            match parse_ty(Some(ty))? {
                Ty::I32 => lit
                    .parse::<i32>()
                    .map(Scalar::I32)
                    .map_err(|_| fail(line_no, format!("bad i32 literal {lit}"))),
                Ty::F32 => lit
                    .parse::<f32>()
                    .map(Scalar::F32)
                    .map_err(|_| fail(line_no, format!("bad f32 literal {lit}"))),
            }
        };
        let value =
            |tok: Option<&&str>, values: &[Option<ValueId>]| -> Result<ValueId, ParseError> {
                let tok = tok.copied().unwrap_or("");
                let idx: usize = tok
                    .strip_prefix('v')
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| fail(line_no, format!("expected value id, found `{tok}`")))?;
                match values.get(idx) {
                    Some(Some(v)) => Ok(*v),
                    Some(None) => Err(fail(line_no, format!("v{idx} produces no value"))),
                    None => Err(fail(line_no, format!("v{idx} is not defined yet"))),
                }
            };
        let stream = |tok: Option<&&str>| -> Result<StreamId, ParseError> {
            let tok = tok.copied().unwrap_or("");
            tok.strip_prefix('s')
                .and_then(|d| d.parse().ok())
                .map(StreamId)
                .ok_or_else(|| fail(line_no, format!("expected stream id, found `{tok}`")))
        };

        match toks[0] {
            "kernel" => {
                let name = *toks
                    .get(1)
                    .ok_or_else(|| fail(line_no, "expected `kernel <name>`".into()))?;
                builder = KernelBuilder::new(name);
            }
            "in" => {
                builder.in_stream(parse_ty(toks.get(1))?);
            }
            "out" => {
                builder.out_stream(parse_ty(toks.get(1))?);
            }
            "sp" => {
                let words: u32 = toks
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| fail(line_no, "expected `sp <words>`".into()))?;
                builder.require_sp(words);
            }
            "loop" => {
                if toks.len() != 4 || toks[2] != "<-" {
                    return Err(fail(line_no, "expected `loop vR <- vN`".into()));
                }
                let r = value(toks.get(1), &values)?;
                let n = value(toks.get(3), &values)?;
                builder.try_bind_next(r, n).map_err(|m| fail(line_no, m))?;
            }
            _ => {
                if toks.len() < 3 || toks[1] != "=" {
                    return Err(fail(line_no, "expected `vN = <op> ...`".into()));
                }
                let expect_idx: usize = toks[0]
                    .strip_prefix('v')
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| {
                        fail(line_no, format!("expected value id, found {}", toks[0]))
                    })?;
                if expect_idx != values.len() {
                    return Err(fail(
                        line_no,
                        format!(
                            "value ids must be dense: expected v{}, found v{expect_idx}",
                            values.len()
                        ),
                    ));
                }
                let op = toks[2];
                let rest = &toks[3..];
                // Everything after the opcode and its one immediate (a
                // stream id or a type), if it has one, is an operand.
                let tail = rest.get(1..).unwrap_or_default();
                let (opcode, operands) = match op {
                    "const" => {
                        values.push(Some(builder.constant(parse_scalar(rest)?)));
                        continue;
                    }
                    "recur" => {
                        values.push(Some(builder.recurrence(parse_scalar(rest)?)));
                        continue;
                    }
                    "param" => {
                        values.push(Some(builder.param(parse_ty(rest.first())?)));
                        continue;
                    }
                    "iter" => (Opcode::IterIndex, rest),
                    "cid" => (Opcode::ClusterId, rest),
                    "nclusters" => (Opcode::ClusterCount, rest),
                    "read" => (Opcode::Read(stream(rest.first())?), tail),
                    "write" => (Opcode::Write(stream(rest.first())?), tail),
                    "cond_rd" => (Opcode::CondRead(stream(rest.first())?), tail),
                    "cond_wr" => (Opcode::CondWrite(stream(rest.first())?), tail),
                    "sp_rd" => (Opcode::SpRead(parse_ty(rest.first())?), tail),
                    "sp_wr" => (Opcode::SpWrite, rest),
                    "comm" => (Opcode::Comm, rest),
                    "select" => (Opcode::Select, rest),
                    "sqrt" => (Opcode::Sqrt, rest),
                    "neg" => (Opcode::Neg, rest),
                    "abs" => (Opcode::Abs, rest),
                    "floor" => (Opcode::Floor, rest),
                    "itof" => (Opcode::ItoF, rest),
                    "ftoi" => (Opcode::FtoI, rest),
                    "add" => (Opcode::Add, rest),
                    "sub" => (Opcode::Sub, rest),
                    "mul" => (Opcode::Mul, rest),
                    "div" => (Opcode::Div, rest),
                    "min" => (Opcode::Min, rest),
                    "max" => (Opcode::Max, rest),
                    "and" => (Opcode::And, rest),
                    "or" => (Opcode::Or, rest),
                    "xor" => (Opcode::Xor, rest),
                    "shl" => (Opcode::Shl, rest),
                    "shr" => (Opcode::Shr, rest),
                    "eq" => (Opcode::Eq, rest),
                    "ne" => (Opcode::Ne, rest),
                    "lt" => (Opcode::Lt, rest),
                    "le" => (Opcode::Le, rest),
                    other => return Err(fail(line_no, format!("unknown opcode {other}"))),
                };
                let args = operands
                    .iter()
                    .map(|t| value(Some(t), &values))
                    .collect::<Result<Vec<_>, _>>()?;
                let produces = opcode.produces_value();
                let v = builder
                    .try_op(opcode, &args, op)
                    .map_err(|m| fail(line_no, m))?;
                let produced = produces.then_some(v);
                values.push(produced);
            }
        }
    }

    builder.finish().map_err(|e| ParseError {
        line: last_line,
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, ExecConfig};

    fn saxpy() -> Kernel {
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
        b.finish().unwrap()
    }

    #[test]
    fn round_trips_simple_kernel() {
        let k = saxpy();
        let text = to_text(&k);
        let back = parse_kernel(&text).unwrap();
        assert_eq!(k, back);
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn round_trips_recurrences_and_memory() {
        let mut b = KernelBuilder::new("acc");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        b.require_sp(8);
        let acc = b.recurrence(Scalar::F32(0.0));
        let x = b.read(s);
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        let addr = b.const_i(3);
        b.sp_write(addr, sum);
        let y = b.sp_read(addr, Ty::F32);
        let cid = b.cluster_id();
        let z = b.comm(y, cid);
        b.write(out, z);
        let k = b.finish().unwrap();

        let back = parse_kernel(&to_text(&k)).unwrap();
        assert_eq!(k, back);
    }

    #[test]
    fn parsed_kernels_execute_identically() {
        let k = saxpy();
        let back = parse_kernel(&to_text(&k)).unwrap();
        let xs: Vec<Scalar> = (0..16).map(|i| Scalar::F32(i as f32)).collect();
        let ys: Vec<Scalar> = (0..16).map(|i| Scalar::F32(100.0 - i as f32)).collect();
        let cfg = ExecConfig::with_clusters(8);
        let a = execute(&k, &[Scalar::F32(3.0)], &[xs.clone(), ys.clone()], &cfg).unwrap();
        let b = execute(&back, &[Scalar::F32(3.0)], &[xs, ys], &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
kernel tiny
in i32          # pixels
out i32

v0 = read s0    # pop
v1 = add v0 v0
v2 = write s0 v1
";
        let k = parse_kernel(text).unwrap();
        assert_eq!(k.name(), "tiny");
        assert_eq!(k.stats().alu_ops, 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "kernel bad\nin f32\nv0 = read s0\nv1 = frobnicate v0 v0\n";
        let err = parse_kernel(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn undefined_value_is_reported() {
        let text = "kernel bad\nin f32\nv0 = read s0\nv1 = add v0 v9\n";
        let err = parse_kernel(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("v9"));
    }

    #[test]
    fn dense_ids_are_required() {
        let text = "kernel bad\nin f32\nv5 = read s0\n";
        let err = parse_kernel(text).unwrap_err();
        assert!(err.message.contains("dense"));
    }

    #[test]
    fn using_a_write_as_operand_is_reported() {
        let text = "\
kernel bad
in i32
out i32
v0 = read s0
v1 = write s0 v0
v2 = add v1 v0
";
        let err = parse_kernel(text).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("no value"));
    }

    /// Text that breaks a builder rule is a line error, not a panic.
    fn rejects(text: &str, line: usize, needle: &str) {
        let err = parse_kernel(text).unwrap_err();
        assert_eq!(err.line, line, "{err}");
        assert!(err.message.contains(needle), "{err}");
    }

    #[test]
    fn read_of_an_undeclared_stream_is_reported() {
        rejects("kernel bad\nin i32\nv0 = read s1\n", 3, "not declared");
    }

    #[test]
    fn mixed_operand_types_are_reported() {
        rejects(
            "kernel bad\nv0 = const i32 1\nv1 = const f32 1.0\nv2 = add v0 v1\n",
            4,
            "operand types differ",
        );
    }

    #[test]
    fn binding_a_non_recurrence_is_reported() {
        rejects(
            "kernel bad\nin i32\nv0 = read s0\nv1 = add v0 v0\nloop v0 <- v1\n",
            5,
            "not a recurrence",
        );
    }

    #[test]
    fn sqrt_of_an_integer_is_reported() {
        rejects(
            "kernel bad\nv0 = const i32 4\nv1 = sqrt v0\n",
            3,
            "expected f32",
        );
    }

    #[test]
    fn write_to_an_undeclared_stream_is_reported() {
        rejects(
            "kernel bad\nin i32\nout i32\nv0 = read s0\nv1 = write s3 v0\n",
            5,
            "not declared",
        );
    }

    #[test]
    fn unbound_recurrence_is_reported_at_end() {
        let text = "kernel bad\nin f32\nv0 = recur f32 0.0\nv1 = read s0\nv2 = add v0 v1\n";
        let err = parse_kernel(text).unwrap_err();
        assert!(err.message.contains("recurrence"));
    }
}
