//! A minimal JSON value, parser, and renderer — enough for the daemon's
//! request/response bodies, with zero dependencies.
//!
//! Rendering is deterministic: objects keep insertion order, numbers render
//! via a fixed shortest-roundtrip rule, and [`Value::Raw`] lets
//! pre-rendered fragments (e.g. [`Report::to_json`](stream_repro::Report))
//! embed without a re-parse. The parser is a strict recursive-descent
//! reader of RFC 8259 JSON; anything malformed is a typed error, never a
//! panic.

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved (and rendered).
    Object(Vec<(String, Value)>),
    /// A pre-rendered JSON fragment, emitted verbatim. Construct only with
    /// output that is already valid JSON (e.g. `Report::to_json`).
    Raw(String),
}

impl Value {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
            Value::Raw(raw) => out.push_str(raw),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/inf; the daemon never emits them.
    } else if n == n.trunc() && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error: position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parse failed at.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape consumed everything
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are trustworthy).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).map_err(|_| {
                        self.err("invalid UTF-8") // unreachable: input was a &str
                    })?);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1; // past the `u`
        let hex4 = |p: &mut Self| -> Result<u32, ParseError> {
            let s = p
                .bytes
                .get(p.pos..p.pos + 4)
                .and_then(|b| std::str::from_utf8(b).ok())
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            let v =
                u32::from_str_radix(s, 16).map_err(|_| p.err("non-hex digits in \\u escape"))?;
            p.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        let cp = if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair: expect `\uXXXX` low half.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = hex4(self)?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else if (0xdc00..0xe000).contains(&hi) {
            return Err(self.err("unpaired surrogate"));
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))
    }

    /// RFC 8259 `number`: an optional `-`, then `0` or a digit run without
    /// a leading zero, then optional `.digits` and `e[+-]digits` parts,
    /// each holding at least one digit.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits("expected a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected a digit after `.`")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected a digit in the exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse()
            .map(Value::Number)
            .map_err(|_| self.err("malformed number"))
    }

    /// Consumes a run of one or more ASCII digits.
    fn digits(&mut self, missing: &str) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(missing));
        }
        Ok(())
    }
}

/// Convenience: an object from `(key, value)` pairs.
pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrips_documents() {
        for doc in [
            "null",
            "true",
            "[1,2.5,-3]",
            "[0,-0,0.5,-0.25e-3,1E+2,10,120]",
            "{\"a\":[{\"b\":\"c\"}],\"d\":null}",
            "\"quote \\\" backslash \\\\ tab \\t\"",
            "{}",
            "[]",
        ] {
            let v = parse(doc).unwrap();
            assert_eq!(parse(&v.render()).unwrap(), v, "{doc}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Value::String("é😀".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err()); // unpaired surrogate
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "nul", "1 2", "{\"a\":}", "\"\x01\"", "[1]]", "01", "1.",
            "-.5", "1.e3", "-01.0", "-", "1e", "1e+", "[-]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn raw_embeds_verbatim() {
        let v = object([
            ("ok", Value::Bool(true)),
            ("report", Value::Raw("{\"id\":\"t\"}".to_string())),
        ]);
        assert_eq!(v.render(), "{\"ok\":true,\"report\":{\"id\":\"t\"}}");
    }

    #[test]
    fn numbers_render_deterministically() {
        assert_eq!(Value::Number(3.0).render(), "3");
        assert_eq!(Value::Number(0.5).render(), "0.5");
        assert_eq!(Value::Number(-7.0).render(), "-7");
    }

    /// Characters that steer the parser into every branch: structure,
    /// literals, number syntax, escapes, and multi-byte scalars.
    const JSONISH: &[char] = &[
        '{', '}', '[', ']', '"', ':', ',', ' ', '\n', '-', '+', '.', '0', '1', '9', 'e', 'E', 't',
        'r', 'u', 'f', 'a', 'l', 's', 'n', '\\', '/', 'b', 'd', '8', 'c', 'é', '\u{1}',
    ];

    /// Builds a finite JSON value from a byte script: each byte picks the
    /// next node's kind and payload, so scripts of any length decode.
    fn value_from(script: &mut std::slice::Iter<'_, u8>, depth: usize) -> Value {
        let Some(&op) = script.next() else {
            return Value::Null;
        };
        let mut byte = || script.next().copied().unwrap_or(0);
        match op % 7 {
            0 => Value::Null,
            1 => Value::Bool(op & 0x80 != 0),
            2 => {
                let bits = (0..8).fold(0u64, |acc, _| acc << 8 | u64::from(byte()));
                let n = f64::from_bits(bits);
                Value::Number(if n.is_finite() { n } else { f64::from(op) })
            }
            3 => Value::Number(f64::from(i32::from_le_bytes([
                byte(),
                byte(),
                byte(),
                byte(),
            ]))),
            4 => Value::String(string_from(script)),
            5 if depth < 4 => {
                let len = usize::from(byte() % 4);
                Value::Array((0..len).map(|_| value_from(script, depth + 1)).collect())
            }
            6 if depth < 4 => {
                let len = usize::from(byte() % 4);
                Value::Object(
                    (0..len)
                        .map(|_| (string_from(script), value_from(script, depth + 1)))
                        .collect(),
                )
            }
            _ => Value::Number(f64::from(op)),
        }
    }

    /// A short string mixing escapable, control, and multi-byte scalars.
    fn string_from(script: &mut std::slice::Iter<'_, u8>) -> String {
        const PALETTE: &[char] = &[
            'a', '"', '\\', '\n', '\r', '\t', '\u{1f}', '\u{7f}', 'é', '😀',
        ];
        let len = usize::from(script.next().copied().unwrap_or(0) % 6);
        script
            .take(len)
            .map(|&b| PALETTE[usize::from(b) % PALETTE.len()])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_never_panics_on_arbitrary_input(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
            let jsonish: String = bytes
                .iter()
                .map(|&b| JSONISH[usize::from(b) % JSONISH.len()])
                .collect();
            let _ = parse(&jsonish);
        }

        #[test]
        fn parse_inverts_render_for_finite_values(
            script in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let v = value_from(&mut script.iter(), 0);
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }
    }
}
