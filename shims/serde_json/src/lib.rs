//! Offline shim for the subset of `serde_json` used by this workspace:
//! [`to_string`], [`to_string_pretty`], and [`from_str`] over the
//! `serde` shim's [`Value`] tree.
//!
//! Floats are printed with Rust's shortest-round-trip `Display`, so a
//! serialize → parse cycle reproduces every finite `f64` exactly;
//! integers keep 64-bit exactness through the [`serde::Number`] split.

use serde::{DeError, Deserialize, Number, Serialize, Value};

/// JSON (de)serialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

// ---- emitter ---------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
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

fn emit(v: &Value, out: &mut String, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(Number::I(x)) => out.push_str(&x.to_string()),
        Value::Num(Number::U(x)) => out.push_str(&x.to_string()),
        Value::Num(Number::F(x)) => {
            if x.is_finite() {
                let s = x.to_string();
                out.push_str(&s);
                // Keep a float-looking token so parsing restores F.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null"); // serde_json's lossy default
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::Seq(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level + 1));
                }
                emit(x, out, indent.map(|l| l + 1));
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push(']');
        }
        Value::Map(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level + 1));
                }
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                emit(x, out, indent.map(|l| l + 1));
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push('}');
        }
    }
}

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), &mut out, None);
    Ok(out)
}

/// Serialize to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), &mut out, Some(0));
    Ok(out)
}

// ---- parser ----------------------------------------------------------

/// Deepest array/object nesting the parser accepts (the limit upstream
/// `serde_json` uses). The parser recurses once per level, so without
/// a cap a run of `[` from a damaged file overflows the stack and
/// aborts the process; the workspace's deepest document nests under
/// ten levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end of input"))? {
            b'{' => self.parse_map(),
            b'[' => self.parse_seq(),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'n' => self.parse_keyword("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short unicode escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("bad unicode escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad unicode escape"))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode scalar"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from this byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk =
                        self.bytes.get(start..end).ok_or_else(|| self.err("truncated utf-8"))?;
                    let text = std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?;
                    s.push_str(text);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("expected number"));
        }
        if !is_float {
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Value::Num(Number::I(x)));
            }
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U(x)));
            }
        }
        text.parse::<f64>()
            .map(|x| Value::Num(Number::F(x)))
            .map_err(|_| self.err("invalid number"))
    }

    /// Parse one nested container with `body`, refusing to open more
    /// than [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = body(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.nested(Self::parse_seq_body)
    }

    fn parse_seq_body(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(xs));
        }
        loop {
            xs.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(xs));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.nested(Self::parse_map_body)
    }

    fn parse_map_body(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(m));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            m.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(m));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parse a JSON string into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for f in [0.1f64, 1.0 / 3.0, 1e300, -2.5e-8, 12345.0] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, f, "via {s}");
        }
        let s = to_string(&u64::MAX).unwrap();
        assert_eq!(from_str::<u64>(&s).unwrap(), u64::MAX);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 2u32), (3, 4)];
        let s = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<(u32, u32)>>(&s).unwrap(), v);
        let opt: Option<Vec<f64>> = Some(vec![1.5, -2.25]);
        let s = to_string(&opt).unwrap();
        assert_eq!(from_str::<Option<Vec<f64>>>(&s).unwrap(), opt);
    }

    #[test]
    fn strings_escape() {
        let s = "line\n\"quoted\"\tüñí".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn pretty_is_parseable() {
        let v = vec![vec![1u32], vec![2, 3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("not json").is_err());
        assert!(from_str::<u32>("12 trailing").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, depth: usize| {
            let mut s = open.repeat(depth);
            s.push_str(&close.repeat(depth));
            s
        };
        // At the limit: parses.
        assert!(parse_value(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse_value(&nested("{\"k\":", "}", MAX_DEPTH).replace(":}", ":0}")).is_ok());
        // One past it, mixed, and far past it (unterminated, as a torn
        // file would be): an error, never an abort.
        let err = parse_value(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        assert!(parse_value(&"[{\"k\":".repeat(MAX_DEPTH)).is_err());
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
    }
}
