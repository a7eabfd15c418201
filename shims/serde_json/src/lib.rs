//! Minimal, dependency-free stand-in for `serde_json`.
//!
//! Renders and parses JSON text against the shimmed `serde` [`Value`] tree.
//! Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null) — enough for config/report/model persistence.

use std::fmt::{self, Write as _};

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------
//
// Numbers are formatted straight into the output buffer with `write!`, no
// temporary `String` per number. Writing into a `String` cannot fail, so the
// `fmt::Result`s are discarded.

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_number(f: f64, out: &mut String) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity literal; upstream serde_json emits null
        // for them too.
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep integral floats recognisable and compact ("2" not "2.0" is
        // what upstream emits for integers; for floats it emits "2.0" — we
        // preserve the fractional marker so round-trips stay floats).
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

fn render(v: &Value, pretty: bool, indent: usize, out: &mut String) {
    let pad = |out: &mut String, level: usize| {
        if pretty {
            out.push('\n');
            for _ in 0..level {
                out.push_str("  ");
            }
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => render_number(*f, out),
        Value::Str(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent + 1);
                render(item, pretty, indent + 1, out);
            }
            pad(out, indent);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent + 1);
                escape_into(key, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                render(val, pretty, indent + 1, out);
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_json_value(), false, 0, &mut out);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_json_value(), true, 0, &mut out);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => self.err(&format!("unexpected character `{}`", other as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return self.err("expected `,` or `}` in object"),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected `,` or `]` in array"),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u16> {
        if self.pos + 4 > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("invalid \\u escape".into()))?;
        let code = u16::from_str_radix(hex, 16).map_err(|_| Error("invalid \\u escape".into()))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a following \uXXXX.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    let combined = 0x10000
                                        + (((hi as u32 - 0xD800) << 10) | (lo as u32 - 0xDC00));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi as u32)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue;
                        }
                        _ => return self.err("invalid escape sequence"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of unescaped bytes in one
                    // append. `"` and `\` are ASCII, so splitting there
                    // keeps the run valid UTF-8 (input is a &str), and
                    // validating per run — not per character — keeps long
                    // strings linear.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error("invalid utf-8".into()))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
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
            .map_err(|_| Error("invalid number".into()))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<u64>() {
                    if i <= i64::MAX as u64 {
                        return Ok(Value::Int(-(i as i64)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

/// Parses a `Value` tree from JSON text.
pub fn parse_value(text: &str) -> Result<Value> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing characters after JSON value");
    }
    Ok(value)
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    Ok(T::from_json_value(&parse_value(text)?)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|_| Error("input is not utf-8".into()))?;
    from_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f32).unwrap(), "2.0");
        assert_eq!(from_str::<f32>("2.0").unwrap(), 2.0);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote:\" slash:\\ newline:\n tab:\t unicode:\u{1F600}\u{0007}".to_string();
        let json = to_string(&original).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), original);
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<Option<f32>> = vec![Some(1.25), None, Some(-3.0)];
        let json = to_string(&v).unwrap();
        let back: Vec<Option<f32>> = from_str(&json).unwrap();
        assert_eq!(back, v);

        let pairs: Vec<(usize, usize)> = vec![(1, 2), (3, 4)];
        let back: Vec<(usize, usize)> = from_str(&to_string(&pairs).unwrap()).unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v: Vec<Vec<u32>> = vec![vec![1, 2], vec![], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<Vec<u32>> = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<u32>("\"unterminated").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(to_string(&f32::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f32::NEG_INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&vec![1.0f32, f32::NAN]).unwrap(), "[1.0,null]");
        assert!(from_str::<f32>("null").unwrap().is_nan());
    }

    #[test]
    fn float_precision_survives() {
        for &f in &[std::f64::consts::PI, 1e-9, 123456.789, -0.001] {
            let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
            assert_eq!(back, f);
        }
        // f32 payloads routed through f64 must come back exact too.
        for &f in &[0.1f32, 3.4e37, -7.25e-3] {
            let back: f32 = from_str(&to_string(&f).unwrap()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn rendered_number_and_escape_text_is_pinned() {
        // Integral floats keep their fractional marker below the 1e15
        // cut-over and print plainly from it on; -0.0 keeps its sign.
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&-3.0f64).unwrap(), "-3.0");
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&999_999_999_999_999.0f64).unwrap(), "999999999999999.0");
        assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
        assert_eq!(to_string(&1e-7f64).unwrap(), "0.0000001");
        assert_eq!(to_string(&0.1f32).unwrap(), "0.10000000149011612");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(
            to_string(&vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]).unwrap(),
            "[null,null,null]"
        );
        assert_eq!(to_string("a\u{1}b\u{1f}").unwrap(), "\"a\\u0001b\\u001f\"");
    }
}
