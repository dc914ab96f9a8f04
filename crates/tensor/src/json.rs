//! Minimal, dependency-free JSON substrate.
//!
//! Replaces `serde_json` for the workspace's two needs: printing
//! experiment results under `results/` (and the analyzer's and the
//! benchmark's reports), and parsing JSON text back into a [`JsonValue`]
//! for the tests and tools that read those files. The printer is fully
//! deterministic — object fields keep insertion order and floats print
//! with Rust's shortest-round-trip formatting — so two runs with the same
//! seed produce byte-identical files.
//!
//! A type that is written implements [`ToJson`] by hand, building its
//! [`JsonValue`] field by field (see `ExperimentResult` in `rkvc-core`).
//! Nothing is read back into typed values: a reader walks the parsed
//! [`JsonValue`] with its accessors.
//!
//! # Examples
//!
//! ```
//! use rkvc_tensor::json::JsonValue;
//!
//! let v = JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Int(2)]);
//! assert_eq!(v.to_compact_string(), "[1,2]");
//! let back = JsonValue::parse("[1, 2]").unwrap();
//! assert_eq!(back, v);
//! ```

use std::fmt::Write as _;

/// A parsed or constructed JSON document.
///
/// Integers and floats are separate variants so that `7` and `7.0`
/// round-trip through text without changing representation (mirroring
/// `serde_json`'s distinction).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fraction or exponent part.
    Int(i64),
    /// An integer above `i64::MAX`, up to `u64::MAX`. Every integer that
    /// fits `i64` is an [`Int`](JsonValue::Int), so each integer has one
    /// representation.
    UInt(u64),
    /// A number with a fraction or exponent part. Always finite: JSON has
    /// no NaN/Infinity literals and the parser rejects them.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object. Fields keep insertion order (deterministic printing);
    /// lookup is linear, which is fine at config/report scale.
    Object(Vec<(String, JsonValue)>),
}

/// Error from [`JsonValue::parse`]: what went wrong and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Builds an object value from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// The fields if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number (int or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The integer value if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean value if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// One-word description of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Int(_) | JsonValue::UInt(_) => "int",
            JsonValue::Float(_) => "float",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// Compact single-line rendering (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing-newline-
    /// free body, matching `serde_json` pretty output.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (recursive descent).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset for syntax errors,
    /// trailing garbage, non-finite numbers, invalid escapes, or arrays
    /// and objects nested deeper than 128 levels.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Prints a finite f64 so it re-parses as a float: Rust's `{:?}` shortest
/// round-trip form always includes a `.` or an exponent.
fn write_f64(out: &mut String, f: f64) {
    debug_assert!(f.is_finite(), "non-finite float reached the printer");
    if f.is_finite() {
        let _ = write!(out, "{f:?}");
    } else {
        // Defensive: JSON has no non-finite literals; serde_json emits
        // null here and we follow suit in release builds.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of arrays and objects [`JsonValue::parse`] accepts
/// (`serde_json`'s limit). The parser recurses once per level, so without
/// a bound a few hundred kilobytes of `[` overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: format!("{msg} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low surrogate.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000
                                    + ((hi - 0xD800) << 10)
                                    + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character"));
                }
                Some(_) => {
                    // Copy the run of plain characters in one go. It
                    // stops at a quote, a backslash or a control byte,
                    // all ASCII, so it ends on a character boundary of
                    // the already-valid input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = self
                        .text
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Exactly four hex digits (no sign: `u32::from_str_radix` alone
    /// would take `+041`).
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .ok()
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// One or more ASCII digits; `part` names the number part for the
    /// error.
    fn digits(&mut self, part: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(&format!("expected a digit in {part}")));
        }
        Ok(())
    }

    /// RFC 8259 number: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits("number")?;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("fraction")?;
            is_float = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent")?;
            is_float = true;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
            if !f.is_finite() {
                return Err(self.err("non-finite number"));
            }
            Ok(JsonValue::Float(f))
        } else {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
            match text.parse::<u64>() {
                Ok(u) => Ok(JsonValue::UInt(u)),
                // Integer literal outside i64 and u64: keep the magnitude
                // as a float rather than failing the parse.
                Err(_) => {
                    let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
                    if !f.is_finite() {
                        return Err(self.err("non-finite number"));
                    }
                    Ok(JsonValue::Float(f))
                }
            }
        }
    }
}

/// Conversion into a [`JsonValue`] (the `Serialize` replacement).
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> JsonValue;
}

/// Serializes to compact JSON text (`serde_json::to_string` analogue).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact_string()
}

/// Serializes to pretty JSON text (`serde_json::to_string_pretty`
/// analogue).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(JsonValue::parse("2.5e3").unwrap(), JsonValue::Float(2500.0));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::Str("hi".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::Int(1));
        assert_eq!(arr[1].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1 2", "NaN", "Infinity",
            "-Infinity", "{\"a\":}", "\"unterminated", "\"bad \\q escape\"",
            "01a",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    /// Numbers follow RFC 8259: no leading zeros, a digit after `.` and
    /// in an exponent; a `\u` escape is exactly four hex digits.
    #[test]
    fn numbers_and_escapes_follow_the_rfc_grammar() {
        for bad in [
            "01", "-01", "00", "1.", "1.e5", "-", "1e", "1e+", ".5", "+1", "\"\\u+041\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject: {bad}");
        }
        for (good, v) in [
            ("0", JsonValue::Int(0)),
            ("-0", JsonValue::Int(0)),
            ("0.5", JsonValue::Float(0.5)),
            ("1e5", JsonValue::Float(1e5)),
            ("1E+5", JsonValue::Float(1e5)),
            ("-0.0e-0", JsonValue::Float(-0.0)),
        ] {
            assert_eq!(JsonValue::parse(good).unwrap(), v, "{good}");
        }
        let escaped = JsonValue::parse("\"\\u00e9\\u00C9\"").unwrap();
        assert_eq!(escaped.as_str(), Some("\u{e9}\u{c9}"));
    }

    #[test]
    fn rejects_non_finite_numbers() {
        assert!(JsonValue::parse("1e999").is_err());
        assert!(JsonValue::parse("-1e999").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\ttab \"quoted\" back\\slash \u{1}ctl \u{1F600}emoji";
        let v = JsonValue::Str(s.to_owned());
        let printed = v.to_compact_string();
        assert_eq!(JsonValue::parse(&printed).unwrap(), v);
    }

    /// A string literal costs time linear in its length: a 4 MiB one,
    /// multi-byte characters and escapes included, parses back exactly.
    #[test]
    fn multi_megabyte_string_parses_in_linear_time() {
        let unit = "plain ascii \u{e9}t\u{e9} \u{1F600} \"q\" \\ tab\t";
        let s = unit.repeat((4 << 20) / unit.len());
        let v = JsonValue::Str(s.clone());
        let parsed = JsonValue::parse(&v.to_compact_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s.as_str()));
        assert!(JsonValue::parse("\"ctl \u{1} byte\"").is_err());
        assert!(JsonValue::parse(&format!("\"{}", "x".repeat(1 << 20))).is_err());
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let v = JsonValue::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(JsonValue::parse("\"\\ud83d\"").is_err());
        assert!(JsonValue::parse("\"\\ud83d\\u0041\"").is_err());
    }

    #[test]
    fn pretty_format_matches_expected_shape() {
        let v = JsonValue::object(vec![
            ("name", JsonValue::Str("fig1".into())),
            (
                "xs",
                JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
            ("empty", JsonValue::Array(vec![])),
        ]);
        let expected = "{\n  \"name\": \"fig1\",\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.to_pretty_string(), expected);
        assert_eq!(JsonValue::parse(expected).unwrap(), v);
    }

    #[test]
    fn ints_and_floats_stay_distinct_through_text() {
        let v = JsonValue::Array(vec![JsonValue::Int(7), JsonValue::Float(7.0)]);
        let text = v.to_compact_string();
        assert_eq!(text, "[7,7.0]");
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    /// Integers at and above `i64::MAX` print as their exact digits and
    /// parse back exactly; past `u64::MAX` a literal parses as a float.
    #[test]
    fn integers_up_to_u64_max_round_trip_exactly() {
        let big = i64::MAX as u64 + 1;
        for (v, text) in [
            (JsonValue::Int(i64::MAX), "9223372036854775807"),
            (JsonValue::UInt(big), "9223372036854775808"),
            (JsonValue::UInt(u64::MAX), "18446744073709551615"),
            (JsonValue::Int(i64::MIN), "-9223372036854775808"),
        ] {
            assert_eq!(v.to_compact_string(), text);
            assert_eq!(JsonValue::parse(text).unwrap(), v);
            assert_eq!(v.kind(), "int");
        }
        assert_eq!(
            JsonValue::parse("9223372036854775808").unwrap().as_i64(),
            None
        );
        let past = JsonValue::parse("18446744073709551616").unwrap();
        assert_eq!(past, JsonValue::Float(18446744073709551616.0));
    }

    /// Nesting is bounded: 128 levels parse, 129 are an error, and so is
    /// a 200 KB document of `[`, which used to overflow the stack.
    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(JsonValue::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert!(JsonValue::parse(&nested("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
        assert!(JsonValue::parse(&nested("[", "]", 100_000)).is_err());
        assert!(JsonValue::parse(&"[{\"k\":".repeat(50_000)).is_err());
    }
}
