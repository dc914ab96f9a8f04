//! Minimal, dependency-free JSON substrate.
//!
//! Replaces `serde`/`serde_json` for the workspace's needs: persisting
//! experiment reports under `results/`, round-tripping configuration
//! structs, and golden-file determinism tests. The printer is fully
//! deterministic — object fields keep insertion order and floats print
//! with Rust's shortest-round-trip formatting — so two runs with the same
//! seed produce byte-identical files.
//!
//! Serialization is driven by the [`ToJson`] / [`FromJson`] trait pair.
//! Structs and fieldless enums get implementations from the
//! [`json_struct!`](crate::json_struct) and
//! [`json_unit_enum!`](crate::json_unit_enum) macros; data-carrying enums
//! write the two impls by hand (see `CompressionConfig` in `rkvc-kvcache`
//! for the idiom).
//!
//! # Examples
//!
//! ```
//! use rkvc_tensor::json::{JsonValue, ToJson};
//!
//! let v = vec![1u32, 2, 3].to_json();
//! assert_eq!(v.to_compact_string(), "[1,2,3]");
//! let back = JsonValue::parse("[1, 2, 3]").unwrap();
//! assert_eq!(back, v);
//! ```

use std::collections::BTreeMap;
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

/// Error from parsing or from [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
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
    /// trailing garbage, non-finite numbers, or invalid escapes.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
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
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
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

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
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

/// Conversion from a [`JsonValue`] (the `Deserialize` replacement).
pub trait FromJson: Sized {
    /// Reconstructs `Self`, erroring on shape/type mismatches.
    fn from_json(v: &JsonValue) -> Result<Self, JsonError>;
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

/// Parses JSON text into a typed value (`serde_json::from_str` analogue).
///
/// # Errors
///
/// Returns a [`JsonError`] on syntax errors or shape mismatches.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&JsonValue::parse(s)?)
}

/// Looks up and converts an object field; a missing key converts from
/// `null` (so `Option<T>` fields default to `None`).
pub fn field<T: FromJson>(
    fields: &[(String, JsonValue)],
    name: &str,
) -> Result<T, JsonError> {
    match fields.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_json(v)
            .map_err(|e| JsonError::new(format!("field '{name}': {e}"))),
        None => T::from_json(&JsonValue::Null)
            .map_err(|_| JsonError::new(format!("missing field '{name}'"))),
    }
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl FromJson for JsonValue {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, got {}", v.kind())))
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_owned())
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::new(format!("expected string, got {}", v.kind())))
    }
}

// Every integer type below is at most 64 bits wide, so it lies in
// `i64::MIN..=u64::MAX` and converts to `i128` without loss.
const _: () = assert!(std::mem::size_of::<usize>() <= 8);

macro_rules! int_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                let wide = *self as i128;
                // Outside i64 means above i64::MAX, so `as u64` is exact.
                i64::try_from(wide).map_or(JsonValue::UInt(wide as u64), JsonValue::Int)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
                let wide = match *v {
                    JsonValue::Int(i) => i128::from(i),
                    JsonValue::UInt(u) => i128::from(u),
                    _ => {
                        return Err(JsonError::new(format!(
                            "expected integer, got {}",
                            v.kind()
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| JsonError::new(format!("integer {wide} out of range")))
            }
        }
    )+};
}

int_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        if self.is_finite() {
            JsonValue::Float(*self)
        } else {
            // serde_json serializes non-finite floats as null; keep that
            // behavior so reports never contain invalid JSON.
            JsonValue::Null
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, got {}", v.kind())))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> JsonValue {
        (*self as f64).to_json()
    }
}

impl FromJson for f32 {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new(format!("expected array, got {}", v.kind())))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v {
            JsonValue::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(Box::new(T::from_json(v)?))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::new("expected 2-element array"))?;
        if items.len() != 2 {
            return Err(JsonError::new("expected 2-element array"));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![
            self.0.to_json(),
            self.1.to_json(),
            self.2.to_json(),
        ])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::new("expected 3-element array"))?;
        if items.len() != 3 {
            return Err(JsonError::new("expected 3-element array"));
        }
        Ok((
            A::from_json(&items[0])?,
            B::from_json(&items[1])?,
            C::from_json(&items[2])?,
        ))
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::new(format!("expected object, got {}", v.kind())))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// serializing as an object in declaration order.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, y: f64 }
/// rkvc_tensor::json_struct!(Point { x, y });
///
/// use rkvc_tensor::json;
/// let p = Point { x: 1.5, y: -2.0 };
/// let text = json::to_string(&p);
/// assert_eq!(text, r#"{"x":1.5,"y":-2.0}"#);
/// assert_eq!(json::from_str::<Point>(&text).unwrap(), p);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Object(vec![
                    $( (stringify!($field).to_owned(),
                        $crate::json::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                let fields = v.as_object().ok_or_else(|| {
                    $crate::json::JsonError::new(concat!(
                        "expected object for ", stringify!($ty)
                    ))
                })?;
                Ok($ty {
                    $( $field: $crate::json::field(fields, stringify!($field))?, )+
                })
            }
        }
    };
}

/// Implements [`ToJson`] only, for structs holding borrowed data
/// (`&'static str` tables and the like) that are serialized into reports
/// but never parsed back.
///
/// ```
/// struct Row { name: &'static str, score: f64 }
/// rkvc_tensor::json_to_struct!(Row { name, score });
///
/// use rkvc_tensor::json;
/// assert_eq!(json::to_string(&Row { name: "a", score: 1.0 }),
///            r#"{"name":"a","score":1.0}"#);
/// ```
#[macro_export]
macro_rules! json_to_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Object(vec![
                    $( (stringify!($field).to_owned(),
                        $crate::json::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a fieldless enum, serializing
/// each variant as its name string (serde's default for unit variants).
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Mode { Fast, Careful }
/// rkvc_tensor::json_unit_enum!(Mode { Fast, Careful });
///
/// use rkvc_tensor::json;
/// assert_eq!(json::to_string(&Mode::Fast), "\"Fast\"");
/// assert_eq!(json::from_str::<Mode>("\"Careful\"").unwrap(), Mode::Careful);
/// ```
#[macro_export]
macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                let name = match self {
                    $( $ty::$variant => stringify!($variant), )+
                };
                $crate::json::JsonValue::Str(name.to_owned())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                let s = v.as_str().ok_or_else(|| {
                    $crate::json::JsonError::new(concat!(
                        "expected string for ", stringify!($ty)
                    ))
                })?;
                match s {
                    $( stringify!($variant) => Ok($ty::$variant), )+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant '{}'", stringify!($ty), other
                    ))),
                }
            }
        }
    };
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

    #[test]
    fn rejects_non_finite_numbers() {
        assert!(JsonValue::parse("1e999").is_err());
        assert!(JsonValue::parse("-1e999").is_err());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(f64::NAN.to_json(), JsonValue::Null);
        assert_eq!(f64::INFINITY.to_json(), JsonValue::Null);
        assert_eq!(f32::NEG_INFINITY.to_json(), JsonValue::Null);
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

    #[test]
    fn typed_round_trips() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let text = to_string(&v);
        assert_eq!(text, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u32>>>(&text).unwrap(), v);

        let pairs: Vec<(String, f64)> = vec![("a".into(), 0.5), ("b".into(), -1.0)];
        let text = to_string(&pairs);
        assert_eq!(from_str::<Vec<(String, f64)>>(&text).unwrap(), pairs);
    }

    /// Integers at and above `i64::MAX` print as their exact digits and
    /// read back exactly, into every type wide enough to hold them.
    #[test]
    fn integers_up_to_u64_max_round_trip_exactly() {
        let big = i64::MAX as u64 + 1;
        for (u, text) in [
            (i64::MAX as u64, "9223372036854775807"),
            (big, "9223372036854775808"),
            (u64::MAX, "18446744073709551615"),
        ] {
            assert_eq!(to_string(&u), text);
            assert_eq!(to_string(&(u as usize)), text);
            assert_eq!(from_str::<u64>(text).unwrap(), u);
            assert_eq!(from_str::<usize>(text).unwrap(), u as usize);
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.kind(), "int");
            assert_eq!(v, u.to_json());
        }
        assert_eq!(
            JsonValue::parse("9223372036854775807").unwrap(),
            JsonValue::Int(i64::MAX)
        );
        assert_eq!(
            JsonValue::parse("9223372036854775808").unwrap(),
            JsonValue::UInt(big)
        );
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        // Above i64, so out of range for every signed type.
        assert!(from_str::<i64>("9223372036854775808").is_err());
        assert!(from_str::<u32>("18446744073709551615").is_err());
        // Past u64 the literal still parses, as a float no integer accepts.
        let past = JsonValue::parse("18446744073709551616").unwrap();
        assert_eq!(past.kind(), "float");
        assert!(u64::from_json(&past).is_err());
    }

    #[test]
    fn type_mismatches_error_cleanly() {
        assert!(from_str::<u32>("\"seven\"").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<String>("17").is_err());
        assert!(from_str::<Vec<u8>>("{\"a\":1}").is_err());
    }

    #[test]
    fn struct_and_enum_macros_round_trip() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            id: String,
            count: usize,
            ratio: f64,
            tags: Vec<String>,
        }
        json_struct!(Demo { id, count, ratio, tags });

        #[derive(Debug, PartialEq)]
        enum Color {
            Red,
            Green,
        }
        json_unit_enum!(Color { Red, Green });

        let d = Demo {
            id: "x".into(),
            count: 3,
            ratio: 0.5,
            tags: vec!["a".into()],
        };
        let text = to_string_pretty(&d);
        assert_eq!(from_str::<Demo>(&text).unwrap(), d);

        assert_eq!(to_string(&Color::Green), "\"Green\"");
        assert_eq!(from_str::<Color>("\"Red\"").unwrap(), Color::Red);
        assert!(from_str::<Color>("\"Blue\"").is_err());
    }

    #[test]
    fn btreemap_output_is_key_sorted() {
        let mut m = BTreeMap::new();
        m.insert("zeta".to_owned(), 1u32);
        m.insert("alpha".to_owned(), 2u32);
        assert_eq!(to_string(&m), r#"{"alpha":2,"zeta":1}"#);
    }
}
