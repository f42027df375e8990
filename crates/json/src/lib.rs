//! # elephants-json
//!
//! A small, dependency-free JSON layer for the elephants workspace.
//!
//! The workspace policy is **zero external crates** — every build must
//! succeed fully offline — so experiment configs, run results and traces
//! serialize through this module instead of `serde`/`serde_json`:
//!
//! * [`ToJson`] / [`FromJson`] — conversion traits implemented for
//!   primitives and containers here and for domain types in their own
//!   crates via [`impl_json_struct!`], [`impl_json_unit_enum!`] and
//!   [`impl_json_newtype!`];
//! * [`ToJson::write_json`] / [`FromJson::read_json`] — the streaming text
//!   path behind [`ToJson::to_json_string`] and [`FromJson::from_json_str`]:
//!   writers append compact JSON straight to a `String`, and readers pull
//!   typed values off a [`Reader`] over the input bytes, so a multi-megabyte
//!   flight record never exists as a document tree. Struct readers accept
//!   keys in any order, keep the first of a duplicated key, and validate
//!   then skip unknown keys; keys without escapes are borrowed from the
//!   input rather than allocated;
//! * [`Value`] and [`parse`] — an owned document model, used by the few
//!   hand-written impls whose shape is easier to express as a tree and by
//!   [`ToJson::to_json_pretty`]. Types without a streaming override fall
//!   back to it: the default `write_json` renders [`ToJson::to_json`], and
//!   the default `read_json` parses just that subtree into a `Value`.
//!
//! Both paths produce byte-identical text: object keys keep insertion
//! order, so the same data always serializes the same way. Nesting is
//! capped at [`MAX_DEPTH`] containers on every read path, so hostile input
//! such as 100,000 nested `[` returns an error instead of overflowing the
//! stack.
//!
//! Integers ride in a dedicated [`Value::Int`] (`i128`) variant rather
//! than through `f64`, so `u64` seeds and byte counters round-trip
//! exactly. Non-finite floats serialize as `null` (matching serde_json)
//! and parse back as `NaN`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Construct from anything displayable.
    pub fn new(msg: impl std::fmt::Display) -> Self {
        JsonError(msg.to_string())
    }
}

/// Deepest container nesting any reader accepts; deeper input is an error.
pub const MAX_DEPTH: usize = 128;

/// An owned JSON document.
///
/// Objects are stored as insertion-ordered `(key, value)` pairs, not a
/// map: serialization order is exactly the order fields were pushed,
/// which is what makes equal inputs produce byte-identical output.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.`, `e` or `E` in the source).
    Int(i128),
    /// A floating-point literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object; errors on missing field or non-object.
    pub fn get_field(&self, name: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| missing_field(name)),
            other => Err(JsonError::new(format!(
                "expected object with field '{name}', got {}",
                other.kind_name()
            ))),
        }
    }

    /// Short name of this value's kind, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty rendering with two-space indentation (serde_json style).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Int(i) => i.write_json(out),
            Value::Float(x) => x.write_json(out),
            Value::Str(s) => write_json_string(out, s),
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
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
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
                    write_json_string(out, k);
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
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Append `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters. Runs of plain bytes are copied in one go; every
/// escaped byte is ASCII, so the cuts always fall on char boundaries.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

fn missing_field(name: &str) -> JsonError {
    JsonError::new(format!("missing field '{name}'"))
}

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut r = Reader::new(input);
    let v = r.read_value()?;
    r.finish()?;
    Ok(v)
}

/// A number token: integer literals that fit `i128` stay exact, everything
/// else (fractions, exponents, huge magnitudes) is a float.
enum Number {
    Int(i128),
    Float(f64),
}

/// A pull reader over JSON text: the streaming half of [`FromJson`].
///
/// Each `read_*` call skips leading whitespace and consumes exactly one
/// value. Containers are read through callbacks — [`Reader::read_object`]
/// hands over each key, [`Reader::read_array`] each element — so the
/// separator state of a container lives in that call, not in the reader.
/// Nesting deeper than [`MAX_DEPTH`] is an error. After any error the
/// reader's position is unspecified; drop it.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader { src: input, pos: 0, depth: 0 }
    }

    /// Succeed only if nothing but whitespace remains.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(JsonError::new(format!("trailing input at byte {}", self.pos))),
        }
    }

    /// Skip whitespace and return the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// A type-mismatch error naming the kind of the next value.
    fn mismatch(&mut self, want: &str) -> JsonError {
        let got = match self.peek() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(_) => "invalid token",
            None => "end of input",
        };
        JsonError::new(format!("expected {want}, got {got} at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{}' at byte {}", b as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Consume a `null` if one comes next; `Ok(false)` leaves other values
    /// unread.
    pub fn read_null(&mut self) -> Result<bool, JsonError> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        if self.eat_literal("null") {
            Ok(true)
        } else {
            Err(JsonError::new(format!("unexpected byte 'n' at {}", self.pos)))
        }
    }

    /// Read `true` or `false`.
    pub fn read_bool(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b't') if self.eat_literal("true") => Ok(true),
            Some(b'f') if self.eat_literal("false") => Ok(false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// Read an integer literal (a number with no fraction or exponent).
    pub fn read_int(&mut self) -> Result<i128, JsonError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::Int(i) => Ok(i),
                Number::Float(_) => Err(JsonError::new("expected integer, got float")),
            },
            _ => Err(self.mismatch("integer")),
        }
    }

    /// Read a number as `f64`; `null` (how non-finite floats serialize)
    /// reads as `NaN`.
    pub fn read_f64(&mut self) -> Result<f64, JsonError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Number::Int(i) => i as f64,
                Number::Float(x) => x,
            }),
            Some(b'n') if self.read_null()? => Ok(f64::NAN),
            _ => Err(self.mismatch("number")),
        }
    }

    /// Read a string, borrowed from the input when it has no escapes.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.mismatch("string"));
        }
        self.string()
    }

    /// Read an object, calling `field` with each key in document order.
    /// `field` must consume exactly one value — the key's — from the
    /// reader (read it, or [`Reader::skip_value`] it).
    pub fn read_object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() != Some(b'{') {
            return Err(self.mismatch("object"));
        }
        self.container(b'}', |r| {
            let key = r.string()?;
            r.expect(b':')?;
            field(r, &key)
        })
    }

    /// Read an array, collecting what `item` returns for each element;
    /// like [`Reader::read_object`]'s callback, it must consume one value.
    pub fn read_array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if self.peek() != Some(b'[') {
            return Err(self.mismatch("array"));
        }
        let mut items = Vec::new();
        self.container(b']', |r| {
            items.push(item(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// Step over a container whose opening bracket is next, calling
    /// `member` for each comma-separated member up to `close`. Enforces
    /// [`MAX_DEPTH`].
    fn container(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        if self.peek() != Some(close) {
            loop {
                member(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => {
                        return Err(JsonError::new(format!(
                            "expected ',' or '{}' at byte {}",
                            close as char, self.pos
                        )))
                    }
                }
            }
        }
        self.depth -= 1;
        self.pos += 1;
        Ok(())
    }

    /// Read the next value, whatever it is, into a [`Value`] tree.
    pub fn read_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.read_object(|r, key| {
                    fields.push((key.to_string(), r.read_value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'[') => self.read_array(Self::read_value).map(Value::Array),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Number::Int(i) => Value::Int(i),
                Number::Float(x) => Value::Float(x),
            }),
            Some(b) => Err(JsonError::new(format!("unexpected byte '{}' at {}", b as char, self.pos))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    /// Validate the next value exactly as [`Reader::read_value`] would,
    /// without building it.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.read_object(|r, _| r.skip_value()),
            // A `Vec<()>` never allocates.
            Some(b'[') => self.read_array(Self::skip_value).map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.read_value().map(drop),
        }
    }

    /// Lex a string starting at its opening quote.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.src.as_bytes().get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        let mut s = self.src[start..self.pos].to_string();
        loop {
            match self.src.as_bytes().get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(b) => {
                    return Err(JsonError::new(format!("raw control byte 0x{b:02x} in string")))
                }
                None => return Err(JsonError::new("unterminated string")),
            }
            let run = self.pos;
            self.skip_plain();
            s.push_str(&self.src[run..self.pos]);
        }
    }

    /// Advance over bytes that stand for themselves inside a string. Stops
    /// only at ASCII bytes (or the end), so the run is always valid UTF-8.
    fn skip_plain(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    /// Decode the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = *self
            .src
            .as_bytes()
            .get(self.pos)
            .ok_or_else(|| JsonError::new("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a following \uXXXX low half.
                    if !self.eat_literal("\\u") {
                        return Err(JsonError::new("lone high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(JsonError::new("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(cp).ok_or_else(|| JsonError::new("invalid \\u escape"))?
            }
            other => {
                return Err(JsonError::new(format!("unknown escape '\\{}'", other as char)))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let bytes = self.src.as_bytes();
        if self.pos + 4 > bytes.len() {
            return Err(JsonError::new("truncated \\u escape"));
        }
        let txt = std::str::from_utf8(&bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(txt, 16).map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Lex a number starting at its sign or first digit.
    fn number(&mut self) -> Result<Number, JsonError> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let txt = &self.src[start..self.pos];
        let bad = |e: std::num::ParseFloatError| JsonError::new(format!("bad number '{txt}': {e}"));
        if float {
            return txt.parse::<f64>().map(Number::Float).map_err(bad);
        }
        // Magnitudes beyond i128 (e.g. a serialized f64::MAX) fall back to
        // the float representation rather than erroring.
        match txt.parse::<i128>() {
            Ok(i) => Ok(Number::Int(i)),
            Err(_) => txt.parse::<f64>().map(Number::Float).map_err(bad),
        }
    }
}

/// Convert a domain value into JSON.
pub trait ToJson {
    /// The JSON representation of `self` as a document tree.
    fn to_json(&self) -> Value;

    /// Append the compact rendering of `self` to `out`. Overrides must
    /// produce exactly the bytes of `self.to_json().write_compact(out)`.
    fn write_json(&self, out: &mut String) {
        self.to_json().write_compact(out);
    }

    /// Compact rendering.
    fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Pretty (two-space indented) rendering.
    fn to_json_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

/// Reconstruct a domain value from JSON.
pub trait FromJson: Sized {
    /// Convert from a parsed document.
    fn from_json(v: &Value) -> Result<Self, JsonError>;

    /// Read one value off `r`. Overrides must accept exactly the text
    /// that `Self::from_json(&r.read_value()?)` accepts, and produce the
    /// same value.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Self::from_json(&r.read_value()?)
    }

    /// Parse text and convert.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        let mut r = Reader::new(s);
        let v = Self::read_json(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Read a struct field into `slot` unless an earlier duplicate of the key
/// already filled it, in which case the value is validated and skipped.
pub fn read_field<T: FromJson>(r: &mut Reader<'_>, slot: &mut Option<T>) -> Result<(), JsonError> {
    match slot {
        Some(_) => r.skip_value(),
        None => {
            *slot = Some(T::read_json(r)?);
            Ok(())
        }
    }
}

/// The value of a required struct field, or a `missing field` error.
pub fn required<T>(slot: Option<T>, name: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| missing_field(name))
}

// ---- primitive impls ----------------------------------------------------

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Value {
                    Value::Int(*self as i128)
                }
                fn write_json(&self, out: &mut String) {
                    let _ = write!(out, "{self}");
                }
            }
            impl FromJson for $ty {
                fn from_json(v: &Value) -> Result<Self, JsonError> {
                    match v {
                        Value::Int(i) => int_in_range(*i),
                        other => Err(JsonError::new(format!(
                            "expected integer, got {}",
                            other.kind_name()
                        ))),
                    }
                }
                fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                    int_in_range(r.read_int()?)
                }
            }
        )+
    };
}

fn int_in_range<T: TryFrom<i128>>(i: i128) -> Result<T, JsonError> {
    T::try_from(i).map_err(|_| {
        JsonError::new(format!("integer {i} out of range for {}", std::any::type_name::<T>()))
    })
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {}", other.kind_name()))),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_bool()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
    /// Rust's shortest-round-trip `Display` for finite floats is valid
    /// JSON (it never emits exponents, always a leading digit). Non-finite
    /// values have no JSON representation and become `null`.
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Float(x) => Ok(*x),
            // "2" and "2.0" are the same JSON number; accept both.
            Value::Int(i) => Ok(*i as f64),
            // Non-finite floats serialize as null.
            Value::Null => Ok(f64::NAN),
            other => Err(JsonError::new(format!("expected number, got {}", other.kind_name()))),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_f64()
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(*self as f64)
    }
    fn write_json(&self, out: &mut String) {
        (*self as f64).write_json(out);
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        f64::from_json(v).map(|x| x as f32)
    }
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_f64().map(|x| x as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!("expected string, got {}", other.kind_name()))),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_str().map(Cow::into_owned)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items.iter().map(FromJson::from_json).collect(),
            other => Err(JsonError::new(format!("expected array, got {}", other.kind_name()))),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_array(T::read_json)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(x) => x.to_json(),
            None => Value::Null,
        }
    }
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        if r.read_null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::new(format!(
                "expected 2-element array, got {}",
                other.kind_name()
            ))),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) if items.len() == N => {
                let mut out = [T::default(); N];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = T::from_json(item)?;
                }
                Ok(out)
            }
            other => Err(JsonError::new(format!(
                "expected {N}-element array, got {}",
                other.kind_name()
            ))),
        }
    }
}

// ---- derive-free impl macros --------------------------------------------

/// Implement [`ToJson`]/[`FromJson`] for a struct with named public (or
/// crate-visible) fields. Fields serialize in the listed order; the reader
/// accepts them in any order, keeps the first of a duplicated key and
/// skips unknown keys.
///
/// ```
/// use elephants_json::{impl_json_struct, FromJson, ToJson};
/// struct P { x: u32, y: f64 }
/// impl_json_struct!(P { x, y });
/// let p = P { x: 1, y: 2.5 };
/// assert_eq!(p.to_json_string(), r#"{"x":1,"y":2.5}"#);
/// assert_eq!(P::from_json_str(&p.to_json_string()).unwrap().x, 1);
/// assert_eq!(P::from_json_str(r#"{"z":[],"y":0,"x":7,"x":8}"#).unwrap().x, 7);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $first:ident $(, $field:ident)* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    (stringify!($first).to_string(), $crate::ToJson::to_json(&self.$first)),
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)*
                ])
            }
            fn write_json(&self, out: &mut String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::ToJson::write_json(&self.$first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::ToJson::write_json(&self.$field, out);
                )*
                out.push('}');
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $first: $crate::FromJson::from_json(v.get_field(stringify!($first))?)?,
                    $($field: $crate::FromJson::from_json(v.get_field(stringify!($field))?)?,)*
                })
            }
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                let mut $first = None;
                $(let mut $field = None;)*
                r.read_object(|r, key| match key {
                    stringify!($first) => $crate::read_field(r, &mut $first),
                    $(stringify!($field) => $crate::read_field(r, &mut $field),)*
                    _ => r.skip_value(),
                })?;
                Ok(Self {
                    $first: $crate::required($first, stringify!($first))?,
                    $($field: $crate::required($field, stringify!($field))?,)*
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a fieldless enum, serialized as
/// the variant name string (matching what serde's derive produced).
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Str(match self {
                    $($ty::$variant => stringify!($variant),)+
                }.to_string())
            }
            fn write_json(&self, out: &mut String) {
                out.push_str(match self {
                    $($ty::$variant => concat!("\"", stringify!($variant), "\""),)+
                });
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                match v {
                    $crate::Value::Str(s) => match s.as_str() {
                        $(stringify!($variant) => Ok($ty::$variant),)+
                        other => Err($crate::JsonError::new(format!(
                            "unknown {} variant '{}'", stringify!($ty), other
                        ))),
                    },
                    other => Err($crate::JsonError::new(format!(
                        "expected string for {}, got {}", stringify!($ty), other.kind_name()
                    ))),
                }
            }
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                match &*r.read_str()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    other => Err($crate::JsonError::new(format!(
                        "unknown {} variant '{}'", stringify!($ty), other
                    ))),
                }
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a single-field tuple struct,
/// serialized transparently as its inner value.
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::ToJson::to_json(&self.0)
            }
            fn write_json(&self, out: &mut String) {
                $crate::ToJson::write_json(&self.0, out);
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                Ok($ty($crate::FromJson::from_json(v)?))
            }
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                Ok($ty($crate::FromJson::read_json(r)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        n: u64,
        rate: f64,
        label: String,
        tags: Vec<u32>,
        opt: Option<bool>,
    }
    impl_json_struct!(Demo { n, rate, label, tags, opt });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    impl_json_unit_enum!(Color { Red, Green });

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Wrapper(u64);
    impl_json_newtype!(Wrapper);

    fn demo() -> Demo {
        Demo {
            n: u64::MAX,
            rate: 0.1,
            label: "a \"b\"\nc".to_string(),
            tags: vec![1, 2, 3],
            opt: None,
        }
    }

    #[test]
    fn struct_round_trip() {
        let d = demo();
        let back = Demo::from_json_str(&d.to_json_string()).unwrap();
        assert_eq!(back, d);
        let back = Demo::from_json_str(&d.to_json_pretty()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn u64_max_survives_round_trip() {
        // The reason Value has a dedicated Int variant: f64 would lose this.
        assert_eq!(u64::from_json_str(&u64::MAX.to_json_string()).unwrap(), u64::MAX);
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(demo().to_json_pretty(), demo().to_json_pretty());
        assert_eq!(
            demo().to_json_string(),
            r#"{"n":18446744073709551615,"rate":0.1,"label":"a \"b\"\nc","tags":[1,2,3],"opt":null}"#
        );
    }

    #[test]
    fn pretty_format_is_indented() {
        let v = Value::Object(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::Array(vec![Value::Int(2)])),
        ]);
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }

    #[test]
    fn unit_enum_round_trip() {
        assert_eq!(Color::Red.to_json_string(), r#""Red""#);
        assert_eq!(Color::from_json_str(r#""Green""#).unwrap(), Color::Green);
        assert!(Color::from_json_str(r#""Blue""#).is_err());
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(Wrapper(7).to_json_string(), "7");
        assert_eq!(Wrapper::from_json_str("7").unwrap(), Wrapper(7));
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.0, -0.5, 1.0, 0.1, 1e-9, 775000.0, f64::MAX] {
            let s = x.to_json_string();
            assert_eq!(f64::from_json_str(&s).unwrap(), x, "via {s}");
        }
        // Whole floats print without a fraction and come back equal.
        assert_eq!(f64::from_json_str("1").unwrap(), 1.0);
        // Non-finite becomes null, which reads back as NaN.
        assert_eq!(f64::NAN.to_json_string(), "null");
        assert!(f64::from_json_str("null").unwrap().is_nan());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""a\u00e9b\ud83d\ude00c\/""#).unwrap();
        assert_eq!(v, Value::Str("aéb\u{1F600}c/".to_string()));
    }

    #[test]
    fn nested_containers_round_trip() {
        let pairs: [(u64, u64); 3] = [(1, 2), (3, 4), (0, 0)];
        let s = pairs.to_json_string();
        assert_eq!(<[(u64, u64); 3]>::from_json_str(&s).unwrap(), pairs);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_json_str("256").is_err());
        assert!(u64::from_json_str("-1").is_err());
        assert!(u64::from_json_str("1.5").is_err());
    }

    #[test]
    fn streaming_writer_matches_tree_writer() {
        let d = demo();
        assert_eq!(d.to_json_string(), d.to_json().to_string_compact());
        let odd = Demo { rate: f64::NAN, label: "\u{1}\u{7f}é\t\\".into(), opt: Some(true), ..demo() };
        assert_eq!(odd.to_json_string(), odd.to_json().to_string_compact());
        assert_eq!(Color::Green.to_json_string(), Color::Green.to_json().to_string_compact());
        assert_eq!(vec![Wrapper(1), Wrapper(2)].to_json_string(), "[1,2]");
    }

    #[test]
    fn struct_reader_tolerates_order_duplicates_and_unknown_keys() {
        let text = r#" { "opt" : true, "tags":[], "junk":{"x":[1,{"y":null}]}, "label":"l",
            "rate":1, "n":5, "n":"second copy is validated, not used", "label":"x" } "#;
        let d = Demo::from_json_str(text).unwrap();
        assert_eq!((d.n, d.rate, d.label.as_str(), d.opt), (5, 1.0, "l", Some(true)));
        assert_eq!(Demo::from_json(&parse(text).unwrap()).unwrap(), d);
        // Unknown and duplicate values must still be well-formed JSON.
        assert!(Demo::from_json_str(&text.replace("null", "nul")).is_err());
        let err = Demo::from_json_str(r#"{"n":1,"rate":1,"label":"","tags":[]}"#).unwrap_err();
        assert_eq!(err.to_string(), "json error: missing field 'opt'");
    }

    #[test]
    fn container_state_is_per_container() {
        // Each nested object and array tracks its own first-item state, so
        // a comma owed to the outer array is never consumed by an inner one.
        let rows = vec![demo(), Demo { tags: vec![], ..demo() }, demo()];
        let text = rows.to_json_string();
        assert_eq!(Vec::<Demo>::from_json_str(&text).unwrap(), rows);
        assert!(Vec::<Demo>::from_json_str(&text.replacen("},{", "}{", 1)).is_err());
        assert!(Vec::<Demo>::from_json_str(&text.replacen("]", ",]", 1)).is_err());
    }

    #[test]
    fn plain_strings_are_borrowed_from_the_input() {
        let mut r = Reader::new(r#"["plain","esc\"aped"]"#);
        let got = r.read_array(Reader::read_str).unwrap();
        r.finish().unwrap();
        assert!(matches!(got[0], Cow::Borrowed("plain")));
        assert!(matches!(&got[1], Cow::Owned(s) if s == "esc\"aped"));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |n: usize, open: &str, close: &str| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1, "[", "]")).is_err());
        for deep in [nest(100_000, "[", "]"), nest(100_000, "{\"a\":", "}")] {
            let err = parse(&deep).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
            assert!(Demo::from_json_str(&deep).is_err());
            assert!(Vec::<Vec<u8>>::from_json_str(&deep).is_err());
            assert!(Reader::new(&deep).skip_value().is_err());
        }
        // Skipped unknown keys are bounded too.
        let hidden = format!(r#"{{"junk":{}}}"#, nest(100_000, "[", "]"));
        assert!(Demo::from_json_str(&hidden).is_err());
    }
}
