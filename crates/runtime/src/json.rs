//! Minimal JSON emission for machine-readable reports.
//!
//! The workspace emits experiment artifacts — integrity reports,
//! campaign summaries, bench timings — that downstream tooling parses.
//! This module provides a tiny value tree ([`Json`]) plus a conversion
//! trait ([`ToJson`]), with an emitter that is correct where it matters:
//!
//! - **String escaping** covers `"`,`\`, and every control character
//!   below `U+0020` (short escapes for `\n \r \t \b \f`, `\u00XX`
//!   otherwise).
//! - **`f64` formatting** uses Rust's shortest round-trip `Display`, so
//!   `parse::<f64>()` of the emitted text recovers the exact bits;
//!   non-finite values (which JSON cannot represent) emit as `null`.
//! - **Object key order** is insertion order — reports serialise
//!   identically run to run, so artifacts can be diffed byte-for-byte.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (emitted without a decimal point).
    Int(i64),
    /// An unsigned integer — kept separate so `u64` counters above
    /// `i64::MAX` (e.g. TCK totals) survive exactly.
    UInt(u64),
    /// A double-precision number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything convertible.
    #[must_use]
    pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Appends a key/value pair (no-op on non-objects).
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        if let Json::Object(pairs) = self {
            pairs.push((key.into(), value));
        }
    }

    /// Renders compact JSON (no insignificant whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with 2-space indentation, for human-facing artifacts.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }
}

/// Shared array/object layout: compact, or one element per line.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut elem: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        elem(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Emits `x` so that parsing the text recovers the exact value; JSON
/// has no NaN/Infinity, so those become `null`.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's f64 Display is the shortest string that round-trips.
        let _ = write!(out, "{x}");
        // `{}` prints integral floats without a dot ("1"); that is a
        // valid JSON number, so leave it — parsers read it as 1.0.
    } else {
        out.push_str("null");
    }
}

/// Emits `s` as a quoted, escaped JSON string.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Json::parse`]: where the input stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What was wrong at that offset.
    pub message: String,
    /// The repeated key, when the fault is an object naming one key
    /// twice — well-formed text that no loader can read unambiguously.
    pub duplicate_key: Option<String>,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses JSON text back into a value tree.
    ///
    /// This is the read side of [`Json::render`]: campaign checkpoints
    /// written by one process are reloaded by the next. Numbers without
    /// a fraction or exponent come back as [`Json::Int`]/[`Json::UInt`]
    /// (so `u64` seeds and trial indices survive exactly); everything
    /// else becomes [`Json::Num`].
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with the byte offset of the first malformed
    /// construct (truncated input, bad escape, a key repeated within
    /// one object, trailing garbage, or nesting deeper than 128
    /// levels).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the top-level value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other variants).
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload (`None` for other variants).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload (`None` for other variants).
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen; `Num` passes through).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }
}

/// Maximum nesting depth [`Json::parse`] accepts (guards the stack).
const MAX_PARSE_DEPTH: usize = 128;

/// Recursive-descent parser state over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.to_string(), duplicate_key: None }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, literal: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{literal}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_literal("null").map(|()| Json::Null),
            Some(b't') => self.expect_literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key_at = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                self.pos = key_at;
                let message = format!("duplicate key {key:?}");
                return Err(JsonParseError { duplicate_key: Some(key), ..self.err(&message) });
            }
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Object(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the maximal escape-free, quote-free run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run stops at ASCII
                // delimiters, so the slice is valid UTF-8 too.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                    self.err("invalid UTF-8 inside string")
                })?);
            }
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character inside string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonParseError> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'u' => {
                let high = self.hex4()?;
                if (0xD800..0xDC00).contains(&high) {
                    // UTF-16 surrogate pair: require the low half.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.err("lone high surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(high).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("unknown escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // `start..pos` is ASCII by construction.
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        if integral {
            if let Some(rest) = token.strip_prefix('-') {
                // Emitted negatives always fit i64; widen via the
                // magnitude to keep i64::MIN parseable too.
                if rest.parse::<u64>().is_ok() {
                    if let Ok(i) = token.parse::<i64>() {
                        return Ok(Json::Int(i));
                    }
                }
            } else if let Ok(u) = token.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => {
                self.pos = start;
                Err(self.err("malformed number"))
            }
        }
    }
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! int_to_json {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::$variant(*self as $conv)
            }
        }
    )*};
}

int_to_json!(
    i8 => Int as i64, i16 => Int as i64, i32 => Int as i64, i64 => Int as i64,
    isize => Int as i64,
    u8 => UInt as u64, u16 => UInt as u64, u32 => UInt as u64, u64 => UInt as u64,
    usize => UInt as u64,
);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(true.to_json().render(), "true");
        assert_eq!(42i64.to_json().render(), "42");
        assert_eq!((-3i32).to_json().render(), "-3");
        assert_eq!(u64::MAX.to_json().render(), "18446744073709551615");
        assert_eq!(1.5f64.to_json().render(), "1.5");
        assert_eq!("hi".to_json().render(), "\"hi\"");
    }

    #[test]
    fn containers_render_in_order() {
        let j = Json::obj([
            ("b", Json::Int(1)),
            ("a", Json::arr([1u32, 2, 3])),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(j.render(), r#"{"b":1,"a":[1,2,3],"empty":[]}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let j = Json::obj([("x", Json::arr([1u8]))]);
        assert_eq!(j.render_pretty(), "{\n  \"x\": [\n    1\n  ]\n}");
    }

    #[test]
    fn escaping_covers_specials_and_controls() {
        let s = "a\"b\\c\nd\te\rf\u{8}g\u{c}h\u{1}i";
        assert_eq!(
            s.to_json().render(),
            r#""a\"b\\c\nd\te\rf\bg\fh\u0001i""#
        );
    }

    #[test]
    fn repeated_keys_are_refused_at_the_repeat() {
        let e = Json::parse(r#"{"a":1,"b":{"c":2,"c":3}}"#).unwrap_err();
        assert_eq!(e.duplicate_key.as_deref(), Some("c"));
        assert_eq!(e.offset, 18, "{e}");
        assert!(e.message.contains(r#"duplicate key "c""#), "{e}");
        let e = Json::parse("[1,").unwrap_err();
        assert_eq!(e.duplicate_key, None);
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok(), "keys repeat only within one object");
    }

    #[test]
    fn f64_round_trips() {
        for x in [0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, f64::MAX, -0.0, 2e-12] {
            let rendered = x.to_json().render();
            let back: f64 = rendered.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {rendered}");
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(f64::NAN.to_json().render(), "null");
        assert_eq!(f64::INFINITY.to_json().render(), "null");
        assert_eq!(f64::NEG_INFINITY.to_json().render(), "null");
    }

    #[test]
    fn parse_round_trips_rendered_trees() {
        let j = Json::obj([
            ("seed", Json::UInt(u64::MAX)),
            ("delta", Json::Int(-42)),
            ("rate", Json::Num(1.0 / 3.0)),
            ("label", Json::Str("a\"b\\c\nd\u{1}é".to_string())),
            ("flags", Json::arr([true, false])),
            ("nothing", Json::Null),
            ("nested", Json::obj([("empty", Json::Array(vec![]))])),
        ]);
        for text in [j.render(), j.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), j, "{text}");
        }
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(Json::parse("7").unwrap(), Json::UInt(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("2e-12").unwrap(), Json::Num(2e-12));
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(Json::parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("Aé".to_string()));
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "tru", "[1,", "{\"a\":}", "{\"a\" 1}", "[1] x", "\"unterminated",
            "nan", "1.2.3", "--4", "{\"a\":\"\\q\"}", "\"\\ud800\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad}: {err}");
        }
    }

    #[test]
    fn accessors_pick_fields() {
        let j = Json::parse(r#"{"n":3,"s":"hi","b":true,"a":[1,2],"x":1.5}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert_eq!(j.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn option_and_push() {
        assert_eq!(None::<u8>.to_json().render(), "null");
        assert_eq!(Some(3u8).to_json().render(), "3");
        let mut o = Json::obj::<&str>([]);
        o.push("k", Json::Bool(false));
        assert_eq!(o.render(), r#"{"k":false}"#);
    }
}
