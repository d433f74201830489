//! Minimal JSON tree, parser, and writer.
//!
//! The build environment has no registry access, so the wire format is implemented here
//! rather than pulled in via `serde_json`: a recursive-descent parser over bytes and a
//! writer that escapes control characters. The subset is full JSON minus one liberty the
//! protocol never needs — numbers are kept as `f64` (every count, ε, and id the protocol
//! carries fits exactly or is a float to begin with).
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map): responses stay stable
//! for golden tests, and the handful of keys per message makes linear lookup cheaper than
//! hashing anyway.
//!
//! The number and string rules live in one place (`push_number`, `push_count`,
//! `push_string`): the tree's `Display` and the streaming `ObjectWriter` behind
//! `Response::encode` both append through them, so the two cannot drift.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_whitespace();
        let value = p.parse_value()?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks a key up in an object (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        push_json(&mut out, self);
        f.write_str(&out)
    }
}

/// Appends `value`'s compact encoding: the tree form of the rules below.
fn push_json(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(x) => push_number(out, *x),
        Json::String(s) => push_string(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json(out, item);
            }
            out.push(']');
        }
        Json::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_string(out, k);
                out.push(':');
                push_json(out, v);
            }
            out.push('}');
        }
    }
}

/// Appends a number. Integral values below 1e15 in magnitude print as integers;
/// anything else prints in Rust's shortest round-trip form. JSON has no Infinity/NaN
/// literals, so those print as `null` and the writer never produces output the parser
/// rejects.
pub(crate) fn push_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        let i = x as i64;
        if i < 0 {
            out.push('-');
        }
        push_digits(out, i.unsigned_abs());
    } else {
        use fmt::Write;
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{x}");
    }
}

/// Appends a count. It travels as a JSON number, so it reads exactly as
/// [`push_number`]`(n as f64)` — which, below 1e15, is just its decimal digits.
pub(crate) fn push_count(out: &mut String, n: u64) {
    if n < 1_000_000_000_000_000 {
        push_digits(out, n);
    } else {
        push_number(out, n as f64);
    }
}

fn push_digits(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// Appends a quoted string. `"`, `\\` and the control characters are escaped (`\n`,
/// `\r`, `\t` by name, the rest as `\u00XX`); everything else, non-ASCII text
/// included, is copied as is. A string with nothing to escape goes out in one
/// `push_str`.
pub(crate) fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..at]);
        if escape.is_empty() {
            use fmt::Write;
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        clean = at + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Streams one JSON object into a `String` with the same number and string rules as
/// the tree's `Display`: the writer behind `Response::encode`, which builds no tree and
/// no per-field key `String`.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes `"key":` and hands back the buffer for the value.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        push_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub(crate) fn string(&mut self, key: &str, value: &str) {
        push_string(self.key(key), value);
    }

    /// A number field.
    pub(crate) fn number(&mut self, key: &str, value: f64) {
        push_number(self.key(key), value);
    }

    /// A count field (a number, see [`push_count`]).
    pub(crate) fn count(&mut self, key: &str, value: u64) {
        push_count(self.key(key), value);
    }

    /// A bool field.
    pub(crate) fn bool(&mut self, key: &str, value: bool) {
        self.key(key).push_str(if value { "true" } else { "false" });
    }

    /// Closes the object.
    pub(crate) fn finish(self) {
        self.out.push('}');
    }
}

/// Appends `[e₀,e₁,…]`, each element written by `push`.
pub(crate) fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// Appends `[c₀,c₁,…]`, each element a count.
pub(crate) fn push_counts(out: &mut String, counts: impl IntoIterator<Item = u64>) {
    push_array(out, counts, push_count);
}

/// Maximum container nesting. The parser recurses per level, so without a cap a remote
/// line of a few hundred thousand `[`s would overflow the worker stack and abort the
/// whole process (stack overflow is not a catchable panic). The protocol nests 3 deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("too deeply nested"));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.error(&format!("unexpected character `{}`", c as char))),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scanned range is ASCII digits/signs, so this cannot fail — but a
        // parse error beats a panicked worker if that invariant ever breaks.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid bytes in number"))?;
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Json::Number)
            .ok_or_else(|| self.error(&format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            self.pos += 1;
                            let first = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: a second \uXXXX in the low-surrogate
                                // range must follow. The range check matters — an
                                // arbitrary second escape would overflow the combining
                                // arithmetic (remote input reaches this parser).
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.parse_hex4()?;
                                    if (0xDC00..0xE000).contains(&second) {
                                        char::from_u32(
                                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid \\u escape sequence"))?);
                            // parse_hex4 leaves pos past the digits; compensate for the
                            // +1 below that the single-character escapes expect.
                            self.pos -= 1;
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input arrived as &str so the tail
                    // is always valid UTF-8 and non-empty here, but a parse error beats
                    // a panicked worker if either invariant ever breaks.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    let Some(c) = rest.chars().next() else {
                        return Err(self.error("unterminated string"));
                    };
                    if (c as u32) < 0x20 {
                        return Err(self.error("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let value = u32::from_str_radix(digits, 16)
            .map_err(|_| self.error("non-hex digits in \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Json {
        let v = Json::parse(text).unwrap();
        let printed = v.to_string();
        assert_eq!(Json::parse(&printed).unwrap(), v, "roundtrip of {text}");
        v
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(roundtrip("null"), Json::Null);
        assert_eq!(roundtrip("true"), Json::Bool(true));
        assert_eq!(roundtrip("false"), Json::Bool(false));
        assert_eq!(roundtrip("42"), Json::Number(42.0));
        assert_eq!(roundtrip("-3.5e2"), Json::Number(-350.0));
        assert_eq!(roundtrip("\"hi\""), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = roundtrip(r#" {"op":"query","k":10,"eps":0.5,"tags":[1,2,3],"deep":{"a":null}} "#);
        assert_eq!(v.get("op").unwrap().as_str(), Some("query"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(10));
        assert_eq!(v.get("eps").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("tags").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("deep").unwrap().get("a"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn handles_escapes_and_unicode() {
        let v = roundtrip(r#""line\nquote\"backslash\\tab\tslash\/""#);
        assert_eq!(v.as_str(), Some("line\nquote\"backslash\\tab\tslash/"));
        let v = Json::parse(r#""\u00e9\u20ac""#).unwrap();
        assert_eq!(v.as_str(), Some("é€"));
        // Surrogate pair: U+1F600.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Non-ASCII survives the writer.
        assert_eq!(roundtrip("\"héllo wörld\"").as_str(), Some("héllo wörld"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "[,]",
            "\"\\q\"",
            "nan",
            "\"\\ud800\"",
            // High surrogate followed by a non-low-surrogate escape: must be a clean
            // parse error, not an arithmetic overflow (this is remote client input).
            "\"\\ud800\\ud801\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\\udc00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // The parser recurses per nesting level; a hostile line of hundreds of
        // thousands of brackets must fail cleanly instead of aborting the process.
        let deep = "[".repeat(200_000);
        assert!(Json::parse(&deep).is_err());
        let deep_objects = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&deep_objects).is_err());
        // Reasonable nesting still parses (protocol uses 3 levels).
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn writer_emits_compact_stable_output() {
        let v = Json::Object(vec![
            ("status".into(), Json::String("ok".into())),
            ("count".into(), Json::Number(12.0)),
            ("frac".into(), Json::Number(0.25)),
            ("inf".into(), Json::Number(f64::INFINITY)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"status":"ok","count":12,"frac":0.25,"inf":null}"#
        );
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Number(3.5).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Number(0.0).as_u64(), Some(0));
        assert_eq!(Json::String("7".into()).as_u64(), None);
    }
}
