//! Minimal JSON wire format: a recursive-descent parser for request
//! bodies and string-building helpers for responses.
//!
//! The control plane's payloads are tiny, flat objects (`{"name":
//! "node-a", "rate": 4.0}`), so a full JSON library would be the only
//! external dependency in the crate for no benefit. This parser covers
//! the complete JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null) with a recursion-depth cap, and the
//! encoder side reuses the shared [`gtlb_telemetry::json_escape`]
//! helper so hostile strings round-trip safely in both directions.
//!
//! A parsed [`Json`] borrows from the bytes it was parsed from: a
//! string without escapes, key or value, is a slice of the document,
//! and only a string with an escape is decoded into an owned `String`.
//! An object keeps its members in document order in one `Vec`, so a
//! request body parses with one allocation per object and array.

use std::borrow::Cow;
use std::fmt::Write as _;

use gtlb_telemetry::json_escape_into;

/// Maximum nesting depth accepted by [`Json::parse`]; deeper input is
/// a [`WireError::TooDeep`], not a stack overflow.
const MAX_DEPTH: usize = 16;

/// Why a body failed to parse as JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input is not valid JSON (with a short human-readable cause).
    Invalid(&'static str),
    /// Nesting exceeds the depth cap (16 levels).
    TooDeep,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(why) => write!(f, "invalid JSON: {why}"),
            Self::TooDeep => f.write_str("invalid JSON: nesting too deep"),
        }
    }
}

/// A parsed JSON value, borrowing its unescaped strings from the
/// document (`'a`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string: borrowed from the document when it has no escape,
    /// decoded into an owned `String` when it has one.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object's members in document order, duplicates included;
    /// [`Json::get`] resolves a duplicate key to its last member.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Parses `bytes` as a single JSON document (UTF-8, no trailing
    /// garbage).
    ///
    /// # Errors
    /// [`WireError`] on malformed input or nesting deeper than the
    /// depth cap (16 levels).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::Invalid("not UTF-8"))?;
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < text.len() {
            return Err(WireError::Invalid("trailing data after document"));
        }
        Ok(value)
    }

    /// Member `key` of an object — the last one when the key repeats
    /// (`None` for other variants or a missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Self::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json<'a>]> {
        match self {
            Self::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// A cursor over the document's bytes. It slices `text` only at ASCII
/// bytes and at the end, which are always char boundaries; any other
/// byte is either inside a string run or ends the parse with an error.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.peek() {
            None => Err(WireError::Invalid("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(WireError::Invalid("unexpected character")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Json<'a>) -> Result<Json<'a>, WireError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(WireError::Invalid("bad literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Json<'a>, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let n: f64 =
            self.text[start..self.pos].parse().map_err(|_| WireError::Invalid("bad number"))?;
        if !n.is_finite() {
            return Err(WireError::Invalid("non-finite number"));
        }
        Ok(Json::Num(n))
    }

    /// The run of string bytes from the cursor up to the next quote,
    /// backslash or control byte (or the end), which it stops at.
    fn run(&mut self) -> &'a str {
        let text: &'a str = self.text;
        let rest = &text.as_bytes()[self.pos..];
        let len = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
        let start = self.pos;
        self.pos += len.unwrap_or(rest.len());
        &text[start..self.pos]
    }

    /// A string: the slice of the document between its quotes when it
    /// has no escape, otherwise the decoded text.
    fn string(&mut self) -> Result<Cow<'a, str>, WireError> {
        self.pos += 1; // opening quote
        let first = self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(first));
        }
        let mut out = String::from(first);
        loop {
            match self.bump() {
                None => return Err(WireError::Invalid("unterminated string")),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let b =
                                self.bump().ok_or(WireError::Invalid("truncated \\u escape"))?;
                            let digit = char::from(b)
                                .to_digit(16)
                                .ok_or(WireError::Invalid("bad \\u escape digit"))?;
                            code = code * 16 + digit;
                        }
                        // Surrogates are rejected rather than paired —
                        // control-plane payloads are plain identifiers.
                        let c = char::from_u32(code)
                            .ok_or(WireError::Invalid("\\u escape is a surrogate"))?;
                        out.push(c);
                    }
                    _ => return Err(WireError::Invalid("bad escape")),
                },
                Some(_) => return Err(WireError::Invalid("raw control character in string")),
            }
            out.push_str(self.run());
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, WireError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(WireError::Invalid("object key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(WireError::Invalid("missing ':' in object"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(members)),
                _ => return Err(WireError::Invalid("missing ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, WireError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(WireError::Invalid("missing ',' or ']' in array")),
            }
        }
    }
}

/// Bytes [`ObjBuilder::new`] reserves: room for any one-object
/// control-plane reply (register, heartbeat, metrics, error), so it is
/// built in a single allocation.
const REPLY_CAPACITY: usize = 128;

/// Incremental JSON object builder for responses: appends
/// `"key": value` pairs with proper escaping and comma placement.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    out: String,
    any: bool,
}

impl ObjBuilder {
    /// An empty object builder.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(REPLY_CAPACITY)
    }

    /// An empty object builder whose buffer has room for `capacity`
    /// bytes, for a large document rendered in one piece.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        out.push('{');
        Self { out, any: false }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        self.out.push('"');
        json_escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }

    /// Appends a string member (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        json_escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Appends a numeric member; non-finite values encode as `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Appends an integer member.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Appends a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a pre-rendered JSON fragment (e.g. a nested array).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// Appends an array member holding one object per item; `fill`
    /// writes each object's members straight into this builder's
    /// buffer, so no element is rendered into a string of its own.
    pub fn obj_array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut ObjBuilder, T),
    ) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let mut element = ObjBuilder { out: std::mem::take(&mut self.out), any: false };
            element.out.push('{');
            fill(&mut element, item);
            self.out = element.finish();
        }
        self.out.push(']');
        self
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_register_payload() {
        let v = Json::parse(br#"{"name": "node-a", "rate": 4.5, "auto": true}"#).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("node-a"));
        assert_eq!(v.get("rate").and_then(Json::as_f64), Some(4.5));
        assert_eq!(v.get("auto"), Some(&Json::Bool(true)));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_arrays_and_escapes() {
        let v = Json::parse(br#"{"samples": [0.25, 1e-3, 3], "note": "a\"b\n\u0041"}"#).unwrap();
        let samples: Vec<f64> =
            v.get("samples").unwrap().as_array().unwrap().iter().filter_map(Json::as_f64).collect();
        assert_eq!(samples, vec![0.25, 0.001, 3.0]);
        assert_eq!(v.get("note").and_then(Json::as_str), Some("a\"b\nA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"{\"a\": }",
            b"{\"a\": 1,}",
            b"[1 2]",
            b"\"unterminated",
            b"{\"a\": 1} trailing",
            b"nul",
            b"{\"n\": 1e999}",
            b"{\"s\": \"\\q\"}",
            b"\xff\xfe",
            b"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_over_deep_nesting() {
        let mut doc = String::new();
        for _ in 0..64 {
            doc.push('[');
        }
        for _ in 0..64 {
            doc.push(']');
        }
        assert_eq!(Json::parse(doc.as_bytes()), Err(WireError::TooDeep));
    }

    #[test]
    fn builder_escapes_and_separates() {
        let mut b = ObjBuilder::new();
        b.str("na\"me", "line\nbreak").num("rate", 2.5).int("count", 7).bool("ok", true);
        b.num("bad", f64::NAN).raw("rows", "[1,2]");
        b.obj_array("objs", [1u64, 2], |o, v| {
            o.int("v", v);
        });
        b.obj_array("none", std::iter::empty::<u64>(), |_, _| {});
        let text = b.finish();
        assert_eq!(
            text,
            "{\"na\\\"me\":\"line\\nbreak\",\"rate\":2.5,\"count\":7,\"ok\":true,\"bad\":null,\"rows\":[1,2],\"objs\":[{\"v\":1},{\"v\":2}],\"none\":[]}"
        );
        // And the output re-parses.
        assert!(Json::parse(text.as_bytes()).is_ok());
    }
}
