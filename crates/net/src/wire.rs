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

use std::collections::BTreeMap;
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

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys sorted (duplicates: last wins).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `bytes` as a single JSON document (UTF-8, no trailing
    /// garbage).
    ///
    /// # Errors
    /// [`WireError`] on malformed input or nesting deeper than the
    /// depth cap (16 levels).
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::Invalid("not UTF-8"))?;
        let mut p = Parser { chars: text.char_indices().peekable(), text };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.chars.next().is_some() {
            return Err(WireError::Invalid("trailing data after document"));
        }
        Ok(value)
    }

    /// Member `key` of an object (`None` for other variants or a
    /// missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(map) => map.get(key),
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
            Self::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, ' ' | '\t' | '\n' | '\r'))) {
            self.chars.next();
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.chars.peek().copied() {
            None => Err(WireError::Invalid("unexpected end of input")),
            Some((_, '{')) => self.object(depth),
            Some((_, '[')) => self.array(depth),
            Some((_, '"')) => self.string().map(Json::Str),
            Some((_, 't')) => self.literal("true", Json::Bool(true)),
            Some((_, 'f')) => self.literal("false", Json::Bool(false)),
            Some((_, 'n')) => self.literal("null", Json::Null),
            Some((start, c)) if c == '-' || c.is_ascii_digit() => self.number(start),
            Some(_) => Err(WireError::Invalid("unexpected character")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, WireError> {
        for expected in word.chars() {
            match self.chars.next() {
                Some((_, c)) if c == expected => {}
                _ => return Err(WireError::Invalid("bad literal")),
            }
        }
        Ok(value)
    }

    fn number(&mut self, start: usize) -> Result<Json, WireError> {
        let mut end = start;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        let n: f64 = self.text[start..end].parse().map_err(|_| WireError::Invalid("bad number"))?;
        if !n.is_finite() {
            return Err(WireError::Invalid("non-finite number"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.chars.next(); // opening quote
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err(WireError::Invalid("unterminated string")),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, c) = self
                                .chars
                                .next()
                                .ok_or(WireError::Invalid("truncated \\u escape"))?;
                            let digit =
                                c.to_digit(16).ok_or(WireError::Invalid("bad \\u escape digit"))?;
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
                Some((_, c)) if (c as u32) < 0x20 => {
                    return Err(WireError::Invalid("raw control character in string"))
                }
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.chars.next(); // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, '}'))) {
            self.chars.next();
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if !matches!(self.chars.peek(), Some((_, '"'))) {
                return Err(WireError::Invalid("object key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            match self.chars.next() {
                Some((_, ':')) => {}
                _ => return Err(WireError::Invalid("missing ':' in object")),
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, '}')) => return Ok(Json::Obj(map)),
                _ => return Err(WireError::Invalid("missing ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        self.chars.next(); // '['
        let mut items = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, ']'))) {
            self.chars.next();
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, ']')) => return Ok(Json::Arr(items)),
                _ => return Err(WireError::Invalid("missing ',' or ']' in array")),
            }
        }
    }
}

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
        Self { out: String::from("{"), any: false }
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
        assert_eq!(v.get("auto").and_then(Json::as_bool), Some(true));
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
