//! Property tests for the JSON wire format: whatever the encoder
//! escapes decodes back to the same string, strings without escapes are
//! borrowed from the document and strings with them decode as the
//! reference decoder decodes them, a repeated key resolves to its last
//! member, finite numbers round-trip bit for bit (and the shared number
//! format, on its own and through `ObjBuilder::num`, writes each in at
//! most 24 characters after the sign), the depth cap sits exactly at 16
//! levels, and arbitrary bytes give a value or a typed error — never a
//! panic.

use std::borrow::Cow;
use std::collections::BTreeMap;

use gtlb_net::wire::{Json, ObjBuilder, WireError};
use gtlb_telemetry::{json_escape, Number};
use proptest::prelude::*;

/// The string decoder as it was when every string was copied into an
/// owned `String`: the oracle for what a string token decodes to.
/// `rest` starts just after the opening quote; returns the text up to
/// the closing quote, or the error.
fn reference_string(rest: &str) -> Result<String, WireError> {
    let bytes = rest.as_bytes();
    let mut pos = 0;
    let mut bump = || {
        let b = bytes.get(pos).copied();
        pos += usize::from(b.is_some());
        b
    };
    let mut out = Vec::new();
    loop {
        match bump() {
            None => return Err(WireError::Invalid("unterminated string")),
            Some(b'"') => return Ok(String::from_utf8(out).expect("UTF-8 in, UTF-8 out")),
            Some(b'\\') => match bump() {
                Some(b'"') => out.push(b'"'),
                Some(b'\\') => out.push(b'\\'),
                Some(b'/') => out.push(b'/'),
                Some(b'n') => out.push(b'\n'),
                Some(b't') => out.push(b'\t'),
                Some(b'r') => out.push(b'\r'),
                Some(b'b') => out.push(8),
                Some(b'f') => out.push(12),
                Some(b'u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let b = bump().ok_or(WireError::Invalid("truncated \\u escape"))?;
                        let digit = char::from(b)
                            .to_digit(16)
                            .ok_or(WireError::Invalid("bad \\u escape digit"))?;
                        code = code * 16 + digit;
                    }
                    let c = char::from_u32(code)
                        .ok_or(WireError::Invalid("\\u escape is a surrogate"))?;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => return Err(WireError::Invalid("bad escape")),
            },
            Some(b) if b < 0x20 => {
                return Err(WireError::Invalid("raw control character in string"))
            }
            Some(b) => out.push(b),
        }
    }
}

/// Pieces of a string token's body: plain text (ASCII and multi-byte),
/// every escape, and broken escapes and raw control characters.
const STRING_ATOMS: &[&str] = &[
    "node-a",
    "\u{e9}t\u{e9}",
    "\u{1f600}",
    " ",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\t",
    "\\r",
    "\\b",
    "\\f",
    "\\u0041",
    "\\u00e9",
    "\\u20AC",
    "\\uD800",
    "\\u12",
    "\\uZZZZ",
    "\\q",
    "\\",
    "\u{1}",
    "\t",
    "\"",
];

/// A string token's body (after the opening quote) built from
/// [`STRING_ATOMS`], closed by a quote unless `open`.
fn gen_token() -> impl Strategy<Value = String> {
    let atoms = prop::collection::vec((0..STRING_ATOMS.len()).prop_map(|i| STRING_ATOMS[i]), 0..6);
    (atoms, 0u32..8).prop_map(|(atoms, open)| {
        let mut token = atoms.concat();
        if open != 0 {
            token.push('"');
        }
        token
    })
}

/// Strings with no quote, backslash or control character: JSON string
/// bodies that need no escape.
fn gen_plain() -> impl Strategy<Value = String> {
    gen_string().prop_map(|s| s.chars().filter(|&c| c != '"' && c != '\\' && c >= ' ').collect())
}

/// Strings of code points drawn from the whole `0..0x11_0000` range,
/// weighted so that control characters, quotes, backslashes and 2–4
/// byte UTF-8 all turn up (surrogates are skipped).
fn gen_string() -> impl Strategy<Value = String> {
    let code_point = prop_oneof![0u32..0x20, 0x20u32..0x80, 0x80u32..0x800, 0u32..0x11_0000];
    prop::collection::vec(code_point, 0..40)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// Bytes from JSON's own alphabet half the time, so the parser gets
/// past its first token more often than uniform bytes would let it.
fn gen_byte() -> impl Strategy<Value = u8> {
    const ALPHABET: &[u8] = b"{}[]:,\"\\ntrufalse0123456789.eE+-u \t\r\n";
    prop_oneof![
        (0u32..256).prop_map(|b| b as u8),
        (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
    ]
}

/// `depth` containers, a mix of arrays and objects chosen by the bits
/// of `shape`, around the scalar `1`.
fn nested(depth: usize, shape: u64) -> String {
    let (mut open, mut close) = (String::new(), String::new());
    for level in 0..depth {
        if shape >> (level % 64) & 1 == 1 {
            open.push_str("{\"k\":");
            close.insert(0, '}');
        } else {
            open.push('[');
            close.insert(0, ']');
        }
    }
    format!("{open}1{close}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An escaped string inside a document decodes to the original.
    #[test]
    fn escaped_strings_decode_to_the_original(s in gen_string()) {
        let doc = format!("{{\"k\":\"{}\"}}", json_escape(&s));
        let parsed = Json::parse(doc.as_bytes());
        prop_assert_eq!(parsed.as_ref().ok().and_then(|v| v.get("k")).and_then(Json::as_str), Some(s.as_str()), "document {:?}", doc);
    }

    /// Any finite `f64`, written with `{}`, parses back bit-identically.
    #[test]
    fn finite_numbers_round_trip_bit_for_bit(bits in 0u64..u64::MAX) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let doc = format!("[{x}]");
        let parsed = Json::parse(doc.as_bytes()).unwrap();
        let back = parsed.as_array().and_then(|items| items[0].as_f64()).unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits(), "{} came back as {}", x, back);

        // The exposition format: the same bits back, in at most 24
        // characters after the sign, also through `ObjBuilder::num`.
        let text = Number(x).to_string();
        prop_assert!(text.trim_start_matches('-').len() <= 24, "{:?} printed as {}", x, text);
        let doc = format!("[{text}]");
        let parsed = Json::parse(doc.as_bytes()).unwrap();
        let back = parsed.as_array().and_then(|items| items[0].as_f64()).unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits(), "{} came back as {}", text, back);
        let mut b = ObjBuilder::new();
        b.num("x", x);
        let obj = b.finish();
        prop_assert_eq!(&obj, &format!("{{\"x\":{text}}}"));
        let back = Json::parse(obj.as_bytes()).unwrap().get("x").and_then(Json::as_f64).unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits(), "{} came back as {}", obj, back);
    }

    /// Sixteen levels of any mix of arrays and objects parse; the
    /// seventeenth is `TooDeep`.
    #[test]
    fn depth_sixteen_parses_and_seventeen_is_too_deep(shape in 0u64..u64::MAX) {
        prop_assert!(Json::parse(nested(16, shape).as_bytes()).is_ok());
        let too_deep = nested(17, shape);
        prop_assert_eq!(Json::parse(too_deep.as_bytes()), Err(WireError::TooDeep));
    }

    /// A string with no escape, as a key or a value, comes back as a
    /// slice of the document.
    #[test]
    fn unescaped_strings_are_borrowed(key in gen_plain(), value in gen_plain()) {
        let doc = format!("{{\"{key}\": \"{value}\"}}");
        let parsed = Json::parse(doc.as_bytes()).unwrap();
        let Json::Obj(members) = &parsed else { panic!("{doc} is an object") };
        prop_assert_eq!(members.len(), 1);
        let (k, v) = &members[0];
        prop_assert!(matches!(k, Cow::Borrowed(k) if *k == key), "key {:?}", k);
        prop_assert!(matches!(v, Json::Str(Cow::Borrowed(v)) if *v == value), "value {:?}", v);
    }

    /// Any string token, escapes and broken escapes included, decodes
    /// as the reference decoder decodes it, or fails where it fails;
    /// only a token with an escape is decoded into an owned string.
    #[test]
    fn strings_decode_as_the_reference_decodes_them(token in gen_token()) {
        let doc = format!("[\"{token}]");
        let want = reference_string(&doc[2..]);
        match Json::parse(doc.as_bytes()) {
            Ok(parsed) => {
                let items = parsed.as_array().unwrap();
                let Json::Str(got) = &items[0] else { panic!("{doc} holds a string") };
                prop_assert_eq!(Ok(got.to_string()), want);
                let escaped = token.contains('\\');
                prop_assert_eq!(matches!(got, Cow::Owned(_)), escaped, "{:?}", got);
            }
            // A token with a quote inside ends there, and what follows
            // it cannot continue the array.
            Err(e) => match want {
                Err(want) => prop_assert_eq!(e, want),
                Ok(_) => prop_assert_eq!(e, WireError::Invalid("missing ',' or ']' in array")),
            },
        }
    }

    /// A key that repeats resolves to its last member, whatever the
    /// order, and every member stays in document order.
    #[test]
    fn repeated_keys_resolve_to_the_last_member(
        members in prop::collection::vec((0usize..4, 0u32..1000), 0..12),
    ) {
        const KEYS: [&str; 4] = ["name", "rate", "a\\u0062", "ab"];
        let body: Vec<String> =
            members.iter().map(|&(k, v)| format!("\"{}\":{v}", KEYS[k])).collect();
        let doc = format!("{{{}}}", body.join(","));
        let parsed = Json::parse(doc.as_bytes()).unwrap();
        let mut model = BTreeMap::new();
        for &(k, v) in &members {
            model.insert(KEYS[k].replace("\\u0062", "b"), f64::from(v));
        }
        for key in ["name", "rate", "ab", "a\\u0062", "missing"] {
            prop_assert_eq!(parsed.get(key).and_then(Json::as_f64), model.get(key).copied(), "key {}", key);
        }
        let Json::Obj(parsed_members) = &parsed else { panic!("{doc} is an object") };
        prop_assert_eq!(parsed_members.len(), members.len());
    }

    /// Arbitrary bytes give a value or a typed error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(gen_byte(), 0..64)) {
        let _ = Json::parse(&bytes);
    }
}
