//! Property tests for the JSON wire format: whatever the encoder
//! escapes decodes back to the same string, finite numbers round-trip
//! bit for bit, the depth cap sits exactly at 16 levels, and arbitrary
//! bytes give a value or a typed error — never a panic.

use gtlb_net::wire::{Json, WireError};
use gtlb_telemetry::json_escape;
use proptest::prelude::*;

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
    }

    /// Sixteen levels of any mix of arrays and objects parse; the
    /// seventeenth is `TooDeep`.
    #[test]
    fn depth_sixteen_parses_and_seventeen_is_too_deep(shape in 0u64..u64::MAX) {
        prop_assert!(Json::parse(nested(16, shape).as_bytes()).is_ok());
        prop_assert_eq!(Json::parse(nested(17, shape).as_bytes()), Err(WireError::TooDeep));
    }

    /// Arbitrary bytes give a value or a typed error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(gen_byte(), 0..64)) {
        let _ = Json::parse(&bytes);
    }
}
