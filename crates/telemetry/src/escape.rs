//! The text encoding shared by every hand-rolled exposition writer in
//! the workspace: JSON string escaping and the one number format.
//!
//! Both this crate's [`Snapshot`](crate::Snapshot) expositions and
//! the `gtlb-net` control plane emit text by string concatenation (the
//! workspace is dependency-free by design, so there is no serde). Every
//! string that crosses into a JSON document — metric names, node names,
//! error messages — must pass through [`json_escape`], or a quote,
//! backslash, or control character in an operator-supplied name would
//! corrupt the document. Every `f64` a writer prints goes through
//! [`Number`], so one place decides how numbers look.

use std::fmt::{self, Write};

/// An `f64` in the number format every exposition writes: the shortest
/// digits that read back to the same bits, as plain decimals when the
/// value is 0 or its magnitude is in `[1e-6, 1e21)` (where ECMAScript
/// prints decimals too) and in exponent form (`2.5e-7`, `1e21`)
/// otherwise. A finite value therefore takes at most 24 characters
/// after its sign, however close to zero it decays; a plain decimal
/// would print a value near `f64::MIN_POSITIVE` with over 300 digits.
///
/// Non-finite values print as `f64`'s `Display` prints them (`NaN`,
/// `inf`, `-inf`); a JSON writer maps them to `null` before it gets
/// here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(pub f64);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let x = self.0;
        if x == 0.0 || (1e-6..1e21).contains(&x.abs()) {
            fmt::Display::fmt(&x, f)
        } else {
            fmt::LowerExp::fmt(&x, f)
        }
    }
}

/// Appends `s` to `out` with JSON string escaping applied: `"` and
/// `\` are backslash-escaped, the common control characters get their
/// short forms (`\n`, `\r`, `\t`, `\b`, `\f`), and every other
/// control character (U+0000..=U+001F) is emitted as a `\u00XX` escape.
/// The surrounding quotes are **not** added — callers compose the
/// document.
///
/// Every byte that needs escaping is ASCII, so the text between two of
/// them is copied as one run and always ends on a char boundary.
pub fn json_escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                // Infallible: writing to a String cannot fail.
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// [`json_escape_into`] returning a fresh `String` (no quotes added).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char escape [`json_escape_into`] replaced, kept as
    /// the reference its output must match byte for byte.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Strings of code points from the whole `0..0x11_0000` range,
        /// weighted towards the ASCII bytes that need escaping, escape
        /// exactly as the reference does.
        #[test]
        fn escape_matches_the_char_by_char_reference(
            cps in prop::collection::vec(
                prop_oneof![0u32..0x20, 0x20u32..0x80, 0x80u32..0x800, 0u32..0x11_0000],
                0..40,
            ),
        ) {
            let s: String = cps.into_iter().filter_map(char::from_u32).collect();
            let mut out = String::from("prefix");
            json_escape_into(&mut out, &s);
            let reference = reference_escape(&s);
            prop_assert_eq!(&out["prefix".len()..], reference.as_str());
        }
    }

    #[test]
    fn every_control_character_matches_the_reference() {
        let all: String = (0u8..0x80).map(char::from).collect();
        assert_eq!(json_escape(&all), reference_escape(&all));
    }

    #[test]
    fn numbers_are_decimal_inside_the_ecmascript_range_and_exponents_outside() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for (x, want) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (1e-6, "0.000001"),
            (below(1e-6), "9.999999999999997e-7"),
            (5e-324, "5e-324"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (2.797196527009782e-255, "2.797196527009782e-255"),
            (1e21, "1e21"),
            (below(1e21), "999999999999999900000"),
            (f64::MAX, "1.7976931348623157e308"),
            (0.1, "0.1"),
            (123.456, "123.456"),
        ] {
            let got = Number(x).to_string();
            assert_eq!(got, want, "{x:?}");
            assert_eq!(got.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{got} round-trips");
        }
        assert_eq!(Number(f64::NAN).to_string(), "NaN");
        assert_eq!(Number(f64::NEG_INFINITY).to_string(), "-inf");
    }

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(json_escape("gtlb_dispatches_total"), "gtlb_dispatches_total");
        assert_eq!(json_escape(""), "");
        assert_eq!(json_escape("π ≈ 3.14159"), "π ≈ 3.14159");
    }

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        assert_eq!(json_escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(json_escape("\u{08}\u{0C}"), "\\b\\f");
        assert_eq!(json_escape("\u{00}\u{1F}"), "\\u0000\\u001f");
    }

    #[test]
    fn escaped_output_parses_as_a_json_string_payload() {
        // Cheap structural check: an escaped string has no raw quote,
        // raw backslash-without-escape, or raw control characters left.
        let hostile = "node \"a\"\\\n\u{01}name";
        let escaped = json_escape(hostile);
        assert!(!escaped.chars().any(|c| (c as u32) < 0x20), "raw control char in {escaped:?}");
        // Every quote must be preceded by a backslash.
        let bytes = escaped.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                assert!(i > 0 && bytes[i - 1] == b'\\', "unescaped quote in {escaped:?}");
            }
        }
    }
}
