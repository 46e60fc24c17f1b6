//! JSON string escaping shared by every hand-rolled JSON encoder in
//! the workspace.
//!
//! Both this crate's [`Snapshot::to_json`](crate::Snapshot::to_json)
//! exposition and the `gtlb-net` control plane emit JSON by string
//! concatenation (the workspace is dependency-free by design, so there
//! is no serde). Every string that crosses into a JSON document —
//! metric names, node names, error messages — must pass through
//! [`json_escape`], or a quote, backslash, or control character in an
//! operator-supplied name would corrupt the document.

use std::fmt::Write;

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
