//! The determinism fingerprints of `examples/determinism_fingerprint.rs`
//! must match `tests/expected_fingerprints.txt` line for line. Run under
//! any `RAYON_NUM_THREADS` or invariance knob (`GTLB_TELEMETRY`,
//! `GTLB_TRACING`, `GTLB_CONTROL_PLANE`), the lines must not move.

#[allow(dead_code)] // the example's `main` is not called here
#[path = "../examples/determinism_fingerprint.rs"]
mod determinism_fingerprint;

#[test]
fn fingerprints_match_the_checked_in_file() {
    determinism_fingerprint::pin_environment();
    let observed: Vec<String> = determinism_fingerprint::fingerprints()
        .into_iter()
        .map(|(name, value)| format!("{name} {value:016x}"))
        .collect();
    let expected: Vec<&str> = include_str!("expected_fingerprints.txt").lines().collect();
    assert_eq!(observed, expected);
}
