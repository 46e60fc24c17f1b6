//! The determinism fingerprints of `examples/determinism_fingerprint.rs`
//! must match `tests/expected_fingerprints.txt` line for line, under any
//! `RAYON_NUM_THREADS` and under every combination of the observers
//! (every job traced, a live control plane).

#[allow(dead_code)] // the example's `main` is not called here
#[path = "../examples/determinism_fingerprint.rs"]
mod determinism_fingerprint;

use determinism_fingerprint::{fingerprints, Observers};

#[test]
fn fingerprints_match_the_checked_in_file() {
    let expected: Vec<&str> = include_str!("expected_fingerprints.txt").lines().collect();
    for bits in 0..4u8 {
        let obs = Observers { sample_all: bits & 1 != 0, control_plane: bits & 2 != 0 };
        let observed: Vec<String> = fingerprints(obs)
            .into_iter()
            .map(|(name, value)| format!("{name} {value:016x}"))
            .collect();
        assert_eq!(observed, expected, "{obs:?}");
    }
}
