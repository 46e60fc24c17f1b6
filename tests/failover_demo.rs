//! `examples/failover_demo.rs` must print `tests/expected_failover_demo.txt`
//! line for line: its narration at trace seed 41, then at 1729 (the
//! seeds CI's chaos-smoke job replays). The narration pins the detector
//! timeline, the renormalized and re-solved tables and the retry
//! accounting of a crash-recover under the default detector.

#[allow(dead_code)] // the example's `main` is not called here
#[path = "../examples/failover_demo.rs"]
mod failover_demo;

#[test]
fn narration_matches_the_checked_in_file() {
    let observed: String = [41, 1729].map(failover_demo::report).concat();
    let expected = include_str!("expected_failover_demo.txt");
    assert_eq!(observed.lines().collect::<Vec<_>>(), expected.lines().collect::<Vec<_>>());
}
