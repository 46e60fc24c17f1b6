//! The quick-mode rows of `examples/partition_experiment.rs` must match
//! `tests/expected_partitions.txt` line for line, and every scenario's
//! gates must hold. The rows pin partitions, gray failures and the
//! self-tuning detector, which no determinism fingerprint plans.

#[allow(dead_code)] // the example's `main` is not called here
#[path = "../examples/partition_experiment.rs"]
mod partition_experiment;

#[test]
fn quick_sweep_rows_match_the_checked_in_file() {
    let observed: Vec<String> =
        partition_experiment::report_rows(true).iter().map(|row| row.json()).collect();
    let expected: Vec<&str> = include_str!("expected_partitions.txt").lines().collect();
    assert_eq!(observed, expected);
}
