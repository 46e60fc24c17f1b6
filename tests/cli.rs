//! The `gtlb` binary answers bad numbers with exit code 2 and an error
//! naming the flag, never a panic, and runs the good ones.

use std::process::{Command, Output};

fn gtlb(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gtlb"))
        .args(args.split_whitespace())
        .output()
        .expect("run the gtlb binary")
}

const SIMULATE: &str = "simulate --rates 10,5,1 --rho 0.7";
const PAYMENTS: &str = "payments --rates 10,5,1 --rho 0.5";

#[test]
fn bad_numbers_exit_2_naming_the_flag() {
    let cases = [
        (SIMULATE, "--cv", ["0.5", "0", "-1", "nan", "1e8", "1e300", "inf"].as_slice()),
        (SIMULATE, "--reps", &["0", "nan", "-1", "2.5", "1e12"]),
        (SIMULATE, "--jobs", &["0", "-1", "2.5"]),
        (SIMULATE, "--seed", &["-5", "nan", "1.5"]),
        (PAYMENTS, "--max-bid", &["0", "-1", "nan", "inf"]),
    ];
    for (command, flag, values) in cases {
        for value in values {
            let args = format!("{command} {flag} {value}");
            let out = gtlb(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "`gtlb {args}`: {stderr}");
            let first = stderr.lines().next().unwrap_or_default();
            assert!(first.starts_with(&format!("error: {flag}")), "`gtlb {args}`: {stderr}");
        }
    }
}

#[test]
fn good_numbers_run() {
    for args in [
        format!("{SIMULATE} --cv 1.6 --jobs 2000 --reps 2"),
        format!("{SIMULATE} --cv 1e6 --jobs 2000 --reps 2"),
        format!("{PAYMENTS} --max-bid 100"),
    ] {
        let out = gtlb(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "`gtlb {args}`: {stderr}");
        assert!(!out.stdout.is_empty(), "`gtlb {args}` printed nothing");
    }
}
