//! Smoke tests of the benchmark itself: every workload at a tiny size,
//! untraced and traced, and the replica's fidelity to `TraceDriver`.
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use std::time::Duration;

use gtlb_ledger::control::ControlSpec;
use gtlb_ledger::jobs::{self, JobSpec};
use gtlb_ledger::ledger::Ledger;
use gtlb_ledger::run::{self, Report, END_TO_END, PER_LAYER};

fn tiny_farm() -> JobSpec {
    JobSpec { warmup_jobs: 4_000, jobs: 200_000, chunk: 20_000, ..JobSpec::farm() }
}

fn tiny_chaos() -> JobSpec {
    JobSpec { copies: 2, warmup_jobs: 2_000, jobs: 30_000, chunk: 3_000, ..JobSpec::chaos() }
}

fn tiny_control() -> ControlSpec {
    ControlSpec { copies: 2, rounds_per_window: 2, rate_update_one_in: 2 }
}

/// Checks a report the way the benchmark's consumer reads it: correct,
/// no failures, and every catalogued metric present; end-to-end metrics
/// must also be positive.
fn check(report: &Report, traced: bool) {
    assert!(report.correct);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    let json = report.to_json(traced).expect("every catalogued metric is measured");
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in catalogue {
        assert!(json.contains(&format!(r#""{name}":{{"value":"#)), "{name} missing: {json}");
        assert!(json.contains(&format!(r#""unit":"{unit}""#)), "unit {unit} missing: {json}");
        if !traced {
            assert!(report.get(name).expect("measured") > 0.0, "{name} is not positive: {json}");
        }
    }
}

#[test]
fn farm_runs_untraced_and_traced() {
    for trace in [None, Some(None)] {
        let report = run::run_jobs(&tiny_farm(), 1, Duration::ZERO, trace).expect("farm runs");
        check(&report, trace.is_some());
    }
}

#[test]
fn chaos_runs_untraced_and_traced() {
    check(&run::run_jobs(&tiny_chaos(), 1, Duration::ZERO, None).expect("chaos runs"), false);
    let traced = run::run_jobs(&tiny_chaos(), 1, Duration::ZERO, Some(None)).expect("chaos runs");
    check(&traced, true);
    let plan_events = traced.get("fault.plan_events").expect("measured");
    assert!(plan_events > 0.0, "the chaos plan is empty");
    assert!(traced.get("fault.lookups_per_job").expect("measured") > 0.0);
}

#[test]
fn control_runs_untraced_and_traced() {
    for trace in [None, Some(None)] {
        let report =
            run::run_control(tiny_control(), 1, Duration::ZERO, trace).expect("control runs");
        check(&report, trace.is_some());
    }
}

#[test]
fn replica_matches_the_driver_for_two_seeds() {
    for spec in [tiny_farm(), tiny_chaos()] {
        for seed in [1, 2] {
            let driver = jobs::driver_pass(&spec, seed).expect("driver pass");
            let (replica, _, _) =
                jobs::replica_pass(&spec, seed, &mut Ledger::off()).expect("replica pass");
            let (driver, replica) = (driver.stats.expect("stats"), replica.stats.expect("stats"));
            jobs::fidelity(&driver, &replica).expect("the replica reproduces the driver");
        }
    }
}

#[test]
fn fidelity_reports_a_differing_count() {
    let pass = jobs::driver_pass(&tiny_farm(), 3).expect("driver pass");
    let driver = pass.stats.expect("stats");
    let mut other = driver.clone();
    other.retried += 1;
    assert!(jobs::fidelity(&driver, &other).is_err());
    let mut other = driver.clone();
    other.mean_response = f64::from_bits(driver.mean_response.to_bits() + 1);
    assert!(jobs::fidelity(&driver, &other).is_err());
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run::run("nope", 1, 1.0, false, None).is_err());
}
