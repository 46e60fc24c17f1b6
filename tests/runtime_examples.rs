//! Runs the two runtime examples whose bodies assert their own books:
//! `online_runtime` (closed-loop means against the COOP analytic
//! prediction, admission conservation, dispatch totals) and
//! `telemetry_dashboard` (job conservation, and a scrape whose dispatch
//! counter matches the runtime's exact one).

#[path = "../examples/online_runtime.rs"]
mod online_runtime;

#[path = "../examples/telemetry_dashboard.rs"]
mod telemetry_dashboard;

#[test]
fn online_runtime_checks_its_books() {
    online_runtime::main();
}

#[test]
fn telemetry_dashboard_checks_its_books() {
    telemetry_dashboard::main();
}
