//! Failover, narrated: a scripted crash at t = T under a live job
//! stream, detected by the accrual failure detector (no manual
//! `mark_down` anywhere), survived by retry/backoff dispatch, and healed
//! through the probation window — with the renormalized routing table,
//! the detector's transition timeline, and the retry/failure accounting
//! printed at each step.
//!
//! ```text
//! cargo run --release --example failover_demo
//! ```
//!
//! `tests/failover_demo.rs` checks [`report`] at trace seeds 41 and 1729
//! against `tests/expected_failover_demo.txt`.

use std::collections::HashMap;
use std::fmt::Write;

use gtlb::prelude::*;
use gtlb::runtime::RoutingTable;

fn print_table(out: &mut String, label: &str, rt: &Runtime, names: &HashMap<NodeId, String>) {
    let table: std::sync::Arc<RoutingTable> = rt.current_table();
    writeln!(out, "{label} (epoch {}):", table.epoch()).unwrap();
    for (id, name) in names.iter().collect::<std::collections::BTreeMap<_, _>>() {
        let share = table.prob_of(*id).unwrap_or(0.0);
        let health = rt.node_health(*id).map_or_else(|| "gone".to_string(), |h| h.to_string());
        let bar = "#".repeat((share * 40.0).round() as usize);
        writeln!(out, "  {name:<8} {health:<9} {share:>6.3}  {bar}").unwrap();
    }
}

/// The demo's whole narration under trace seed `seed`. Every assertion
/// inside is seed-independent.
pub fn report(seed: u64) -> String {
    let mut out = String::new();
    // A 1-fast/3-slow cluster at 55% design utilization: capacity 18,
    // Φ = 9.9. The fast node crashes at t = 300 and comes back 200
    // virtual seconds later.
    let rates = [6.0, 4.0, 4.0, 4.0];
    let phi = 0.55 * rates.iter().sum::<f64>();
    let crash_at = 300.0;
    let down_for = 200.0;

    let rt =
        Runtime::builder().seed(2027).scheme(SchemeKind::Coop).nominal_arrival_rate(phi).build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    let names: HashMap<NodeId, String> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| (id, format!("node-{k}{}", if k == 0 { "*" } else { "" })))
        .collect();
    rt.resolve_now().unwrap();

    writeln!(
        out,
        "cluster: μ = {rates:?}, Φ = {phi} — node-0* (the fast one) crashes at t = {crash_at}, \
         heals at t = {}\n",
        crash_at + down_for
    )
    .unwrap();
    print_table(&mut out, "initial COOP allocation", &rt, &names);

    // The fault plan is data; the driver enacts it. Heartbeats probe
    // every node once per virtual second, dropped dispatches retry with
    // decorrelated-jitter backoff, and every outcome feeds the detector.
    writeln!(out, "\ntrace seed: {seed}").unwrap();
    let plan = FaultPlan::new(0xFA11).crash_recover(ids[0], crash_at, down_for);
    let mut driver = TraceDriver::new(phi, TraceConfig { seed, batch_size: 1_000 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);

    // Ride through the crash...
    while driver.clock() < crash_at + 30.0 {
        driver.run_jobs(&rt, 2_000).unwrap();
    }
    writeln!(out).unwrap();
    print_table(
        &mut out,
        "after the crash — detector downed node-0*, table renormalized",
        &rt,
        &names,
    );
    let mid = driver.stats();
    writeln!(out, "\nthrough the outage:\n{mid}").unwrap();
    assert!(mid.is_conserved(), "job conservation violated");
    assert_eq!(rt.node_health(ids[0]), Some(Health::Down), "detector missed the crash");

    // ...and out the other side: heartbeat probes hit the healed node,
    // the probation window passes, and the re-solve hands it mass again.
    while driver.clock() < crash_at + down_for + 60.0 {
        driver.run_jobs(&rt, 2_000).unwrap();
    }
    writeln!(out).unwrap();
    print_table(&mut out, "after recovery — probation passed, re-solved", &rt, &names);
    assert_eq!(rt.node_health(ids[0]), Some(Health::Up), "probation never readmitted the node");

    // The detector timeline and final accounting print through the
    // `Display` impls (`HealthTransition`, `TraceStats`) — the same
    // renderings an operator gets from any log line or scrape consumer.
    writeln!(out, "\ndetector timeline:").unwrap();
    for tr in rt.health_transitions() {
        writeln!(out, "  {tr}").unwrap();
    }

    let stats = driver.stats();
    writeln!(out, "\nfull run:\n{stats}").unwrap();
    assert!(stats.is_conserved(), "job conservation violated");
    writeln!(out, "job conservation holds: every submitted job accounted for exactly once. ✓")
        .unwrap();
    out
}

fn main() {
    // The CI chaos-smoke job replays this under several trace seeds
    // (GTLB_CHAOS_SEED).
    let seed = std::env::var("GTLB_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(41);
    print!("{}", report(seed));
}
