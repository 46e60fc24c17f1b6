//! Run the COOP allocator as a live service: register a heterogeneous
//! cluster, replay a Poisson job stream through the online runtime, kill
//! a node mid-run (renormalize, then re-solve), and check the observed
//! closed-loop mean response time against the allocator's analytic
//! prediction. A final phase overloads the cluster to show the sharded
//! dispatchers and admission control working together, fed over a
//! bounded channel.
//!
//! ```text
//! cargo run --release --example online_runtime
//! ```

use std::collections::HashMap;
use std::sync::mpsc;

use gtlb::prelude::*;
use gtlb::runtime::{RoutingTable, TraceStats};
use gtlb::sim::report::{fmt_num, Table};

/// Analytic mean response of the system the driver actually runs: Poisson
/// splitting of the true rate `phi` over the published table, each node an
/// M/M/1 at its true rate. (The solver's own prediction uses Φ̂ and μ̂ —
/// near saturation a noisy Φ̂ shifts it a lot; this reference does not.)
fn closed_loop_analytic(table: &RoutingTable, rates: &HashMap<NodeId, f64>, phi: f64) -> f64 {
    table
        .nodes()
        .iter()
        .zip(table.probs())
        .filter(|&(_, &p)| p > 0.0)
        .map(|(id, &p)| p / (rates[id] - p * phi))
        .sum()
}

fn phase_row(label: &str, stats: &TraceStats, analytic: f64) -> Vec<String> {
    let hw = stats.ci.as_ref().map_or(f64::NAN, |ci| ci.half_width);
    vec![
        label.to_string(),
        stats.jobs.to_string(),
        fmt_num(stats.mean_response),
        fmt_num(hw),
        fmt_num(analytic),
        format!("{:+.1}%", 100.0 * (stats.mean_response / analytic - 1.0)),
    ]
}

pub fn main() {
    // A 2-fast/4-slow cluster designed for 55% utilization — low enough
    // that losing a fast node (capacity 24 → 16) leaves the stream
    // carryable at ρ = 0.825.
    let fast = 8.0;
    let slow = 2.0;
    let capacity = 2.0 * fast + 4.0 * slow;
    let phi = 0.55 * capacity;

    // Wide estimator windows: the post-failure re-solve runs off Φ̂/μ̂,
    // and the closed-loop check below evaluates that allocation at the
    // *true* rates — at ρ = 0.825 a few percent of estimation noise on a
    // survivor moves the analytic M/M/1 value a lot, so keep μ̂ tight.
    let rt = Runtime::builder()
        .seed(2026)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .service_window(4096)
        .ewma_alpha(0.005)
        .build();
    let fast_ids: Vec<NodeId> = (0..2).map(|_| rt.register_node(fast).unwrap()).collect();
    let slow_ids: Vec<NodeId> = (0..4).map(|_| rt.register_node(slow).unwrap()).collect();
    let true_rates: HashMap<NodeId, f64> = fast_ids
        .iter()
        .map(|&id| (id, fast))
        .chain(slow_ids.iter().map(|&id| (id, slow)))
        .collect();

    // First solve: COOP over the full cluster at the nominal rate (the
    // estimators are cold, so this is the exact design allocation).
    let outcome = rt.resolve_now().unwrap();
    let analytic_full = outcome.predicted_mean_response;
    println!(
        "published epoch {} over {} nodes: predicted mean response {} s\n",
        outcome.epoch,
        outcome.nodes.len(),
        fmt_num(analytic_full)
    );

    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 7, batch_size: 2_000 });
    let mut table = Table::new(
        "COOP online runtime, closed loop vs analytic",
        &["phase", "jobs", "observed mean (s)", "95% half-width", "analytic (s)", "error"],
    );

    // Phase 1: warm up, then measure the healthy cluster.
    driver.run_jobs(&rt, 20_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 120_000).unwrap();
    let healthy = driver.stats();
    table.push_row(phase_row("healthy (6 nodes)", &healthy, analytic_full));

    // Phase 2: a fast node dies. The runtime renormalizes the live table
    // immediately (no job routes into the corpse), then the full re-solve
    // rebalances the survivors.
    let victim = fast_ids[0];
    rt.mark_down(victim).unwrap();
    let renormalized = rt.current_table();
    println!(
        "node {victim} down: epoch {} renormalized over {} survivors (no solve yet)",
        renormalized.epoch(),
        renormalized.nodes().len()
    );
    let resolved = rt.resolve_now().unwrap();
    // The re-solve ran off the measured Φ̂/μ̂; validate the closed loop
    // against the analytic value for the table it actually published.
    let analytic_degraded = closed_loop_analytic(&rt.current_table(), &true_rates, phi);
    println!(
        "re-solve: epoch {} over {} nodes (Φ̂ = {}), analytic mean response {} s\n",
        resolved.epoch,
        resolved.nodes.len(),
        fmt_num(resolved.phi),
        fmt_num(analytic_degraded)
    );

    // Phase 3: measure the degraded cluster (fresh warm-up first — the
    // queues must reach the new steady state).
    driver.run_jobs(&rt, 20_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 120_000).unwrap();
    let degraded = driver.stats();
    table.push_row(phase_row("after failure (5 nodes)", &degraded, analytic_degraded));

    println!("{table}");
    for &id in fast_ids.iter().chain(&slow_ids) {
        let health = rt.node_health(id).unwrap();
        let share = rt.current_table().prob_of(id).unwrap_or(0.0);
        println!("  {id}: {} (routing share {:.3})", health.name(), share);
    }

    // The acceptance check the integration test also performs: observed
    // means sit inside (a small multiple of) the batch-means interval
    // around the analytic prediction.
    for (stats, analytic) in [(&healthy, analytic_full), (&degraded, analytic_degraded)] {
        let hw = stats.ci.as_ref().expect("enough batches").half_width;
        let tol = (3.0 * hw).max(0.05 * analytic);
        assert!(
            (stats.mean_response - analytic).abs() < tol,
            "closed loop drifted from the analytic prediction: {} vs {analytic}",
            stats.mean_response
        );
    }
    println!("\nclosed-loop means match the COOP analytic predictions. ✓");

    overload_with_admission(fast, slow);
}

/// Phase 4: the same cluster shape pushed past its design point. Four
/// dispatch shards route without a global lock (shard `k` draws from
/// stream `seed ^ k`), admission control thins the offered stream to a
/// 0.75 utilization target, and a bounded channel backpressures the
/// producer feeding the shards.
fn overload_with_admission(fast: f64, slow: f64) {
    let capacity = 2.0 * fast + 4.0 * slow;
    let phi_offered = 0.95 * capacity; // ρ = 0.95 ≫ the 0.75 target
    let target = 0.75;
    let rt = Runtime::builder()
        .seed(2026)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi_offered)
        .shards(4)
        .admission(AdmissionConfig { target_utilization: target, defer_band: 0.05 })
        .build();
    for _ in 0..2 {
        rt.register_node(fast).unwrap();
    }
    for _ in 0..4 {
        rt.register_node(slow).unwrap();
    }
    rt.resolve_now().unwrap();
    println!(
        "\noverload phase: {} shards, offered ρ = {:.2}, admission target {target}",
        rt.shard_count(),
        rt.offered_utilization().unwrap()
    );

    // A producer hands job tokens to a bounded channel, blocking while
    // it is full; a consumer drains them onto the runtime, where
    // admission decides before any shard routes.
    const JOBS: usize = 40_000;
    let (tx, rx) = mpsc::sync_channel::<usize>(128);
    std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            for token in rx {
                let shard = token % rt.shard_count();
                let _ = rt.submit_on(shard).unwrap();
            }
        });
        for j in 0..JOBS {
            tx.send(j).expect("the consumer drains until the channel closes");
        }
        // Closing the channel ends the consumer's loop once it drains.
        drop(tx);
        consumer.join().unwrap();
    });

    let stats = rt.admission_stats().unwrap();
    let shed_prediction = 1.0 - target / 0.95;
    println!(
        "  submitted {} | accepted {} | deferred {} | rejected {} (rate {:.3}, thinning \
         prediction {shed_prediction:.3})",
        stats.submitted,
        stats.accepted,
        stats.deferred,
        stats.rejected,
        stats.rejection_rate(),
    );
    println!("  dispatched {} over {} nodes", rt.dispatched(), rt.hit_counts().len());
    assert_eq!(stats.accepted + stats.deferred + stats.rejected, stats.submitted);
    assert_eq!(stats.accepted, rt.dispatched());
    assert_eq!(stats.submitted, JOBS as u64);
    println!("  admission counters conserved: accepted + deferred + rejected = submitted ✓");
}
