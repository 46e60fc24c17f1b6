//! End-to-end test of the online runtime: register a cluster, serve a
//! live job stream, fail a node mid-run, and hold the closed-loop mean
//! response time against the allocator's analytic prediction — the same
//! scenario `examples/online_runtime.rs` narrates. Also pins the
//! admission-control closed loop, and checks Theorem 3.8 on the tables
//! COOP publishes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gtlb::prelude::*;
use gtlb::runtime::{ResolveOutcome, RoutingTable, TraceStats};

/// Analytic mean response of the system the driver actually runs: the
/// true arrival rate `phi` split over the published table, each node an
/// M/M/1 at its true rate. The solver's own `predicted_mean_response`
/// uses the noisy Φ̂ instead and is hyper-sensitive to it near
/// saturation; this reference is exact for the simulated queues.
fn closed_loop_analytic(table: &RoutingTable, rates: &[(NodeId, f64)], phi: f64) -> f64 {
    table
        .nodes()
        .iter()
        .zip(table.probs())
        .filter(|&(_, &p)| p > 0.0)
        .map(|(id, &p)| {
            let mu = rates.iter().find(|&&(n, _)| n == *id).unwrap().1;
            p / (mu - p * phi)
        })
        .sum()
}

fn assert_matches_analytic(stats: &TraceStats, analytic: f64, label: &str) {
    let ci = stats.ci.as_ref().unwrap_or_else(|| panic!("{label}: too few batches"));
    let tol = (3.0 * ci.half_width).max(0.05 * analytic);
    assert!(
        (stats.mean_response - analytic).abs() < tol,
        "{label}: observed {} vs analytic {analytic} (tol {tol})",
        stats.mean_response
    );
}

#[test]
fn coop_closed_loop_with_mid_run_failure() {
    // 1-fast/3-slow cluster at 55% design utilization — low enough that
    // the survivors still carry the stream after the fast node dies
    // (Φ = 9.9 vs survivor capacity 12, ρ = 0.825).
    let rates = [6.0, 4.0, 4.0, 4.0];
    let phi = 0.55 * rates.iter().sum::<f64>();
    let rt = Runtime::builder().seed(99).scheme(SchemeKind::Coop).nominal_arrival_rate(phi).build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();

    let outcome = rt.resolve_now().unwrap();
    let analytic_full = outcome.predicted_mean_response;
    assert_eq!(outcome.nodes, ids);
    assert!(analytic_full.is_finite() && analytic_full > 0.0);

    // Healthy phase: warm up, measure, compare.
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 17, batch_size: 1_000 });
    driver.run_jobs(&rt, 15_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 80_000).unwrap();
    assert_matches_analytic(&driver.stats(), analytic_full, "healthy");

    // Failure: the fast node goes down. The renormalized table must land
    // immediately (new epoch, victim gone) before any re-solve.
    let epoch_before = rt.current_table().epoch();
    rt.mark_down(ids[0]).unwrap();
    let renormalized = rt.current_table();
    assert!(renormalized.epoch() > epoch_before);
    assert_eq!(renormalized.prob_of(ids[0]), None);
    assert_eq!(renormalized.nodes().len(), 3);

    // Dispatch keeps working between the failure and the re-solve.
    for _ in 0..100 {
        assert_ne!(rt.dispatch().unwrap().node, ids[0]);
    }

    // Full re-solve over the survivors, then the degraded phase. The
    // solve ran off measured Φ̂/μ̂; the closed-loop reference is the
    // analytic value of the table it actually published.
    let resolved = rt.resolve_now().unwrap();
    assert_eq!(resolved.nodes, ids[1..]);
    let true_rates: Vec<(NodeId, f64)> = ids.iter().copied().zip(rates).collect();
    let analytic_degraded = closed_loop_analytic(&rt.current_table(), &true_rates, phi);
    assert!(analytic_degraded > analytic_full, "losing the fast node must hurt");

    driver.run_jobs(&rt, 20_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 100_000).unwrap();
    let degraded = driver.stats();
    assert_matches_analytic(&degraded, analytic_degraded, "degraded");
    assert!(degraded.per_node.iter().all(|&(id, _)| id != ids[0]));
}

/// Theorem 3.8 on the published table: every node COOP routes to has
/// the same expected response time `1/(μᵢ − pᵢΦ)`, and every node it
/// leaves idle (p = 0) is no faster than that even when idle (`1/μᵢ`).
fn assert_equal_response_times(rt: &Runtime, outcome: &ResolveOutcome, label: &str) {
    let table = rt.current_table();
    assert_eq!(table.epoch(), outcome.epoch, "{label}: live table is not the solve's");
    let shares: Vec<(f64, f64)> = outcome
        .nodes
        .iter()
        .zip(&outcome.rates)
        .map(|(&id, &mu)| (table.prob_of(id).expect("solved node is in the table"), mu))
        .collect();
    let time = |p: f64, mu: f64| 1.0 / (mu - p * outcome.phi);
    let level = shares
        .iter()
        .find(|&&(p, _)| p > 0.0)
        .map(|&(p, mu)| time(p, mu))
        .unwrap_or_else(|| panic!("{label}: the table routes nowhere"));
    for &(p, mu) in &shares {
        if p > 0.0 {
            let t = time(p, mu);
            assert!((t - level).abs() <= 1e-9 * level, "{label}: used node at {t}, level {level}");
        } else {
            assert!(1.0 / mu >= level, "{label}: idle node at 1/μ = {} < {level}", 1.0 / mu);
        }
    }
}

#[test]
fn coop_tables_equalize_response_times() {
    let resolve = |rates: &[f64], rho: f64| {
        let phi = rho * rates.iter().sum::<f64>();
        let rt = Runtime::builder().seed(404).nominal_arrival_rate(phi).build();
        let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
        let outcome = rt.resolve_now().unwrap();
        (rt, ids, outcome)
    };

    let (rt, _, outcome) = resolve(&[1.0, 1.0, 1.0, 1.0], 0.6);
    assert_equal_response_times(&rt, &outcome, "homogeneous");

    // At ρ = 0.6 the fast node carries everything: the slow nodes idle.
    let (rt, ids, outcome) = resolve(&[10.0, 1.0, 1.0, 1.0], 0.6);
    assert_equal_response_times(&rt, &outcome, "10:1 heterogeneous");
    assert_eq!(rt.current_table().prob_of(ids[1]), Some(0.0));

    // The fast node crashes; the resolve after the renormalization
    // spreads Φ over the survivors alone.
    let (rt, ids, _) = resolve(&[6.0, 4.0, 4.0, 4.0], 0.55);
    rt.mark_down(ids[0]).unwrap();
    let outcome = rt.resolve_now().unwrap();
    assert_eq!(outcome.nodes, ids[1..]);
    assert_equal_response_times(&rt, &outcome, "post-crash");

    // A rate cut is a registry write: the live table stays the last
    // solve's until the next solve, which is COOP on the new rates. At
    // Φ = 5, {10, 2} sends everything to the fast node; {4, 2} gives
    // [3.5, 1.5].
    let rt = Runtime::builder().seed(404).nominal_arrival_rate(5.0).build();
    let fast = rt.register_node(10.0).unwrap();
    let slow = rt.register_node(2.0).unwrap();
    let outcome = rt.resolve_now().unwrap();
    assert_eq!(rt.current_table().prob_of(slow), Some(0.0));
    rt.set_node_rate(fast, 4.0).unwrap();
    assert_equal_response_times(&rt, &outcome, "rate cut, before the solve");
    let outcome = rt.resolve_now().unwrap();
    assert_eq!(outcome.allocation.loads(), [3.5, 1.5]);
    assert_equal_response_times(&rt, &outcome, "rate cut");
}

#[test]
fn background_resolver_follows_measured_rates() {
    // Nominal design says 0.8 jobs/s; the actual stream runs at 2.4. The
    // background re-solver must converge the published table onto the
    // measured rate.
    let rt = Arc::new(
        Runtime::builder()
            .seed(3)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(0.8)
            .ewma_alpha(0.2)
            .min_observations(32, 8)
            .build(),
    );
    rt.register_node(4.0).unwrap();
    rt.register_node(2.0).unwrap();
    rt.resolve_now().unwrap();

    let published_at_spawn = rt.swap_stats().publishes;
    let handle = rt.spawn_resolver(Duration::from_millis(2));
    let mut driver = TraceDriver::new(2.4, TraceConfig { seed: 5, batch_size: 500 });
    driver.run_jobs(&rt, 30_000).unwrap();
    // The jobs can finish before the resolver thread is first
    // scheduled; stopping it then would end the loop before its first
    // solve. Wait (boundedly) for that solve's publish.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.swap_stats().publishes == published_at_spawn && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let solves = handle.stop();
    assert!(solves >= 1, "background loop never solved");

    // An EWMA snapshot at α = 0.2 is noisy (σ ≈ 33 %); assert it moved
    // decisively off the 0.8 nominal toward the measured 2.4, not a tight
    // match.
    let phi_hat = rt.estimated_arrival_rate().expect("estimator is warm");
    assert!(phi_hat > 1.5 && phi_hat < 4.0, "Φ̂ = {phi_hat}, expected ≈ 2.4");
    // A final synchronous solve off the warm estimators reflects Φ̂.
    let outcome = rt.resolve_now().unwrap();
    assert!((outcome.phi - phi_hat).abs() < 1e-9);
}

#[test]
fn all_schemes_serve_the_same_stream() {
    // Every allocator must serve the stream end to end; COOP/OPTIM/PROP
    // at the same load should order as the paper predicts (OPTIM fastest).
    let rates = [5.0, 1.0, 1.0];
    let phi = 0.6 * rates.iter().sum::<f64>();
    let mut means = Vec::new();
    for scheme in [SchemeKind::Coop, SchemeKind::Optim, SchemeKind::Prop] {
        let rt = Runtime::builder().seed(1).scheme(scheme).nominal_arrival_rate(phi).build();
        for &r in &rates {
            rt.register_node(r).unwrap();
        }
        let outcome = rt.resolve_now().unwrap();
        let mut driver = TraceDriver::new(phi, TraceConfig { seed: 23, batch_size: 1_000 });
        driver.run_jobs(&rt, 10_000).unwrap();
        driver.reset_measurements();
        driver.run_jobs(&rt, 40_000).unwrap();
        let stats = driver.stats();
        assert_eq!(stats.jobs, 40_000);
        assert!(stats.mean_response.is_finite() && stats.mean_response > 0.0);
        means.push((scheme, stats.mean_response, outcome.predicted_mean_response));
    }
    let get = |k: SchemeKind| means.iter().find(|(s, _, _)| *s == k).unwrap().1;
    assert!(get(SchemeKind::Optim) <= get(SchemeKind::Coop) + 0.05);
    assert!(get(SchemeKind::Coop) <= get(SchemeKind::Prop) + 0.05);
}

#[test]
fn admission_keeps_the_closed_loop_at_the_target() {
    // Two unit-rate nodes, offered load 1.8 ⇒ ρ = 0.9 against a 0.6
    // target: admission thins the stream by 0.6/0.9, and thinning a
    // Poisson stream leaves a Poisson stream — so the observed response
    // times must match the published table's analytic value at the
    // *admitted* rate Φ = target · Σμ = 1.2.
    let rates = [1.0, 1.0];
    let phi = 1.8;
    let target = 0.6;
    let rt = Runtime::builder()
        .seed(31)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .admission(AdmissionConfig { target_utilization: target, defer_band: 0.0 })
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();

    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 41, batch_size: 1_000 });
    driver.run_jobs(&rt, 15_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 60_000).unwrap();
    let stats = driver.stats();
    assert_eq!(stats.submitted, 60_000);
    assert_eq!(stats.accepted + stats.rejected + stats.deferred, stats.submitted);
    let expected_rejection = 1.0 - target / 0.9;
    assert!(
        (stats.rejection_rate() - expected_rejection).abs() < 0.02,
        "rejection rate {} vs thinning prediction {expected_rejection}",
        stats.rejection_rate()
    );
    let true_rates: Vec<(NodeId, f64)> = ids.iter().copied().zip(rates).collect();
    let phi_admitted = target * rates.iter().sum::<f64>();
    let analytic = closed_loop_analytic(&rt.current_table(), &true_rates, phi_admitted);
    assert_matches_analytic(&stats, analytic, "admitted stream");
}
