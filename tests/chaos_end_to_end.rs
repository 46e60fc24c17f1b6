//! Chaos end-to-end suite: drive the closed loop through scripted fault
//! plans and hold the fault-tolerance layer to its three contracts:
//!
//! * **conservation** — every submitted job ends in exactly one of
//!   completed / rejected / deferred / failed-with-exhausted-budget;
//! * **smooth degradation** — after the detector routes around a crash,
//!   the measured mean response matches the analytic value of the
//!   post-failure allocation;
//! * **determinism** — a chaos trace is a pure function of (seed,
//!   plan): bit-identical across repeated runs and worker counts, and
//!   an idle fault plan reproduces the fault-free trace unchanged (the
//!   fault/retry stream families are routing-invariant).

use gtlb::desim::par::par_map_with_threads;
use gtlb::prelude::*;
use gtlb::runtime::{RoutingTable, TraceStats};

/// Analytic mean response of the published table at true rates `rates`
/// and offered rate `phi`: each node an M/M/1 at its share.
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

fn assert_conserved(stats: &TraceStats, label: &str) {
    assert!(
        stats.is_conserved(),
        "{label}: conservation violated \
         (submitted {} ≠ accepted {} + rejected {} + deferred {} + failed {}, jobs {})",
        stats.submitted,
        stats.accepted,
        stats.rejected,
        stats.deferred,
        stats.failed,
        stats.jobs
    );
}

#[test]
fn scripted_crash_degrades_smoothly_and_conserves_jobs() {
    // 1-fast/3-slow at 55% design utilization; the fast node dies at
    // t = 9000 (safely past the healthy measurement window, which ends
    // around t ≈ 7600 ± 30). The detector must notice via heartbeats,
    // route around the corpse, and the degraded phase must match the
    // re-solved allocation analytically.
    let rates = [6.0, 4.0, 4.0, 4.0];
    let phi = 0.55 * rates.iter().sum::<f64>();
    let crash_at = 9_000.0;
    // The degraded re-solve runs off estimated rates, and the analytic
    // comparison below evaluates that allocation at the *true* rates. A
    // μ̂ error of a few percent on a survivor can push its realized
    // utilization toward 1, where the M/M/1 formula amplifies the error
    // without bound — so give the estimators enough memory (window 4096,
    // slow EWMA) that μ̂ and Φ̂ are tight by construction rather than by
    // the luck of one 256-sample window.
    let rt = Runtime::builder()
        .seed(99)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .service_window(4096)
        .ewma_alpha(0.005)
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();

    let plan = FaultPlan::new(0xDEAD).crash(ids[0], crash_at);
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 17, batch_size: 1_000 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);

    // Healthy phase: warm up, measure, compare — chaos machinery armed
    // but not yet firing.
    driver.run_jobs(&rt, 15_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 60_000).unwrap();
    let healthy = driver.stats();
    assert_conserved(&healthy, "healthy");
    assert_eq!(healthy.failed + healthy.retried, 0, "no faults before the crash");
    let true_rates: Vec<(NodeId, f64)> = ids.iter().copied().zip(rates).collect();
    let analytic_full = closed_loop_analytic(&rt.current_table(), &true_rates, phi);
    assert_matches_analytic(&healthy, analytic_full, "healthy");
    assert!(driver.clock() < crash_at, "healthy phase overran the crash time");

    // Ride through the crash: run until well past detection.
    driver.reset_measurements();
    while driver.clock() < crash_at + 50.0 {
        driver.run_jobs(&rt, 2_000).unwrap();
    }
    let transition = driver.stats();
    assert_conserved(&transition, "transition");
    assert!(transition.retried > 0, "attempts at the corpse must have retried");
    assert_eq!(rt.node_health(ids[0]), Some(Health::Down), "detector downed the victim");
    assert_eq!(rt.current_table().prob_of(ids[0]), None, "victim renormalized out");
    let timeline = rt.health_transitions();
    assert!(
        timeline.iter().any(|tr| tr.node == ids[0] && tr.to == Health::Down && tr.at >= crash_at),
        "missing Down transition in {timeline:?}"
    );
    // Retries saved nearly everything: budget 4 against a detector that
    // needs ~3 observations leaves at most a handful of casualties.
    assert!(
        transition.failure_rate() < 0.01,
        "failure rate {} too high: {transition:?}",
        transition.failure_rate()
    );

    // Degraded phase: full re-solve over the survivors, then hold the
    // measured response against the analytic post-failure value.
    rt.resolve_now().unwrap();
    driver.run_jobs(&rt, 15_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 80_000).unwrap();
    let degraded = driver.stats();
    assert_conserved(&degraded, "degraded");
    assert_eq!(degraded.failed, 0, "survivors are healthy");
    let analytic_degraded = closed_loop_analytic(&rt.current_table(), &true_rates, phi);
    assert!(analytic_degraded > analytic_full, "losing the fast node must hurt");
    assert_matches_analytic(&degraded, analytic_degraded, "degraded");
    assert!(degraded.per_node.iter().all(|&(id, _)| id != ids[0]), "corpse got jobs");
}

#[test]
fn crash_recover_rejoins_through_probation() {
    // The victim heals after 300 virtual seconds; heartbeat probes (the
    // probation path runs on Down nodes too) must promote it back to Up
    // and the re-solve must hand it routing mass again.
    let rates = [4.0, 2.0, 2.0];
    let phi = 0.5 * rates.iter().sum::<f64>();
    let rt = Runtime::builder().seed(7).scheme(SchemeKind::Coop).nominal_arrival_rate(phi).build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();

    let plan = FaultPlan::new(0xBEEF).crash_recover(ids[0], 500.0, 300.0);
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 29, batch_size: 500 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);

    // Through the outage...
    while driver.clock() < 550.0 {
        driver.run_jobs(&rt, 1_000).unwrap();
    }
    assert_eq!(rt.node_health(ids[0]), Some(Health::Down));
    // ...and out the other side.
    while driver.clock() < 900.0 {
        driver.run_jobs(&rt, 1_000).unwrap();
    }
    assert_eq!(rt.node_health(ids[0]), Some(Health::Up), "probation readmitted the node");
    assert!(rt.current_table().prob_of(ids[0]).is_some(), "recovery re-solve restored mass");
    let timeline = rt.health_transitions();
    let down_at = timeline.iter().find(|tr| tr.to == Health::Down).expect("crash detected").at;
    let up_at = timeline
        .iter()
        .find(|tr| tr.from == Health::Down && tr.to == Health::Up)
        .expect("recovery detected")
        .at;
    assert!(up_at > down_at && up_at >= 800.0, "recovery at {up_at}, outage ended at 800");

    // The recovered node carries fresh load.
    driver.reset_measurements();
    driver.run_jobs(&rt, 10_000).unwrap();
    let stats = driver.stats();
    assert_conserved(&stats, "post-recovery");
    let victim_jobs = stats.per_node.iter().find(|&&(id, _)| id == ids[0]).map_or(0, |&(_, c)| c);
    assert!(victim_jobs > 0, "recovered node never served again: {stats:?}");
}

/// One full chaos closed loop, returning a tuple fingerprint of
/// everything downstream can observe.
fn chaos_run() -> (u64, u64, Vec<(NodeId, u64)>, u64, u64, usize) {
    let rt = Runtime::builder()
        .seed(0xF1A6)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(2.1)
        .admission(AdmissionConfig { target_utilization: 0.95, defer_band: 0.0 })
        .build();
    let ids: Vec<NodeId> = [4.0, 2.0, 1.0].iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let plan =
        FaultPlan::new(0xC4A05).crash_recover(ids[0], 40.0, 60.0).flaky(ids[2], 100.0, 50.0, 0.35);
    let mut driver = TraceDriver::new(2.1, TraceConfig { seed: 0xBEEF, batch_size: 500 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    driver.run_jobs(&rt, 6_000).unwrap();
    let stats = driver.stats();
    assert_conserved(&stats, "chaos run");
    (
        stats.mean_response.to_bits(),
        driver.clock().to_bits(),
        stats.per_node.clone(),
        stats.failed,
        stats.retried,
        rt.health_transitions().len(),
    )
}

#[test]
fn chaos_trace_is_invariant_across_worker_counts() {
    // The acceptance contract: with faults *enabled*, the trace is a
    // pure function of (seed, plan) — the worker pool that physically
    // hosts the run must not leak into it. Run the entire closed loop
    // inside worker pools of different sizes and compare everything
    // observable; `chaos_run` checks conservation in each.
    let under_pool =
        |threads: usize| par_map_with_threads(threads, vec![()], |()| chaos_run()).pop().unwrap();
    let reference = chaos_run();
    assert_eq!(reference, under_pool(1));
    assert_eq!(reference, under_pool(2));
    assert_eq!(reference, under_pool(4));
}

#[test]
fn idle_fault_plan_reproduces_the_fault_free_closed_loop() {
    // Toggling the fault plan off (or leaving it empty) must reproduce
    // the fault-free trace bit for bit — admission included.
    // This is the routing-invariance guarantee of the 0x0800/0x0900
    // stream families.
    let run = |chaos: bool| {
        let rt = Runtime::builder()
            .seed(19)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(2.7)
            .admission(AdmissionConfig { target_utilization: 0.9, defer_band: 0.1 })
            .build();
        for &r in &[2.0, 1.0, 1.0] {
            rt.register_node(r).unwrap();
        }
        rt.resolve_now().unwrap();
        let mut driver = TraceDriver::new(2.7, TraceConfig { seed: 7, batch_size: 500 });
        if chaos {
            driver = driver
                .with_faults(FaultPlan::new(0x123))
                .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
                .with_heartbeats(0.5);
        }
        driver.run_jobs(&rt, 10_000).unwrap();
        let stats = driver.stats();
        assert_conserved(&stats, "idle-chaos");
        (
            stats.mean_response.to_bits(),
            driver.clock().to_bits(),
            stats.per_node.clone(),
            stats.accepted,
            stats.rejected,
            stats.deferred,
            rt.hit_counts(),
        )
    };
    assert_eq!(run(false), run(true), "idle chaos machinery perturbed the trace");
}

#[test]
fn asymmetric_partition_routes_around_and_readmits() {
    use gtlb::runtime::DetectorConfig;
    // 1-fast/3-slow at 50% design utilization. At t = 5000 the fast
    // node's dispatch link is cut while its heartbeats keep flowing —
    // the asymmetric regime where the detector's evidence (healthy
    // probes) and the retry path's evidence (every attempt times out)
    // disagree. The self-tuning detector must down the node on dispatch
    // failures alone, the table must renormalize away from it, and the
    // degraded loop must match the survivors-only M/M/1 analytic value.
    // Probation is long (20 beats) because the node's control plane
    // looks healthy: every readmission probe costs real traffic.
    let rates = [6.0, 4.0, 4.0, 4.0];
    let phi = 0.5 * rates.iter().sum::<f64>();
    let open = 5_000.0;
    let lasts = 1_500.0;
    let rt = Runtime::builder()
        .seed(41)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .detector(DetectorConfig { probation_successes: 20, ..DetectorConfig::self_tuning(8) })
        .service_window(4096)
        .ewma_alpha(0.005)
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let victim = ids[0];
    let plan =
        FaultPlan::new(0xA51).partition(victim, open, lasts, PartitionDirection::DropDispatch);
    // A short dispatch timeout: failure evidence reaches the detector
    // quickly, so readmission probes are cheap.
    let retry = RetryConfig { timeout: 0.3, ..RetryConfig::default() };
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 23, batch_size: 1_000 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(retry).unwrap())
        .with_heartbeats(1.0);

    // Healthy phase: the partition is armed but not yet open.
    driver.run_jobs(&rt, 10_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 30_000).unwrap();
    let healthy = driver.stats();
    assert_conserved(&healthy, "healthy");
    assert_eq!(healthy.dropped, 0, "no drops before the partition opens");
    let true_rates: Vec<(NodeId, f64)> = ids.iter().copied().zip(rates).collect();
    let analytic_full = closed_loop_analytic(&rt.current_table(), &true_rates, phi);
    assert_matches_analytic(&healthy, analytic_full, "healthy");
    assert!(driver.clock() < open, "healthy phase overran the partition");

    // Ride into the partition: the detector must stop routing to the
    // dispatch-unreachable node within the detection-latency bound.
    driver.reset_measurements();
    while driver.clock() < open + 60.0 {
        driver.run_jobs(&rt, 500).unwrap();
    }
    let down_at = rt
        .health_transitions()
        .iter()
        .find(|tr| tr.node == victim && tr.to == Health::Down && tr.at >= open)
        .expect("dispatch failures alone must down the victim")
        .at;
    assert!(down_at - open < 5.0, "detection latency {} too slow", down_at - open);

    // Mid-partition: the victim serves nothing, retries save every job,
    // and the loop matches the survivors-only analytic response.
    driver.reset_measurements();
    while driver.clock() < open + lasts - 150.0 {
        driver.run_jobs(&rt, 500).unwrap();
    }
    let mid = driver.stats();
    assert_conserved(&mid, "mid-partition");
    assert_eq!(rt.node_health(victim), Some(Health::Down), "victim held Down");
    assert_eq!(rt.current_table().prob_of(victim), None, "victim renormalized out");
    let victim_jobs = mid.per_node.iter().find(|&&(id, _)| id == victim).map_or(0, |&(_, c)| c);
    assert_eq!(victim_jobs, 0, "dispatch-unreachable node completed jobs");
    assert!(mid.dropped > 0, "readmission probes must have hit the dead link");
    assert!(mid.failure_rate() < 0.01, "retries should save nearly every job: {mid:?}");
    let analytic_survivors = closed_loop_analytic(&rt.current_table(), &true_rates, phi);
    assert!(analytic_survivors > analytic_full, "losing the fast node must hurt");
    assert_matches_analytic(&mid, analytic_survivors, "mid-partition");

    // Heal: heartbeats were never the problem, so once dispatch drops
    // stop the probation streak completes and the victim is readmitted.
    while driver.clock() < open + lasts + 100.0 {
        driver.run_jobs(&rt, 500).unwrap();
    }
    assert_eq!(rt.node_health(victim), Some(Health::Up), "probation readmitted the victim");
    assert!(rt.current_table().prob_of(victim).is_some(), "recovery re-solve restored mass");
    let timeline = rt.health_transitions();
    let readmit = timeline
        .iter()
        .find(|tr| {
            tr.node == victim
                && tr.from == Health::Down
                && tr.to == Health::Up
                && tr.at >= open + lasts
        })
        .expect("missing the post-heal readmission");
    assert!(readmit.at - (open + lasts) < 30.0, "readmission at {} too slow", readmit.at);

    // Post-heal: the full cluster matches the full-table analytic value
    // again — the partition left no residue.
    rt.resolve_now().unwrap();
    driver.run_jobs(&rt, 8_000).unwrap();
    driver.reset_measurements();
    driver.run_jobs(&rt, 30_000).unwrap();
    let post = driver.stats();
    assert_conserved(&post, "post-heal");
    assert_eq!(post.failed + post.dropped, 0, "healed cluster drops nothing");
    let analytic_post = closed_loop_analytic(&rt.current_table(), &true_rates, phi);
    assert_matches_analytic(&post, analytic_post, "post-heal");
    let victim_jobs = post.per_node.iter().find(|&&(id, _)| id == victim).map_or(0, |&(_, c)| c);
    assert!(victim_jobs > 0, "readmitted node never served again");
}

#[test]
fn gray_failure_demotes_without_a_crash() {
    use gtlb::runtime::DetectorConfig;
    // A gray node: service times inflate 3× and half the attempts are
    // lost, but it never crashes — the degraded-but-Up state a fixed
    // threshold either sleeps through or flaps on. The self-tuning
    // detector (no hand-set suspect_phi/down_phi) must demote it on the
    // accumulated loss evidence alone, with zero crash events scheduled.
    let rates = [4.0, 2.0, 2.0];
    let phi = 0.55 * rates.iter().sum::<f64>();
    let gray_at = 200.0;
    let gray_lasts = 400.0;
    let rt = Runtime::builder()
        .seed(77)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .detector(DetectorConfig::self_tuning(8))
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let victim = ids[0];
    let plan = FaultPlan::new(0x6AE).gray(victim, gray_at, gray_lasts, 3.0, 0.5);
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 31, batch_size: 500 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(0.5);

    while driver.clock() < gray_at + gray_lasts {
        driver.run_jobs(&rt, 1_000).unwrap();
    }
    let stats = driver.stats();
    assert_conserved(&stats, "gray window");
    let down = rt
        .health_transitions()
        .iter()
        .find(|tr| tr.node == victim && tr.to == Health::Down && tr.at >= gray_at)
        .expect("gray loss must demote the victim without any crash event")
        .at;
    assert!(down - gray_at < 15.0, "gray detection latency {} too slow", down - gray_at);
    assert!(stats.dropped > 0, "gray loss must surface as dropped attempts");
    assert!(stats.failure_rate() < 0.01, "retries absorb the gray loss: {stats:?}");
    // Degraded-but-Up: between demotions the node kept completing jobs
    // (at inflated service times) — a crash would have served nothing.
    let victim_jobs = stats.per_node.iter().find(|&&(id, _)| id == victim).map_or(0, |&(_, c)| c);
    assert!(victim_jobs > 0, "a gray node still serves what it doesn't lose");
    // The jittery gray cadence must have raised the self-tuned bar above
    // the configured baselines, by a common scale (the ratio is fixed).
    let (eff_suspect, eff_down) = rt.effective_thresholds(victim);
    assert!(
        eff_suspect > 2.0 && eff_down > 6.0,
        "self-tuning left the baselines untouched: {eff_suspect} / {eff_down}"
    );
    assert!((eff_down / eff_suspect - 3.0).abs() < 1e-9, "tuning must not skew the ratio");

    // Past the window the node is clean again: probation readmits it and
    // it serves with no further loss.
    while driver.clock() < gray_at + gray_lasts + 200.0 {
        driver.run_jobs(&rt, 1_000).unwrap();
    }
    assert_eq!(rt.node_health(victim), Some(Health::Up), "recovered from gray");
    driver.reset_measurements();
    driver.run_jobs(&rt, 3_000).unwrap();
    let clean = driver.stats();
    assert_conserved(&clean, "post-gray");
    assert_eq!(clean.dropped, 0, "no loss after the gray window");
    let victim_jobs = clean.per_node.iter().find(|&&(id, _)| id == victim).map_or(0, |&(_, c)| c);
    assert!(victim_jobs > 0, "recovered node carries load again");
}
