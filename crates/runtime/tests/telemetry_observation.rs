//! Telemetry is observation-only: the same chaos trace run with
//! telemetry enabled and disabled produces bit-identical outputs
//! (stats, decision totals, health timelines) — and the enabled run's
//! snapshot actually contains the data. The driver buffers served jobs'
//! latencies, so the last tests pin when those buffers reach the
//! runtime: on every return from `run_jobs`, and often enough inside a
//! call that a concurrent scrape lags by at most 4,096 completions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use gtlb_runtime::telemetry::names;
use gtlb_runtime::{
    AdmissionConfig, DetectorConfig, FaultPlan, NodeId, PartitionDirection, RetryConfig,
    RetryPolicy, Runtime, RuntimeError, RuntimeEvent, SchemeKind, TraceConfig, TraceDriver,
    TraceStats, TracingConfig,
};

/// One chaos trace: crash-recover + flaky faults, retries, heartbeats,
/// admission pressure.
fn chaos_run(telemetry: bool) -> (Arc<Runtime>, TraceStats, f64) {
    let rt = Arc::new(
        Runtime::builder()
            .seed(0x0B5E)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(2.8)
            .admission(AdmissionConfig { target_utilization: 0.95, defer_band: 0.05 })
            .telemetry(telemetry)
            .build(),
    );
    let ids: Vec<NodeId> = [4.0, 2.0, 1.0].iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let plan =
        FaultPlan::new(0xFA57).crash_recover(ids[0], 30.0, 40.0).flaky(ids[2], 60.0, 40.0, 0.35);
    let mut driver = TraceDriver::new(2.8, TraceConfig { seed: 99, batch_size: 400 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    driver.run_jobs(&rt, 3_000).unwrap();
    let stats = driver.stats();
    let clock = driver.clock();
    (rt, stats, clock)
}

#[test]
fn enabled_and_disabled_traces_are_bit_identical() {
    let (rt_off, stats_off, clock_off) = chaos_run(false);
    let (rt_on, stats_on, clock_on) = chaos_run(true);

    assert_eq!(clock_off.to_bits(), clock_on.to_bits(), "virtual clocks diverged");
    assert_eq!(stats_off.submitted, stats_on.submitted);
    assert_eq!(stats_off.jobs, stats_on.jobs);
    assert_eq!(stats_off.accepted, stats_on.accepted);
    assert_eq!(stats_off.rejected, stats_on.rejected);
    assert_eq!(stats_off.deferred, stats_on.deferred);
    assert_eq!(stats_off.failed, stats_on.failed);
    assert_eq!(stats_off.retried, stats_on.retried);
    assert_eq!(
        stats_off.mean_response.to_bits(),
        stats_on.mean_response.to_bits(),
        "mean response diverged"
    );
    assert_eq!(stats_off.per_node, stats_on.per_node);
    assert_eq!(stats_off.attempts, stats_on.attempts);
    assert_eq!(rt_off.dispatched(), rt_on.dispatched());
    assert_eq!(rt_off.hit_counts(), rt_on.hit_counts());

    let offs: Vec<_> = rt_off.health_transitions();
    let ons: Vec<_> = rt_on.health_transitions();
    assert_eq!(offs.len(), ons.len(), "health timelines diverged in length");
    for (a, b) in offs.iter().zip(&ons) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.from, b.from);
        assert_eq!(a.to, b.to);
        assert_eq!(a.at.to_bits(), b.at.to_bits());
    }
}

#[test]
fn disabled_runtime_scrapes_nothing() {
    let (rt, _, _) = chaos_run(false);
    assert!(!rt.telemetry().is_enabled());
    assert!(rt.telemetry_snapshot().is_none());
    assert!(rt.telemetry().recent_events(8).is_empty());
}

#[test]
fn enabled_snapshot_is_populated_and_consistent() {
    let (rt, stats, clock) = chaos_run(true);
    let snap = rt.telemetry_snapshot().expect("telemetry enabled");

    // Synced totals mirror the exact books.
    assert_eq!(snap.counter(names::DISPATCHES), Some(rt.dispatched()));
    // Admission sees every dispatch attempt (retries ask again), so its
    // submitted total dominates the driver's first-offer count.
    assert!(snap.counter(names::ADMISSION_SUBMITTED).unwrap() >= stats.submitted);
    assert_eq!(snap.counter(names::RETRIES), Some(stats.retried));
    assert_eq!(snap.gauge(names::VIRTUAL_CLOCK), Some(clock));
    let publishes = snap.counter(names::TABLE_PUBLISHES).unwrap();
    assert_eq!(publishes, rt.swap_stats().publishes);
    assert!(publishes >= 1, "resolve_now published at least once");

    // The chaos plan guarantees drops, retries, and transitions.
    assert!(snap.counter(names::FAULT_DROPS).unwrap() > 0);
    assert!(snap.counter(names::HEALTH_TRANSITIONS).unwrap() > 0);

    // Histograms hold the trace's latencies.
    let response = snap.histogram(names::RESPONSE_SECONDS).unwrap();
    assert_eq!(response.count(), stats.jobs);
    assert!(response.p99() >= response.p50());
    let backoff = snap.histogram(names::RETRY_BACKOFF_SECONDS).unwrap();
    assert_eq!(backoff.count(), stats.retried);

    // The event ring saw sampled routing plus the chaos events, tagged
    // with virtual times within the trace.
    let events = rt.telemetry().recent_events(64);
    assert!(!events.is_empty());
    assert!(events.iter().any(|e| matches!(e.event, RuntimeEvent::HealthChanged { .. })));
    for ev in &events {
        assert!(ev.time.is_finite() && ev.time <= clock, "event tagged after the clock");
    }

    // Both exposition formats render every catalog metric they should.
    let prom = snap.to_prometheus();
    assert!(prom.contains(names::DISPATCHES));
    assert!(prom.contains("gtlb_response_seconds_count"));
    let json = snap.to_json();
    assert!(json.contains(names::DISPATCHES));
    assert!(json.contains(names::RESPONSE_SECONDS));
}

/// Asserts that `series` holds exactly the names in `want`, in any
/// order.
fn assert_names<T>(series: &[(String, T)], mut want: Vec<&str>) {
    let mut got: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn the_snapshot_exports_exactly_the_named_series() {
    let (rt, _) = fault_free_runtime();
    let snap = rt.telemetry_snapshot().unwrap();
    assert_names(
        snap.counters(),
        vec![
            names::DISPATCHES,
            names::ADMISSION_SUBMITTED,
            names::ADMISSION_ACCEPTED,
            names::ADMISSION_DEFERRED,
            names::ADMISSION_REJECTED,
            names::RETRIES,
            names::FAULT_DROPS,
            names::HEALTH_TRANSITIONS,
            names::TABLE_PUBLISHES,
            names::EVENTS_DROPPED,
            names::SOLVER_RESOLVES,
        ],
    );
    assert_names(
        snap.gauges(),
        vec![names::OFFERED_UTILIZATION, names::VIRTUAL_CLOCK, names::JOBS_INFLIGHT],
    );
    assert_names(
        snap.histograms(),
        vec![names::RESPONSE_SECONDS, names::QUEUE_WAIT_SECONDS, names::RETRY_BACKOFF_SECONDS],
    );
    assert_names(
        snap.families(),
        vec![names::NODE_PHI, names::NODE_SUSPECT_PHI, names::NODE_DOWN_PHI],
    );
    assert!(snap.families().iter().all(|(_, f)| f.label() == names::NODE_LABEL));
    let plain = snap.counters().len() + snap.gauges().len() + snap.histograms().len();
    assert_eq!(plain, 17);
    // One `# TYPE` line per plain series and per family.
    let types = snap.to_prometheus().lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(types, 20);
}

/// A telemetry-on runtime with `rates.len()` nodes, each heartbeated
/// at uneven intervals (so the self-tuning detector gives every node
/// its own thresholds), one failure on the last node, and the
/// telemetry clock published past the last beat (so φ carries a
/// silence term).
fn heartbeating_fleet(rates: &[f64]) -> (Runtime, Vec<NodeId>) {
    let rt = Runtime::builder()
        .seed(0x0F4A)
        .nominal_arrival_rate(0.5)
        .detector(DetectorConfig::self_tuning(8))
        .telemetry(true)
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    for (k, &id) in ids.iter().enumerate() {
        let mut t = 0.0;
        for beat in 0..12u32 {
            t += 0.5 + 0.1 * f64::from((beat * (k as u32 + 1)) % 3);
            rt.observe_success(id, t).unwrap();
        }
    }
    rt.observe_failure(*ids.last().unwrap(), 7.5).unwrap();
    rt.resolve_now().unwrap();
    rt.telemetry().set_clock(9.0);
    (rt, ids)
}

/// The `(label value, value)` cells of one per-node family.
fn cells(snap: &gtlb_telemetry::Snapshot, name: &str) -> Vec<(u64, f64)> {
    let family = snap.family(name).unwrap_or_else(|| panic!("family {name} missing"));
    assert_eq!(family.label(), names::NODE_LABEL);
    family.cells().to_vec()
}

#[test]
fn node_families_hold_one_cell_per_node_in_id_order() {
    let (rt, ids) = heartbeating_fleet(&[4.0, 2.0, 1.0]);
    let snap = rt.telemetry_snapshot().unwrap();
    let now = rt.telemetry().clock();
    let phi = cells(&snap, names::NODE_PHI);
    let suspect = cells(&snap, names::NODE_SUSPECT_PHI);
    let down = cells(&snap, names::NODE_DOWN_PHI);
    let raw: Vec<u64> = ids.iter().map(|id| id.raw()).collect();
    assert!(raw.windows(2).all(|w| w[0] < w[1]), "ids ascend");
    for family in [&phi, &suspect, &down] {
        assert_eq!(family.iter().map(|&(l, _)| l).collect::<Vec<_>>(), raw);
    }
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(phi[i].1.to_bits(), rt.suspicion(id, now).to_bits(), "φ of {id}");
        let (s, d) = rt.effective_thresholds(id);
        assert_eq!((suspect[i].1.to_bits(), down[i].1.to_bits()), (s.to_bits(), d.to_bits()));
    }
    assert!(phi.iter().all(|&(_, v)| v > 0.0), "silence accrues φ: {phi:?}");
    assert!(phi[2].1 > phi[0].1, "the failed node carries the boost: {phi:?}");
}

#[test]
fn deregistered_node_drops_out_of_every_family() {
    let (rt, ids) = heartbeating_fleet(&[4.0, 2.0, 1.0]);
    let gone = ids[1].raw();
    let before = rt.telemetry_snapshot().unwrap();
    assert!(before.family(names::NODE_PHI).unwrap().get(gone).is_some());

    rt.deregister_node(ids[1]).unwrap();
    let snap = rt.telemetry_snapshot().unwrap();
    for name in [names::NODE_PHI, names::NODE_SUSPECT_PHI, names::NODE_DOWN_PHI] {
        let family = cells(&snap, name);
        assert_eq!(family.len(), 2, "{name}: {family:?}");
        assert!(family.iter().all(|&(l, _)| l != gone), "{name} still holds {gone}");
    }
    let text = snap.to_prometheus();
    let samples = |prefix: &str| text.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(samples("gtlb_node_phi"), 2, "{text}");
    assert_eq!(samples("gtlb_node_"), 6, "{text}");
    assert!(!text.contains(&format!("node=\"{gone}\"")), "{text}");
}

#[test]
fn gauge_count_is_independent_of_fleet_size() {
    let (one, _) = heartbeating_fleet(&[1.0]);
    let (many, _) = heartbeating_fleet(&[1.0; 256]);
    let one = one.telemetry_snapshot().unwrap();
    let many = many.telemetry_snapshot().unwrap();
    assert_eq!(one.gauges().len(), many.gauges().len());
    assert_eq!(cells(&one, names::NODE_PHI).len(), 1);
    assert_eq!(cells(&many, names::NODE_PHI).len(), 256);
}

/// The chaos scenario of the flush-rule tests: a crash-recover and a
/// flaky window, retries, heartbeats and default (1-in-64) tracing on
/// a telemetry-on runtime.
fn flush_rule_run() -> (Arc<Runtime>, TraceDriver) {
    let rt = Arc::new(
        Runtime::builder()
            .seed(0xF1A5)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(2.8)
            .telemetry(true)
            .tracing(true)
            .build(),
    );
    let ids: Vec<NodeId> = [4.0, 2.0, 1.0].iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let plan =
        FaultPlan::new(0xFA57).crash_recover(ids[0], 300.0, 40.0).flaky(ids[2], 900.0, 60.0, 0.35);
    let driver = TraceDriver::new(2.8, TraceConfig { seed: 17, batch_size: 400 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    (rt, driver)
}

#[test]
fn latency_histograms_match_the_books_after_every_call() {
    let (rt, mut driver) = flush_rule_run();
    // Calls below, at, and across the in-call flush period.
    for jobs in [1, 4_095, 4_097, 10_000] {
        driver.run_jobs(&rt, jobs).unwrap();
        let stats = driver.stats();
        let snap = rt.telemetry_snapshot().unwrap();
        let response = snap.histogram(names::RESPONSE_SECONDS).unwrap();
        let wait = snap.histogram(names::QUEUE_WAIT_SECONDS).unwrap();
        assert_eq!(response.count(), stats.jobs, "after {jobs}: {stats}");
        assert_eq!(wait.count(), stats.jobs, "after {jobs}: {stats}");
        let mean = response.sum() / response.count() as f64;
        assert!(
            (mean - stats.mean_response).abs() <= 1e-9 * stats.mean_response,
            "after {jobs}: histogram mean {mean} vs driver mean {}",
            stats.mean_response
        );
        assert_eq!(snap.gauge(names::JOBS_INFLIGHT), Some(0.0), "after {jobs}: {stats}");
    }
    let stats = driver.stats();
    assert!(stats.dropped > 0 && stats.retried > 0, "the faults must bite: {stats}");

    // Every response exemplar is a sampled job's trace id; queue waits
    // carry none.
    let sampled: std::collections::HashSet<u64> = (1..=stats.submitted)
        .filter_map(|seq| rt.tracer().begin(seq))
        .map(|t| t.id.raw())
        .collect();
    let snap = rt.telemetry_snapshot().unwrap();
    let response = snap.histogram(names::RESPONSE_SECONDS).unwrap();
    let wait = snap.histogram(names::QUEUE_WAIT_SECONDS).unwrap();
    let exemplars: Vec<u64> =
        (0..gtlb_telemetry::BUCKET_COUNT).filter_map(|i| response.exemplar(i)).collect();
    assert!(!exemplars.is_empty(), "default tracing samples some served jobs");
    assert!(exemplars.iter().all(|id| sampled.contains(id)), "{exemplars:?}");
    assert!((0..gtlb_telemetry::BUCKET_COUNT).all(|i| wait.exemplar(i).is_none()));
}

#[test]
fn alternating_runtimes_each_hold_the_jobs_they_served() {
    let (a, mut driver) = flush_rule_run();
    let (b, _) = flush_rule_run();
    let mut served = [0u64; 2];
    for (k, jobs) in [700u64, 1_300, 5_000, 300, 4_096, 2_222].into_iter().enumerate() {
        let rt = if k % 2 == 0 { &a } else { &b };
        let before = driver.stats().jobs;
        driver.run_jobs(rt, jobs).unwrap();
        served[k % 2] += driver.stats().jobs - before;
        for (rt, want) in [(&a, served[0]), (&b, served[1])] {
            let snap = rt.telemetry_snapshot().unwrap();
            assert_eq!(snap.histogram(names::RESPONSE_SECONDS).unwrap().count(), want);
            assert_eq!(snap.histogram(names::QUEUE_WAIT_SECONDS).unwrap().count(), want);
        }
    }
}

/// A telemetry-on runtime over three fault-free nodes, resolved.
fn fault_free_runtime() -> (Arc<Runtime>, Vec<NodeId>) {
    let rt = Arc::new(
        Runtime::builder()
            .seed(0x5C4A)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(2.1)
            .telemetry(true)
            .build(),
    );
    let ids = [4.0, 2.0, 1.0].iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    (rt, ids)
}

#[test]
fn a_scrape_during_a_call_lags_by_at_most_the_flush_period() {
    let (rt, _) = fault_free_runtime();
    let mut driver = TraceDriver::new(2.1, TraceConfig { seed: 5, batch_size: 1_000 });
    let (start, done) = (Barrier::new(2), AtomicBool::new(false));
    let (scrapes, worst) = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let (mut scrapes, mut worst) = (0u64, 0.0f64);
            start.wait();
            while !done.load(Ordering::Acquire) {
                let snap = rt.telemetry_snapshot().unwrap();
                worst = worst.max(snap.gauge(names::JOBS_INFLIGHT).unwrap());
                scrapes += 1;
            }
            (scrapes, worst)
        });
        start.wait();
        driver.run_jobs(&rt, 200_000).unwrap();
        done.store(true, Ordering::Release);
        scraper.join().unwrap()
    });
    assert!(scrapes > 0);
    assert!(worst <= 4_096.0, "a scrape read {worst} jobs in flight over {scrapes} scrapes");
    let snap = rt.telemetry_snapshot().unwrap();
    assert_eq!(snap.histogram(names::RESPONSE_SECONDS).unwrap().count(), 200_000);
    assert_eq!(snap.gauge(names::JOBS_INFLIGHT), Some(0.0));
}

#[test]
fn an_error_return_still_flushes_the_served_jobs() {
    // A second thread drains every node once 10,000 jobs are out, so
    // the call ends in `NoServingNodes` partway through a flush period.
    let (rt, ids) = fault_free_runtime();
    let mut driver = TraceDriver::new(2.1, TraceConfig { seed: 5, batch_size: 1_000 });
    let result = std::thread::scope(|s| {
        let drainer = s.spawn(|| {
            while rt.dispatched() < 10_000 {
                std::thread::yield_now();
            }
            for &id in &ids {
                rt.drain_node(id).unwrap();
            }
        });
        // Far more jobs than the drain lets through, and finite, so a
        // drainer that never fires fails the test instead of hanging it.
        let result = driver.run_jobs(&rt, 1_000_000);
        drainer.join().unwrap();
        result
    });
    assert!(matches!(result, Err(RuntimeError::NoServingNodes)), "{result:?}");
    let stats = driver.stats();
    assert!(stats.jobs >= 10_000, "{stats}");
    let snap = rt.telemetry_snapshot().unwrap();
    assert_eq!(snap.histogram(names::RESPONSE_SECONDS).unwrap().count(), stats.jobs);
    assert_eq!(snap.histogram(names::QUEUE_WAIT_SECONDS).unwrap().count(), stats.jobs);
    assert_eq!(snap.gauge(names::JOBS_INFLIGHT), Some(0.0));
}

/// The scrape the exposition files pin: a chaos run on eight nodes with
/// admission, one window of every fault kind, retries, 1 s heartbeats,
/// the self-tuning detector, telemetry and every job traced (so the
/// JSON carries exemplars), then one node marked Down and one
/// deregistered, scraped after `run_jobs` returns.
fn pinned_scrape() -> gtlb_telemetry::Snapshot {
    let rates = [6.0, 5.0, 4.0, 3.0, 2.5, 2.0, 1.5, 1.0];
    let phi = 0.9 * rates.iter().sum::<f64>();
    let rt = Runtime::builder()
        .seed(0x5EED)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .admission(AdmissionConfig { target_utilization: 0.8, defer_band: 0.1 })
        .detector(DetectorConfig::self_tuning(8))
        .telemetry(true)
        .tracing_config(TracingConfig::sample_all())
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let plan = FaultPlan::new(0xFA17)
        .crash(ids[7], 120.0)
        .crash_recover(ids[0], 20.0, 15.0)
        .slow(ids[1], 30.0, 40.0, 0.5)
        .flaky(ids[2], 10.0, 60.0, 0.3)
        .partition(ids[3], 40.0, 20.0, PartitionDirection::DropDispatch)
        .partition(ids[4], 50.0, 10.0, PartitionDirection::DropHeartbeats)
        .gray(ids[5], 60.0, 30.0, 2.0, 0.2);
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 0x0DD, batch_size: 500 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    driver.run_jobs(&rt, 4_000).unwrap();
    rt.mark_down(ids[6]).unwrap();
    rt.deregister_node(ids[2]).unwrap();
    rt.telemetry_snapshot().unwrap()
}

/// Asserts `got == want`, naming the first line that differs.
fn assert_same_lines(got: &str, want: &str, what: &str) {
    if let Some((i, (g, w))) = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!("{what} line {}: got {g:?}, want {w:?}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{what}: line count");
    assert_eq!(got, want, "{what}: bytes");
}

#[test]
fn the_exposition_is_pinned_byte_for_byte() {
    let snap = pinned_scrape();
    // The scenario exercises every series the files pin.
    let count = |name| snap.counter(name).unwrap();
    assert!(count(names::RETRIES) > 0 && count(names::FAULT_DROPS) > 0);
    assert!(count(names::HEALTH_TRANSITIONS) > 0);
    assert!(count(names::ADMISSION_DEFERRED) > 0 && count(names::ADMISSION_REJECTED) > 0);
    let suspect = cells(&snap, names::NODE_SUSPECT_PHI);
    assert_eq!(suspect.len(), 7, "one node deregistered: {suspect:?}");
    assert!(suspect.iter().any(|&(_, s)| s != suspect[0].1), "thresholds differ: {suspect:?}");
    assert_same_lines(&snap.to_prometheus(), include_str!("expected_metrics.prom"), "/metrics");
    assert_same_lines(&snap.to_json(), include_str!("expected_metrics.json"), "/metrics.json");
}

/// A runtime whose fastest node drops a tenth of its attempts for the
/// whole run, so fault drops keep landing while a scrape reads.
fn steady_chaos_run() -> (Arc<Runtime>, TraceDriver) {
    let (rt, ids) = fault_free_runtime();
    let plan = FaultPlan::new(0xC0DE).flaky(ids[0], 0.0, 1e9, 0.1);
    let driver = TraceDriver::new(2.1, TraceConfig { seed: 23, batch_size: 1_000 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    (rt, driver)
}

#[test]
fn every_scrape_during_a_run_agrees_with_itself() {
    const SCRAPES: u64 = 1_000;
    let (rt, mut driver) = steady_chaos_run();
    let (start, scraped) = (Barrier::new(2), AtomicU64::new(0));
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            start.wait();
            while !done.load(Ordering::Acquire) {
                let snap = rt.telemetry_snapshot().unwrap();
                let dispatched = snap.counter(names::DISPATCHES).unwrap();
                let served = snap.histogram(names::RESPONSE_SECONDS).unwrap().count();
                let drops = snap.counter(names::FAULT_DROPS).unwrap();
                let inflight = snap.gauge(names::JOBS_INFLIGHT).unwrap();
                let k = scraped.fetch_add(1, Ordering::Relaxed);
                assert_eq!(
                    inflight,
                    dispatched.saturating_sub(served + drops) as f64,
                    "scrape {k}: {dispatched} dispatched, {served} served, {drops} dropped"
                );
            }
        });
        start.wait();
        // Calls of 5,000 jobs until the scraper has read its share
        // while the driver runs, or has failed.
        while scraped.load(Ordering::Relaxed) < SCRAPES && !scraper.is_finished() {
            driver.run_jobs(&rt, 5_000).unwrap();
        }
        done.store(true, Ordering::Release);
        scraper.join().unwrap();
    });
    assert!(scraped.load(Ordering::Relaxed) >= SCRAPES);
    assert!(driver.stats().dropped > 0, "the flaky node must drop attempts");
}
