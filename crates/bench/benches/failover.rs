//! Failover hot paths: what the fault-tolerance layer costs when nothing
//! is failing (detector bookkeeping, at 4 and at 2,048 nodes;
//! fault-window lookups, on a 4-node plan and on the chaos workload's
//! 256-node plan; backoff arithmetic), and the end-to-end failover
//! latency — from "node died" through the renormalized publish to the
//! full re-solve that restores it — plus a small chaos trace driven
//! through a scripted crash.
//!
//! CI runs this in quick mode and uploads the numbers as
//! `BENCH_failover.json`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_core::model::Cluster;
use gtlb_core::schemes::{Coop, SingleClassScheme};
use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_runtime::{
    AdmissionConfig, FaultInjector, FaultPlan, Health, NodeId, PartitionDirection, RetryConfig,
    RetryPolicy, Runtime, SchemeKind, TraceConfig, TraceDriver,
};

fn serving_runtime(n_nodes: usize) -> Runtime {
    let rt = Runtime::builder()
        .seed(42)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(0.5 * n_nodes as f64)
        .build();
    for i in 0..n_nodes {
        let rate = if i < n_nodes / 4 + 1 { 4.0 } else { 1.0 };
        rt.register_node(rate).unwrap();
    }
    rt.resolve_now().unwrap();
    rt
}

fn bench_detector(c: &mut Criterion) {
    // Steady-state detector bookkeeping: the per-heartbeat cost every
    // healthy node pays (state lock, row lookup, EWMA gap update +
    // boost decay, no transition).
    let rt = serving_runtime(4);
    let ids = rt.node_ids();
    let mut t = 0.0;
    for _ in 0..16 {
        t += 1.0;
        for &id in &ids {
            rt.observe_success(id, t).unwrap();
        }
    }
    let mut group = c.benchmark_group("failover_detector");
    group.throughput(Throughput::Elements(1));
    group.bench_function("observe_success", |b| {
        let mut k = 0usize;
        b.iter(|| {
            t += 0.25;
            k = (k + 1) % ids.len();
            black_box(rt.observe_success(ids[k], t))
        })
    });
    group.bench_function("phi", |b| b.iter(|| black_box(rt.suspicion(ids[0], t))));

    // The same at control-plane size, where a row lookup by binary
    // search would take eleven steps.
    let rt = serving_runtime(2048);
    let ids = rt.node_ids();
    let mut t = 0.0;
    for _ in 0..4 {
        t += 1.0;
        for &id in &ids {
            rt.observe_success(id, t).unwrap();
        }
    }
    group.bench_function(BenchmarkId::new("observe_success", 2048), |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % ids.len();
            if k == 0 {
                t += 1.0;
            }
            black_box(rt.observe_success(ids[k], t))
        })
    });
    group.finish();
}

/// The chaos workload's cluster: the paper's Table 3.1 (rates
/// {10, 5, 2, 1} × counts {2, 3, 5, 6}) sixteen times, 256 nodes, with
/// ids 0–255 in registration order.
fn chaos_cluster() -> (Vec<NodeId>, Vec<f64>) {
    const TABLE_3_1: [(f64, usize); 4] = [(10.0, 2), (5.0, 3), (2.0, 5), (1.0, 6)];
    let rates: Vec<f64> = (0..16)
        .flat_map(|_| TABLE_3_1.iter().flat_map(|&(rate, count)| std::iter::repeat_n(rate, count)))
        .collect();
    ((0..rates.len() as u64).map(NodeId::from_raw).collect(), rates)
}

/// Jobs of one chaos pass: warm-up, then measured.
const CHAOS_WARMUP_JOBS: f64 = 20_000.0;
const CHAOS_JOBS: f64 = 180_000.0;

/// The chaos workload's fault plan at seed 31, drawn as its benchmark
/// draws it: the measured span (180,000 jobs at Φ = 571.2 jobs/s,
/// ≈ 315 virtual s after a 35 s warm-up) is cut into slots of about
/// 300 s — one — and every node gets one window per slot at a seeded
/// offset in its first 90 %, of kind crash-recover, flaky, slow, gray or
/// one of the two one-way partitions.
fn chaos_plan(ids: &[NodeId], phi: f64) -> FaultPlan {
    let start = CHAOS_WARMUP_JOBS / phi;
    let measured = CHAOS_JOBS / phi;
    let slots = (measured / 300.0).round().max(1.0) as usize;
    let slot = measured / slots as f64;
    let mut rng = Xoshiro256PlusPlus::stream(31, 0x0C00);
    let mut plan = FaultPlan::new(31);
    for (i, &node) in ids.iter().enumerate() {
        for j in 0..slots {
            let t = start + slot * (j as f64 + 0.9 * rng.next_open01());
            plan = match (i + j) % 5 {
                0 => plan.crash_recover(node, t, 20.0),
                1 => plan.flaky(node, t, 30.0, 0.3),
                2 => plan.slow(node, t, 30.0, 0.5),
                3 => plan.gray(node, t, 30.0, 2.0, 0.05),
                _ if (i + j) % 10 == 4 => {
                    plan.partition(node, t, 20.0, PartitionDirection::DropDispatch)
                }
                _ => plan.partition(node, t, 20.0, PartitionDirection::DropHeartbeats),
            };
        }
    }
    plan
}

/// The fault queries of one chaos pass, in time order: Poisson arrivals
/// at Φ, each asked about a node drawn in proportion to its COOP load,
/// and every virtual second a heartbeat probe of every node in id
/// order: ≈ 285,000 queries. Each node is asked several times a second
/// and passes its window's two edges once, so its kept fold misses about
/// three times a lap (its first query and the two edges) and holds for
/// 99.7 % of the queries; on the workload 99.8 % of fault queries hit
/// at seeds 31 and 53.
fn chaos_queries(ids: &[NodeId], loads: &[f64], phi: f64) -> Vec<(NodeId, f64)> {
    let pass = (CHAOS_WARMUP_JOBS + CHAOS_JOBS) / phi;
    let cdf: Vec<f64> = loads
        .iter()
        .scan(0.0, |sum, &load| {
            *sum += load;
            Some(*sum)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xA77E);
    let (mut queries, mut t, mut beat) = (Vec::new(), 0.0, 1.0);
    loop {
        t += -rng.next_open01().ln() / phi;
        if t >= pass {
            return queries;
        }
        while beat <= t {
            queries.extend(ids.iter().map(|&id| (id, beat)));
            beat += 1.0;
        }
        let k = cdf.partition_point(|&c| c <= rng.next_open01() * total);
        queries.push((ids[k.min(ids.len() - 1)], t));
    }
}

fn bench_fault_lookup(c: &mut Criterion) {
    // The per-dispatch chaos tax: is this attempt dropped? One window
    // scan plus (inside a flaky window) one RNG draw.
    let rt = serving_runtime(4);
    let ids: Vec<NodeId> = rt.node_ids();
    let plan = FaultPlan::new(7)
        .flaky(ids[0], 0.0, 1e12, 0.2)
        .slow(ids[1], 0.0, 1e12, 0.5)
        .crash(ids[2], 0.0);
    let mut inj = FaultInjector::new(plan);
    let mut group = c.benchmark_group("failover_fault");
    group.throughput(Throughput::Elements(1));
    group.bench_function("attempt_flaky", |b| {
        let mut t = 1.0;
        b.iter(|| {
            t += 0.01;
            black_box(inj.dispatch_drop_cause(ids[0], t))
        })
    });
    group.bench_function("attempt_clean", |b| {
        let mut t = 1.0;
        b.iter(|| {
            t += 0.01;
            black_box(inj.dispatch_drop_cause(ids[3], t))
        })
    });
    group.bench_function("service_factor", |b| {
        b.iter(|| black_box(inj.service_factor(ids[1], 5.0)))
    });

    // At chaos scale: the chaos workload's plan, asked what one of its
    // passes asks, in time order; the sequence wraps, so query times also
    // jump back once per lap. `attempt_clean` keeps only the queries that
    // meet no active fault, so it draws nothing and stays stationary.
    let (ids, rates) = chaos_cluster();
    let cluster = Cluster::new(rates).unwrap();
    let phi = cluster.arrival_rate_for_utilization(0.7);
    let coop = Coop.allocate(&cluster, phi).unwrap();
    let mut inj = FaultInjector::new(chaos_plan(&ids, phi));
    let queries = chaos_queries(&ids, coop.loads(), phi);
    let clean: Vec<(NodeId, f64)> = queries
        .iter()
        .copied()
        .filter(|&(n, t)| {
            !inj.crashed(n, t)
                && !inj.partitioned(n, t, PartitionDirection::DropDispatch)
                && inj.drop_probability(n, t) == 0.0
                && inj.gray_loss_probability(n, t) == 0.0
        })
        .collect();
    group.bench_function(BenchmarkId::new("attempt_clean", ids.len()), |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % clean.len();
            let (node, t) = clean[k];
            black_box(inj.dispatch_drop_cause(node, t))
        })
    });
    group.bench_function(BenchmarkId::new("service_factor", ids.len()), |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % queries.len();
            let (node, t) = queries[k];
            black_box(inj.service_factor(node, t))
        })
    });
    group.finish();
}

fn bench_backoff(c: &mut Criterion) {
    // Decorrelated-jitter arithmetic on the retry path.
    let policy = RetryPolicy::new(RetryConfig::default()).unwrap();
    let mut group = c.benchmark_group("failover_retry");
    group.throughput(Throughput::Elements(1));
    group.bench_function("backoff", |b| {
        let mut prev = 0.0;
        let mut u = 0.1;
        b.iter(|| {
            u = (u + 0.37) % 1.0;
            prev = policy.backoff(prev, u) % 1.0;
            black_box(prev)
        })
    });
    group.finish();
}

fn bench_failover_cycle(c: &mut Criterion) {
    // The failover latency proper: mark a node down (immediate
    // renormalized publish — the window during which jobs could still
    // route to the corpse), then bring it back and re-solve. One
    // iteration = one full down→up cycle on a 32-node cluster.
    let rt = serving_runtime(32);
    let victim = rt.node_ids()[0];
    let mut group = c.benchmark_group("failover_cycle");
    group.bench_function(BenchmarkId::new("down_renorm_up_resolve", 32), |b| {
        b.iter(|| {
            black_box(rt.mark_down(victim).unwrap());
            black_box(rt.mark_up(victim).unwrap());
            black_box(rt.resolve_now().unwrap())
        })
    });

    // A flap by observations at chaos size: one dropped attempt takes
    // the node Up→Suspect (no publish), two successes bring it back
    // Suspect→Up, which re-solves all 256 nodes and publishes. The
    // windows are warm, each node at its own measured rate, and the
    // arrival estimator too, as in the `chaos` workload.
    let rt = warm_chaos_runtime(256);
    let victim = rt.node_ids()[0];
    // The warm-up's last success landed at t = 0.07.
    let mut t = 0.07;
    group.bench_function(BenchmarkId::new("suspect_recover", 256), |b| {
        b.iter(|| {
            t += 0.01;
            let down = rt.observe_failure(victim, t).unwrap();
            assert_eq!(down.map(|tr| tr.to), Some(Health::Suspect));
            t += 0.01;
            assert_eq!(rt.observe_success(victim, t).unwrap(), None);
            t += 0.01;
            let up = rt.observe_success(victim, t).unwrap();
            assert_eq!(up.map(|tr| tr.to), Some(Health::Up));
        })
    });
    group.finish();
}

/// `n_nodes` nodes with warm service windows, each a few percent off
/// its declared rate, a warm arrival estimator at ρ = 0.7, admission on,
/// and detector tracks warmed by one success per node per 0.01 s.
fn warm_chaos_runtime(n_nodes: usize) -> Runtime {
    const SAMPLES: usize = 16;
    let rt = Runtime::builder()
        .seed(42)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(0.5 * n_nodes as f64)
        .min_observations(64, SAMPLES)
        .admission(AdmissionConfig { target_utilization: 0.95, defer_band: 0.0 })
        .build();
    let mut capacity = 0.0;
    for i in 0..n_nodes {
        let rate = if i < n_nodes / 4 + 1 { 4.0 } else { 1.0 };
        let id = rt.register_node(rate).unwrap();
        let measured = rate * (0.95 + 0.1 * (i as f64 * 0.618_034).fract());
        for _ in 0..SAMPLES {
            rt.record_service(id, 1.0 / measured);
        }
        capacity += measured;
    }
    let gap = 1.0 / (0.7 * capacity);
    for k in 0..64 {
        rt.record_arrival(f64::from(k) * gap);
    }
    let ids = rt.node_ids();
    for k in 0..8 {
        for &id in &ids {
            rt.observe_success(id, 0.01 * f64::from(k)).unwrap();
        }
    }
    rt.resolve_now().unwrap();
    rt
}

fn bench_chaos_trace(c: &mut Criterion) {
    // End to end: a closed-loop trace driven through a scripted
    // crash-recover with heartbeats, detection, retry, and healing.
    const JOBS: u64 = 2_000;
    let mut group = c.benchmark_group("failover_chaos");
    group.sample_size(10);
    group.throughput(Throughput::Elements(JOBS));
    group.bench_function(BenchmarkId::new("crash_recover_trace", JOBS), |b| {
        b.iter(|| {
            let rt = Runtime::builder()
                .seed(0xF1A6)
                .scheme(SchemeKind::Coop)
                .nominal_arrival_rate(2.1)
                .build();
            let ids: Vec<NodeId> =
                [4.0, 2.0, 1.0].iter().map(|&rate| rt.register_node(rate).unwrap()).collect();
            rt.resolve_now().unwrap();
            let plan = FaultPlan::new(0xC4A05).crash_recover(ids[0], 40.0, 60.0);
            let mut driver = TraceDriver::new(2.1, TraceConfig { seed: 0xBEEF, batch_size: 500 })
                .with_faults(plan)
                .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
                .with_heartbeats(1.0);
            driver.run_jobs(&rt, JOBS).unwrap();
            let stats = driver.stats();
            assert!(stats.is_conserved());
            black_box(stats.mean_response)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_detector,
    bench_fault_lookup,
    bench_backoff,
    bench_failover_cycle,
    bench_chaos_trace
);
criterion_main!(benches);
