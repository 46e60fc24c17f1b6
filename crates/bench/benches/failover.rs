//! Failover hot paths: what the fault-tolerance layer costs when nothing
//! is failing (detector bookkeeping, fault-window lookups, backoff
//! arithmetic), and the end-to-end failover latency — from "node died"
//! through the renormalized publish to the full re-solve that restores
//! it — plus a small chaos trace driven through a scripted crash.
//!
//! CI runs this in quick mode and uploads the numbers as
//! `BENCH_failover.json`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_runtime::{
    FaultInjector, FaultPlan, NodeId, RetryConfig, RetryPolicy, Runtime, SchemeKind, TraceConfig,
    TraceDriver,
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
    group.finish();
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
            black_box(inj.dispatch_drops(ids[0], t))
        })
    });
    group.bench_function("attempt_clean", |b| {
        let mut t = 1.0;
        b.iter(|| {
            t += 0.01;
            black_box(inj.dispatch_drops(ids[3], t))
        })
    });
    group.bench_function("service_factor", |b| {
        b.iter(|| black_box(inj.service_factor(ids[1], 5.0)))
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
    group.finish();
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
