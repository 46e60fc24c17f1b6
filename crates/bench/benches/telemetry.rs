//! The PR-5 observability overhead benchmarks. The headline gate:
//! dispatching through a shard with telemetry **enabled** must cost
//! ≤ 1.03× the disabled path on the n = 1024 alias table
//! (`telemetry_route/{disabled,enabled}/1024`; CI compares medians of
//! three quick runs from `BENCH_telemetry.json`). The driver rows
//! (`telemetry_driver/{disabled,enabled}/4096`) time what telemetry
//! costs a whole job on the paper's Table 3.1 cluster; CI prints their
//! ratio without gating it. The instrument microbenches ride along to
//! keep the primitive costs visible: counter add, histogram record, the
//! driver's buffered record-and-absorb, event-ring push, and a full
//! registry scrape, alone and at control-plane size (three 2,048-cell
//! per-node gauge families).

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_runtime::driver::{TraceConfig, TraceDriver};
use gtlb_runtime::telemetry::TELEMETRY_EVENT_CAPACITY;
use gtlb_runtime::{
    EpochSwap, NodeId, RoutingTable, Runtime, SchemeKind, ShardedDispatcher, Telemetry,
};
use gtlb_sim::scenario::table31;
use gtlb_telemetry::{Counter, EventRing, Histogram, HistogramSnapshot, Registry, TaggedEvent};

/// The same mildly skewed table shape the routing bench gates on.
fn skewed_table(n: usize) -> RoutingTable {
    let ids = (0..n as u64).map(NodeId::from_raw).collect();
    let weights: Vec<f64> = (0..n).map(|i| if i < n / 4 + 1 { 4.0 } else { 1.0 }).collect();
    RoutingTable::new(1, ids, &weights).unwrap()
}

fn dispatcher(n: usize, telemetry: Telemetry) -> ShardedDispatcher {
    let swap = Arc::new(EpochSwap::new(skewed_table(n)));
    ShardedDispatcher::with_telemetry(swap, 0xBE9C, 1, telemetry)
}

/// The gated comparison: the identical decision stream, drawn through
/// the alias table at n = 1024, with the facade disabled vs enabled
/// (sampled ring pushes every 1024th dispatch). Both sides route the
/// same 4096-job block per iteration.
fn bench_route_overhead(c: &mut Criterion) {
    const JOBS: usize = 4096;
    let mut group = c.benchmark_group("telemetry_route");
    group.throughput(Throughput::Elements(JOBS as u64));
    for &n in &[64usize, 1024] {
        for (label, telemetry) in
            [("disabled", Telemetry::disabled()), ("enabled", Telemetry::enabled(1))]
        {
            let sharded = dispatcher(n, telemetry);
            group.bench_with_input(BenchmarkId::new(label, n), &sharded, |b, s| {
                b.iter(|| {
                    let mut guard = s.shard(0);
                    let mut sink = 0u64;
                    for _ in 0..JOBS {
                        sink = sink.wrapping_add(guard.dispatch().unwrap().node.raw());
                    }
                    black_box(sink)
                })
            });
        }
    }
    group.finish();
}

/// What telemetry costs a whole job: the paper's Table 3.1 cluster at
/// ρ = 0.7 (the shape of the benchmark's `farm` workload) through
/// `TraceDriver::run_jobs`, tracing off, with telemetry disabled vs
/// enabled. Both sides push the same 4096-job block per iteration, so
/// the difference of the two rows is the telemetry cost of 4,096 jobs.
fn bench_driver_overhead(c: &mut Criterion) {
    const JOBS: u64 = 4096;
    let cluster = table31();
    let phi = 0.7 * cluster.rates().iter().sum::<f64>();
    let mut group = c.benchmark_group("telemetry_driver");
    group.throughput(Throughput::Elements(JOBS));
    for (label, enabled) in [("disabled", false), ("enabled", true)] {
        let rt = Runtime::builder()
            .seed(0xBE9C)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(phi)
            .telemetry(enabled)
            .build();
        for &rate in cluster.rates() {
            rt.register_node(rate).unwrap();
        }
        rt.resolve_now().unwrap();
        let mut driver = TraceDriver::new(phi, TraceConfig { seed: 0xBEEF, batch_size: 500 });
        group.bench_function(BenchmarkId::new(label, JOBS), |b| {
            b.iter(|| {
                driver.run_jobs(&rt, JOBS).unwrap();
                black_box(driver.clock())
            })
        });
    }
    group.finish();
}

/// Latency-shaped values for the histogram rows: 0.001 … 100, each
/// 1 % above the last.
fn next_latency(x: f64) -> f64 {
    if x > 100.0 {
        0.001
    } else {
        x * 1.01
    }
}

/// Primitive write costs: one counter add, one histogram
/// record, the driver's buffered path (4,096 plain records and the
/// absorb that adds them in; divide by 4,096 to set it against one
/// record), one ring push (at wraparound, the worst case).
fn bench_instruments(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_instrument");
    let counter = Counter::new();
    group.bench_function("counter_add", |b| b.iter(|| counter.add(black_box(1))));
    let histogram = Histogram::new();
    group.bench_function("histogram_record", |b| {
        let mut x = 0.001f64;
        b.iter(|| {
            histogram.record(black_box(x));
            x = next_latency(x);
        })
    });
    let mut pending = HistogramSnapshot::empty();
    group.bench_function("histogram_absorb", |b| {
        let mut x = 0.001f64;
        b.iter(|| {
            for _ in 0..4096 {
                pending.record(black_box(x));
                x = next_latency(x);
            }
            histogram.absorb(&mut pending);
        })
    });
    let ring: EventRing<u64> = EventRing::new(1, TELEMETRY_EVENT_CAPACITY);
    for k in 0..TELEMETRY_EVENT_CAPACITY as u64 {
        ring.push(0, TaggedEvent { time: k as f64, shard: 0, stream: 0, event: k });
    }
    group.bench_function("ring_push_wrapped", |b| {
        let mut k = 0u64;
        b.iter(|| {
            ring.push(0, TaggedEvent { time: k as f64, shard: 0, stream: 0, event: k });
            k += 1;
        })
    });
    group.finish();
}

/// A registry shaped like the runtime's fixed instrument set: three
/// counters, one gauge and two well-filled histograms.
fn runtime_shaped_registry() -> Registry {
    let registry = Registry::new();
    for name in ["gtlb_dispatches_total", "gtlb_retries_total", "gtlb_fault_drops_total"] {
        registry.counter(name).add(4_006);
    }
    registry.gauge("gtlb_offered_utilization").set(0.83);
    for name in ["gtlb_response_seconds", "gtlb_queue_wait_seconds"] {
        let h = registry.histogram(name);
        let mut x = 0.0005f64;
        for _ in 0..10_000 {
            h.record(x);
            x = if x > 500.0 { 0.0005 } else { x * 1.003 };
        }
    }
    registry
}

/// A full scrape (the reader side; never on the hot path, but it
/// bounds dashboard poll cost) of the runtime-shaped registry, alone
/// and with the three per-node suspicion families a 2,048-node
/// control plane holds (`…/nodes2048`), each rewritten as the runtime
/// does before every scrape.
fn bench_scrape(c: &mut Criterion) {
    const NODES: u64 = 2048;
    let registry = runtime_shaped_registry();
    let fleet = runtime_shaped_registry();
    let families: Vec<_> = ["gtlb_node_phi", "gtlb_node_suspect_phi", "gtlb_node_down_phi"]
        .into_iter()
        .map(|name| fleet.gauge_family(name, "node"))
        .collect();
    let rewrite = || {
        for (k, family) in families.iter().enumerate() {
            family.replace((0..NODES).map(|id| (id, (k as f64 + 1.0) * 0.37 + id as f64 * 1e-3)));
        }
    };
    let mut group = c.benchmark_group("telemetry_scrape");
    group.bench_function("snapshot", |b| b.iter(|| black_box(registry.snapshot())));
    let snap = registry.snapshot();
    group.bench_function("prometheus", |b| b.iter(|| black_box(snap.to_prometheus())));
    group.bench_function("json", |b| b.iter(|| black_box(snap.to_json())));
    let nodes = format!("nodes{NODES}");
    group.bench_function(BenchmarkId::new("snapshot", &nodes), |b| {
        b.iter(|| {
            rewrite();
            black_box(fleet.snapshot())
        })
    });
    rewrite();
    let snap = fleet.snapshot();
    group.bench_function(BenchmarkId::new("prometheus", &nodes), |b| {
        b.iter(|| black_box(snap.to_prometheus()))
    });
    group
        .bench_function(BenchmarkId::new("json", &nodes), |b| b.iter(|| black_box(snap.to_json())));
    group.finish();
}

criterion_group!(
    benches,
    bench_route_overhead,
    bench_driver_overhead,
    bench_instruments,
    bench_scrape
);
criterion_main!(benches);
