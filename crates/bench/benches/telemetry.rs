//! The PR-5 observability overhead benchmarks. The headline gate:
//! dispatching with telemetry **enabled** must cost
//! ≤ 1.03× the disabled path on the n = 1024 alias table
//! (`telemetry_route/{disabled,enabled}/1024`; CI compares medians of
//! three quick runs from `BENCH_telemetry.json`). The driver rows
//! (`telemetry_driver/{disabled,enabled}/4096`) time what telemetry
//! costs a whole job on the paper's Table 3.1 cluster; CI prints their
//! ratio without gating it. The instrument microbenches ride along to
//! keep the primitive costs visible: counter add, histogram record, the
//! driver's buffered record-and-absorb and event-ring push. The scrape
//! rows time the code a scrape runs, `Runtime::telemetry_snapshot` and
//! both renderings, on a 16-node runtime after a run and on a
//! control-plane-sized one (2,048 heartbeated nodes, so three 2,048-cell
//! per-node gauge families).

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_runtime::driver::{TraceConfig, TraceDriver};
use gtlb_runtime::telemetry::TELEMETRY_EVENT_CAPACITY;
use gtlb_runtime::{Dispatcher, EpochSwap, NodeId, RoutingTable, Runtime, SchemeKind, Telemetry};
use gtlb_sim::scenario::table31;
use gtlb_telemetry::{Counter, EventRing, Histogram, HistogramSnapshot, TaggedEvent};

/// The same mildly skewed table shape the routing bench gates on.
fn skewed_table(n: usize) -> RoutingTable {
    let ids = (0..n as u64).map(NodeId::from_raw).collect();
    let weights: Vec<f64> = (0..n).map(|i| if i < n / 4 + 1 { 4.0 } else { 1.0 }).collect();
    RoutingTable::new(1, ids, &weights).unwrap()
}

fn dispatcher(n: usize, telemetry: Telemetry) -> Dispatcher {
    let swap = Arc::new(EpochSwap::new(skewed_table(n)));
    Dispatcher::with_telemetry(swap, 0xBE9C, telemetry)
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
            [("disabled", Telemetry::disabled()), ("enabled", Telemetry::enabled())]
        {
            let dispatcher = dispatcher(n, telemetry);
            group.bench_with_input(BenchmarkId::new(label, n), &dispatcher, |b, d| {
                b.iter(|| {
                    let mut guard = d.guard();
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
/// record), one record absorbed on its own (the absorb's fixed cost,
/// which visits only the buckets the buffer touched), one ring push (at
/// wraparound, the worst case).
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
    group.bench_function("histogram_absorb_one_value", |b| {
        let mut x = 0.001f64;
        b.iter(|| {
            pending.record(black_box(x));
            histogram.absorb(&mut pending);
            x = next_latency(x);
        })
    });
    let ring: EventRing<u64> = EventRing::new(TELEMETRY_EVENT_CAPACITY);
    for k in 0..TELEMETRY_EVENT_CAPACITY as u64 {
        ring.push(TaggedEvent { time: k as f64, stream: 0, event: k });
    }
    group.bench_function("ring_push_wrapped", |b| {
        let mut k = 0u64;
        b.iter(|| {
            ring.push(TaggedEvent { time: k as f64, stream: 0, event: k });
            k += 1;
        })
    });
    group.finish();
}

/// The Table 3.1 cluster at ρ = 0.7 with telemetry on, after 20,000
/// jobs through `TraceDriver`: the plain scrape rows' runtime, with
/// well-filled latency histograms.
fn farm_runtime() -> Runtime {
    let cluster = table31();
    let phi = 0.7 * cluster.rates().iter().sum::<f64>();
    let rt = Runtime::builder()
        .seed(0xBE9C)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .telemetry(true)
        .build();
    for &rate in cluster.rates() {
        rt.register_node(rate).unwrap();
    }
    rt.resolve_now().unwrap();
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 0xBEEF, batch_size: 500 });
    driver.run_jobs(&rt, 20_000).unwrap();
    rt
}

/// A runtime shaped like the `control` workload's: `nodes` registered
/// nodes at rates 1–16 with full service windows, each heartbeated
/// eight times, resolved once, and the telemetry clock past the last
/// beat, so every node's φ carries a silence term.
fn fleet_runtime(nodes: u64) -> Runtime {
    let rt = Runtime::builder()
        .seed(31)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(0.5 * nodes as f64)
        .telemetry(true)
        .build();
    let window = rt.config().service_window;
    for i in 0..nodes {
        let rate = 1.0 + (i % 16) as f64;
        let id = rt.register_node(rate).unwrap();
        for k in 0..window {
            rt.record_service(id, [0.8, 1.0, 1.2][k % 3] / rate);
        }
        for beat in 1..=8 {
            rt.observe_success(id, f64::from(beat)).unwrap();
        }
    }
    rt.resolve_now().unwrap();
    rt.telemetry().set_clock(9.5);
    rt
}

/// A full scrape (the reader side; never on the hot path, but it
/// bounds dashboard poll cost): `Runtime::telemetry_snapshot` and its
/// two renderings, on the 16-node runtime and at control-plane size
/// (`…/nodes2048`).
fn bench_scrape(c: &mut Criterion) {
    const NODES: u64 = 2048;
    let mut group = c.benchmark_group("telemetry_scrape");
    let rt = farm_runtime();
    group.bench_function("snapshot", |b| b.iter(|| black_box(rt.telemetry_snapshot())));
    let snap = rt.telemetry_snapshot().unwrap();
    group.bench_function("prometheus", |b| b.iter(|| black_box(snap.to_prometheus())));
    group.bench_function("json", |b| b.iter(|| black_box(snap.to_json())));
    let fleet = fleet_runtime(NODES);
    let nodes = format!("nodes{NODES}");
    group.bench_function(BenchmarkId::new("snapshot", &nodes), |b| {
        b.iter(|| black_box(fleet.telemetry_snapshot()))
    });
    let snap = fleet.telemetry_snapshot().unwrap();
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
