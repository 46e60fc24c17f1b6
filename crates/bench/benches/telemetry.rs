//! The telemetry benchmarks. Every runtime records telemetry, so what
//! it costs a whole job is inside `runtime_driver/table31/4096` in the
//! `runtime` bench, and the dispatcher holds no telemetry handle, so a
//! route records nothing. The instrument microbenches keep the
//! primitive costs visible: counter add, histogram record and the
//! driver's buffered record-and-absorb. The scrape rows time the code a
//! scrape runs, `Runtime::telemetry_snapshot` and both renderings, on a
//! 16-node runtime after a run and on a control-plane-sized one (2,048
//! heartbeated nodes, so three 2,048-cell per-node gauge families).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtlb_runtime::driver::{TraceConfig, TraceDriver};
use gtlb_runtime::{Runtime, SchemeKind};
use gtlb_sim::scenario::table31;
use gtlb_telemetry::{Counter, Histogram, HistogramSnapshot};

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
/// record) and one record absorbed on its own (the absorb's fixed cost,
/// which visits only the buckets the buffer touched).
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
    group.finish();
}

/// The Table 3.1 cluster at ρ = 0.7 after 20,000 jobs through
/// `TraceDriver`: the plain scrape rows' runtime, with well-filled
/// latency histograms.
fn farm_runtime() -> Runtime {
    let cluster = table31();
    let phi = 0.7 * cluster.rates().iter().sum::<f64>();
    let rt =
        Runtime::builder().seed(0xBE9C).scheme(SchemeKind::Coop).nominal_arrival_rate(phi).build();
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

criterion_group!(benches, bench_instruments, bench_scrape);
criterion_main!(benches);
