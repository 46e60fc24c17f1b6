//! Online runtime hot paths: a whole job through the trace driver,
//! dispatch throughput (one uniform draw plus an O(1) alias lookup on
//! the dispatcher's cached table), the cost of publishing a fresh table
//! under reader load, and the re-solve and renormalize paths.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_runtime::driver::{TraceConfig, TraceDriver};
use gtlb_runtime::{EpochSwap, Runtime, SchemeKind};
use gtlb_sim::scenario::table31;

fn serving_runtime(n_nodes: usize) -> Runtime {
    let rt = Runtime::builder()
        .seed(42)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(0.7 * n_nodes as f64)
        .build();
    for i in 0..n_nodes {
        // Heterogeneous: a few fast nodes, a tail of slow ones.
        let rate = if i < n_nodes / 4 + 1 { 4.0 } else { 1.0 };
        rt.register_node(rate).unwrap();
    }
    rt.resolve_now().unwrap();
    rt
}

/// What a whole job costs: the paper's Table 3.1 cluster at ρ = 0.7
/// (the shape of the benchmark's `farm` workload) through
/// `TraceDriver::run_jobs` on a runtime built with the defaults, so
/// each job pays its arrival, route, service draw, estimator
/// feedback, telemetry and 1-in-64 tracing. One iteration runs 4,096
/// jobs.
fn bench_driver(c: &mut Criterion) {
    const JOBS: u64 = 4096;
    let cluster = table31();
    let phi = 0.7 * cluster.rates().iter().sum::<f64>();
    let rt =
        Runtime::builder().seed(0xBE9C).scheme(SchemeKind::Coop).nominal_arrival_rate(phi).build();
    for &rate in cluster.rates() {
        rt.register_node(rate).unwrap();
    }
    rt.resolve_now().unwrap();
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 0xBEEF, batch_size: 500 });
    let mut group = c.benchmark_group("runtime_driver");
    group.throughput(Throughput::Elements(JOBS));
    group.bench_function(BenchmarkId::new("table31", JOBS), |b| {
        b.iter(|| {
            driver.run_jobs(&rt, JOBS).unwrap();
            black_box(driver.clock())
        })
    });
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_dispatch");
    group.throughput(Throughput::Elements(1));
    for &n in &[2usize, 8, 32, 128] {
        let rt = serving_runtime(n);
        group.bench_with_input(BenchmarkId::new("dispatch", n), &rt, |b, rt| {
            b.iter(|| black_box(rt.dispatch().unwrap()))
        });
    }
    group.finish();
}

fn bench_publish(c: &mut Criterion) {
    // Publish latency: swap a copy of a prebuilt table into the slot (the
    // re-solver write path minus the solve itself; the copy stands in
    // for the table build), alone and against a reader.
    let rt = serving_runtime(8);
    let table = (*rt.current_table()).clone();
    let mut group = c.benchmark_group("runtime_publish");
    group.throughput(Throughput::Elements(1));

    let slot = Arc::new(EpochSwap::new(table.clone()));
    group.bench_function("publish_uncontended", |b| {
        b.iter(|| black_box(slot.publish(table.clone())))
    });

    let slot = Arc::new(EpochSwap::new(table.clone()));
    let reader_slot = Arc::clone(&slot);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader_stop = Arc::clone(&stop);
    let reader = std::thread::spawn(move || {
        let mut sink = 0u64;
        while !reader_stop.load(std::sync::atomic::Ordering::Relaxed) {
            sink = sink.wrapping_add(reader_slot.load().epoch());
        }
        sink
    });
    group
        .bench_function("publish_vs_reader", |b| b.iter(|| black_box(slot.publish(table.clone()))));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = reader.join();
    group.finish();
}

/// As [`serving_runtime`], but each node's service window is warm at its
/// own measured rate, a few percent off its declared one, so a solve
/// reads distinct measured rates as it does in a running cluster. The
/// arrival estimator stays cold: Φ is the nominal rate.
fn warm_runtime(n_nodes: usize) -> Runtime {
    const SAMPLES: usize = 16;
    let rt = Runtime::builder()
        .seed(42)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(0.7 * n_nodes as f64)
        .min_observations(u64::MAX, SAMPLES)
        .build();
    for i in 0..n_nodes {
        let rate = if i < n_nodes / 4 + 1 { 4.0 } else { 1.0 };
        let id = rt.register_node(rate).unwrap();
        let measured = rate * (0.95 + 0.1 * (i as f64 * 0.618_034).fract());
        for _ in 0..SAMPLES {
            rt.record_service(id, 1.0 / measured);
        }
    }
    rt.resolve_now().unwrap();
    rt
}

fn bench_resolve(c: &mut Criterion) {
    // The full periodic re-solve: snapshot, COOP solve, build, publish,
    // and the outcome `resolve_now` returns. At 8 and 32 nodes on
    // declared rates; at chaos and control-plane size on warm windows.
    let mut group = c.benchmark_group("runtime_resolve");
    for &n in &[8usize, 32] {
        let rt = serving_runtime(n);
        group.bench_with_input(BenchmarkId::new("coop_resolve", n), &rt, |b, rt| {
            b.iter(|| black_box(rt.resolve_now().unwrap()))
        });
    }
    for &n in &[256usize, 2048] {
        let rt = warm_runtime(n);
        group.bench_with_input(BenchmarkId::new("coop_resolve", n), &rt, |b, rt| {
            b.iter(|| black_box(rt.resolve_now().unwrap()))
        });
    }
    group.finish();
}

fn bench_failure_path(c: &mut Criterion) {
    // Renormalize-on-failure: RoutingTable::without_node, the latency
    // between "node died" and "no job routes to it".
    let rt = serving_runtime(32);
    let table = rt.current_table();
    let victim = table.nodes()[0];
    let mut group = c.benchmark_group("runtime_resolve");
    group.bench_function("renormalize_without_node_32", |b| {
        b.iter(|| black_box(table.without_node(victim, 1).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_driver,
    bench_dispatch,
    bench_publish,
    bench_resolve,
    bench_failure_path
);
criterion_main!(benches);
