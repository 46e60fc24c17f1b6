//! The per-job tracing overhead benchmarks. The headline gate: the
//! closed-loop driver with tracing **enabled** (default 1-in-64 head
//! sampling) must cost ≤ 1.03× the untraced driver loop
//! (`tracing_driver/{untraced,traced}/4096`; CI compares medians of
//! three quick runs from `BENCH_tracing.json`). The primitive
//! microbenches ride along to keep the building-block costs visible:
//! the SplitMix64 identity hash, the begin() hash-plus-mask test an
//! unsampled job pays, a full flight-recorder record of a finished
//! trace, and a read of every held trace (`/traces`) from four full
//! 4,096-trace lanes.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_runtime::driver::{TraceConfig, TraceDriver};
use gtlb_runtime::{Runtime, SchemeKind, Tracer, TracingConfig};
use gtlb_telemetry::trace::{trace_id, AttemptOutcome, FlightRecorder, SpanKind, Trace};

fn runtime(tracing: Option<TracingConfig>) -> Arc<Runtime> {
    let mut b = Runtime::builder().seed(0xBE9C).scheme(SchemeKind::Coop).nominal_arrival_rate(2.1);
    if let Some(cfg) = tracing {
        b = b.tracing_config(cfg);
    }
    let rt = Arc::new(b.build());
    for &rate in &[4.0, 2.0, 1.0] {
        rt.register_node(rate).unwrap();
    }
    rt.resolve_now().unwrap();
    rt
}

/// The gated comparison: the identical driver loop (arrival draw,
/// dispatch, FCFS service simulation, estimator feedback) per job,
/// untraced vs traced at the default sampling mask. Both sides push
/// the same 4096-job block per iteration.
fn bench_driver_overhead(c: &mut Criterion) {
    const JOBS: u64 = 4096;
    let mut group = c.benchmark_group("tracing_driver");
    group.throughput(Throughput::Elements(JOBS));
    for (label, cfg) in [("untraced", None), ("traced", Some(TracingConfig::default()))] {
        let rt = runtime(cfg);
        let mut driver = TraceDriver::new(2.1, TraceConfig { seed: 0xBEEF, batch_size: 500 });
        group.bench_function(BenchmarkId::new(label, JOBS), |b| {
            b.iter(|| {
                driver.run_jobs(&rt, JOBS).unwrap();
                black_box(driver.clock())
            })
        });
    }
    group.finish();
}

/// Primitive costs: the identity hash, the unsampled-job fast path
/// (one hash plus one mask test), a whole-trace recorder push, and a
/// read of 16,384 held traces.
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracing_primitive");
    group.bench_function("trace_id_hash", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            black_box(trace_id(0xF1A6, seq))
        })
    });
    let tracer = Tracer::enabled(0xF1A6, 1, TracingConfig::default());
    group.bench_function("begin_default_mask", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            black_box(tracer.begin(seq).is_some())
        })
    });
    let recorder = FlightRecorder::new(1, TracingConfig::default().recorder_capacity);
    group.bench_function("recorder_record", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            recorder.record(0, finished(seq, 0.0));
            seq += 1;
        })
    });
    // Four shard lanes of 4,096 traces each, all held: what `/traces`
    // reads from a recorder at a large capacity.
    const LANES: usize = 4;
    const HELD: usize = 4096;
    let full = FlightRecorder::new(LANES, HELD);
    for seq in 0..(LANES * HELD) as u64 {
        full.record(seq as usize % LANES, finished(seq, seq as f64 * 0.01));
    }
    group.bench_function(BenchmarkId::new("recorder_traces", LANES * HELD), |b| {
        b.iter(|| black_box(full.traces().len()))
    });
    group.finish();
}

/// A finished one-attempt trace of job `seq`, admitted at `start`.
fn finished(seq: u64, start: f64) -> Trace {
    let mut t = Trace::new(trace_id(7, seq), seq);
    t.instant(SpanKind::Admitted, start);
    t.instant(SpanKind::Routed { node: 1, epoch: 1, shard: 0 }, start);
    t.interval(
        SpanKind::Attempt { n: 1, outcome: AttemptOutcome::Ok, backoff: 0.0 },
        start,
        start + 0.5,
    );
    t.instant(SpanKind::Completed, start + 0.5);
    t
}

criterion_group!(benches, bench_driver_overhead, bench_primitives);
criterion_main!(benches);
