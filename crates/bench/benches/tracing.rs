//! The tracing primitives every runtime's jobs pay for: the SplitMix64
//! identity hash, the `begin()` hash-plus-mask test an unsampled job
//! pays, a full flight-recorder record of a finished trace, and a read
//! of every held trace (`/traces`) from one full 16,384-trace lane.
//! Every runtime traces one job in 64, so what tracing costs a whole
//! job is inside `runtime_driver/table31/4096` in the `runtime` bench.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtlb_runtime::{Tracer, TracingConfig};
use gtlb_telemetry::trace::{trace_id, AttemptOutcome, FlightRecorder, SpanKind, Trace};

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
    let tracer = Tracer::new(0xF1A6, TracingConfig::default());
    group.bench_function("begin_default_mask", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            black_box(tracer.begin(seq).is_some())
        })
    });
    let recorder = FlightRecorder::new(TracingConfig::default().recorder_capacity);
    group.bench_function("recorder_record", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            recorder.record(finished(seq, 0.0));
            seq += 1;
        })
    });
    // A full lane of 16,384 traces: what `/traces` reads from a recorder
    // at a large capacity.
    const HELD: usize = 16_384;
    let full = FlightRecorder::new(HELD);
    for seq in 0..HELD as u64 {
        full.record(finished(seq, seq as f64 * 0.01));
    }
    group.bench_function(BenchmarkId::new("recorder_traces", HELD), |b| {
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

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
