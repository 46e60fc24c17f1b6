//! Hot-path benchmarks: the route itself and the publish cost.
//!
//! Two groups feed `BENCH_hotpath.json` (via `GTLB_BENCH_JSON`):
//!
//! * `hotpath_route/table/{16,1024,65536}` — ns/route through a plain
//!   `&RoutingTable`, as a shard routes on its cached table, at three
//!   table sizes;
//! * `hotpath_publish/rebuild/65536` — publish latency of one full
//!   `RoutingTable::new` build at n = 65536, the path every publish
//!   takes.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_runtime::{NodeId, RoutingTable};

/// Irregular weights with no two buckets equal and no knife-edge
/// residuals (a Weyl-style sequence in [1, 2)): uniform weights would
/// make every alias residual exactly 1.0 and a 4:1 split would make
/// them repeat, both of which shortcut the alias construction.
fn irregular_weights(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i as u64).wrapping_mul(2_654_435_761) % 997) as f64 / 997.0).collect()
}

fn irregular_table(n: usize) -> RoutingTable {
    let ids = (0..n as u64).map(NodeId::from_raw).collect();
    RoutingTable::new(1, ids, &irregular_weights(n)).unwrap()
}

/// Pre-drawn uniforms (dispatch stream family) so the RNG cost stays
/// out of the route comparison.
fn draws(count: usize) -> Vec<f64> {
    let mut rng = Xoshiro256PlusPlus::stream(7, 0x0400);
    (0..count).map(|_| rng.next_open01()).collect()
}

fn bench_route(c: &mut Criterion) {
    let us = draws(4096);
    let mut group = c.benchmark_group("hotpath_route");
    group.throughput(Throughput::Elements(us.len() as u64));
    for &n in &[16usize, 1024, 65536] {
        let table = irregular_table(n);
        group.bench_with_input(BenchmarkId::new("table", n), &table, |b, t| {
            b.iter(|| {
                let mut sink = 0u64;
                for &u in &us {
                    sink = sink.wrapping_add(t.route(u).raw());
                }
                black_box(sink)
            })
        });
    }
    group.finish();
}

fn bench_publish(c: &mut Criterion) {
    let n = 65536usize;
    let ids: Vec<NodeId> = (0..n as u64).map(NodeId::from_raw).collect();
    let weights = irregular_weights(n);
    let mut group = c.benchmark_group("hotpath_publish");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("rebuild", n), |b| {
        b.iter(|| black_box(RoutingTable::new(2, ids.clone(), &weights).unwrap()))
    });
    group.finish();
}

criterion_group!(hotpath, bench_route, bench_publish);
criterion_main!(hotpath);
