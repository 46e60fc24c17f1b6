//! The PR-4 hot-path benchmarks: alias-method routing against the
//! reference inverse-CDF path (n ∈ {4, 64, 1024}), the lock-free epoch
//! swap against an `RwLock`-based slot under reader fan-in (1/4/8
//! threads), and batched submission against per-job submission at
//! batch = 64. `GTLB_BENCH_JSON` emits the records CI gates on
//! (`BENCH_routing.json`): alias must be ≥ 1.5× the CDF path at
//! n = 1024 and batch submit ≥ 1.3× per-job submit at batch = 64.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_runtime::{EpochSwap, NodeId, RoutingTable, Runtime, SchemeKind, MAX_BELOW_ONE};

/// A mildly skewed table over `n` nodes (a few fast, a tail of slow —
/// the same shape the allocators produce).
fn skewed_table(n: usize) -> RoutingTable {
    let ids = (0..n as u64).map(NodeId::from_raw).collect();
    let weights: Vec<f64> = (0..n).map(|i| if i < n / 4 + 1 { 4.0 } else { 1.0 }).collect();
    RoutingTable::new(1, ids, &weights).unwrap()
}

/// Pre-drawn uniforms so both routing paths consume identical inputs
/// and the RNG cost stays out of the comparison.
fn draws(count: usize) -> Vec<f64> {
    let mut rng = Xoshiro256PlusPlus::stream(7, 0x0400);
    (0..count).map(|_| rng.next_open01()).collect()
}

fn bench_route(c: &mut Criterion) {
    let us = draws(4096);
    let mut group = c.benchmark_group("routing_route");
    group.throughput(Throughput::Elements(us.len() as u64));
    for &n in &[4usize, 64, 1024] {
        let table = skewed_table(n);
        let cdf = CdfTable::new(&table);
        group.bench_with_input(BenchmarkId::new("cdf", n), &cdf, |b, t| {
            b.iter(|| {
                let mut sink = 0u64;
                for &u in &us {
                    sink = sink.wrapping_add(t.route(u).raw());
                }
                black_box(sink)
            })
        });
        group.bench_with_input(BenchmarkId::new("alias", n), &table, |b, t| {
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

/// The reference inverse-CDF router: `O(log n)` `partition_point`
/// over the cumulative distribution, pinned to exactly 1.0 from the
/// last positive-probability node onward. Kept here as the baseline
/// alias routing is gated against.
struct CdfTable {
    nodes: Vec<NodeId>,
    cum: Vec<f64>,
}

impl CdfTable {
    fn new(table: &RoutingTable) -> Self {
        let probs = table.probs();
        let mut cum = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in probs {
            acc += p;
            cum.push(acc);
        }
        let last_positive = probs.iter().rposition(|&p| p > 0.0).expect("total > 0");
        for c in cum.iter_mut().skip(last_positive) {
            *c = 1.0;
        }
        Self { nodes: table.nodes().to_vec(), cum }
    }

    fn route(&self, u: f64) -> NodeId {
        let u = if u.is_finite() { u.clamp(0.0, MAX_BELOW_ONE) } else { 0.0 };
        let i = self.cum.partition_point(|&c| c <= u).min(self.nodes.len() - 1);
        self.nodes[i]
    }
}

/// The pre-PR-4 slot: readers and the writer share an `RwLock`, every
/// load pays a read-lock acquisition. Kept here as the baseline the
/// lock-free swap is gated against.
struct LockedSwap {
    inner: RwLock<Arc<RoutingTable>>,
}

impl LockedSwap {
    fn new(table: RoutingTable) -> Self {
        Self { inner: RwLock::new(Arc::new(table)) }
    }

    fn load(&self) -> Arc<RoutingTable> {
        Arc::clone(&self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

/// Measures `load()` on the calling thread while `readers − 1`
/// background threads hammer the same slot.
fn bench_swap_variant<S: Send + Sync + 'static>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    readers: usize,
    slot: Arc<S>,
    load: fn(&S) -> Arc<RoutingTable>,
) {
    let stop = Arc::new(AtomicBool::new(false));
    let background: Vec<_> = (0..readers - 1)
        .map(|_| {
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sink = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    sink = sink.wrapping_add(load(&slot).epoch());
                }
                sink
            })
        })
        .collect();
    group.bench_function(BenchmarkId::new(name, readers), |b| {
        b.iter(|| black_box(load(&slot).epoch()))
    });
    stop.store(true, Ordering::Relaxed);
    for handle in background {
        let _ = handle.join();
    }
}

fn bench_swap(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_swap");
    group.throughput(Throughput::Elements(1));
    for &readers in &[1usize, 4, 8] {
        let locked = Arc::new(LockedSwap::new(skewed_table(64)));
        bench_swap_variant(&mut group, "locked", readers, locked, LockedSwap::load);
        let lockfree = Arc::new(EpochSwap::new(skewed_table(64)));
        bench_swap_variant(&mut group, "lockfree", readers, lockfree, EpochSwap::load);
    }
    group.finish();
}

fn bench_submit(c: &mut Criterion) {
    let batch = 64usize;
    let rt = Runtime::builder()
        .seed(42)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(0.7 * 64.0)
        .build();
    for i in 0..64 {
        rt.register_node(if i < 17 { 4.0 } else { 1.0 }).unwrap();
    }
    rt.resolve_now().unwrap();

    let mut group = c.benchmark_group("routing_submit");
    group.throughput(Throughput::Elements(batch as u64));
    group.bench_function(BenchmarkId::new("per_job", batch), |b| {
        b.iter(|| {
            let mut sink = 0u64;
            for _ in 0..batch {
                sink = sink.wrapping_add(rt.submit_on(0).unwrap().decision().unwrap().node.raw());
            }
            black_box(sink)
        })
    });
    group.bench_function(BenchmarkId::new("batch", batch), |b| {
        b.iter(|| {
            let out = rt.submit_batch_on(0, batch).unwrap();
            black_box(out.decisions.last().copied())
        })
    });
    group.finish();
}

criterion_group!(routing, bench_route, bench_swap, bench_submit);
criterion_main!(routing);
