//! Print the determinism fingerprints `tests/expected_fingerprints.txt` pins.
//!
//! Two contracts claim that nothing but the seed decides a result:
//!
//! * **replication** — `replicate_parallel` fans simulation replications
//!   out over `RAYON_NUM_THREADS` workers, and the aggregated result is
//!   bit-identical to the sequential run;
//! * **chaos trace** — a closed-loop run through the runtime's one
//!   dispatcher, with faults, retries and the failure detector, is a
//!   pure function of (seed, plan).
//!
//! This example condenses them into one stable hex line each on stdout
//! (environment details go to stderr). `tests/fingerprints.rs` checks
//! every line against `tests/expected_fingerprints.txt`, so `cargo test`
//! under any `RAYON_NUM_THREADS` catches a determinism regression.
//!
//! Two more contracts ride along: which jobs tracing samples, and the
//! control plane, are observation-only. Every runtime records telemetry
//! and traces one job in 64; [`Observers`] makes the chaos trace's
//! runtime trace every job instead, and attaches a live `gtlb-net`
//! listener (bound to a loopback port, probed once, otherwise idle) —
//! and every fingerprint must still be bit-identical: neither draws
//! from an RNG stream or feeds a deterministic output.
//! `tests/fingerprints.rs` checks all four combinations. The
//! `traced_chaos` line complements it from the other side: it keeps
//! the default mask whatever the observers say and folds the recorded
//! trace set itself, so the *traces* are pinned as a pure function of
//! (seed, plan) too — identical across the thread matrix and across
//! every observer.
//!
//! `main` prints the fingerprints with the defaults:
//!
//! ```text
//! RAYON_NUM_THREADS=2 cargo run --release --example determinism_fingerprint
//! ```

use std::io::{Read, Write};
use std::sync::Arc;

use gtlb::balancing::model::Cluster;
use gtlb::balancing::schemes::{Coop, SingleClassScheme};
use gtlb::desim::par::thread_count;
use gtlb::desim::replication::ReplicatedResult;
use gtlb::net::ControlPlane;
use gtlb::prelude::*;
use gtlb::sim::runner::{replicate_parallel, single_class_spec, ArrivalLaw, SimBudget};

/// FNV-1a over little-endian words: stable across platforms and runs.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The observation-only choices every runtime-backed fingerprint runs
/// with. Each combination must print the same fingerprints.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observers {
    /// Trace every job of the chaos trace, not the default one in 64.
    pub sample_all: bool,
    /// A live loopback control plane, probed once and otherwise idle.
    pub control_plane: bool,
}

/// Attaches an idle loopback control plane to `rt` when `obs` asks for
/// one, probing `/healthz` once so the listener is demonstrably live,
/// not just bound. The returned guard keeps it serving until the
/// fingerprint is folded.
fn attach_idle_control_plane(rt: &Arc<Runtime>, obs: Observers) -> Option<ControlPlane> {
    if !obs.control_plane {
        return None;
    }
    let cp = ControlPlane::builder(Arc::clone(rt))
        .bind("127.0.0.1:0")
        .workers(1)
        .start()
        .expect("attach control plane");
    let mut conn = std::net::TcpStream::connect(cp.local_addr()).expect("connect");
    conn.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n").expect("probe");
    let mut resp = String::new();
    conn.read_to_string(&mut resp).expect("probe response");
    assert!(resp.starts_with("HTTP/1.1 200 "), "control plane probe failed: {resp}");
    Some(cp)
}

/// Every f64 a downstream consumer can observe from a replicated run,
/// folded as raw bits (mirrors the replication determinism test).
fn replication_fingerprint(res: &ReplicatedResult) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, res.overall.mean.to_bits());
    fold(&mut h, res.overall.half_width.to_bits());
    for ci in res.per_user.iter().chain(&res.per_computer).chain(&res.utilization) {
        fold(&mut h, ci.mean.to_bits());
        fold(&mut h, ci.half_width.to_bits());
    }
    for rep in &res.raw {
        fold(&mut h, rep.overall.mean().to_bits());
        for w in &rep.per_computer {
            fold(&mut h, w.mean().to_bits());
            fold(&mut h, w.count());
        }
        for &u in &rep.utilization {
            fold(&mut h, u.to_bits());
        }
    }
    h
}

/// A closed-loop chaos trace: scripted crash-recover + flaky faults, an
/// accrual detector on heartbeats, and retry/backoff dispatch, folded
/// into one word (stats, counters, queue clock, and every health
/// transition). The fault and retry draws live on their own stream
/// families, so this trace is a pure function of (seed, plan) — checked
/// across the thread matrix with faults *enabled*.
fn chaos_trace_fingerprint(obs: Observers) -> u64 {
    let tracing =
        if obs.sample_all { TracingConfig::sample_all() } else { TracingConfig::default() };
    let rt = Arc::new(
        Runtime::builder()
            .seed(0xF1A6)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(2.1)
            .admission(AdmissionConfig { target_utilization: 0.95, defer_band: 0.0 })
            .tracing_config(tracing)
            .build(),
    );
    let _cp = attach_idle_control_plane(&rt, obs);
    let ids: Vec<NodeId> =
        [4.0, 2.0, 1.0].iter().map(|&rate| rt.register_node(rate).unwrap()).collect();
    rt.resolve_now().unwrap();

    let plan = FaultPlan::new(0xC4A05)
        .crash_recover(ids[0], 40.0, 60.0)
        .flaky(ids[2], 100.0, 50.0, 0.35)
        .slow(ids[1], 160.0, 40.0, 0.5);
    let mut driver = TraceDriver::new(2.1, TraceConfig { seed: 0xBEEF, batch_size: 500 })
        .with_faults(plan.clone())
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    driver.run_jobs(&rt, 6_000).unwrap();

    let stats = driver.stats();
    assert!(stats.is_conserved(), "chaos trace lost jobs: {stats:?}");
    let mut h = FNV_OFFSET;
    fold(&mut h, plan.schedule_fingerprint());
    fold(&mut h, stats.mean_response.to_bits());
    fold(&mut h, stats.submitted);
    fold(&mut h, stats.accepted);
    fold(&mut h, stats.rejected);
    fold(&mut h, stats.deferred);
    fold(&mut h, stats.failed);
    fold(&mut h, stats.retried);
    fold(&mut h, driver.clock().to_bits());
    for (id, count) in &stats.per_node {
        fold(&mut h, id.raw());
        fold(&mut h, *count);
    }
    for tr in rt.health_transitions() {
        fold(&mut h, tr.node.raw());
        fold(&mut h, tr.at.to_bits());
    }
    h
}

/// Encodes a span kind as four stable words for fingerprint folding.
fn span_words(kind: SpanKind) -> (u64, u64, u64, u64) {
    match kind {
        SpanKind::Admitted => (0, 0, 0, 0),
        SpanKind::Deferred => (1, 0, 0, 0),
        SpanKind::Rejected => (2, 0, 0, 0),
        SpanKind::Queued { depth } => (3, depth, 0, 0),
        SpanKind::Routed { node, epoch, shard } => (4, node, epoch, u64::from(shard)),
        SpanKind::Attempt { n, outcome, backoff } => {
            (5, u64::from(n), outcome.code(), backoff.to_bits())
        }
        SpanKind::Completed => (6, 0, 0, 0),
        SpanKind::Failed => (7, 0, 0, 0),
    }
}

/// The chaos run of [`chaos_trace_fingerprint`] at the default 1-in-64
/// sampling, whatever `obs.sample_all` says, and the **trace set
/// itself** folded: every recorded trace's id, sequence, spans (kind,
/// fields, and virtual-time stamps), plus the flight recorder's exact
/// accounting. Tracing draws nothing, so this line is a pure function
/// of (seed, plan) — identical across the thread matrix and under every
/// [`Observers`] combination.
fn traced_chaos_fingerprint(obs: Observers) -> u64 {
    let rt = Arc::new(
        Runtime::builder()
            .seed(0xF1A6)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(2.1)
            .admission(AdmissionConfig { target_utilization: 0.95, defer_band: 0.0 })
            .build(),
    );
    let _cp = attach_idle_control_plane(&rt, obs);
    let ids: Vec<NodeId> =
        [4.0, 2.0, 1.0].iter().map(|&rate| rt.register_node(rate).unwrap()).collect();
    rt.resolve_now().unwrap();

    let plan = FaultPlan::new(0xC4A05)
        .crash_recover(ids[0], 40.0, 60.0)
        .flaky(ids[2], 100.0, 50.0, 0.35)
        .slow(ids[1], 160.0, 40.0, 0.5);
    let mut driver = TraceDriver::new(2.1, TraceConfig { seed: 0xBEEF, batch_size: 500 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    driver.run_jobs(&rt, 6_000).unwrap();

    let traces = rt.tracer().traces();
    assert!(!traces.is_empty(), "default tracing must record traces");
    let mut h = FNV_OFFSET;
    for t in &traces {
        fold(&mut h, t.id.raw());
        fold(&mut h, t.sequence);
        for s in &t.spans {
            let (code, a, b, c) = span_words(s.kind);
            fold(&mut h, code);
            fold(&mut h, a);
            fold(&mut h, b);
            fold(&mut h, c);
            fold(&mut h, s.start.to_bits());
            fold(&mut h, s.end.to_bits());
        }
    }
    fold(&mut h, rt.tracer().recorded());
    fold(&mut h, rt.tracer().dropped());
    h
}

/// Every fingerprint under `obs`, in output order, as `(name, value)`.
pub fn fingerprints(obs: Observers) -> Vec<(&'static str, u64)> {
    let cluster = Cluster::from_groups(&[(1, 4.0), (3, 1.0)]).unwrap();
    let phi = cluster.arrival_rate_for_utilization(0.7);
    let loads = Coop.allocate(&cluster, phi).unwrap();
    let spec = single_class_spec(&cluster, loads.loads(), phi, ArrivalLaw::Poisson);
    let budget =
        SimBudget { seed: 0xD15C, replications: 4, warmup_jobs: 1_000, measured_jobs: 10_000 };
    let replicated = replicate_parallel(&spec, &budget);

    vec![
        ("replication_fingerprint", replication_fingerprint(&replicated)),
        ("chaos_trace_fingerprint", chaos_trace_fingerprint(obs)),
        ("traced_chaos_fingerprint", traced_chaos_fingerprint(obs)),
    ]
}

fn main() {
    eprintln!("workers: {}", thread_count());
    for (name, value) in fingerprints(Observers::default()) {
        println!("{name} {value:016x}");
    }
}
