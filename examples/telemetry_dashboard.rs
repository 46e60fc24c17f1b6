//! A live text dashboard over a chaos trace, rendered entirely from the
//! runtime's scrape calls — no driver internals, no `stats()` call
//! until the final summary. `Runtime::telemetry_snapshot`,
//! `telemetry().recent_events` and `tracer().traces()` are polled
//! between job chunks, exactly as an operator sidecar would poll the
//! control plane's `/metrics` and `/traces` mid-run.
//!
//! Each frame shows per-node routing share bars with detector states,
//! the latency histogram percentiles (response, queue wait, retry
//! backoff) with the exemplar trace id behind each response
//! percentile, the counter deltas since the previous frame, and the
//! tail of the structured event ring. The trace itself is the chaos
//! scenario: a crash-recover on the fast node plus a flaky window on
//! the slowest one, survived by retry/backoff and the accrual
//! detector. The closing summary renders a span waterfall of the
//! slowest trace the flight recorder holds — admission to terminal,
//! every retry attempt on the way.
//!
//! Telemetry and tracing are observation-only: built without them, the
//! runtime routes a bit-identical job stream — only the dashboard goes
//! dark.
//!
//! ```text
//! cargo run --release --example telemetry_dashboard
//! ```

use std::collections::BTreeMap;

use gtlb::prelude::*;
use gtlb::runtime::telemetry::names;
use gtlb::sim::report::fmt_num;

/// One histogram line: `label  p50/p90/p99/max  (count)`.
fn histogram_line(snap: &Snapshot, name: &str, label: &str) {
    let Some(h) = snap.histogram(name) else { return };
    if h.count() == 0 {
        println!("  {label:<14} (no samples yet)");
        return;
    }
    println!(
        "  {label:<14} p50 {:>9}  p90 {:>9}  p99 {:>9}  max {:>9}  ({} samples)",
        fmt_num(h.p50()),
        fmt_num(h.p90()),
        fmt_num(h.p99()),
        fmt_num(h.max()),
        h.count(),
    );
}

/// The exemplar trace id behind each percentile of `name`, joined off
/// the histogram's per-bucket exemplar cells — the operator's bridge
/// from "p99 is high" to one concrete `/traces/{id}` lookup.
fn exemplar_line(snap: &Snapshot, name: &str) {
    let Some(h) = snap.histogram(name) else { return };
    let hex =
        |q: f64| h.quantile_exemplar(q).map_or_else(|| "-".repeat(16), |id| TraceId(id).to_hex());
    if [0.5, 0.9, 0.99].iter().any(|&q| h.quantile_exemplar(q).is_some()) {
        println!("    ↳ trace     p50 {}  p90 {}  p99 {}", hex(0.5), hex(0.9), hex(0.99));
    }
}

/// A span waterfall of the slowest trace the flight recorder holds:
/// one row per span, offset and sized on the trace's own timeline.
fn render_waterfall(rt: &Runtime) {
    let traces = rt.tracer().traces();
    let Some(t) = traces.iter().max_by(|a, b| a.duration().total_cmp(&b.duration())) else {
        return;
    };
    let t0 = t.started_at();
    let total = t.duration().max(1e-9);
    println!(
        "\nslowest recorded trace {} (job #{}, {:.3} s, {} attempts, {} traces held):",
        t.id.to_hex(),
        t.sequence,
        t.duration(),
        t.attempts(),
        traces.len(),
    );
    const WIDTH: f64 = 40.0;
    for s in &t.spans {
        let label = match s.kind {
            SpanKind::Queued { depth } => format!("queued (depth {depth})"),
            SpanKind::Routed { node, shard, .. } => format!("routed → node {node} / shard {shard}"),
            SpanKind::Attempt { n, outcome, backoff } if backoff > 0.0 => {
                format!("attempt {n} [{}] +{backoff:.2}s", outcome.as_str())
            }
            SpanKind::Attempt { n, outcome, .. } => format!("attempt {n} [{}]", outcome.as_str()),
            kind => kind.name().to_string(),
        };
        let off = ((s.start - t0) / total * WIDTH).round() as usize;
        let lane = if s.end > s.start {
            let len = (((s.end - s.start) / total * WIDTH).round() as usize).max(1);
            format!("{}{}", " ".repeat(off), "█".repeat(len))
        } else {
            format!("{}◆", " ".repeat(off))
        };
        println!("  {label:<28} t+{:>7.3}  |{lane:<41}|", s.start - t0);
    }
}

/// A counter's delta between two frames, skipping zero lines.
fn counter_delta(cur: &Snapshot, prev: &Snapshot, name: &str, label: &str) {
    let now = cur.counter(name).unwrap_or(0);
    let before = prev.counter(name).unwrap_or(0);
    if now > before {
        println!("  {label:<22} +{}", now - before);
    }
}

fn render_frame(
    frame: usize,
    rt: &Runtime,
    names_by_id: &BTreeMap<NodeId, String>,
    prev: &mut Option<Snapshot>,
) {
    let Some(snap) = rt.telemetry_snapshot() else { return };
    let clock = snap.gauge(names::VIRTUAL_CLOCK).unwrap_or(0.0);
    let dispatched: u64 = snap.counter(names::DISPATCHES).unwrap_or(0);
    println!("┄┄ frame {frame} ┄ t = {:>7.1} s ┄ {} dispatched ┄┄", clock, dispatched);

    // Routing share bars from the exact shard hit counters, annotated
    // with the detector's current verdict per node.
    let hits: BTreeMap<NodeId, u64> = rt.hit_counts().into_iter().collect();
    let total: u64 = hits.values().sum::<u64>().max(1);
    for (id, name) in names_by_id {
        let share = hits.get(id).copied().unwrap_or(0) as f64 / total as f64;
        let health = rt.node_health(*id).map_or("gone", Health::name);
        let bar = "█".repeat((share * 32.0).round() as usize);
        println!("  {name:<8} {health:<9} {share:>5.1}%  {bar}", share = share * 100.0);
    }

    histogram_line(&snap, names::RESPONSE_SECONDS, "response");
    exemplar_line(&snap, names::RESPONSE_SECONDS);
    histogram_line(&snap, names::QUEUE_WAIT_SECONDS, "queue wait");
    histogram_line(&snap, names::RETRY_BACKOFF_SECONDS, "retry backoff");

    if let Some(prev_snap) = prev.as_ref() {
        counter_delta(&snap, prev_snap, names::RETRIES, "retries");
        counter_delta(&snap, prev_snap, names::FAULT_DROPS, "fault drops");
        counter_delta(&snap, prev_snap, names::HEALTH_TRANSITIONS, "health transitions");
        counter_delta(&snap, prev_snap, names::ADMISSION_DEFERRED, "admission deferred");
        counter_delta(&snap, prev_snap, names::ADMISSION_REJECTED, "admission rejected");
        counter_delta(&snap, prev_snap, names::TABLE_PUBLISHES, "table publishes");
    }

    let recent = rt.telemetry().recent_events(4);
    if !recent.is_empty() {
        println!(
            "  recent events ({} overwritten in ring so far):",
            snap.counter(names::EVENTS_DROPPED).unwrap_or(0)
        );
        for ev in recent {
            println!("    t = {:>8.3}  shard {}  {}", ev.time, ev.shard, ev.event);
        }
    }
    println!();
    *prev = Some(snap);
}

pub fn main() {
    // A 1-fast/2-slow cluster at moderate load; the fast node crashes
    // mid-trace and the slow one turns flaky while it is gone.
    let rates = [4.0, 2.0, 1.0];
    let phi = 0.6 * rates.iter().sum::<f64>();
    let rt = Runtime::builder()
        .seed(0xDA5B)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .shards(2)
        .telemetry(true)
        // 1-in-16 head sampling: dense enough that a ~1k-job demo
        // lands exemplars on every percentile and a slow trace in
        // the recorder's tail lane.
        .tracing_config(TracingConfig { sample_mask: 0xF, ..TracingConfig::default() })
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    let names_by_id: BTreeMap<NodeId, String> =
        ids.iter().enumerate().map(|(k, &id)| (id, format!("node-{k}"))).collect();
    rt.resolve_now().unwrap();

    assert!(rt.telemetry().is_enabled(), "built with .telemetry(true)");

    let plan =
        FaultPlan::new(0xFEED).crash_recover(ids[0], 60.0, 80.0).flaky(ids[2], 90.0, 60.0, 0.4);
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 7, batch_size: 500 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);

    println!(
        "chaos dashboard: μ = {rates:?}, Φ = {phi:.2}; node-0 crashes at t = 60, \
         node-2 flaky from t = 90\n"
    );

    let mut prev: Option<Snapshot> = None;
    for frame in 1.. {
        driver.run_jobs(&rt, 250).unwrap();
        render_frame(frame, &rt, &names_by_id, &mut prev);
        if driver.clock() > 220.0 {
            break;
        }
    }

    // The final summary uses the driver's exact books (telemetry's event
    // stream is sampled; its counters are synced from the same exact
    // sources, so the two agree).
    let stats = driver.stats();
    assert!(stats.is_conserved(), "job conservation violated");
    println!("{stats}");

    let snap = rt.telemetry_snapshot().expect("telemetry enabled");
    assert_eq!(snap.counter(names::DISPATCHES), Some(rt.dispatched()));
    println!("\nscrape tail (Prometheus text format):");
    let expo = snap.to_prometheus();
    for line in expo.lines().filter(|l| l.starts_with("gtlb_response_seconds")).take(6) {
        println!("  {line}");
    }

    render_waterfall(&rt);
}
