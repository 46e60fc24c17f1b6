//! The control plane's request path, layer by layer, at the `control`
//! workload's size (2,048 node agents): parsing a request's bytes,
//! routing it through the lifecycle and the runtime, and writing the
//! response into a reused buffer. Each layer is timed for a heartbeat
//! and for a metrics POST with three service samples, the two requests
//! an agent sends.
//!
//! * `net_request/parse/*` — `RequestReader::next_request` over the
//!   request bytes (the read buffer is the request's one allocation);
//! * `net_request/route/*` — `router::route` on the parsed request:
//!   the JSON body, the lifecycle row, one clock read and one runtime
//!   `state` section, and the JSON reply;
//! * `net_request/write/*` — `Response::write_to` into a cleared `Vec`.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use gtlb_net::http::{Limits, Request, RequestReader, Response};
use gtlb_net::lifecycle::{Lifecycle, LifecycleConfig};
use gtlb_net::router::{route, AppState};
use gtlb_runtime::{Runtime, SchemeKind};

/// Agents in the fleet, as in the `control` workload.
const NODES: usize = 2_048;

/// A node agent's `POST`, shaped as the agents send it.
fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: agent\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn parse(raw: &[u8]) -> Request {
    RequestReader::new(raw, Limits::default()).next_request().unwrap().unwrap()
}

/// A control plane over a COOP runtime with `NODES` agents registered
/// over HTTP, auto-approved and resolved once; the benchmarked agent's
/// service window is full, as after a backfill.
fn fleet(agent: usize) -> AppState {
    let runtime = Arc::new(
        Runtime::builder()
            .seed(31)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(0.5 * NODES as f64)
            .build(),
    );
    let lifecycle = Lifecycle::new(LifecycleConfig { auto_approve: true, ..Default::default() });
    let state = AppState::new(runtime.attach_control_plane(), lifecycle);
    for i in 0..NODES {
        let body = format!(r#"{{"name":"n{i}","rate":{}}}"#, 1.0 + (i % 16) as f64);
        assert_eq!(route(&state, &parse(&post("/v1/register", &body))).status, 201);
    }
    let window = runtime.config().service_window;
    let samples = vec!["0.25"; window].join(",");
    let body = format!(r#"{{"name":"n{agent}","service_seconds":[{samples}]}}"#);
    assert_eq!(route(&state, &parse(&post("/v1/metrics", &body))).status, 200);
    runtime.resolve_now().unwrap();
    state
}

fn bench_request(c: &mut Criterion) {
    let agent = NODES / 2;
    let state = fleet(agent);
    let requests = [
        ("heartbeat", post("/v1/heartbeat", &format!(r#"{{"name":"n{agent}"}}"#))),
        (
            "metrics",
            post(
                "/v1/metrics",
                &format!(r#"{{"name":"n{agent}","service_seconds":[0.2,0.25,0.3]}}"#),
            ),
        ),
    ];
    let mut group = c.benchmark_group("net_request");
    for (name, raw) in &requests {
        group.bench_function(format!("parse/{name}"), |b| b.iter(|| parse(black_box(raw))));
    }
    for (name, raw) in &requests {
        let req = parse(raw);
        group.bench_function(format!("route/{name}"), |b| {
            b.iter(|| {
                let resp: Response = route(&state, black_box(&req));
                assert_eq!(resp.status, 200);
                resp
            })
        });
    }
    let mut out = Vec::with_capacity(4096);
    for (name, raw) in &requests {
        let resp = route(&state, &parse(raw));
        group.bench_function(format!("write/{name}"), |b| {
            b.iter(|| {
                out.clear();
                black_box(&resp).write_to(&mut out).unwrap();
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_request);
criterion_main!(benches);
