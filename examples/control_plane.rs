//! Run a gtlb runtime with the networked control plane attached.
//!
//! ```text
//! cargo run --release --example control_plane -- [BIND] [--auto-approve]
//! ```
//!
//! Defaults to `127.0.0.1:7070`. A background resolver re-solves the
//! allocation every second, so an approved node joins the routing table
//! at the next tick. The process serves until stdin reaches end-of-file
//! (Ctrl-D, or closing the pipe), then shuts the listener down cleanly. Pair it with the `node_agent` example in
//! another terminal, or drive it by hand:
//!
//! ```text
//! curl -s localhost:7070/healthz
//! curl -s -X POST localhost:7070/v1/register \
//!      -d '{"name":"worker-1","rate":4.0,"heartbeat_interval":2.0}'
//! curl -s -X POST localhost:7070/v1/nodes/worker-1/approve
//! curl -s -X POST localhost:7070/v1/heartbeat -d '{"name":"worker-1"}'
//! curl -s localhost:7070/nodes
//! curl -s localhost:7070/metrics
//! ```

use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

use gtlb::net::ControlPlane;
use gtlb::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let auto_approve = args.iter().any(|a| a == "--auto-approve");
    let bind = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or_else(|| "127.0.0.1:7070".to_string(), String::clone);

    let runtime = Arc::new(
        Runtime::builder().seed(7).scheme(SchemeKind::Coop).nominal_arrival_rate(1.0).build(),
    );
    let cp = ControlPlane::builder(Arc::clone(&runtime))
        .bind(&bind)
        .auto_approve(auto_approve)
        .heartbeat_interval(2.0)
        .start()
        .expect("bind control plane");
    let resolve_every = Duration::from_secs(1);
    let resolver = runtime.spawn_resolver(resolve_every);

    println!("control plane listening on http://{}", cp.local_addr());
    println!(
        "  approval mode: {}",
        if auto_approve { "auto" } else { "operator (POST …/approve)" }
    );
    println!("  resolver interval: {} s", resolve_every.as_secs_f64());
    println!("  GET  /healthz       liveness");
    println!("  GET  /nodes         lifecycle + detector table");
    println!("  GET  /metrics       Prometheus exposition");
    println!("  GET  /metrics.json  the same snapshot as JSON");
    println!("  POST /v1/register   {{\"name\",\"rate\",\"heartbeat_interval\"?}}");
    println!("  POST /v1/nodes/{{name}}/approve");
    println!("  POST /v1/heartbeat  {{\"name\"}}");
    println!("  POST /v1/metrics    {{\"name\",\"service_seconds\":[…],\"rate\"?}}");
    println!("  POST /v1/drain      {{\"name\"}}");
    println!("  DELETE /v1/nodes/{{name}}");
    println!("serving until stdin closes (Ctrl-D) …");

    // Block until EOF on stdin, then let drop shut everything down.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    println!("stdin closed; shutting down");
    drop(cp);
    drop(resolver);
}
