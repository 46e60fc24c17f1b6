//! Loopback end-to-end test of the networked control plane: a real
//! TCP listener, real HTTP requests, and the full lifecycle walk —
//! register → approve → heartbeat → Online, then heartbeat silence
//! driving the accrual detector through Suspect to Down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtlb::net::wire::Json;
use gtlb::net::ControlPlane;
use gtlb::runtime::{
    FaultPlan, RetryConfig, RetryPolicy, Runtime, SchemeKind, TraceConfig, TraceDriver,
    TracingConfig,
};

/// Sends one HTTP/1.1 request and returns `(status, body)`.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to control plane");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: e2e\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, "GET", target, "")
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    http(addr, "POST", target, body)
}

/// Polls `GET /nodes` until `pred` on the body holds, or panics after
/// `deadline`.
fn wait_for_nodes(addr: SocketAddr, deadline: Duration, pred: impl Fn(&str) -> bool) -> String {
    let start = Instant::now();
    loop {
        let (status, body) = get(addr, "/nodes");
        assert_eq!(status, 200, "{body}");
        if pred(&body) {
            return body;
        }
        assert!(start.elapsed() < deadline, "timed out waiting on /nodes; last body: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn control_plane_drives_the_full_node_lifecycle() {
    let runtime = Arc::new(
        Runtime::builder().seed(41).scheme(SchemeKind::Coop).nominal_arrival_rate(0.5).build(),
    );
    let cp = ControlPlane::builder(Arc::clone(&runtime))
        .bind("127.0.0.1:0")
        .workers(2)
        .auto_approve(false)
        .heartbeat_interval(0.05)
        .miss_grace(1.0)
        .sweep_every(Duration::from_millis(25))
        .start()
        .expect("start control plane");
    let addr = cp.local_addr();

    // Liveness first.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Two nodes register; both sit in the admission gate.
    let (status, body) = post(addr, "/v1/register", r#"{"name":"alpha","rate":4.0}"#);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"state\":\"registering\""), "{body}");
    let (status, _) =
        post(addr, "/v1/register", r#"{"name":"beta","rate":2.0,"heartbeat_interval":9.0}"#);
    assert_eq!(status, 201);
    let (status, _) = post(addr, "/v1/register", r#"{"name":"alpha","rate":1.0}"#);
    assert_eq!(status, 409, "duplicate name is a conflict");

    let (_, body) = get(addr, "/nodes");
    assert!(body.matches("\"registering\"").count() == 2, "{body}");
    assert!(runtime.node_ids().is_empty(), "nothing admitted before approval");

    // Heartbeats are rejected until the operator approves.
    let (status, _) = post(addr, "/v1/heartbeat", r#"{"name":"alpha"}"#);
    assert_eq!(status, 409);

    // Approve only alpha; beta stays gated.
    let (status, body) = post(addr, "/v1/nodes/alpha/approve", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(runtime.node_ids().len(), 1, "alpha joined the registry");

    // First heartbeat promotes Approved → Online.
    let (status, body) = post(addr, "/v1/heartbeat", r#"{"name":"alpha"}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"state\":\"online\""), "{body}");

    // A few more beats plus a metrics update feeding the estimator.
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(10));
        let (status, _) = post(addr, "/v1/heartbeat", r#"{"name":"alpha"}"#);
        assert_eq!(status, 200);
    }
    let (status, body) = post(
        addr,
        "/v1/metrics",
        r#"{"name":"alpha","service_seconds":[0.2,0.25,0.2,0.25],"rate":5.0}"#,
    );
    assert_eq!(status, 200, "{body}");
    let body = wait_for_nodes(addr, Duration::from_secs(5), |b| {
        b.contains("\"name\":\"alpha\"") && b.contains("\"health\":\"up\"")
    });
    assert!(body.contains("\"rate\":5"), "revised rate visible: {body}");

    // Kill the heartbeats: the monitor thread converts silence into
    // detector misses and walks alpha Up → Suspect → Down.
    wait_for_nodes(addr, Duration::from_secs(10), |b| b.contains("\"health\":\"suspect\""));
    wait_for_nodes(addr, Duration::from_secs(10), |b| b.contains("\"health\":\"down\""));

    // Beta never heartbeated and was never approved: still gated, and
    // the sweep never touched it.
    let (_, body) = get(addr, "/nodes");
    assert!(body.contains("\"name\":\"beta\""), "{body}");
    assert!(body.contains("\"registering\""), "{body}");

    // The scrape endpoints serve exactly what the in-process snapshot
    // renders (the system is quiescent once alpha is Down).
    let (status, scraped) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = runtime.telemetry_snapshot().unwrap().to_prometheus();
    assert_eq!(scraped, text, "/metrics == Runtime::telemetry_snapshot()");
    assert!(scraped.contains("gtlb_health_transitions_total"), "{scraped}");
    assert!(scraped.contains("gtlb_table_publishes_total"), "swap stats exposed: {scraped}");
    let (status, scraped_json) = get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert_eq!(scraped_json, runtime.telemetry_snapshot().unwrap().to_json());

    // Drain then delete alpha; delete beta straight from the gate.
    let (status, body) = post(addr, "/v1/drain", r#"{"name":"alpha"}"#);
    assert_eq!(status, 200, "{body}");
    let (status, _) = http(addr, "DELETE", "/v1/nodes/alpha", "");
    assert_eq!(status, 200);
    let (status, _) = http(addr, "DELETE", "/v1/nodes/beta", "");
    assert_eq!(status, 200);
    let (status, _) = http(addr, "DELETE", "/v1/nodes/beta", "");
    assert_eq!(status, 410, "double delete is gone");
    assert!(runtime.node_ids().is_empty(), "registry empty after removals");

    drop(cp); // clean shutdown joins workers and the monitor
}

#[test]
fn malformed_and_oversized_requests_get_typed_errors() {
    let runtime = Arc::new(Runtime::builder().seed(42).nominal_arrival_rate(0.5).build());
    let cp = ControlPlane::builder(runtime).bind("127.0.0.1:0").start().unwrap();
    let addr = cp.local_addr();

    let (status, _) = post(addr, "/v1/register", "{not json");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/does/not/exist");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "PATCH", "/healthz", "");
    assert_eq!(status, 405);
    let (status, _) = get(addr, "/metrics");
    assert_eq!(status, 200, "every runtime serves its telemetry");

    // Oversized request line → 431 without crashing the worker. The
    // server responds and closes while the client may still be
    // uploading, so both the tail of the write and the read may see a
    // reset — only the response prefix matters.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let long_target = format!("/{}", "a".repeat(64 * 1024));
    let _ = conn.write_all(format!("GET {long_target} HTTP/1.1\r\n\r\n").as_bytes());
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
        }
    }
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");

    // And the server is still alive afterwards.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
}

#[test]
fn traces_of_a_chaos_run_are_served_causally_ordered_over_http() {
    // A traced chaos run first: crash/recover plus a flaky window so
    // the recorder holds retried and failed traces, not just happy
    // paths.
    let runtime = Arc::new(
        Runtime::builder()
            .seed(0xC4A0)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(1.2)
            .tracing_config(TracingConfig { sample_mask: 0, recorder_capacity: 4096 })
            .build(),
    );
    let ids: Vec<_> = [2.0, 1.0, 0.5].iter().map(|&r| runtime.register_node(r).unwrap()).collect();
    runtime.resolve_now().unwrap();
    let plan =
        FaultPlan::new(0xC4A05).crash_recover(ids[0], 40.0, 60.0).flaky(ids[2], 100.0, 50.0, 0.35);
    let mut driver = TraceDriver::new(1.2, TraceConfig { seed: 0xBEEF, batch_size: 200 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(RetryConfig::default()).unwrap())
        .with_heartbeats(1.0);
    driver.run_jobs(&runtime, 2_000).unwrap();

    let cp = ControlPlane::builder(Arc::clone(&runtime)).bind("127.0.0.1:0").start().unwrap();
    let addr = cp.local_addr();

    // The flight-recorder listing: a non-empty envelope whose counters
    // agree with the in-process tracer.
    let (status, body) = get(addr, "/traces");
    assert_eq!(status, 200, "{body}");
    let listing = Json::parse(body.as_bytes()).expect("listing parses");
    let count = listing.get("count").and_then(Json::as_f64).unwrap() as usize;
    let traces = listing.get("traces").and_then(Json::as_array).unwrap();
    assert!(count > 0 && traces.len() == count, "{body}");
    let recorded = listing.get("recorded").and_then(Json::as_f64).unwrap() as u64;
    assert!(recorded >= count as u64, "recorded covers at least what is held");

    // Every served trace is well-formed; each one round-trips through
    // the by-id endpoint as a causally ordered span list with exactly
    // one terminal.
    let mut saw_retry = false;
    for t in traces {
        let id = t.get("id").and_then(Json::as_str).unwrap();
        let (status, body) = get(addr, &format!("/traces/{id}"));
        assert_eq!(status, 200, "{body}");
        let full = Json::parse(body.as_bytes()).expect("trace parses");
        assert_eq!(full.get("id").and_then(Json::as_str).unwrap(), id);
        let spans = full.get("spans").and_then(Json::as_array).unwrap();
        assert!(spans.len() >= 2, "at least a head and a terminal: {body}");
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("admitted"), "{body}");
        let mut last_start = f64::NEG_INFINITY;
        for s in spans {
            let start = s.get("start").and_then(Json::as_f64).unwrap();
            let end = s.get("end").and_then(Json::as_f64).unwrap();
            assert!(start >= last_start, "spans out of causal order: {body}");
            assert!(end >= start, "span ends before it starts: {body}");
            last_start = start;
        }
        let terminal = full.get("terminal").and_then(Json::as_str).expect("one terminal span");
        assert!(matches!(terminal, "completed" | "failed"), "{terminal}");
        let attempts = full.get("attempts").and_then(Json::as_f64).unwrap() as u32;
        assert!(attempts <= RetryConfig::default().max_attempts, "{body}");
        saw_retry |= attempts >= 2;
    }
    assert!(saw_retry, "the chaos windows must force at least one retried trace");

    // The Chrome export is structurally valid trace_event JSON: every
    // event carries name/phase/ts/pid/tid, complete spans carry a
    // duration, and at least one complete span exists.
    let (status, body) = get(addr, "/traces.chrome");
    assert_eq!(status, 200, "{body}");
    let chrome = Json::parse(body.as_bytes()).expect("chrome export parses");
    let events = chrome.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty(), "{body}");
    let mut complete_spans = 0;
    for e in events {
        assert!(e.get("name").and_then(Json::as_str).is_some(), "{body}");
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        assert!(matches!(ph, "X" | "i"), "unexpected phase {ph}");
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() > 0.0);
            complete_spans += 1;
        }
    }
    assert!(complete_spans > 0, "attempt/service spans must export as complete events");

    drop(cp);
}
