//! Heap allocations on the control plane's request path: bytes →
//! [`RequestReader::next_request`] → [`route`] → [`Response::write_to`]
//! into a reused buffer, over a 2,048-node fleet.
//!
//! A heartbeat allocates its read buffer, the body's one-member object
//! and the reply's JSON; a metrics POST also allocates the sample array
//! and the sample list. Nothing else on the path may allocate: the
//! request is not copied out of its buffer, unescaped JSON strings are
//! borrowed, the response head is assembled on the stack, and the
//! runtime's observation paths allocate nothing per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gtlb_net::http::{Limits, RequestReader, Response};
use gtlb_net::lifecycle::{Lifecycle, LifecycleConfig};
use gtlb_net::router::{route, AppState};
use gtlb_runtime::{Runtime, SchemeKind};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a plain thread-local cell that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread
/// made while it ran.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const NODES: usize = 2_048;

/// A node agent's `POST`, shaped as the agents send it.
fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: agent\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses `raw`, routes it and writes the response into `out`; returns
/// the status.
fn serve(state: &AppState, raw: &[u8], out: &mut Vec<u8>) -> u16 {
    let req = RequestReader::new(raw, Limits::default()).next_request().unwrap().unwrap();
    let resp: Response = route(state, &req);
    out.clear();
    resp.write_to(out).unwrap();
    resp.status
}

/// A control plane over a 2,048-node COOP runtime, every node
/// registered over HTTP and resolved once.
fn fleet() -> AppState {
    let runtime = Arc::new(
        Runtime::builder()
            .seed(31)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(0.5 * NODES as f64)
            .build(),
    );
    let lifecycle = Lifecycle::new(LifecycleConfig { auto_approve: true, ..Default::default() });
    let state = AppState::new(runtime.attach_control_plane(), lifecycle);
    let mut out = Vec::new();
    for i in 0..NODES {
        let body = format!(r#"{{"name":"n{i}","rate":{}}}"#, 1.0 + (i % 16) as f64);
        assert_eq!(serve(&state, &post("/v1/register", &body), &mut out), 201);
    }
    runtime.resolve_now().unwrap();
    state
}

/// Fills node `n{i}`'s service window with one metrics POST, as an
/// agent that has been reporting for a while would have: a window that
/// is still growing allocates as it grows.
fn backfill(state: &AppState, i: usize) {
    let window = state.hooks().runtime().config().service_window;
    let samples: Vec<String> =
        (0..window).map(|k| format!("{}", 0.5 + 0.1 * (k % 3) as f64)).collect();
    let body = format!(r#"{{"name":"n{i}","service_seconds":[{}]}}"#, samples.join(","));
    assert_eq!(serve(state, &post("/v1/metrics", &body), &mut Vec::new()), 200);
}

/// The most allocations any of `requests` made, each served twice
/// first so that one-off transitions (a node's first heartbeat) are out
/// of the way.
fn most_allocations(state: &AppState, requests: &[Vec<u8>]) -> u64 {
    let mut out = Vec::with_capacity(4096);
    for raw in requests {
        for _ in 0..2 {
            assert_eq!(serve(state, raw, &mut out), 200);
        }
    }
    requests
        .iter()
        .map(|raw| {
            let (status, allocations) = allocations_during(|| serve(state, raw, &mut out));
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&out));
            allocations
        })
        .max()
        .unwrap()
}

#[test]
fn heartbeats_and_metrics_posts_allocate_a_fixed_few_times() {
    let state = fleet();
    let names = (0..NODES).step_by(97);
    names.clone().for_each(|i| backfill(&state, i));
    let heartbeats: Vec<Vec<u8>> =
        names.clone().map(|i| post("/v1/heartbeat", &format!(r#"{{"name":"n{i}"}}"#))).collect();
    let metrics: Vec<Vec<u8>> = names
        .map(|i| {
            let s = 1.0 / (1.0 + (i % 16) as f64);
            let rate = if i % 2 == 0 { String::new() } else { format!(r#","rate":{}"#, 1.0 / s) };
            let body = format!(
                r#"{{"name":"n{i}","service_seconds":[{},{s},{}]{rate}}}"#,
                0.8 * s,
                1.2 * s
            );
            post("/v1/metrics", &body)
        })
        .collect();
    let heartbeat = most_allocations(&state, &heartbeats);
    assert!(heartbeat <= 3, "a heartbeat made {heartbeat} allocations, want at most 3");
    let metrics = most_allocations(&state, &metrics);
    assert!(metrics <= 5, "a metrics POST made {metrics} allocations, want at most 5");
}
