//! Request routing: maps parsed HTTP requests onto control-plane
//! operations and renders responses.
//!
//! | Route | Effect |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /metrics.json` | the same snapshot as JSON |
//! | `GET /traces` | flight-recorder contents as JSON |
//! | `GET /traces/{id}` | one trace by hex id |
//! | `GET /traces.chrome` | the same traces as Chrome `trace_event` JSON |
//! | `GET /nodes` | lifecycle table merged with registry/detector state |
//! | `POST /v1/register` | `{"name", "rate", "heartbeat_interval"?}` → Registering (or Approved under auto-approve) |
//! | `POST /v1/nodes/{name}/approve` | admit a Registering node |
//! | `POST /v1/heartbeat` | `{"name"}` → feed the accrual detector |
//! | `POST /v1/metrics` | `{"name", "service_seconds": […], "rate"?}` → feed the node's service window; a `rate` reaches routing at the next resolve |
//! | `POST /v1/drain` | `{"name"}` → drain |
//! | `DELETE /v1/nodes/{name}` | deregister + tombstone |
//!
//! A node name is 1–128 bytes of `A–Z a–z 0–9 - . _ ~`, RFC 3986's
//! unreserved set: a path segment carries them unescaped, so the
//! `{name}` routes address every name `POST /v1/register` accepts. Any
//! other name gets 400.

use std::sync::Mutex;

use gtlb_runtime::{to_chrome_json, ControlPlaneHooks, SpanKind, Trace, TraceId};
use gtlb_telemetry::Snapshot;

use crate::http::{Method, Request, Response};
use crate::lifecycle::{Lifecycle, LifecycleError, NodeState};
use crate::wire::{Json, ObjBuilder};

/// Shared state behind every worker thread: the runtime port plus the
/// lifecycle table.
#[derive(Debug)]
pub struct AppState {
    hooks: ControlPlaneHooks,
    lifecycle: Mutex<Lifecycle>,
}

impl AppState {
    /// State over `hooks` with an empty lifecycle table.
    #[must_use]
    pub fn new(hooks: ControlPlaneHooks, lifecycle: Lifecycle) -> Self {
        Self { hooks, lifecycle: Mutex::new(lifecycle) }
    }

    /// The runtime port.
    #[must_use]
    pub fn hooks(&self) -> &ControlPlaneHooks {
        &self.hooks
    }

    /// Runs `f` under the lifecycle lock.
    pub fn with_lifecycle<T>(&self, f: impl FnOnce(&mut Lifecycle) -> T) -> T {
        let mut guard = self.lifecycle.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }
}

/// Routes one request against `state` and produces the response.
#[must_use]
pub fn route(state: &AppState, req: &Request) -> Response {
    let path = req.path();
    match (req.method, path) {
        (Method::Get, "/healthz") => healthz(state),
        (Method::Get, "/metrics") => metrics_text(state),
        (Method::Get, "/metrics.json") => metrics_json(state),
        (Method::Get, "/traces") => traces(state),
        (Method::Get, "/traces.chrome") => traces_chrome(state),
        (Method::Get, "/nodes") => nodes(state),
        (Method::Post, "/v1/register") => register(state, req),
        (Method::Post, "/v1/heartbeat") => named_op(state, req, Lifecycle::heartbeat_op),
        (Method::Post, "/v1/metrics") => metrics_update(state, req),
        (Method::Post, "/v1/drain") => named_op(state, req, Lifecycle::drain_op),
        (method, path) => match (path.strip_prefix("/traces/"), path.strip_prefix("/v1/nodes/")) {
            (Some(rest), _) if method == Method::Get => trace_by_id(state, rest),
            (Some(_), _) => Response::text(405, "method not allowed\n"),
            (None, Some(rest)) => node_resource(state, method, rest),
            (None, None) if known_path(path) => Response::text(405, "method not allowed\n"),
            (None, None) => Response::text(404, "not found\n"),
        },
    }
}

/// Whether `path` exists under some method (404 vs 405).
fn known_path(path: &str) -> bool {
    matches!(
        path,
        "/healthz"
            | "/metrics"
            | "/metrics.json"
            | "/traces"
            | "/traces.chrome"
            | "/nodes"
            | "/v1/register"
            | "/v1/heartbeat"
            | "/v1/metrics"
            | "/v1/drain"
    )
}

/// `/v1/nodes/{name}` (DELETE) and `/v1/nodes/{name}/approve` (POST).
fn node_resource(state: &AppState, method: Method, rest: &str) -> Response {
    if let Some(name) = rest.strip_suffix("/approve") {
        if name.is_empty() || name.contains('/') {
            return Response::text(404, "not found\n");
        }
        if method != Method::Post {
            return Response::text(405, "method not allowed\n");
        }
        return match state.with_lifecycle(|lc| lc.approve(state.hooks(), name)) {
            Ok(id) => {
                let mut b = ObjBuilder::new();
                b.str("name", name).str("state", NodeState::Approved.as_str());
                b.int("node", id.raw());
                Response::json(200, b.finish())
            }
            Err(e) => lifecycle_error(&e),
        };
    }
    if rest.is_empty() || rest.contains('/') {
        return Response::text(404, "not found\n");
    }
    if method != Method::Delete {
        return Response::text(405, "method not allowed\n");
    }
    match state.with_lifecycle(|lc| lc.remove(state.hooks(), rest)) {
        Ok(()) => {
            let mut b = ObjBuilder::new();
            b.str("name", rest).str("state", NodeState::Removed.as_str());
            Response::json(200, b.finish())
        }
        Err(e) => lifecycle_error(&e),
    }
}

fn healthz(state: &AppState) -> Response {
    let mut b = ObjBuilder::new();
    b.str("status", "ok").num("uptime_seconds", state.hooks().now());
    Response::json(200, b.finish())
}

fn metrics_text(state: &AppState) -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: snapshot(state).to_prometheus().into_bytes(),
        close: false,
    }
}

fn metrics_json(state: &AppState) -> Response {
    Response::json(200, snapshot(state).to_json())
}

/// One scrape of the runtime's telemetry, which every runtime records.
fn snapshot(state: &AppState) -> Snapshot {
    state.hooks().runtime().telemetry_snapshot().expect("every runtime records telemetry")
}

/// One trace rendered as a JSON object: identity, shape summary, and
/// the causally-ordered spans with their kind-specific fields.
fn trace_json(t: &Trace) -> String {
    let mut spans = String::from("[");
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            spans.push(',');
        }
        let mut b = ObjBuilder::new();
        b.str("name", s.kind.name()).num("start", s.start).num("end", s.end);
        match s.kind {
            SpanKind::Queued { depth } => {
                b.int("depth", depth);
            }
            SpanKind::Routed { node, epoch, .. } => {
                b.int("node", node).int("epoch", epoch);
            }
            SpanKind::Attempt { n, outcome, backoff } => {
                b.int("n", u64::from(n)).str("outcome", outcome.as_str()).num("backoff", backoff);
            }
            _ => {}
        }
        spans.push_str(&b.finish());
    }
    spans.push(']');
    let mut b = ObjBuilder::new();
    b.str("id", &t.id.to_hex()).int("sequence", t.sequence);
    b.num("start", t.started_at()).num("end", t.ended_at()).num("duration", t.duration());
    match t.terminal() {
        Some(k) => b.str("terminal", k.name()),
        None => b.raw("terminal", "null"),
    };
    b.int("attempts", u64::from(t.attempts()));
    b.raw("spans", &spans);
    b.finish()
}

/// `GET /traces`: every trace the flight recorder currently holds,
/// with the recorder's exact accounting alongside.
fn traces(state: &AppState) -> Response {
    let tracer = state.hooks().runtime().tracer();
    let all = tracer.traces();
    let (recorded, dropped) = (tracer.recorded(), tracer.dropped());
    let mut rows = String::from("[");
    for (i, t) in all.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&trace_json(t));
    }
    rows.push(']');
    let mut b = ObjBuilder::new();
    b.int("count", all.len() as u64).int("recorded", recorded).int("dropped", dropped);
    b.raw("traces", &rows);
    Response::json(200, b.finish())
}

/// `GET /traces.chrome`: the recorder's contents as Chrome
/// `trace_event` JSON, loadable in `about:tracing` / Perfetto.
fn traces_chrome(state: &AppState) -> Response {
    Response::json(200, to_chrome_json(&state.hooks().runtime().tracer().traces()))
}

/// `GET /traces/{id}`: one recorded trace by its hex id.
fn trace_by_id(state: &AppState, rest: &str) -> Response {
    let Some(id) = TraceId::from_hex(rest) else {
        return Response::text(400, "trace ids are 1-16 hex digits\n");
    };
    match state.hooks().runtime().tracer().trace(id) {
        Some(t) => Response::json(200, trace_json(&t)),
        None => Response::text(404, "no such trace\n"),
    }
}

/// Bytes reserved per `/nodes` row: a row with full-precision floats
/// takes about 240.
const NODE_ROW_BYTES: usize = 256;

/// `GET /nodes`: every lifecycle row joined with live registry and
/// detector state for admitted nodes. A row with a registry status shows
/// the registry's declared rate, the one the solver reads; other rows
/// show the rate declared at registration. The status rows come in
/// ascending id order, so each row's join is a binary search. The
/// document is written into one buffer sized for the row count.
fn nodes(state: &AppState) -> Response {
    let statuses = state.hooks().nodes();
    let status_of = |id| statuses.binary_search_by_key(&id, |s| s.id).ok().map(|i| &statuses[i]);
    let now = state.hooks().now();
    let body = state.with_lifecycle(|lc| {
        let entries = lc.entries();
        let mut doc = ObjBuilder::with_capacity(NODE_ROW_BYTES * (entries.len() + 1));
        doc.num("now", now);
        doc.obj_array("nodes", entries, |b, entry| {
            let status = entry.node.and_then(status_of);
            b.str("name", &entry.name).str("state", entry.state.as_str());
            b.num("rate", status.map_or(entry.rate, |s| s.nominal_rate));
            b.num("heartbeat_interval", entry.heartbeat_interval);
            b.int("heartbeats", entry.heartbeats);
            match entry.last_heartbeat {
                Some(t) => b.num("last_heartbeat", t),
                None => b.raw("last_heartbeat", "null"),
            };
            if let Some(id) = entry.node {
                b.int("node", id.raw());
                if let Some(status) = status {
                    b.str("health", status.health.name());
                    b.num("phi", status.phi);
                    b.num("suspect_phi", status.effective_suspect_phi);
                    b.num("down_phi", status.effective_down_phi);
                    match status.estimated_rate {
                        Some(r) => b.num("estimated_rate", r),
                        None => b.raw("estimated_rate", "null"),
                    };
                }
            }
        });
        doc.finish()
    });
    Response::json(200, body)
}

fn parse_body(req: &Request) -> Result<Json<'_>, Response> {
    Json::parse(req.body()).map_err(|e| Response::text(400, &format!("{e}\n")))
}

fn body_name<'d>(doc: &'d Json<'_>) -> Result<&'d str, Response> {
    doc.get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| Response::text(400, "missing string field \"name\"\n"))
}

fn register(state: &AppState, req: &Request) -> Response {
    let doc = match parse_body(req) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let name = match body_name(&doc) {
        Ok(name) => name,
        Err(resp) => return resp,
    };
    let Some(rate) = doc.get("rate").and_then(Json::as_f64) else {
        return Response::text(400, "missing numeric field \"rate\"\n");
    };
    let interval = doc.get("heartbeat_interval").and_then(Json::as_f64);
    match state.with_lifecycle(|lc| lc.register(state.hooks(), name, rate, interval)) {
        Ok(new_state) => {
            let mut b = ObjBuilder::new();
            b.str("name", name).str("state", new_state.as_str());
            Response::json(201, b.finish())
        }
        Err(e) => lifecycle_error(&e),
    }
}

fn metrics_update(state: &AppState, req: &Request) -> Response {
    let doc = match parse_body(req) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let name = match body_name(&doc) {
        Ok(name) => name,
        Err(resp) => return resp,
    };
    let samples: Vec<f64> = match doc.get("service_seconds") {
        None => Vec::new(),
        Some(v) => match v.as_array() {
            Some(items) if items.iter().all(|i| i.as_f64().is_some()) => {
                items.iter().filter_map(Json::as_f64).collect()
            }
            _ => return Response::text(400, "\"service_seconds\" must be an array of numbers\n"),
        },
    };
    let rate = doc.get("rate").and_then(Json::as_f64);
    match state.with_lifecycle(|lc| lc.record_metrics(state.hooks(), name, &samples, rate)) {
        Ok(()) => {
            let mut b = ObjBuilder::new();
            b.str("name", name).int("samples", samples.len() as u64);
            Response::json(200, b.finish())
        }
        Err(e) => lifecycle_error(&e),
    }
}

/// Shared shape of `POST /v1/heartbeat` and `POST /v1/drain`: a JSON
/// body naming the node, an op on the lifecycle, a JSON echo back.
fn named_op(
    state: &AppState,
    req: &Request,
    op: fn(&mut Lifecycle, &ControlPlaneHooks, &str) -> Result<NodeState, LifecycleError>,
) -> Response {
    let doc = match parse_body(req) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let name = match body_name(&doc) {
        Ok(name) => name,
        Err(resp) => return resp,
    };
    match state.with_lifecycle(|lc| op(lc, state.hooks(), name)) {
        Ok(new_state) => {
            let mut b = ObjBuilder::new();
            b.str("name", name).str("state", new_state.as_str());
            Response::json(200, b.finish())
        }
        Err(e) => lifecycle_error(&e),
    }
}

impl Lifecycle {
    /// [`Lifecycle::heartbeat`] with the uniform `named_op` signature.
    fn heartbeat_op(
        &mut self,
        hooks: &ControlPlaneHooks,
        name: &str,
    ) -> Result<NodeState, LifecycleError> {
        self.heartbeat(hooks, name)
    }

    /// [`Lifecycle::drain`] with the uniform `named_op` signature.
    fn drain_op(
        &mut self,
        hooks: &ControlPlaneHooks,
        name: &str,
    ) -> Result<NodeState, LifecycleError> {
        self.drain(hooks, name)?;
        Ok(NodeState::Draining)
    }
}

fn lifecycle_error(e: &LifecycleError) -> Response {
    let mut b = ObjBuilder::new();
    b.str("error", &e.to_string());
    Response::json(e.status(), b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleConfig;
    use gtlb_runtime::{Runtime, SchemeKind};
    use std::sync::Arc;

    fn app(auto_approve: bool) -> AppState {
        let rt = Arc::new(
            Runtime::builder().seed(5).scheme(SchemeKind::Coop).nominal_arrival_rate(0.5).build(),
        );
        let hooks = rt.attach_control_plane();
        AppState::new(
            hooks,
            Lifecycle::new(LifecycleConfig { auto_approve, ..LifecycleConfig::default() }),
        )
    }

    fn req(method: Method, target: &str, body: &str) -> Request {
        Request::synthetic(method, target, body.as_bytes())
    }

    fn body_text(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).unwrap()
    }

    #[test]
    fn full_lifecycle_over_the_router() {
        let app = app(false);
        let resp = route(&app, &req(Method::Post, "/v1/register", r#"{"name":"a","rate":2.0}"#));
        assert_eq!(resp.status, 201, "{}", body_text(&resp));
        assert!(body_text(&resp).contains("\"registering\""));

        let resp = route(&app, &req(Method::Post, "/v1/heartbeat", r#"{"name":"a"}"#));
        assert_eq!(resp.status, 409, "heartbeat before approval");

        let resp = route(&app, &req(Method::Post, "/v1/nodes/a/approve", ""));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));

        let resp = route(&app, &req(Method::Post, "/v1/heartbeat", r#"{"name":"a"}"#));
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"online\""));

        let resp = route(
            &app,
            &req(Method::Post, "/v1/metrics", r#"{"name":"a","service_seconds":[0.5,0.25]}"#),
        );
        assert_eq!(resp.status, 200, "{}", body_text(&resp));

        let resp = route(&app, &req(Method::Get, "/nodes", ""));
        let text = body_text(&resp);
        assert_eq!(resp.status, 200);
        assert!(text.contains("\"name\":\"a\"") && text.contains("\"health\":\"up\""), "{text}");

        let resp = route(&app, &req(Method::Post, "/v1/drain", r#"{"name":"a"}"#));
        assert_eq!(resp.status, 200);
        let resp = route(&app, &req(Method::Delete, "/v1/nodes/a", ""));
        assert_eq!(resp.status, 200);
        let resp = route(&app, &req(Method::Delete, "/v1/nodes/a", ""));
        assert_eq!(resp.status, 410, "double delete is gone");
    }

    #[test]
    fn nodes_joins_each_row_to_its_own_status() {
        let app = app(true);
        for name in ["a", "b", "c", "d"] {
            let body = format!(r#"{{"name":"{name}","rate":1.0}}"#);
            assert_eq!(route(&app, &req(Method::Post, "/v1/register", &body)).status, 201);
        }
        assert_eq!(route(&app, &req(Method::Post, "/v1/drain", r#"{"name":"b"}"#)).status, 200);
        assert_eq!(route(&app, &req(Method::Delete, "/v1/nodes/c", "")).status, 200);
        let text = body_text(&route(&app, &req(Method::Get, "/nodes", "")));
        let row = |name: &str| {
            let start = text.find(&format!(r#"{{"name":"{name}""#)).expect("row present");
            let len = text[start..].find('}').expect("row closes");
            text[start..start + len].to_string()
        };
        assert!(row("a").contains(r#""health":"up""#), "{text}");
        assert!(row("b").contains(r#""health":"draining""#), "{text}");
        assert!(!row("c").contains(r#""health""#), "deregistered: no live status: {text}");
        assert!(row("d").contains(r#""health":"up""#), "{text}");
    }

    /// The `/nodes` document after its wall-clock `now` member, for a
    /// fleet with an approved, a drained, a deleted and an estimated
    /// node. Neither node heartbeats, so φ and every timestamp but
    /// `now` are deterministic.
    const PINNED_NODES: &str = concat!(
        r#","nodes":["#,
        r#"{"name":"a","state":"approved","rate":1,"heartbeat_interval":5,"heartbeats":0,"#,
        r#""last_heartbeat":null,"node":0,"health":"up","phi":0,"suspect_phi":2,"down_phi":6,"#,
        r#""estimated_rate":null},"#,
        r#"{"name":"b","state":"draining","rate":2,"heartbeat_interval":5,"heartbeats":0,"#,
        r#""last_heartbeat":null,"node":1,"health":"draining","phi":0,"suspect_phi":2,"#,
        r#""down_phi":6,"estimated_rate":null},"#,
        r#"{"name":"c","state":"removed","rate":3,"heartbeat_interval":5,"heartbeats":0,"#,
        r#""last_heartbeat":null},"#,
        r#"{"name":"d","state":"approved","rate":4.5,"heartbeat_interval":5,"heartbeats":0,"#,
        r#""last_heartbeat":null,"node":3,"health":"up","phi":0,"suspect_phi":2,"down_phi":6,"#,
        r#""estimated_rate":3.6363636363636367}]}"#,
    );

    #[test]
    fn nodes_body_bytes_are_pinned() {
        let app = app(true);
        for (name, rate) in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.5)] {
            let body = format!(r#"{{"name":"{name}","rate":{rate}}}"#);
            assert_eq!(route(&app, &req(Method::Post, "/v1/register", &body)).status, 201);
        }
        assert_eq!(route(&app, &req(Method::Post, "/v1/drain", r#"{"name":"b"}"#)).status, 200);
        assert_eq!(route(&app, &req(Method::Delete, "/v1/nodes/c", "")).status, 200);
        let samples: Vec<String> =
            (0..32).map(|i| format!("{}", 0.2 + 0.05 * f64::from(i % 4))).collect();
        let body = format!(r#"{{"name":"d","service_seconds":[{}]}}"#, samples.join(","));
        assert_eq!(route(&app, &req(Method::Post, "/v1/metrics", &body)).status, 200);
        let resp = route(&app, &req(Method::Get, "/nodes", ""));
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        let nodes_at = text.find(r#","nodes":"#).expect("a nodes member");
        assert!(text.starts_with(r#"{"now":"#), "{text}");
        assert_eq!(&text[nodes_at..], PINNED_NODES);
    }

    #[test]
    fn nodes_shows_the_rate_the_registry_holds() {
        // A rate set in process, not through `/v1/metrics`, reaches
        // `/nodes`: the row shows the registry's rate, not its own copy.
        let app = app(false);
        let resp = route(&app, &req(Method::Post, "/v1/register", r#"{"name":"a","rate":1.0}"#));
        assert_eq!(resp.status, 201);
        assert_eq!(route(&app, &req(Method::Post, "/v1/nodes/a/approve", "")).status, 200);
        let id = app.with_lifecycle(|lc| lc.entries()[0].node).expect("approved");
        app.hooks().set_node_rate(id, 3.0).unwrap();
        let text = body_text(&route(&app, &req(Method::Get, "/nodes", "")));
        assert!(text.contains(r#""name":"a","state":"approved","rate":3,"#), "{text}");
    }

    #[test]
    fn routing_errors_are_typed() {
        let app = app(true);
        assert_eq!(route(&app, &req(Method::Get, "/no/such", "")).status, 404);
        assert_eq!(route(&app, &req(Method::Post, "/healthz", "")).status, 405);
        assert_eq!(route(&app, &req(Method::Delete, "/v1/register", "")).status, 405);
        assert_eq!(route(&app, &req(Method::Get, "/v1/nodes/a/approve", "")).status, 405);
        assert_eq!(route(&app, &req(Method::Post, "/v1/register", "{broken")).status, 400);
        assert_eq!(route(&app, &req(Method::Post, "/v1/register", "{}")).status, 400);
        assert_eq!(
            route(&app, &req(Method::Post, "/v1/register", r#"{"name":"a"}"#)).status,
            400,
            "rate is required"
        );
        assert_eq!(
            route(&app, &req(Method::Post, "/v1/heartbeat", r#"{"name":"ghost"}"#)).status,
            404
        );
        assert_eq!(route(&app, &req(Method::Delete, "/v1/nodes/", "")).status, 404);
        assert_eq!(route(&app, &req(Method::Post, "/v1/nodes//approve", "")).status, 404);
    }

    /// Registration accepts only names the `{name}` routes can carry:
    /// a `?` would end the path, a `/` would split the segment, and a
    /// space cannot appear in a request line.
    #[test]
    fn node_names_must_be_unreserved_path_characters() {
        let app = app(false);
        let register = |name: &str| {
            let body = format!(r#"{{"name":"{name}","rate":1.0}}"#);
            route(&app, &req(Method::Post, "/v1/register", &body)).status
        };
        for name in ["a?x", "a/b", "a b", "a%20b", "é", &"n".repeat(129)] {
            assert_eq!(register(name), 400, "{name:?} registered");
        }
        assert!(app.with_lifecycle(|lc| lc.entries().is_empty()));
        for name in ["node-1.a_~", &"n".repeat(128)] {
            assert_eq!(register(name), 201, "{name:?} rejected");
            let approve = format!("/v1/nodes/{name}/approve");
            assert_eq!(route(&app, &req(Method::Post, &approve, "")).status, 200, "{name:?}");
            let delete = format!("/v1/nodes/{name}");
            assert_eq!(route(&app, &req(Method::Delete, &delete, "")).status, 200, "{name:?}");
        }
    }

    #[test]
    fn metrics_serve_the_telemetry_exposition() {
        let rt = Arc::new(Runtime::builder().seed(5).nominal_arrival_rate(0.5).build());
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        let app =
            AppState::new(rt.attach_control_plane(), Lifecycle::new(LifecycleConfig::default()));
        let resp = route(&app, &req(Method::Get, "/healthz", ""));
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).starts_with(r#"{"status":"ok","uptime_seconds":"#));
        let resp = route(&app, &req(Method::Get, "/metrics", ""));
        assert_eq!(resp.status, 200);
        assert_eq!(body_text(&resp), rt.telemetry_snapshot().unwrap().to_prometheus());
        let resp = route(&app, &req(Method::Get, "/metrics.json", ""));
        assert_eq!(resp.status, 200);
        assert_eq!(body_text(&resp), rt.telemetry_snapshot().unwrap().to_json());
    }

    #[test]
    fn traces_serve_the_flight_recorder() {
        use gtlb_runtime::driver::{TraceConfig, TraceDriver};
        use gtlb_runtime::TracingConfig;
        let rt = Arc::new(
            Runtime::builder()
                .seed(5)
                .nominal_arrival_rate(0.5)
                .tracing_config(TracingConfig::sample_all())
                .build(),
        );
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        let mut driver = TraceDriver::new(0.5, TraceConfig { seed: 3, batch_size: 100 });
        driver.run_jobs(&rt, 50).unwrap();
        let app =
            AppState::new(rt.attach_control_plane(), Lifecycle::new(LifecycleConfig::default()));

        let resp = route(&app, &req(Method::Get, "/traces", ""));
        assert_eq!(resp.status, 200);
        let doc = Json::parse(&resp.body).unwrap();
        let held = rt.tracer().traces();
        assert!(!held.is_empty());
        let count = |key| doc.get(key).and_then(Json::as_f64);
        assert_eq!(count("count"), Some(held.len() as f64));
        assert_eq!(count("recorded"), Some(rt.tracer().recorded() as f64));
        assert_eq!(count("dropped"), Some(rt.tracer().dropped() as f64));
        let first = doc.get("traces").and_then(|t| t.as_array()).unwrap()[0].clone();
        let id = first.get("id").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(first.get("terminal").and_then(Json::as_str), Some("completed"));

        let resp = route(&app, &req(Method::Get, &format!("/traces/{id}"), ""));
        assert_eq!(resp.status, 200);
        let one = Json::parse(&resp.body).unwrap();
        assert_eq!(one.get("id").and_then(Json::as_str), Some(id.as_str()));
        let spans = one.get("spans").and_then(|s| s.as_array()).unwrap();
        assert!(spans.len() >= 4, "admitted/queued/routed/attempt/completed");
        let routed = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("routed"))
            .expect("a routed span");
        assert_eq!(routed.get("node").and_then(Json::as_f64), Some(0.0), "the one node");
        assert!(routed.get("epoch").and_then(Json::as_f64).is_some());
        assert!(routed.get("shard").is_none(), "no shard member");

        assert_eq!(route(&app, &req(Method::Get, "/traces/zz", "")).status, 400);
        assert_eq!(route(&app, &req(Method::Get, "/traces/ffffffffffffffff", "")).status, 404);
        assert_eq!(route(&app, &req(Method::Post, "/traces", "")).status, 405);
        assert_eq!(route(&app, &req(Method::Delete, &format!("/traces/{id}"), "")).status, 405);

        let resp = route(&app, &req(Method::Get, "/traces.chrome", ""));
        assert_eq!(resp.status, 200);
        assert_eq!(body_text(&resp), to_chrome_json(&held));
        let chrome = Json::parse(&resp.body).unwrap();
        assert!(!chrome.get("traceEvents").and_then(|e| e.as_array()).unwrap().is_empty());
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let app = app(true);
        assert_eq!(route(&app, &req(Method::Get, "/healthz?verbose=1", "")).status, 200);
    }
}
