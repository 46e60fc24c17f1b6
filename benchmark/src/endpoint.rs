//! An in-process HTTP endpoint: request bytes go through the control
//! plane's own parser, router and response writer, with no socket and
//! no server thread in between.

use std::sync::Arc;
use std::time::Instant;

use gtlb_net::http::{Limits, RequestReader};
use gtlb_net::lifecycle::{Lifecycle, LifecycleConfig};
use gtlb_net::router::{self, AppState};
use gtlb_runtime::{NodeId, Runtime};

use crate::ledger::{Layer, Ledger};

/// What a request is, for span attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/heartbeat`.
    Heartbeat,
    /// `POST /v1/metrics`.
    Metrics,
    /// `GET /metrics`.
    MetricsText,
    /// `GET /nodes`.
    Nodes,
    /// Anything else (registration).
    Other,
}

impl Route {
    fn layer(self) -> Layer {
        match self {
            Self::Heartbeat => Layer::RouteHeartbeat,
            Self::Metrics => Layer::RouteMetrics,
            Self::MetricsText => Layer::RouteMetricsText,
            Self::Nodes => Layer::RouteNodes,
            Self::Other => Layer::RouteOther,
        }
    }
}

/// Serves request bytes against one runtime's control plane, with
/// registrations auto-approved. The response is written into a buffer
/// reused across requests.
#[derive(Debug)]
pub struct Endpoint {
    state: AppState,
    out: Vec<u8>,
    /// Requests served.
    pub requests: u64,
    /// Requests answered with a status outside 2xx.
    pub non_2xx: u64,
    /// Request plus response bytes.
    pub bytes: u64,
}

impl Endpoint {
    /// An endpoint over `runtime` with an empty lifecycle table.
    #[must_use]
    pub fn new(runtime: &Arc<Runtime>) -> Self {
        let lifecycle =
            Lifecycle::new(LifecycleConfig { auto_approve: true, ..Default::default() });
        Self {
            state: AppState::new(runtime.attach_control_plane(), lifecycle),
            out: Vec::with_capacity(4096),
            requests: 0,
            non_2xx: 0,
            bytes: 0,
        }
    }

    /// The router's shared state.
    #[must_use]
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// Parses `raw`, routes it and writes the response; returns the
    /// status. Bytes that do not parse count as a 400.
    pub fn serve(&mut self, raw: &[u8], route: Route, led: &mut Ledger) -> u16 {
        led.open(Layer::HttpParse);
        let parsed = RequestReader::new(raw, Limits::default()).next_request();
        led.close();
        self.requests += 1;
        let Ok(Some(req)) = parsed else {
            self.non_2xx += 1;
            return 400;
        };
        let state = &self.state;
        let resp = led.span(route.layer(), || router::route(state, &req));
        led.open(Layer::HttpWrite);
        self.out.clear();
        resp.write_to(&mut self.out).expect("writing into a Vec cannot fail");
        led.close();
        self.bytes += (raw.len() + self.out.len()) as u64;
        if !(200..300).contains(&resp.status) {
            self.non_2xx += 1;
        }
        resp.status
    }

    /// The body of the last response.
    #[must_use]
    pub fn body(&self) -> &[u8] {
        self.out.windows(4).position(|w| w == b"\r\n\r\n").map_or(&[], |at| &self.out[at + 4..])
    }

    /// Registers one node per rate over `POST /v1/register`, named
    /// `n0`, `n1`, …; returns the runtime ids in registration order.
    ///
    /// # Errors
    /// When a registration is not answered with 201.
    pub fn register_all(&mut self, rates: &[f64], led: &mut Ledger) -> Result<Vec<NodeId>, String> {
        for (i, rate) in rates.iter().enumerate() {
            let body = format!(r#"{{"name":"n{i}","rate":{rate},"heartbeat_interval":2.0}}"#);
            let status = self.serve(&post("/v1/register", &body), Route::Other, led);
            if status != 201 {
                return Err(format!("registering n{i} answered {status}"));
            }
        }
        Ok(self.state.hooks().runtime().node_ids())
    }

    /// `GET /metrics` and `GET /nodes` as an operator's scrape, checking
    /// that both answer 200, that the exposition carries at least
    /// `3 × nodes` per-node samples and that `/nodes` lists `nodes`
    /// rows. Returns the two latencies in ms and the seconds the checks
    /// took, which callers leave out of their wall time.
    ///
    /// # Errors
    /// When a check fails.
    pub fn scrape(&mut self, nodes: usize, led: &mut Ledger) -> Result<(f64, f64, f64), String> {
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let metrics = self.serve(GET_METRICS, Route::MetricsText, led);
        let t1 = Instant::now();
        check_exposition(metrics, self.body(), nodes)?;
        let t2 = Instant::now();
        let rows = self.serve(GET_NODES, Route::Nodes, led);
        let t3 = Instant::now();
        check_nodes(rows, self.body(), nodes)?;
        let t4 = Instant::now();
        Ok((ms(t0, t1), ms(t2, t3), ((t2 - t1) + (t4 - t3)).as_secs_f64()))
    }
}

/// `GET /metrics` request bytes.
pub const GET_METRICS: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n";
/// `GET /nodes` request bytes.
pub const GET_NODES: &[u8] = b"GET /nodes HTTP/1.1\r\nhost: bench\r\n\r\n";

/// A `POST` request shaped like the node agent's: one request per
/// connection, JSON body.
#[must_use]
pub fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: agent\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn check_exposition(status: u16, body: &[u8], nodes: usize) -> Result<(), String> {
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| "GET /metrics is not UTF-8".to_string())?;
    let per_node = text.lines().filter(|l| l.starts_with("gtlb_node_")).count();
    if per_node < 3 * nodes {
        return Err(format!(
            "GET /metrics carries {per_node} per-node samples, want {}",
            3 * nodes
        ));
    }
    Ok(())
}

fn check_nodes(status: u16, body: &[u8], nodes: usize) -> Result<(), String> {
    if status != 200 {
        return Err(format!("GET /nodes answered {status}"));
    }
    let doc = gtlb_net::wire::Json::parse(body).map_err(|e| format!("GET /nodes: {e}"))?;
    let rows = doc.get("nodes").and_then(|n| n.as_array()).map_or(0, <[_]>::len);
    if rows != nodes {
        return Err(format!("GET /nodes lists {rows} rows, want {nodes}"));
    }
    Ok(())
}
