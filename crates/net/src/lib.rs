//! `gtlb-net`: the networked control plane for a gtlb [`Runtime`] —
//! node lifecycle, heartbeats, and metrics scrape over plain TCP.
//!
//! The rest of the workspace is a closed world: a trace driver owns
//! virtual time and every node is simulated. This crate opens one
//! port into that world. A [`ControlPlane`] binds a TCP listener and
//! serves a small HTTP/1.1 API (hand-rolled, dependency-free, no
//! async runtime — see [`http`]) through which *external* node agents
//! participate in the same machinery the simulator exercises:
//!
//! * `POST /v1/register` puts a node into the admission gate
//!   ([`lifecycle`]); an operator `POST /v1/nodes/{name}/approve`
//!   (or `auto_approve`) admits it into the runtime's registry;
//! * `POST /v1/heartbeat` feeds the accrual failure detector, and a
//!   background monitor thread converts heartbeat *silence* into
//!   detector misses, driving the existing Up → Suspect → Down walk;
//! * `POST /v1/metrics` feeds observed service times into the node's
//!   service window (and may revise the declared rate, which the next
//!   resolve picks up);
//! * `GET /metrics` serves the Prometheus text of
//!   [`Runtime::telemetry_snapshot`], byte for byte, `GET
//!   /metrics.json` the JSON twin, `GET /nodes` the merged lifecycle +
//!   detector table, and `GET /healthz` a liveness probe.
//!
//! Determinism: the net layer owns **no RNG stream** and never draws.
//! It only reads runtime state and forwards observations through the
//! deterministic ingestion paths, so a control plane that is attached
//! but idle leaves every determinism fingerprint bit-identical
//! (`tests/fingerprints.rs` checks this).
//!
//! [`Runtime::telemetry_snapshot`]: gtlb_runtime::Runtime::telemetry_snapshot
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use gtlb_net::ControlPlane;
//! use gtlb_runtime::Runtime;
//!
//! let runtime = Arc::new(Runtime::builder().nominal_arrival_rate(0.5).build());
//! let cp = ControlPlane::builder(Arc::clone(&runtime))
//!     .bind("127.0.0.1:0")
//!     .auto_approve(true)
//!     .start()
//!     .unwrap();
//! println!("control plane on {}", cp.local_addr());
//! // … node agents register and heartbeat over HTTP …
//! drop(cp); // clean shutdown: stops workers and the monitor thread
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod lifecycle;
pub mod router;
pub mod server;
pub mod wire;

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gtlb_runtime::Runtime;

use crate::lifecycle::{Lifecycle, LifecycleConfig};
use crate::router::AppState;
use crate::server::{Server, ServerConfig};

pub use crate::lifecycle::NodeState;

/// Configures and starts a [`ControlPlane`]. Defaults: bind
/// `127.0.0.1:7070`, two workers, operator approval required, 5 s
/// heartbeat interval with a 1.5× grace factor, sweeps every second.
#[derive(Clone)]
pub struct ControlPlaneBuilder {
    runtime: Arc<Runtime>,
    bind: String,
    server: ServerConfig,
    lifecycle: LifecycleConfig,
    sweep_every: Duration,
}

impl std::fmt::Debug for ControlPlaneBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlaneBuilder")
            .field("bind", &self.bind)
            .field("server", &self.server)
            .field("lifecycle", &self.lifecycle)
            .field("sweep_every", &self.sweep_every)
            .finish_non_exhaustive()
    }
}

impl ControlPlaneBuilder {
    fn new(runtime: Arc<Runtime>) -> Self {
        Self {
            runtime,
            bind: "127.0.0.1:7070".to_string(),
            server: ServerConfig::default(),
            lifecycle: LifecycleConfig::default(),
            sweep_every: Duration::from_secs(1),
        }
    }

    /// The address to listen on (e.g. `"127.0.0.1:0"` for an
    /// OS-assigned port).
    #[must_use]
    pub fn bind(mut self, addr: &str) -> Self {
        self.bind = addr.to_string();
        self
    }

    /// Worker threads accepting connections (minimum 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.server.workers = workers;
        self
    }

    /// Per-read socket timeout (slow clients get 408).
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.server.read_timeout = timeout;
        self
    }

    /// Admit registrations immediately instead of waiting for an
    /// operator approve.
    #[must_use]
    pub fn auto_approve(mut self, auto: bool) -> Self {
        self.lifecycle.auto_approve = auto;
        self
    }

    /// Heartbeat interval (seconds) for nodes that do not request one.
    #[must_use]
    pub fn heartbeat_interval(mut self, seconds: f64) -> Self {
        self.lifecycle.default_heartbeat_interval = seconds;
        self
    }

    /// Overdue factor: a node is missed once silent for
    /// `interval * grace`.
    #[must_use]
    pub fn miss_grace(mut self, grace: f64) -> Self {
        self.lifecycle.miss_grace = grace;
        self
    }

    /// How often the monitor thread sweeps for overdue heartbeats.
    /// Each sweep feeds at most one detector miss per overdue node, so
    /// this is also the miss cadence.
    #[must_use]
    pub fn sweep_every(mut self, every: Duration) -> Self {
        self.sweep_every = every;
        self
    }

    /// Binds the listener, spawns the worker pool and the heartbeat
    /// monitor, and returns the running control plane.
    ///
    /// # Errors
    /// Any bind/spawn failure from the OS.
    pub fn start(self) -> io::Result<ControlPlane> {
        let hooks = self.runtime.attach_control_plane();
        let state = Arc::new(AppState::new(hooks.clone(), Lifecycle::new(self.lifecycle)));
        let server = Server::start(&self.bind, Arc::clone(&state), self.server)?;
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let sweep_every = self.sweep_every;
            std::thread::Builder::new().name("gtlb-net-monitor".to_string()).spawn(move || {
                // Sleep in short slices so shutdown never waits out a
                // long sweep interval.
                let slice = sweep_every.min(Duration::from_millis(25));
                let mut elapsed = Duration::ZERO;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed >= sweep_every {
                        elapsed = Duration::ZERO;
                        let now = state.hooks().now();
                        state.with_lifecycle(|lc| lc.sweep(state.hooks(), now));
                    }
                }
            })?
        };
        Ok(ControlPlane { state, server, stop, monitor: Some(monitor) })
    }
}

/// A running control plane: TCP listener plus heartbeat monitor,
/// attached to one [`Runtime`]. Shuts down cleanly on
/// [`ControlPlane::shutdown`] or drop.
#[derive(Debug)]
pub struct ControlPlane {
    state: Arc<AppState>,
    server: Server,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
}

impl ControlPlane {
    /// A builder over `runtime`.
    #[must_use]
    pub fn builder(runtime: Arc<Runtime>) -> ControlPlaneBuilder {
        ControlPlaneBuilder::new(runtime)
    }

    /// The bound listen address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The shared application state (useful in tests to inspect the
    /// lifecycle table without going through HTTP).
    #[must_use]
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops the monitor and the listener, joining every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        self.server.shutdown();
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        // Server::drop handles the listener pool.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtlb_runtime::SchemeKind;

    fn runtime() -> Arc<Runtime> {
        Arc::new(
            Runtime::builder().seed(9).scheme(SchemeKind::Coop).nominal_arrival_rate(0.5).build(),
        )
    }

    #[test]
    fn builder_starts_and_shuts_down() {
        let cp = ControlPlane::builder(runtime())
            .bind("127.0.0.1:0")
            .workers(1)
            .auto_approve(true)
            .heartbeat_interval(0.5)
            .miss_grace(2.0)
            .sweep_every(Duration::from_millis(50))
            .read_timeout(Duration::from_millis(500))
            .start()
            .unwrap();
        assert_ne!(cp.local_addr().port(), 0, "port 0 resolved to a real port");
        drop(cp);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut cp = ControlPlane::builder(runtime()).bind("127.0.0.1:0").start().unwrap();
        cp.shutdown();
        cp.shutdown();
    }
}
