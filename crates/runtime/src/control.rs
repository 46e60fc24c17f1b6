//! The runtime's control-plane port: everything an external control
//! plane (the `gtlb-net` HTTP listener, or any other transport) needs
//! to drive node lifecycle from *real messages* instead of the trace
//! driver.
//!
//! The runtime's detector, estimators, and registry all speak
//! **virtual time** — the trace driver owns that clock and stamps every
//! observation with it. An external node agent has no virtual clock; it
//! has wall time. [`ClockAdapter`] bridges the two: it pins an origin at
//! attach time and maps every subsequent wall-clock instant to seconds
//! since that origin, producing a monotone `f64` timeline with the same
//! shape the detector already consumes. The two timelines never mix *per
//! node*: a node is either driven by the trace driver (virtual stamps)
//! or by the control plane (wall stamps), and each node's registry row
//! owns its own detector track, so cross-node timeline skew is
//! irrelevant.
//!
//! Determinism: [`ControlPlaneHooks`] owns **no RNG stream** and draws
//! nothing. Every method either reads runtime state or forwards an
//! observation through APIs the deterministic path already exposes
//! (`observe_success`, `record_service`, …). Attaching hooks to a
//! runtime and leaving them idle is therefore invisible to every
//! determinism fingerprint — CI's `fingerprint-invariance` job checks
//! them with `GTLB_CONTROL_PLANE=1`.

use std::sync::Arc;
use std::time::Instant;

use crate::detector::HealthTransition;
use crate::error::RuntimeError;
use crate::registry::{Health, NodeId};
use crate::Runtime;

/// Maps wall-clock instants onto the `f64` seconds timeline the
/// detector and estimators consume: `now()` is seconds since the
/// adapter's origin (attach time), monotone and starting near zero —
/// exactly the shape of the trace driver's virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct ClockAdapter {
    origin: Instant,
}

impl ClockAdapter {
    /// An adapter whose timeline starts now.
    #[must_use]
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }

    /// Seconds elapsed since the adapter's origin.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl Default for ClockAdapter {
    fn default() -> Self {
        Self::new()
    }
}

/// One row of the control plane's node table: the node's registry row,
/// with its measured rate and detector state, snapshotted at query
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStatus {
    /// The node's id.
    pub id: NodeId,
    /// Declared capacity `μ` (jobs/second).
    pub nominal_rate: f64,
    /// Measured capacity `μ̂`, once the estimator is warm.
    pub estimated_rate: Option<f64>,
    /// Current health.
    pub health: Health,
    /// The detector's suspicion level φ at the hooks' current time.
    pub phi: f64,
    /// The Suspect threshold in force for this node (self-tuned when
    /// the detector runs in self-tuning mode, configured otherwise) —
    /// with `phi`, how close the node is to demotion.
    pub effective_suspect_phi: f64,
    /// The Down threshold in force for this node.
    pub effective_down_phi: f64,
}

/// The control-plane port of a [`Runtime`]: a shareable handle bundling
/// the wall→virtual [`ClockAdapter`] with the lifecycle, observation,
/// and scrape methods an external control plane drives. Obtained from
/// [`Runtime::attach_control_plane`]; cloning shares the runtime and
/// the clock origin.
#[derive(Clone)]
pub struct ControlPlaneHooks {
    runtime: Arc<Runtime>,
    clock: ClockAdapter,
}

impl std::fmt::Debug for ControlPlaneHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlaneHooks")
            .field("clock", &self.clock)
            .field("telemetry_enabled", &self.telemetry_enabled())
            .finish_non_exhaustive()
    }
}

impl ControlPlaneHooks {
    pub(crate) fn new(runtime: Arc<Runtime>) -> Self {
        Self { runtime, clock: ClockAdapter::new() }
    }

    /// The current time on the hooks' timeline (seconds since attach).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// The underlying runtime.
    #[must_use]
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    // ---- lifecycle -----------------------------------------------------

    /// Registers a node with declared capacity `rate`; it joins the
    /// routing table at the next resolve.
    ///
    /// # Errors
    /// [`RuntimeError::Core`] for a nonpositive or non-finite rate.
    pub fn register_node(&self, rate: f64) -> Result<NodeId, RuntimeError> {
        self.runtime.register_node(rate)
    }

    /// Updates a node's declared capacity (a control-plane
    /// `metrics-update` can carry a revised self-reported rate). The
    /// new rate reaches routing at the next resolve, and only while the
    /// node's service window is cold.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] / [`RuntimeError::Core`] as
    /// [`Runtime::set_node_rate`].
    pub fn set_node_rate(&self, id: NodeId, rate: f64) -> Result<(), RuntimeError> {
        self.runtime.set_node_rate(id, rate)
    }

    /// Starts draining a node (finishes queued work, receives no new
    /// jobs). Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn drain(&self, id: NodeId) -> Result<Health, RuntimeError> {
        self.runtime.drain_node(id)
    }

    /// Deregisters a node entirely.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn deregister(&self, id: NodeId) -> Result<(), RuntimeError> {
        self.runtime.deregister_node(id)
    }

    // ---- observations ---------------------------------------------------

    /// Feeds one received heartbeat into the accrual detector, stamped
    /// with the hooks' clock — the external twin of the trace driver's
    /// heartbeat path. Returns the health transition it drove, if any.
    ///
    /// # Errors
    /// As [`Runtime::observe_success`].
    pub fn heartbeat(&self, id: NodeId) -> Result<Option<HealthTransition>, RuntimeError> {
        self.heartbeat_at(id, self.now())
    }

    /// [`ControlPlaneHooks::heartbeat`] stamped with `now`, a reading of
    /// [`ControlPlaneHooks::now`] the caller already took, so a caller
    /// that stamps its own record of the beat reads the clock once.
    ///
    /// # Errors
    /// As [`Runtime::observe_success`].
    pub fn heartbeat_at(
        &self,
        id: NodeId,
        now: f64,
    ) -> Result<Option<HealthTransition>, RuntimeError> {
        self.runtime.observe_success(id, now)
    }

    /// Feeds one *missed* heartbeat (deadline passed with no message)
    /// into the accrual detector. Returns the demotion it drove, if
    /// any — repeated misses walk a node Up→Suspect→Down through the
    /// same machinery the trace driver exercises.
    ///
    /// # Errors
    /// As [`Runtime::observe_failure`].
    pub fn heartbeat_miss(&self, id: NodeId) -> Result<Option<HealthTransition>, RuntimeError> {
        self.runtime.observe_failure(id, self.now())
    }

    /// Feeds one observed service completion (seconds) into the node's
    /// service window — the external `metrics-update` path.
    pub fn record_service(&self, id: NodeId, seconds: f64) {
        self.runtime.record_service(id, seconds);
    }

    /// A node's whole metrics update — an optional revised declared
    /// rate, then its service samples — in one `state` section, as
    /// [`Runtime::record_metrics`].
    ///
    /// # Errors
    /// As [`Runtime::record_metrics`].
    pub fn record_metrics(
        &self,
        id: NodeId,
        service_seconds: &[f64],
        rate: Option<f64>,
    ) -> Result<(), RuntimeError> {
        self.runtime.record_metrics(id, service_seconds, rate)
    }

    // ---- state & scrape -------------------------------------------------

    /// A node's current health, if registered.
    #[must_use]
    pub fn node_health(&self, id: NodeId) -> Option<Health> {
        self.runtime.node_health(id)
    }

    /// The detector's suspicion level φ for `id` at the hooks' current
    /// time (zero for unobserved nodes).
    #[must_use]
    pub fn suspicion(&self, id: NodeId) -> f64 {
        self.runtime.suspicion(id, self.now())
    }

    /// Status rows for every registered node, in registration order
    /// (which is ascending id order): one pass over the registry rows
    /// under the state lock.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeStatus> {
        let now = self.now();
        let cfg = &self.runtime.cfg;
        self.runtime
            .state()
            .registry
            .nodes()
            .iter()
            .map(|n| {
                let (effective_suspect_phi, effective_down_phi) =
                    n.effective_thresholds(&cfg.detector);
                NodeStatus {
                    id: n.id(),
                    nominal_rate: n.nominal_rate(),
                    estimated_rate: n.estimated_rate(cfg.min_service_obs),
                    health: n.health(),
                    phi: n.phi(&cfg.detector, now),
                    effective_suspect_phi,
                    effective_down_phi,
                }
            })
            .collect()
    }

    /// Whether the runtime records telemetry.
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.runtime.telemetry().is_enabled()
    }

    /// The telemetry snapshot rendered as Prometheus text exposition
    /// (`None` when telemetry is disabled). Byte-identical to
    /// rendering [`Runtime::telemetry_snapshot`] at the same instant —
    /// the `/metrics` endpoint serves exactly this.
    #[must_use]
    pub fn prometheus(&self) -> Option<String> {
        self.runtime.telemetry_snapshot().map(|s| s.to_prometheus())
    }

    /// The telemetry snapshot rendered as JSON (`None` when telemetry
    /// is disabled).
    #[must_use]
    pub fn telemetry_json(&self) -> Option<String> {
        self.runtime.telemetry_snapshot().map(|s| s.to_json())
    }

    /// Whether the runtime records per-job traces.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.runtime.tracer().is_enabled()
    }

    /// Every trace currently held in the flight recorder, in start-time
    /// order (empty when tracing is disabled) — the `/traces` endpoint
    /// serves exactly this.
    #[must_use]
    pub fn traces(&self) -> Vec<crate::Trace> {
        self.runtime.tracer().traces()
    }

    /// One recorded trace looked up by id across every recorder lane.
    #[must_use]
    pub fn trace(&self, id: crate::TraceId) -> Option<crate::Trace> {
        self.runtime.tracer().trace(id)
    }

    /// The flight recorder's contents rendered as Chrome `trace_event`
    /// JSON (`None` when tracing is disabled) — the `/traces.chrome`
    /// endpoint serves exactly this.
    #[must_use]
    pub fn traces_chrome(&self) -> Option<String> {
        self.tracing_enabled().then(|| crate::to_chrome_json(&self.runtime.tracer().traces()))
    }

    /// Flight-recorder accounting as `(recorded, dropped)` whole-trace
    /// counts, both zero when tracing is disabled.
    #[must_use]
    pub fn trace_counters(&self) -> (u64, u64) {
        (self.runtime.tracer().recorded(), self.runtime.tracer().dropped())
    }
}

impl Runtime {
    /// Attaches a control plane to this runtime: returns the
    /// [`ControlPlaneHooks`] port an external transport (e.g. the
    /// `gtlb-net` HTTP listener) drives. The hooks' clock origin is
    /// pinned at attach time; multiple attachments get independent
    /// origins, which is fine — each node's row owns its own detector
    /// track, and a node should be driven by exactly one control plane.
    #[must_use]
    pub fn attach_control_plane(self: &Arc<Self>) -> ControlPlaneHooks {
        ControlPlaneHooks::new(Arc::clone(self))
    }

    /// Updates a node's declared capacity `μ` (e.g. a control-plane
    /// metrics update carrying a revised self-reported rate). This is a
    /// registry write and publishes nothing: the declared rate is the
    /// solver's prior, so it reaches routing at the next resolve, and
    /// only while the node's service window is cold — once warm, the
    /// measured `μ̂` decides. The window is kept, so a self-reported rate
    /// never overrides a measured one.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids,
    /// [`RuntimeError::Core`] for a nonpositive or non-finite rate.
    pub fn set_node_rate(&self, id: NodeId, rate: f64) -> Result<(), RuntimeError> {
        self.state().registry.set_nominal_rate(id, rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeKind;

    fn arc_runtime() -> Arc<Runtime> {
        Arc::new(
            Runtime::builder().seed(11).scheme(SchemeKind::Coop).nominal_arrival_rate(0.5).build(),
        )
    }

    #[test]
    fn clock_adapter_is_monotone_from_zero() {
        let clock = ClockAdapter::new();
        let a = clock.now();
        let b = clock.now();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn hooks_register_heartbeat_and_report() {
        let rt = arc_runtime();
        let hooks = rt.attach_control_plane();
        let id = hooks.register_node(2.0).unwrap();
        assert_eq!(hooks.node_health(id), Some(Health::Up));
        assert_eq!(hooks.heartbeat(id).unwrap(), None, "healthy heartbeat, no transition");
        let rows = hooks.nodes();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, id);
        assert_eq!(rows[0].nominal_rate, 2.0);
        assert_eq!(rows[0].health, Health::Up);
        assert!(rows[0].estimated_rate.is_none(), "cold estimator");
        assert_eq!(
            (rows[0].effective_suspect_phi, rows[0].effective_down_phi),
            (2.0, 6.0),
            "fixed-config thresholds surface as configured"
        );
    }

    #[test]
    fn repeated_misses_drive_down_through_the_detector() {
        let rt = arc_runtime();
        let hooks = rt.attach_control_plane();
        let id = hooks.register_node(1.0).unwrap();
        hooks.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        // Two beats stay under the detector's min_samples, so the
        // wall-clock silence term is withheld and suspicion is exactly
        // the deterministic boost term (2 per consecutive miss;
        // machine-speed beats would otherwise make the interval EWMA —
        // and thus this test — timing-dependent).
        for _ in 0..2 {
            hooks.heartbeat(id).unwrap();
        }
        // Default detector: boost 2 per miss, suspect at 2, down at 6.
        let tr = hooks.heartbeat_miss(id).unwrap().expect("Up→Suspect");
        assert_eq!((tr.from, tr.to), (Health::Up, Health::Suspect));
        hooks.heartbeat_miss(id).unwrap();
        let tr = hooks.heartbeat_miss(id).unwrap().expect("Suspect→Down");
        assert_eq!(tr.to, Health::Down);
        assert_eq!(hooks.node_health(id), Some(Health::Down));
        assert!(hooks.suspicion(id) > 0.0);
    }

    #[test]
    fn service_observations_feed_the_estimator() {
        let rt =
            Arc::new(Runtime::builder().nominal_arrival_rate(0.4).min_observations(8, 4).build());
        let hooks = rt.attach_control_plane();
        let id = hooks.register_node(1.0).unwrap();
        for _ in 0..8 {
            hooks.record_service(id, 0.25);
        }
        assert_eq!(hooks.nodes()[0].estimated_rate, Some(4.0));
    }

    #[test]
    fn set_node_rate_validates_and_applies() {
        let rt = arc_runtime();
        let id = rt.register_node(1.0).unwrap();
        rt.set_node_rate(id, 3.0).unwrap();
        assert_eq!(rt.node_rate(id), Some(3.0));
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    rt.set_node_rate(id, rate),
                    Err(RuntimeError::Core(gtlb_core::error::CoreError::BadInput(_)))
                ),
                "rate {rate}"
            );
        }
        let ghost = NodeId::from_raw(99);
        assert_eq!(rt.set_node_rate(ghost, 1.0), Err(RuntimeError::UnknownNode(ghost)));
        assert_eq!(rt.node_rate(id), Some(3.0), "rejected rates leave the row alone");
    }

    #[test]
    fn record_metrics_is_set_rate_then_record_service_in_one_call() {
        let separate =
            Arc::new(Runtime::builder().nominal_arrival_rate(0.4).min_observations(8, 4).build());
        let merged =
            Arc::new(Runtime::builder().nominal_arrival_rate(0.4).min_observations(8, 4).build());
        let (a, b) = (separate.attach_control_plane(), merged.attach_control_plane());
        let (id, same) = (a.register_node(1.0).unwrap(), b.register_node(1.0).unwrap());
        assert_eq!(id, same);
        let samples = [0.25, 0.5, 0.125, 0.25];
        a.set_node_rate(id, 3.0).unwrap();
        samples.iter().for_each(|&s| a.record_service(id, s));
        b.record_metrics(id, &samples, Some(3.0)).unwrap();
        b.record_metrics(id, &[], None).unwrap();
        assert_eq!(a.nodes(), b.nodes(), "no heartbeats: φ is 0 on both");
        // A rejected rate records nothing; an unknown node's samples
        // are dropped unless a rate makes the call an error.
        assert!(b.record_metrics(id, &[9.0], Some(f64::NAN)).is_err());
        let ghost = NodeId::from_raw(99);
        assert_eq!(
            b.record_metrics(ghost, &[1.0], Some(2.0)),
            Err(RuntimeError::UnknownNode(ghost))
        );
        assert_eq!(b.record_metrics(ghost, &[1.0], None), Ok(()));
        assert_eq!(b.nodes()[0].estimated_rate, a.nodes()[0].estimated_rate);
        assert_eq!(b.nodes()[0].nominal_rate, 3.0);
    }

    #[test]
    fn scrapes_match_the_runtime_snapshot() {
        let rt =
            Arc::new(Runtime::builder().seed(2).nominal_arrival_rate(0.5).telemetry(true).build());
        let hooks = rt.attach_control_plane();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        for _ in 0..64 {
            rt.dispatch().unwrap();
        }
        assert!(hooks.telemetry_enabled());
        let snap = rt.telemetry_snapshot().unwrap();
        assert_eq!(hooks.prometheus(), Some(snap.to_prometheus()));
        assert_eq!(hooks.telemetry_json(), Some(snap.to_json()));
        // Swap stats surface in the scrape, not only via swap_stats().
        let text = hooks.prometheus().unwrap();
        assert!(text.contains("gtlb_table_publishes_total 1"), "swap stats missing:\n{text}");
    }

    #[test]
    fn disabled_telemetry_scrapes_nothing() {
        let rt = arc_runtime();
        let hooks = rt.attach_control_plane();
        assert!(!hooks.telemetry_enabled());
        assert_eq!(hooks.prometheus(), None);
        assert_eq!(hooks.telemetry_json(), None);
    }
}
