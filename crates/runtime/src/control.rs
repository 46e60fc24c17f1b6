//! The runtime's control-plane port: everything an external control
//! plane (the `gtlb-net` HTTP listener, or any other transport) needs
//! to drive node lifecycle from *real messages* instead of the trace
//! driver.
//!
//! The runtime's detector, estimators, and registry all speak
//! **virtual time** — the trace driver owns that clock and stamps every
//! observation with it. An external node agent has no virtual clock; it
//! has wall time. The runtime's wall clock bridges the two: it pins one
//! origin when the runtime is built and maps every later wall-clock
//! instant to seconds since that origin, producing a monotone `f64`
//! timeline with the same shape the detector already consumes. Every
//! attachment of a control plane reads that one timeline, so two hooks
//! stamp a node's detector track alike. The two timelines never mix
//! *per node*: a node is either driven by the trace driver (virtual
//! stamps) or by the control plane (wall stamps), and each node's
//! registry row owns its own detector track, so cross-node timeline
//! skew is irrelevant.
//!
//! Determinism: [`ControlPlaneHooks`] owns **no RNG stream** and draws
//! nothing. Every method either reads runtime state or forwards an
//! observation through APIs the deterministic path already exposes
//! (`observe_success`, `record_service`, …). Attaching hooks to a
//! runtime and leaving them idle is therefore invisible to every
//! determinism fingerprint — `tests/fingerprints.rs` checks them with
//! and without a live control plane attached.

use std::sync::Arc;
use std::time::Instant;

use crate::detector::HealthTransition;
use crate::error::RuntimeError;
use crate::registry::{Health, NodeId};
use crate::Runtime;

/// Maps wall-clock instants onto the `f64` seconds timeline the
/// detector and estimators consume: `now()` is seconds since the
/// adapter's origin (the runtime's build), monotone and starting near
/// zero — exactly the shape of the trace driver's virtual clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClockAdapter {
    origin: Instant,
}

impl ClockAdapter {
    /// An adapter whose timeline starts now.
    pub(crate) fn new() -> Self {
        Self { origin: Instant::now() }
    }

    /// Seconds elapsed since the adapter's origin.
    pub(crate) fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
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
    /// The detector's suspicion level φ at the time the row was read
    /// (the hooks' current time in `/nodes`).
    pub phi: f64,
    /// The Suspect threshold in force for this node (self-tuned when
    /// the detector runs in self-tuning mode, configured otherwise) —
    /// with `phi`, how close the node is to demotion.
    pub effective_suspect_phi: f64,
    /// The Down threshold in force for this node.
    pub effective_down_phi: f64,
}

/// The control-plane port of a [`Runtime`]: a shareable handle for the
/// observations an external control plane stamps on the runtime's wall
/// clock. Lifecycle calls and scrapes go to
/// [`ControlPlaneHooks::runtime`] directly. Obtained from
/// [`Runtime::attach_control_plane`]; every attachment, and every
/// clone, shares the runtime and its clock origin.
#[derive(Clone)]
pub struct ControlPlaneHooks {
    runtime: Arc<Runtime>,
}

impl std::fmt::Debug for ControlPlaneHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlaneHooks")
            .field("clock", &self.runtime.clock)
            .finish_non_exhaustive()
    }
}

impl ControlPlaneHooks {
    /// The current time on the runtime's wall clock (seconds since the
    /// runtime was built).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.runtime.clock.now()
    }

    /// The underlying runtime.
    #[must_use]
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
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

    // ---- state ----------------------------------------------------------

    /// Status rows for every registered node at the hooks' current
    /// time, in registration order (which is ascending id order).
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeStatus> {
        self.runtime.node_rows(self.now(), |status| status)
    }
}

impl Runtime {
    /// Attaches a control plane to this runtime: returns the
    /// [`ControlPlaneHooks`] port an external transport (e.g. the
    /// `gtlb-net` HTTP listener) drives. Every attachment stamps the
    /// runtime's one wall clock, whose origin is pinned when the runtime
    /// is built, so two hooks driving one node stamp its detector track
    /// from one timeline.
    #[must_use]
    pub fn attach_control_plane(self: &Arc<Self>) -> ControlPlaneHooks {
        ControlPlaneHooks { runtime: Arc::clone(self) }
    }

    /// `row` of the status of every registered node, with φ at `now`,
    /// in ascending id order: one pass over the registry rows under the
    /// `state` lock. `/nodes` ([`ControlPlaneHooks::nodes`], at the wall
    /// clock) and the per-node families of
    /// [`Runtime::telemetry_snapshot`] (at the telemetry clock) both
    /// read φ and the thresholds here; each keeps only the columns it
    /// renders.
    pub(crate) fn node_rows<T>(&self, now: f64, mut row: impl FnMut(NodeStatus) -> T) -> Vec<T> {
        let cfg = &self.cfg;
        self.state()
            .registry
            .nodes()
            .iter()
            .map(|n| {
                let (effective_suspect_phi, effective_down_phi) =
                    n.effective_thresholds(&cfg.detector);
                row(NodeStatus {
                    id: n.id(),
                    nominal_rate: n.nominal_rate(),
                    estimated_rate: n.estimated_rate(cfg.min_service_obs),
                    health: n.health(),
                    phi: n.phi(&cfg.detector, now),
                    effective_suspect_phi,
                    effective_down_phi,
                })
            })
            .collect()
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
    fn every_attachment_reads_the_runtimes_clock() {
        let rt = arc_runtime();
        let a = rt.attach_control_plane();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let b = rt.attach_control_plane();
        let (at_a, at_b) = (a.now(), b.now());
        assert!(at_a >= 0.2, "A counts from the runtime's build: {at_a}");
        assert!((at_a - at_b).abs() < 0.1, "one timeline: A {at_a}, B {at_b}");
    }

    #[test]
    fn hooks_register_heartbeat_and_report() {
        let rt = arc_runtime();
        let hooks = rt.attach_control_plane();
        let id = rt.register_node(2.0).unwrap();
        assert_eq!(rt.node_health(id), Some(Health::Up));
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
            "fixed-mode thresholds surface as the detector constants"
        );
    }

    #[test]
    fn repeated_misses_drive_down_through_the_detector() {
        let rt = arc_runtime();
        let hooks = rt.attach_control_plane();
        let id = rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
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
        assert_eq!(rt.node_health(id), Some(Health::Down));
        assert!(rt.suspicion(id, hooks.now()) > 0.0);
    }

    #[test]
    fn service_observations_feed_the_estimator() {
        let rt =
            Arc::new(Runtime::builder().nominal_arrival_rate(0.4).min_observations(8, 4).build());
        let hooks = rt.attach_control_plane();
        let id = rt.register_node(1.0).unwrap();
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
        let (id, same) = (separate.register_node(1.0).unwrap(), merged.register_node(1.0).unwrap());
        assert_eq!(id, same);
        let samples = [0.25, 0.5, 0.125, 0.25];
        a.set_node_rate(id, 3.0).unwrap();
        samples.iter().for_each(|&s| a.record_service(id, s));
        merged.record_metrics(id, &samples, Some(3.0)).unwrap();
        merged.record_metrics(id, &[], None).unwrap();
        assert_eq!(a.nodes(), b.nodes(), "no heartbeats: φ is 0 on both");
        // A rejected rate records nothing; an unknown node's samples
        // are dropped unless a rate makes the call an error.
        assert!(merged.record_metrics(id, &[9.0], Some(f64::NAN)).is_err());
        let ghost = NodeId::from_raw(99);
        assert_eq!(
            merged.record_metrics(ghost, &[1.0], Some(2.0)),
            Err(RuntimeError::UnknownNode(ghost))
        );
        assert_eq!(merged.record_metrics(ghost, &[1.0], None), Ok(()));
        assert_eq!(b.nodes()[0].estimated_rate, a.nodes()[0].estimated_rate);
        assert_eq!(b.nodes()[0].nominal_rate, 3.0);
    }

    #[test]
    fn scrapes_match_the_runtime_snapshot() {
        let rt = Arc::new(Runtime::builder().seed(2).nominal_arrival_rate(0.5).build());
        let hooks = rt.attach_control_plane();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        for _ in 0..64 {
            rt.dispatch().unwrap();
        }
        let snap = rt.telemetry_snapshot().unwrap();
        let scraped = hooks.runtime().telemetry_snapshot().unwrap();
        assert_eq!(scraped.to_prometheus(), snap.to_prometheus());
        assert_eq!(scraped.to_json(), snap.to_json());
        // Swap stats surface in the scrape, not only via swap_stats().
        let text = scraped.to_prometheus();
        assert!(text.contains("gtlb_table_publishes_total 1"), "swap stats missing:\n{text}");
    }
}
