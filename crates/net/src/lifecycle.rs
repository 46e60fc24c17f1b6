//! Node lifecycle: the admission state machine layered on top of the
//! runtime's health machinery.
//!
//! The runtime already tracks *operational* health (Up → Suspect →
//! Down, plus Draining) through its accrual detector. The control
//! plane adds an *admission* gate in front of it:
//!
//! ```text
//!   POST /v1/register        approve (operator or auto)
//!        │                        │
//!        ▼                        ▼
//!   Registering ──────────▶ Approved ──────────▶ Online ──▶ Draining
//!        │                        │    first          │         │
//!        │                        │    heartbeat      │         ▼
//!        └────────────────────────┴──────────────────▶└──▶  Removed
//!                         (DELETE /v1/nodes/:name)
//! ```
//!
//! A node only joins the runtime's registry (and thus the routing
//! table) at *approval*; before that it is a pending row the operator
//! can inspect via `GET /nodes` and admit or reject. Once approved, the
//! monitor thread sweeps the table and feeds `heartbeat_miss` into the
//! detector for any node whose heartbeat is overdue, driving the
//! existing Up → Suspect → Down walk; a node that never beats after
//! approval is overdue from its approval on.

use std::collections::HashMap;

use gtlb_runtime::{ControlPlaneHooks, NodeId, RuntimeError};

/// Admission state of one node, as managed by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Registered, awaiting operator (or auto) approval; not yet in
    /// the runtime's registry.
    Registering,
    /// Approved and registered with the runtime; awaiting its first
    /// heartbeat.
    Approved,
    /// Heartbeating; fully admitted.
    Online,
    /// Draining: finishes queued work, receives no new jobs.
    Draining,
    /// Deregistered; the name may be reused by a fresh registration.
    Removed,
}

impl NodeState {
    /// The lowercase wire name of this state.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Registering => "registering",
            Self::Approved => "approved",
            Self::Online => "online",
            Self::Draining => "draining",
            Self::Removed => "removed",
        }
    }
}

/// Lifecycle policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleConfig {
    /// Skip the operator approval step: a register immediately admits
    /// the node into the runtime registry.
    pub auto_approve: bool,
    /// Heartbeat interval (seconds) assigned to nodes that do not
    /// request one at registration.
    pub default_heartbeat_interval: f64,
    /// A node is overdue once `now - last_heartbeat` exceeds
    /// `interval * miss_grace`; each monitor sweep past that point
    /// feeds one miss into the detector.
    pub miss_grace: f64,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self { auto_approve: false, default_heartbeat_interval: 5.0, miss_grace: 1.5 }
    }
}

/// Whether `name` can name a node: 1–128 bytes from RFC 3986's
/// unreserved set (`A–Z a–z 0–9 - . _ ~`), which a path segment carries
/// unescaped, so `/v1/nodes/{name}` and `/v1/nodes/{name}/approve`
/// address every node registration accepts.
fn valid_name(name: &str) -> bool {
    let unreserved = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~');
    (1..=128).contains(&name.len()) && name.bytes().all(unreserved)
}

/// One lifecycle table row.
#[derive(Debug, Clone)]
pub struct NodeEntry {
    /// Operator-chosen node name (unique among non-removed rows).
    pub name: String,
    /// Declared capacity `μ` (jobs/second).
    pub rate: f64,
    /// This node's heartbeat interval (seconds).
    pub heartbeat_interval: f64,
    /// Current admission state.
    pub state: NodeState,
    /// Runtime id, once approved.
    pub node: Option<NodeId>,
    /// Timestamp (hooks clock) of the last heartbeat received.
    pub last_heartbeat: Option<f64>,
    /// Timestamp (hooks clock) the sweep times the node's silence from:
    /// set at approval, at each heartbeat, and at each miss the sweep
    /// records, so each overdue sweep records one miss. `None` before
    /// approval.
    pub silent_since: Option<f64>,
    /// Heartbeats received since registration.
    pub heartbeats: u64,
}

/// Errors from lifecycle operations, each mapping to one HTTP status.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// 400 — malformed or out-of-range field.
    Invalid(&'static str),
    /// 404 — no such node name.
    UnknownName,
    /// 409 — name already registered, or the operation is illegal in
    /// the node's current state.
    Conflict(&'static str),
    /// 410 — the node was removed.
    Gone,
    /// 500 — the runtime rejected the operation.
    Runtime(RuntimeError),
}

impl LifecycleError {
    /// The HTTP status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            Self::Invalid(_) => 400,
            Self::UnknownName => 404,
            Self::Conflict(_) => 409,
            Self::Gone => 410,
            Self::Runtime(_) => 500,
        }
    }
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(why) => write!(f, "invalid request: {why}"),
            Self::UnknownName => f.write_str("unknown node name"),
            Self::Conflict(why) => write!(f, "conflict: {why}"),
            Self::Gone => f.write_str("node was removed"),
            Self::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl From<RuntimeError> for LifecycleError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

/// The control plane's lifecycle table: name → entry, in registration
/// order. All mutation goes through [`ControlPlaneHooks`], so this
/// struct owns no runtime state of its own and no RNG.
#[derive(Debug, Default)]
pub struct Lifecycle {
    config: LifecycleConfig,
    entries: Vec<NodeEntry>,
    by_name: HashMap<String, usize>,
}

impl Lifecycle {
    /// An empty table under `config`.
    #[must_use]
    pub fn new(config: LifecycleConfig) -> Self {
        Self { config, entries: Vec::new(), by_name: HashMap::new() }
    }

    /// The lifecycle policy in effect.
    #[must_use]
    pub fn config(&self) -> &LifecycleConfig {
        &self.config
    }

    /// All rows, in registration order (including removed tombstones).
    #[must_use]
    pub fn entries(&self) -> &[NodeEntry] {
        &self.entries
    }

    fn entry_mut(&mut self, name: &str) -> Result<&mut NodeEntry, LifecycleError> {
        let idx = *self.by_name.get(name).ok_or(LifecycleError::UnknownName)?;
        Ok(&mut self.entries[idx])
    }

    /// Registers `name` with declared capacity `rate`. Under
    /// auto-approve the node is immediately admitted to the runtime
    /// registry; otherwise it waits in `Registering` for
    /// [`Lifecycle::approve`]. Returns the new row's state.
    ///
    /// # Errors
    /// [`LifecycleError::Invalid`] for bad fields, including a name
    /// that is not 1–128 bytes of `A–Z a–z 0–9 - . _ ~` (the characters
    /// a path segment carries unescaped);
    /// [`LifecycleError::Conflict`] for a duplicate active name.
    pub fn register(
        &mut self,
        hooks: &ControlPlaneHooks,
        name: &str,
        rate: f64,
        heartbeat_interval: Option<f64>,
    ) -> Result<NodeState, LifecycleError> {
        if !valid_name(name) {
            return Err(LifecycleError::Invalid(
                "name must be 1..=128 bytes of A-Z a-z 0-9 - . _ ~",
            ));
        }
        if !rate.is_finite() || rate <= 0.0 {
            return Err(LifecycleError::Invalid("rate must be a positive finite number"));
        }
        let interval = heartbeat_interval.unwrap_or(self.config.default_heartbeat_interval);
        if !interval.is_finite() || interval <= 0.0 {
            return Err(LifecycleError::Invalid("heartbeat interval must be positive"));
        }
        if let Some(&idx) = self.by_name.get(name) {
            if self.entries[idx].state != NodeState::Removed {
                return Err(LifecycleError::Conflict("name already registered"));
            }
        }
        let mut entry = NodeEntry {
            name: name.to_string(),
            rate,
            heartbeat_interval: interval,
            state: NodeState::Registering,
            node: None,
            last_heartbeat: None,
            silent_since: None,
            heartbeats: 0,
        };
        if self.config.auto_approve {
            entry.node = Some(hooks.runtime().register_node(rate)?);
            entry.state = NodeState::Approved;
            entry.silent_since = Some(hooks.now());
        }
        let state = entry.state;
        // A reused name replaces its tombstone in place, keeping the
        // name → index map consistent.
        match self.by_name.get(name) {
            Some(&idx) => self.entries[idx] = entry,
            None => {
                self.by_name.insert(name.to_string(), self.entries.len());
                self.entries.push(entry);
            }
        }
        Ok(state)
    }

    /// Admits a `Registering` node: registers it with the runtime and
    /// moves it to `Approved`. Returns its runtime id.
    ///
    /// # Errors
    /// [`LifecycleError::UnknownName`], [`LifecycleError::Gone`], or
    /// [`LifecycleError::Conflict`] when not in `Registering`.
    pub fn approve(
        &mut self,
        hooks: &ControlPlaneHooks,
        name: &str,
    ) -> Result<NodeId, LifecycleError> {
        let rate = {
            let entry = self.entry_mut(name)?;
            match entry.state {
                NodeState::Registering => entry.rate,
                NodeState::Removed => return Err(LifecycleError::Gone),
                _ => return Err(LifecycleError::Conflict("node is already approved")),
            }
        };
        let id = hooks.runtime().register_node(rate)?;
        let now = hooks.now();
        let entry = self.entry_mut(name).expect("entry checked above");
        entry.node = Some(id);
        entry.state = NodeState::Approved;
        entry.silent_since = Some(now);
        Ok(id)
    }

    /// Records a heartbeat from `name`: feeds the accrual detector and
    /// promotes `Approved` → `Online` on the first beat. One clock read
    /// stamps both the row's `last_heartbeat` and the detector's
    /// observation. Returns the node's state after the beat.
    ///
    /// # Errors
    /// [`LifecycleError::Conflict`] for nodes not yet approved,
    /// [`LifecycleError::Gone`] after removal.
    pub fn heartbeat(
        &mut self,
        hooks: &ControlPlaneHooks,
        name: &str,
    ) -> Result<NodeState, LifecycleError> {
        let now = hooks.now();
        let entry = self.entry_mut(name)?;
        let id = match entry.state {
            NodeState::Registering => {
                return Err(LifecycleError::Conflict("node is not approved yet"))
            }
            NodeState::Removed => return Err(LifecycleError::Gone),
            _ => entry.node.ok_or(LifecycleError::Conflict("node has no runtime id"))?,
        };
        entry.last_heartbeat = Some(now);
        entry.silent_since = Some(now);
        entry.heartbeats += 1;
        if entry.state == NodeState::Approved {
            entry.state = NodeState::Online;
        }
        let state = entry.state;
        hooks.heartbeat_at(id, now)?;
        Ok(state)
    }

    /// Ingests a metrics update from `name`: each sample in
    /// `service_seconds` feeds the node's service window, and an
    /// optional revised `rate` updates the declared capacity. Every
    /// field is checked first; the runtime then takes the rate and the
    /// samples in one `state` section.
    ///
    /// # Errors
    /// As [`Lifecycle::heartbeat`] for state checks; bad samples or
    /// rates are [`LifecycleError::Invalid`].
    pub fn record_metrics(
        &mut self,
        hooks: &ControlPlaneHooks,
        name: &str,
        service_seconds: &[f64],
        rate: Option<f64>,
    ) -> Result<(), LifecycleError> {
        if service_seconds.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(LifecycleError::Invalid("service samples must be positive and finite"));
        }
        let entry = self.entry_mut(name)?;
        let id = match entry.state {
            NodeState::Registering => {
                return Err(LifecycleError::Conflict("node is not approved yet"))
            }
            NodeState::Removed => return Err(LifecycleError::Gone),
            _ => entry.node.ok_or(LifecycleError::Conflict("node has no runtime id"))?,
        };
        if let Some(rate) = rate {
            if !rate.is_finite() || rate <= 0.0 {
                return Err(LifecycleError::Invalid("rate must be a positive finite number"));
            }
            entry.rate = rate;
        }
        hooks.runtime().record_metrics(id, service_seconds, rate)?;
        Ok(())
    }

    /// Starts draining `name`: the node finishes queued work but
    /// receives no new jobs.
    ///
    /// # Errors
    /// State errors as [`Lifecycle::heartbeat`].
    pub fn drain(&mut self, hooks: &ControlPlaneHooks, name: &str) -> Result<(), LifecycleError> {
        let entry = self.entry_mut(name)?;
        let id = match entry.state {
            NodeState::Registering => {
                return Err(LifecycleError::Conflict("node is not approved yet"))
            }
            NodeState::Removed => return Err(LifecycleError::Gone),
            NodeState::Draining => return Ok(()),
            _ => entry.node.ok_or(LifecycleError::Conflict("node has no runtime id"))?,
        };
        entry.state = NodeState::Draining;
        hooks.runtime().drain_node(id)?;
        Ok(())
    }

    /// Removes `name`: deregisters it from the runtime (if admitted)
    /// and tombstones the row so the name can be reused.
    ///
    /// # Errors
    /// [`LifecycleError::UnknownName`]; removing twice is
    /// [`LifecycleError::Gone`].
    pub fn remove(&mut self, hooks: &ControlPlaneHooks, name: &str) -> Result<(), LifecycleError> {
        let entry = self.entry_mut(name)?;
        if entry.state == NodeState::Removed {
            return Err(LifecycleError::Gone);
        }
        let id = entry.node.take();
        entry.state = NodeState::Removed;
        entry.last_heartbeat = None;
        if let Some(id) = id {
            // Deregistration can race a detector-driven Down; the row
            // is tombstoned either way.
            let _ = hooks.runtime().deregister_node(id);
        }
        Ok(())
    }

    /// One monitor sweep at time `now`: feeds one [`heartbeat_miss`]
    /// into the detector for every `Online` or `Approved` node that has
    /// been silent too long (`now - silent_since > interval *
    /// miss_grace`). `last_heartbeat` keeps the node's own last beat.
    /// Returns how many misses were recorded.
    ///
    /// [`heartbeat_miss`]: ControlPlaneHooks::heartbeat_miss
    pub fn sweep(&mut self, hooks: &ControlPlaneHooks, now: f64) -> usize {
        let grace = self.config.miss_grace;
        let mut misses = 0;
        for entry in &mut self.entries {
            if !matches!(entry.state, NodeState::Online | NodeState::Approved) {
                continue;
            }
            let (Some(id), Some(since)) = (entry.node, entry.silent_since) else { continue };
            if now - since > entry.heartbeat_interval * grace {
                // Restart the silence at the recorded miss so each sweep
                // tick contributes exactly one miss, not a flood.
                entry.silent_since = Some(now);
                if hooks.heartbeat_miss(id).is_ok() {
                    misses += 1;
                }
            }
        }
        misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtlb_runtime::{Health, Runtime, SchemeKind};
    use std::sync::Arc;

    fn hooks() -> ControlPlaneHooks {
        Arc::new(
            Runtime::builder().seed(7).scheme(SchemeKind::Coop).nominal_arrival_rate(0.5).build(),
        )
        .attach_control_plane()
    }

    #[test]
    fn register_approve_heartbeat_walks_to_online() {
        let hooks = hooks();
        let mut lc = Lifecycle::new(LifecycleConfig::default());
        assert_eq!(lc.register(&hooks, "a", 2.0, None).unwrap(), NodeState::Registering);
        assert!(hooks.nodes().is_empty(), "not admitted before approval");
        let id = lc.approve(&hooks, "a").unwrap();
        assert_eq!(hooks.runtime().node_health(id), Some(Health::Up));
        assert_eq!(lc.heartbeat(&hooks, "a").unwrap(), NodeState::Online);
        assert_eq!(lc.entries()[0].heartbeats, 1);
    }

    #[test]
    fn auto_approve_skips_the_gate() {
        let hooks = hooks();
        let mut lc =
            Lifecycle::new(LifecycleConfig { auto_approve: true, ..LifecycleConfig::default() });
        assert_eq!(lc.register(&hooks, "a", 2.0, None).unwrap(), NodeState::Approved);
        assert_eq!(hooks.nodes().len(), 1);
    }

    #[test]
    fn register_validates_and_conflicts() {
        let hooks = hooks();
        let mut lc = Lifecycle::new(LifecycleConfig::default());
        assert_eq!(lc.register(&hooks, "", 1.0, None).unwrap_err().status(), 400);
        assert_eq!(lc.register(&hooks, "a", -1.0, None).unwrap_err().status(), 400);
        assert_eq!(lc.register(&hooks, "a", 1.0, Some(0.0)).unwrap_err().status(), 400);
        lc.register(&hooks, "a", 1.0, None).unwrap();
        assert_eq!(lc.register(&hooks, "a", 1.0, None).unwrap_err().status(), 409);
    }

    #[test]
    fn heartbeat_requires_approval_and_removal_is_gone() {
        let hooks = hooks();
        let mut lc = Lifecycle::new(LifecycleConfig::default());
        lc.register(&hooks, "a", 1.0, None).unwrap();
        assert_eq!(lc.heartbeat(&hooks, "a").unwrap_err().status(), 409);
        assert_eq!(lc.heartbeat(&hooks, "ghost").unwrap_err().status(), 404);
        lc.approve(&hooks, "a").unwrap();
        lc.remove(&hooks, "a").unwrap();
        assert_eq!(lc.heartbeat(&hooks, "a").unwrap_err().status(), 410);
        assert_eq!(lc.remove(&hooks, "a").unwrap_err().status(), 410);
        // The name is reusable after removal.
        assert_eq!(lc.register(&hooks, "a", 3.0, None).unwrap(), NodeState::Registering);
    }

    #[test]
    fn sweep_drives_overdue_nodes_toward_down() {
        let hooks = hooks();
        let mut lc = Lifecycle::new(LifecycleConfig {
            auto_approve: true,
            default_heartbeat_interval: 0.01,
            miss_grace: 1.0,
        });
        lc.register(&hooks, "a", 1.0, None).unwrap();
        lc.register(&hooks, "b", 1.0, None).unwrap();
        lc.heartbeat(&hooks, "a").unwrap();
        lc.heartbeat(&hooks, "b").unwrap();
        let id_a = lc.entries()[0].node.unwrap();
        let id_b = lc.entries()[1].node.unwrap();
        let beat_a = lc.entries()[0].last_heartbeat;
        assert!(beat_a.is_some());
        // Both nodes go silent. Sweep far past the deadline: each sweep
        // records exactly one miss per overdue Online node, not a flood.
        let far = hooks.now() + 1.0;
        assert_eq!(lc.sweep(&hooks, far), 2, "both overdue at first sweep");
        let rt = hooks.runtime();
        assert_eq!(rt.node_health(id_a), Some(Health::Suspect), "one miss: Suspect");
        // Draining nodes leave the sweep's jurisdiction.
        lc.drain(&hooks, "b").unwrap();
        assert_eq!(lc.sweep(&hooks, far + 1.0), 1, "only a is swept now");
        assert_eq!(lc.sweep(&hooks, far + 2.0), 1);
        assert_eq!(rt.node_health(id_a), Some(Health::Down), "three misses walked a down");
        assert_eq!(rt.node_health(id_b), Some(Health::Draining));
        // A miss is no heartbeat: `GET /nodes` still reports a's one beat.
        assert_eq!(lc.entries()[0].last_heartbeat, beat_a, "the sweep forged a heartbeat");
        assert_eq!(lc.entries()[0].heartbeats, 1);
    }

    #[test]
    fn sweep_times_a_silent_approved_node_from_approval() {
        let hooks = hooks();
        let mut lc = Lifecycle::new(LifecycleConfig {
            auto_approve: true,
            default_heartbeat_interval: 0.01,
            miss_grace: 1.0,
        });
        assert_eq!(lc.register(&hooks, "a", 1.0, None).unwrap(), NodeState::Approved);
        let id = lc.entries()[0].node.unwrap();
        let approved_at = lc.entries()[0].silent_since.unwrap();
        assert_eq!(lc.sweep(&hooks, approved_at), 0, "not overdue at approval");
        // The node never beats: it is overdue from its approval on, and
        // each sweep records one miss.
        let far = hooks.now() + 1.0;
        let misses: usize = (0..3).map(|k| lc.sweep(&hooks, far + f64::from(k))).sum();
        assert_eq!(misses, 3);
        let health = hooks.runtime().node_health(id);
        assert_eq!(health, Some(Health::Down), "three misses walked a down");
        assert_eq!(lc.entries()[0].state, NodeState::Approved);
        assert_eq!(lc.entries()[0].last_heartbeat, None, "a miss is no heartbeat");
    }

    #[test]
    fn metrics_update_feeds_estimator_and_rate() {
        let rt = Arc::new(
            Runtime::builder().seed(7).nominal_arrival_rate(0.4).min_observations(4, 2).build(),
        );
        let hooks = rt.attach_control_plane();
        let mut lc =
            Lifecycle::new(LifecycleConfig { auto_approve: true, ..LifecycleConfig::default() });
        lc.register(&hooks, "a", 1.0, None).unwrap();
        lc.heartbeat(&hooks, "a").unwrap();
        lc.record_metrics(&hooks, "a", &[0.5, 0.5, 0.5, 0.5], Some(2.5)).unwrap();
        let status = &hooks.nodes()[0];
        assert_eq!(status.nominal_rate, 2.5);
        assert_eq!(status.estimated_rate, Some(2.0));
        assert_eq!(
            lc.record_metrics(&hooks, "a", &[-1.0], None).unwrap_err().status(),
            400,
            "negative sample rejected"
        );
        assert_eq!(lc.record_metrics(&hooks, "a", &[], Some(0.0)).unwrap_err().status(), 400);
    }

    #[test]
    fn drain_is_idempotent_and_excludes_from_routing() {
        let hooks = hooks();
        let mut lc =
            Lifecycle::new(LifecycleConfig { auto_approve: true, ..LifecycleConfig::default() });
        lc.register(&hooks, "a", 1.0, None).unwrap();
        let id = lc.entries()[0].node.unwrap();
        lc.drain(&hooks, "a").unwrap();
        lc.drain(&hooks, "a").unwrap();
        assert_eq!(hooks.runtime().node_health(id), Some(Health::Draining));
        assert_eq!(lc.entries()[0].state, NodeState::Draining);
    }
}
