//! The node registry: cluster membership and health for the online
//! runtime.
//!
//! Where the offline crates take a fixed [`Cluster`], a live system's
//! membership changes: nodes join, degrade, drain for maintenance, and
//! fail. The registry is the runtime's single source of truth for "which
//! computers exist, how fast are they nominally, and which are currently
//! accepting work". Each row also owns the node's service-time window
//! and its failure-detector track, so the measured rate `μ̂ᵢ` and the
//! suspicion φ live and die with the node. The re-solver snapshots the
//! registry into a [`Cluster`] on every solve.

use std::fmt;

use gtlb_core::error::CoreError;
use gtlb_core::model::Cluster;

use crate::detector::{self, DetectorConfig, HealthTransition, Track};
use crate::error::RuntimeError;
use crate::estimator::WindowRate;

/// Stable identifier of a registered node. Ids are never reused, even
/// after the node deregisters, so stale ids fail loudly instead of
/// silently addressing a newer node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u64);

impl NodeId {
    /// The numeric id (stream derivation, logging).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its numeric form (tests, persistence).
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

/// The index of `id` in `rows`, whose ids, read by `id_of`, are
/// distinct and ascending. Ids are unsigned, so the row at index `i`
/// holds an id of at least `i`, and the row of id `k` sits at index
/// `min(k, len − 1)` or before it: that guess is checked first, and only
/// the rows before it are binary-searched on a miss. Allocates nothing,
/// whatever `id` is.
pub(crate) fn index_of<T>(rows: &[T], id: NodeId, id_of: impl Fn(&T) -> NodeId) -> Option<usize> {
    let last = rows.len().checked_sub(1)?;
    let guess = usize::try_from(id.0).map_or(last, |k| k.min(last));
    if id_of(&rows[guess]) == id {
        return Some(guess);
    }
    rows[..guess].binary_search_by_key(&id, id_of).ok()
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Health of a registered node, as seen by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Up,
    /// Missed a health signal; still routed to, but a candidate for
    /// demotion to [`Health::Down`].
    Suspect,
    /// Administratively draining: finishes queued work but receives no
    /// new jobs, and is excluded from future allocations.
    Draining,
    /// Failed: receives no jobs and is excluded from allocations.
    Down,
}

impl Health {
    /// Whether a node in this state accepts new jobs (and therefore
    /// belongs in the cluster handed to the allocators).
    #[must_use]
    pub fn serves(self) -> bool {
        matches!(self, Self::Up | Self::Suspect)
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Up => "up",
            Self::Suspect => "suspect",
            Self::Draining => "draining",
            Self::Down => "down",
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One registered node.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    nominal_rate: f64,
    health: Health,
    service: WindowRate,
    track: Track,
}

impl Node {
    /// The node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Declared processing capacity `μ_i` (jobs/second), used until the
    /// online estimator has enough observations to measure it.
    #[must_use]
    pub fn nominal_rate(&self) -> f64 {
        self.nominal_rate
    }

    /// Current health.
    #[must_use]
    pub fn health(&self) -> Health {
        self.health
    }

    /// Measured capacity `μ̂_i` over the node's service window, once the
    /// window holds at least `min_samples` samples.
    #[must_use]
    pub fn estimated_rate(&self, min_samples: usize) -> Option<f64> {
        (self.service.count() >= min_samples).then(|| self.service.rate()).flatten()
    }

    /// Records one service duration in the node's window.
    pub(crate) fn observe_service(&mut self, duration: f64) {
        self.service.observe(duration);
    }

    /// The node's suspicion level φ at time `now` under `cfg`.
    pub(crate) fn phi(&self, cfg: &DetectorConfig, now: f64) -> f64 {
        detector::track_phi(cfg, &self.track, now)
    }

    /// The `(suspect_phi, down_phi)` thresholds in force for the node.
    pub(crate) fn effective_thresholds(&self, cfg: &DetectorConfig) -> (f64, f64) {
        detector::thresholds(cfg, &self.track)
    }

    /// Feeds the node's track one observation at time `t` and writes
    /// the health it decides on into the row, returning the move if the
    /// health changed. A draining node is left alone: drains are
    /// administrative, not health.
    pub(crate) fn observe(
        &mut self,
        cfg: &DetectorConfig,
        t: f64,
        success: bool,
    ) -> Option<HealthTransition> {
        let from = self.health;
        if from == Health::Draining {
            return None;
        }
        let to = if success {
            self.track.observe_success(cfg, from, t)
        } else {
            self.track.observe_failure(cfg, from, t)
        };
        self.health = to;
        (to != from).then_some(HealthTransition { node: self.id, from, to, at: t })
    }
}

/// Membership and health of the cluster's nodes, in registration order.
///
/// Registration order is ascending id order: ids are issued 0, 1, 2, …,
/// `register` appends, and `deregister` removes without reordering. So
/// `nodes` stays sorted by id, and the row of id `k` sits at index `k`
/// until some node deregisters, and at an index below `k` after. A
/// lookup checks `nodes[min(k, len − 1)]` first and binary-searches
/// only the rows before it on a miss: one compare while no node has
/// deregistered, and no id→index table whose size would grow with
/// churn.
#[derive(Debug, Clone)]
pub struct Registry {
    next_id: u64,
    nodes: Vec<Node>,
    service_window: usize,
}

impl Registry {
    /// Empty registry whose nodes each remember their last
    /// `service_window` service times and keep an accrual track.
    ///
    /// # Panics
    /// If `service_window == 0`.
    #[must_use]
    pub fn new(service_window: usize) -> Self {
        assert!(service_window > 0, "service window must be positive");
        Self { next_id: 0, nodes: Vec::new(), service_window }
    }

    /// Registers a node with declared capacity `rate`, initially
    /// [`Health::Up`].
    ///
    /// # Errors
    /// [`RuntimeError::Core`] when `rate` is nonpositive or non-finite.
    pub fn register(&mut self, rate: f64) -> Result<NodeId, RuntimeError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(CoreError::BadInput(format!(
                "node capacity must be positive and finite, got {rate}"
            ))
            .into());
        }
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.push(Node {
            id,
            nominal_rate: rate,
            health: Health::Up,
            service: WindowRate::new(self.service_window),
            track: Track::new(),
        });
        Ok(id)
    }

    /// Removes a node entirely, its service window and track included.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] when `id` is not registered.
    pub fn deregister(&mut self, id: NodeId) -> Result<Node, RuntimeError> {
        let pos = self.position(id).ok_or(RuntimeError::UnknownNode(id))?;
        Ok(self.nodes.remove(pos))
    }

    /// Marks a node's health by hand, returning the previous state. The
    /// mark also clears the node's probation streak, so a node marked
    /// Down earns its way back like one the detector took down.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] when `id` is not registered.
    pub fn set_health(&mut self, id: NodeId, health: Health) -> Result<Health, RuntimeError> {
        let row = self.node_mut(id).ok_or(RuntimeError::UnknownNode(id))?;
        row.track.reset_streak();
        Ok(std::mem::replace(&mut row.health, health))
    }

    /// Updates a node's declared capacity (e.g. after a hardware change).
    /// The service window is kept: a declared rate never overrides a
    /// measured one.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unknown ids, [`RuntimeError::Core`]
    /// for nonpositive/non-finite rates.
    pub fn set_nominal_rate(&mut self, id: NodeId, rate: f64) -> Result<(), RuntimeError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(CoreError::BadInput(format!(
                "node capacity must be positive and finite, got {rate}"
            ))
            .into());
        }
        self.node_mut(id).ok_or(RuntimeError::UnknownNode(id))?.nominal_rate = rate;
        Ok(())
    }

    /// Records one service duration of `id` in its window.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] when `id` is not registered.
    pub fn observe_service(&mut self, id: NodeId, duration: f64) -> Result<(), RuntimeError> {
        self.node_mut(id).ok_or(RuntimeError::UnknownNode(id))?.observe_service(duration);
        Ok(())
    }

    /// Looks a node up.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.position(id).map(|pos| &self.nodes[pos])
    }

    /// Looks a node up for a caller that reads and writes its row in
    /// one lookup.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.position(id).map(|pos| &mut self.nodes[pos])
    }

    /// All nodes in registration order, which is ascending id order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of registered nodes (any health).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes currently accepting work ([`Health::serves`]).
    pub fn serving(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.health.serves())
    }

    /// Snapshots the serving nodes as an allocation-layer [`Cluster`],
    /// using `rate_of(node)` for each capacity (callers substitute
    /// measured rates where available, nominal rates otherwise).
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] when nothing serves;
    /// [`RuntimeError::Core`] when a supplied rate is invalid.
    pub fn serving_cluster(
        &self,
        mut rate_of: impl FnMut(&Node) -> f64,
    ) -> Result<(Vec<NodeId>, Cluster), RuntimeError> {
        // Sized for every row: one allocation each, however many serve.
        let mut ids = Vec::with_capacity(self.nodes.len());
        let mut rates = Vec::with_capacity(self.nodes.len());
        for node in self.serving() {
            ids.push(node.id);
            rates.push(rate_of(node));
        }
        if ids.is_empty() {
            return Err(RuntimeError::NoServingNodes);
        }
        let cluster = Cluster::new(rates)?;
        Ok((ids, cluster))
    }

    fn position(&self, id: NodeId) -> Option<usize> {
        index_of(&self.nodes, id, Node::id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::new(16)
    }

    #[test]
    fn register_assigns_fresh_ids() {
        let mut r = registry();
        let a = r.register(1.0).unwrap();
        let b = r.register(2.0).unwrap();
        assert_ne!(a, b);
        r.deregister(a).unwrap();
        let c = r.register(3.0).unwrap();
        assert_ne!(c, a, "ids must not be reused");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn register_rejects_bad_rates() {
        let mut r = registry();
        assert!(r.register(0.0).is_err());
        assert!(r.register(-1.0).is_err());
        assert!(r.register(f64::NAN).is_err());
    }

    #[test]
    fn health_transitions_gate_serving() {
        let mut r = registry();
        let a = r.register(1.0).unwrap();
        let b = r.register(2.0).unwrap();
        assert_eq!(r.serving().count(), 2);
        assert_eq!(r.set_health(a, Health::Suspect).unwrap(), Health::Up);
        assert_eq!(r.serving().count(), 2, "suspect nodes still serve");
        r.set_health(a, Health::Down).unwrap();
        assert_eq!(r.serving().count(), 1);
        r.set_health(b, Health::Draining).unwrap();
        assert_eq!(r.serving().count(), 0);
    }

    #[test]
    fn unknown_ids_fail_loudly() {
        let mut r = registry();
        let ghost = NodeId::from_raw(99);
        assert_eq!(r.set_health(ghost, Health::Down), Err(RuntimeError::UnknownNode(ghost)));
        assert!(r.deregister(ghost).is_err());
        assert_eq!(r.observe_service(ghost, 1.0), Err(RuntimeError::UnknownNode(ghost)));
        assert!(r.node(ghost).is_none());
    }

    #[test]
    fn serving_cluster_snapshots_in_order() {
        let mut r = registry();
        let a = r.register(4.0).unwrap();
        let b = r.register(2.0).unwrap();
        let c = r.register(1.0).unwrap();
        r.set_health(b, Health::Down).unwrap();
        let (ids, cluster) = r.serving_cluster(|n| n.nominal_rate()).unwrap();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(cluster.rates(), &[4.0, 1.0]);
    }

    #[test]
    fn serving_capacity_tracks_health() {
        let mut r = registry();
        let capacity =
            |r: &Registry| r.serving_cluster(Node::nominal_rate).map(|(_, c)| c.total_rate());
        let a = r.register(4.0).unwrap();
        r.register(2.0).unwrap();
        assert_eq!(capacity(&r), Ok(6.0));
        r.set_health(a, Health::Draining).unwrap();
        assert_eq!(capacity(&r), Ok(2.0));
    }

    #[test]
    fn empty_serving_set_is_an_error() {
        let mut r = registry();
        assert!(matches!(
            r.serving_cluster(|n| n.nominal_rate()),
            Err(RuntimeError::NoServingNodes)
        ));
        let a = r.register(1.0).unwrap();
        r.set_health(a, Health::Down).unwrap();
        assert!(matches!(
            r.serving_cluster(|n| n.nominal_rate()),
            Err(RuntimeError::NoServingNodes)
        ));
    }
}
