//! Probabilistic routing tables: the immutable artifact the re-solver
//! publishes and the dispatcher reads.
//!
//! A table maps a uniform draw `u ∈ [0,1)` to a node with probability
//! `p_i = λ_i / Φ` of the current allocation, in O(1) per draw via a
//! Walker [`AliasTable`] built once at construction. Tables are
//! immutable once built; every change (re-solve, node failure, rate
//! update) produces a new table with a larger epoch through
//! [`RoutingTable::new`], published through
//! [`EpochSwap`](crate::swap::EpochSwap).

use gtlb_core::allocation::Allocation;
use gtlb_core::error::CoreError;

use crate::alias::AliasTable;
use crate::error::RuntimeError;
use crate::registry::NodeId;

/// Whether `w` can weigh a node: nonnegative and finite.
fn is_weight(w: f64) -> bool {
    w.is_finite() && w >= 0.0
}

/// [`RoutingTable::new`]'s first checks: one weight per node, and at
/// least one node.
fn check_shape(nodes: &[NodeId], weights: &[f64]) -> Result<(), RuntimeError> {
    if nodes.len() != weights.len() {
        return Err(CoreError::BadInput(format!(
            "routing table has {} nodes but {} weights",
            nodes.len(),
            weights.len()
        ))
        .into());
    }
    if nodes.is_empty() {
        return Err(RuntimeError::NoServingNodes);
    }
    Ok(())
}

/// An immutable routing table: node ids, routing probabilities, and the
/// alias table used by the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    epoch: u64,
    nodes: Vec<NodeId>,
    probs: Vec<f64>,
    alias: AliasTable,
}

impl RoutingTable {
    /// A placeholder with no nodes: every dispatch fails with
    /// `NoServingNodes` until a real table lands. Published before the
    /// first resolve, and again when the last serving node goes down.
    /// [`RoutingTable::route`] must not be called on it.
    #[must_use]
    pub fn empty(epoch: u64) -> Self {
        Self { epoch, nodes: Vec::new(), probs: Vec::new(), alias: AliasTable::empty() }
    }

    /// Whether this is the empty placeholder.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds a table from per-node routing weights (not necessarily
    /// normalized — loads `λ_i` work directly): validate, normalize,
    /// one alias build. Every publish goes through here.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] when `nodes` is empty or the
    /// weights sum to zero; [`RuntimeError::Core`] when lengths mismatch,
    /// any weight is negative or non-finite, or the weights sum to more
    /// than the largest finite `f64`.
    pub fn new(epoch: u64, nodes: Vec<NodeId>, weights: &[f64]) -> Result<Self, RuntimeError> {
        check_shape(&nodes, weights)?;
        if let Some((i, &w)) = weights.iter().enumerate().find(|&(_, &w)| !is_weight(w)) {
            return Err(CoreError::BadInput(format!(
                "routing weight for {} must be nonnegative and finite, got {w}",
                nodes[i]
            ))
            .into());
        }
        let total: f64 = weights.iter().sum();
        Self::normalized(epoch, nodes, weights, total)
    }

    /// The table of checked `weights` whose plain sum is `total`.
    fn normalized(
        epoch: u64,
        nodes: Vec<NodeId>,
        weights: &[f64],
        total: f64,
    ) -> Result<Self, RuntimeError> {
        if !total.is_finite() {
            // Normalizing by ∞ would zero every probability.
            return Err(CoreError::BadInput(format!(
                "routing weights of {} nodes must sum to a finite total, got {total}",
                nodes.len()
            ))
            .into());
        }
        if total <= 0.0 {
            return Err(RuntimeError::NoServingNodes);
        }
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let alias = AliasTable::new(&probs);
        Ok(Self { epoch, nodes, probs, alias })
    }

    /// Builds a table from an [`Allocation`] over the same nodes (in
    /// order). Zero-total allocations (Φ = 0) fall back to capacity
    /// weights supplied in `fallback_weights`, keeping an idle system
    /// routable.
    ///
    /// # Errors
    /// As [`RoutingTable::new`].
    pub fn from_allocation(
        epoch: u64,
        nodes: Vec<NodeId>,
        allocation: &Allocation,
        fallback_weights: &[f64],
    ) -> Result<Self, RuntimeError> {
        let loads = allocation.loads();
        if !loads.iter().all(|&w| is_weight(w)) {
            // The compensated total picks the weights, and `new` rejects
            // whichever it picked if they are bad.
            let weights = if allocation.total() > 0.0 { loads } else { fallback_weights };
            return Self::new(epoch, nodes, weights);
        }
        // Nonnegative finite loads have a positive compensated total
        // exactly when their plain sum is positive and finite (a sum that
        // overflows makes the compensated one NaN), so the one sum that
        // normalizes them also decides.
        let total: f64 = loads.iter().sum();
        if total > 0.0 && total.is_finite() {
            check_shape(&nodes, loads)?;
            Self::normalized(epoch, nodes, loads, total)
        } else {
            Self::new(epoch, nodes, fallback_weights)
        }
    }

    /// The publish epoch: strictly increasing across the tables a runtime
    /// publishes.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Node ids, in table order.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Normalized routing probabilities, in table order.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Routing probability of one node, if present.
    #[must_use]
    pub fn prob_of(&self, id: NodeId) -> Option<f64> {
        self.nodes.iter().position(|&n| n == id).map(|i| self.probs[i])
    }

    /// Routes one uniform draw `u ∈ [0,1)` to a node: one alias-table
    /// lookup, `O(1)` regardless of the node count. Consumes exactly
    /// the one draw it is given; out-of-range draws clamp into `[0,1)`
    /// and non-finite draws pin to `0.0`.
    #[must_use]
    #[inline]
    pub fn route(&self, u: f64) -> NodeId {
        self.nodes[self.alias.sample(u)]
    }

    /// Routes by table *position* instead of id: the index into
    /// [`nodes`](Self::nodes) and [`probs`](Self::probs) that
    /// [`route`](Self::route) resolves.
    #[must_use]
    #[inline]
    pub fn route_index(&self, u: f64) -> usize {
        self.alias.sample(u)
    }

    /// The failure path: a new table (stamped `epoch`) with `id` removed
    /// and its probability mass redistributed proportionally over the
    /// survivors. This is the cheap immediate response to a node going
    /// down; the full re-solve follows asynchronously.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] when `id` is not in the table;
    /// [`RuntimeError::NoServingNodes`] when it was the last node (or
    /// held all the mass).
    pub fn without_node(&self, id: NodeId, epoch: u64) -> Result<Self, RuntimeError> {
        // One pass: collect the survivors and notice the victim on the
        // way through, instead of a `contains` scan followed by a
        // second filtering loop.
        let survivors = self.nodes.len().saturating_sub(1);
        let mut nodes = Vec::with_capacity(survivors);
        let mut weights = Vec::with_capacity(survivors);
        let mut found = false;
        for (&n, &p) in self.nodes.iter().zip(self.probs.iter()) {
            if n == id {
                found = true;
            } else {
                nodes.push(n);
                weights.push(p);
            }
        }
        if !found {
            return Err(RuntimeError::UnknownNode(id));
        }
        Self::new(epoch, nodes, &weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raws: &[u64]) -> Vec<NodeId> {
        raws.iter().map(|&r| NodeId::from_raw(r)).collect()
    }

    #[test]
    fn normalizes_weights() {
        let t = RoutingTable::new(1, ids(&[0, 1, 2]), &[2.0, 1.0, 1.0]).unwrap();
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.probs(), &[0.5, 0.25, 0.25]);
        assert_eq!(t.prob_of(NodeId::from_raw(1)), Some(0.25));
        assert_eq!(t.prob_of(NodeId::from_raw(9)), None);
    }

    #[test]
    fn rejects_malformed_tables() {
        assert!(matches!(RoutingTable::new(0, vec![], &[]), Err(RuntimeError::NoServingNodes)));
        assert!(matches!(
            RoutingTable::new(0, ids(&[0]), &[0.0]),
            Err(RuntimeError::NoServingNodes)
        ));
        assert!(RoutingTable::new(0, ids(&[0, 1]), &[1.0]).is_err());
        assert!(RoutingTable::new(0, ids(&[0, 1]), &[1.0, -0.1]).is_err());
        assert!(RoutingTable::new(0, ids(&[0, 1]), &[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn rejects_a_non_finite_weight_total() {
        assert!(matches!(
            RoutingTable::new(1, ids(&[0, 1]), &[f64::MAX, f64::MAX]),
            Err(RuntimeError::Core(CoreError::BadInput(_)))
        ));
        let t = RoutingTable::new(1, ids(&[0, 1]), &[f64::MAX / 4.0, f64::MAX / 4.0]).unwrap();
        assert_eq!(t.probs(), &[0.5, 0.5]);
    }

    #[test]
    fn draws_rounding_to_one_land_on_a_node() {
        // Regression: 1.0 − 1e-17 rounds to exactly 1.0 in f64; routing
        // must clamp it below one instead of indexing past the table
        // (the clamp is the largest f64 strictly below one, not 1.0 − ε,
        // which is two ulps down).
        let u: f64 = 1.0 - 1e-17;
        assert_eq!(u.to_bits(), 1.0f64.to_bits());
        let t = RoutingTable::new(0, ids(&[10, 20]), &[0.5, 0.5]).unwrap();
        let routed = t.route(u);
        assert!(t.prob_of(routed).unwrap() > 0.0);
        let single = RoutingTable::new(0, ids(&[7]), &[1.0]).unwrap();
        assert_eq!(single.route(u), NodeId::from_raw(7));
    }

    #[test]
    fn zero_probability_nodes_are_never_routed() {
        let t = RoutingTable::new(0, ids(&[0, 1, 2]), &[0.5, 0.0, 0.5]).unwrap();
        for k in 0..1000 {
            let u = k as f64 / 1000.0;
            assert_ne!(t.route(u), NodeId::from_raw(1));
        }
    }

    #[test]
    fn non_finite_draws_never_route_zero_probability_nodes() {
        // Regression: NaN defeats `clamp` (NaN.clamp is NaN); a NaN
        // draw must pin to 0.0 and still skip the *leading*
        // zero-probability node here.
        let t = RoutingTable::new(0, ids(&[0, 1]), &[0.0, 1.0]).unwrap();
        for u in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(t.route(u), NodeId::from_raw(1));
            assert_eq!(t.route_index(u), 1);
        }
    }

    #[test]
    fn route_index_matches_route() {
        let t = RoutingTable::new(0, ids(&[5, 9, 12]), &[0.2, 0.5, 0.3]).unwrap();
        for k in 0..4096 {
            let u = k as f64 / 4096.0;
            assert_eq!(t.nodes()[t.route_index(u)], t.route(u));
        }
    }

    #[test]
    fn without_node_renormalizes_proportionally() {
        let t = RoutingTable::new(5, ids(&[0, 1, 2]), &[0.5, 0.3, 0.2]).unwrap();
        let t2 = t.without_node(NodeId::from_raw(1), 6).unwrap();
        assert_eq!(t2.epoch(), 6);
        assert_eq!(t2.nodes(), &ids(&[0, 2])[..]);
        assert!((t2.probs()[0] - 0.5 / 0.7).abs() < 1e-12);
        assert!((t2.probs()[1] - 0.2 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn without_node_edge_cases() {
        let t = RoutingTable::new(0, ids(&[0]), &[1.0]).unwrap();
        assert!(matches!(
            t.without_node(NodeId::from_raw(0), 1),
            Err(RuntimeError::NoServingNodes)
        ));
        assert!(matches!(
            t.without_node(NodeId::from_raw(7), 1),
            Err(RuntimeError::UnknownNode(_))
        ));
        assert!(RoutingTable::empty(2).is_empty());
        assert_eq!(RoutingTable::empty(2).epoch(), 2);
    }

    #[test]
    fn from_allocation_falls_back_when_idle() {
        let alloc = Allocation::new(vec![0.0, 0.0]);
        let t = RoutingTable::from_allocation(3, ids(&[0, 1]), &alloc, &[3.0, 1.0]).unwrap();
        assert_eq!(t.probs(), &[0.75, 0.25]);
        let alloc = Allocation::new(vec![0.2, 0.6]);
        let t = RoutingTable::from_allocation(4, ids(&[0, 1]), &alloc, &[3.0, 1.0]).unwrap();
        assert!((t.probs()[0] - 0.25).abs() < 1e-12);
    }
}
