//! The re-solver: turns a registry snapshot plus rate estimates into a
//! fresh allocation and routing table.
//!
//! Two paths publish tables:
//!
//! * the **solve path** ([`solve_table`]) runs a full allocation (COOP,
//!   or the OPTIM and PROP baselines) over the serving nodes — periodic,
//!   driven by the background loop or called synchronously;
//! * the **failure path** ([`RoutingTable::without_node`]) renormalizes
//!   the live table immediately when a node goes down, so no job is
//!   routed into the failed node during the (comparatively slow) next
//!   full solve. "Renormalize, then re-solve."

use gtlb_core::allocation::Allocation;
use gtlb_core::error::CoreError;
use gtlb_core::model::Cluster;
use gtlb_core::schemes::{Coop, Optim, Prop, SingleClassScheme};

use crate::error::RuntimeError;
use crate::registry::NodeId;
use crate::table::RoutingTable;

/// Which allocator the re-solver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// The paper's cooperative scheme (Nash Bargaining Solution).
    Coop,
    /// Overall-optimal baseline.
    Optim,
    /// Rate-proportional baseline.
    Prop,
}

impl SchemeKind {
    /// Display name matching the paper's scheme labels.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Coop => "COOP",
            Self::Optim => "OPTIM",
            Self::Prop => "PROP",
        }
    }

    /// Computes the scheme's allocation of total rate `phi` over
    /// `cluster`.
    ///
    /// # Errors
    /// [`CoreError::Overloaded`] when `phi` meets capacity,
    /// [`CoreError::BadInput`] on malformed parameters.
    pub fn allocate(&self, cluster: &Cluster, phi: f64) -> Result<Allocation, CoreError> {
        self.allocate_from(cluster, phi, &mut Vec::new())
    }

    /// As [`SchemeKind::allocate`], with COOP's and OPTIM's sort by rate
    /// starting from `order` and leaving the sorted order there for the
    /// next solve (see [`Cluster::sort_by_rate_desc`]). PROP sorts
    /// nothing and leaves `order` alone.
    pub(crate) fn allocate_from(
        &self,
        cluster: &Cluster,
        phi: f64,
        order: &mut Vec<usize>,
    ) -> Result<Allocation, CoreError> {
        match *self {
            Self::Coop => {
                cluster.sort_by_rate_desc(order);
                Coop.allocate_sorted(cluster, phi, order)
            }
            Self::Optim => {
                cluster.sort_by_rate_desc(order);
                Optim.allocate_sorted(cluster, phi, order)
            }
            Self::Prop => Prop.allocate(cluster, phi),
        }
    }
}

/// The result of one successful solve: everything the caller needs to
/// publish, log, or validate against.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// Epoch assigned to the published table.
    pub epoch: u64,
    /// Serving nodes the solve ran over, in table order.
    pub nodes: Vec<NodeId>,
    /// Processing rates used (measured where warm, nominal otherwise).
    pub rates: Vec<f64>,
    /// Total arrival rate used (estimated where warm, nominal otherwise).
    pub phi: f64,
    /// The allocation the scheme produced.
    pub allocation: Allocation,
    /// The scheme's own prediction of mean response time under this
    /// allocation (`NaN` when `phi = 0`) — the analytic reference the
    /// trace driver validates the closed loop against.
    pub predicted_mean_response: f64,
}

impl ResolveOutcome {
    /// The outcome of the solve that built `table` over `cluster` at
    /// arrival rate `phi`: copies the table's ids and the cluster's rates
    /// and predicts the mean response time.
    pub(crate) fn new(
        table: &RoutingTable,
        cluster: &Cluster,
        phi: f64,
        allocation: Allocation,
    ) -> Self {
        Self {
            epoch: table.epoch(),
            nodes: table.nodes().to_vec(),
            rates: cluster.rates().to_vec(),
            phi,
            predicted_mean_response: allocation.mean_response_time(cluster),
            allocation,
        }
    }
}

/// Runs `scheme` over `(ids, cluster)` at arrival rate `phi` and builds
/// the table for `epoch`.
///
/// An estimated `phi` can transiently exceed capacity (EWMA overshoot
/// during a burst); `clamp_phi` is applied first so such spikes degrade
/// to a near-critical allocation instead of failing the solve. Pass the
/// raw value through when `phi` is nominal and overload should be loud.
///
/// # Errors
/// [`RuntimeError::Core`] from the allocator, [`RuntimeError::NoServingNodes`]
/// when the allocation cannot be turned into a table.
pub fn solve_table(
    scheme: SchemeKind,
    epoch: u64,
    ids: Vec<NodeId>,
    cluster: &Cluster,
    phi: f64,
) -> Result<(RoutingTable, ResolveOutcome), RuntimeError> {
    let (table, allocation) = build_table(scheme, epoch, ids, cluster, phi, &mut Vec::new())?;
    let outcome = ResolveOutcome::new(&table, cluster, phi, allocation);
    Ok((table, outcome))
}

/// [`solve_table`] without the outcome: the table and the allocation
/// it routes by, with the sort by rate starting from `order` (see
/// [`SchemeKind::allocate_from`]).
pub(crate) fn build_table(
    scheme: SchemeKind,
    epoch: u64,
    ids: Vec<NodeId>,
    cluster: &Cluster,
    phi: f64,
    order: &mut Vec<usize>,
) -> Result<(RoutingTable, Allocation), RuntimeError> {
    let allocation = scheme.allocate_from(cluster, phi, order)?;
    let table = RoutingTable::from_allocation(epoch, ids, &allocation, cluster.rates())?;
    Ok((table, allocation))
}

/// The last solve's order, kept for the next solve's sort: serving nodes
/// by decreasing rate, as indices into the ids that solve ran over.
#[derive(Debug, Default)]
pub(crate) struct KeptOrder {
    /// The serving ids of the last solve, ascending.
    ids: Vec<NodeId>,
    /// A permutation of `0..ids.len()`, by decreasing rate at the last
    /// solve.
    order: Vec<usize>,
}

impl KeptOrder {
    /// The kept order re-expressed over `ids`, the next solve's serving
    /// ids (ascending), for [`Cluster::sort_by_rate_desc`] to repair: a
    /// node that stopped serving is dropped, one that started serving is
    /// appended, and every other node keeps its place. A serving set that
    /// changed therefore costs a few moves, not a sort from the identity.
    pub(crate) fn rebase(&mut self, ids: &[NodeId]) -> &mut Vec<usize> {
        if self.ids != ids {
            let mut moved_to = vec![usize::MAX; self.ids.len()];
            let mut joined = Vec::new();
            let mut old = 0;
            for (new, &id) in ids.iter().enumerate() {
                while old < self.ids.len() && self.ids[old] < id {
                    old += 1;
                }
                if old < self.ids.len() && self.ids[old] == id {
                    moved_to[old] = new;
                    old += 1;
                } else {
                    joined.push(new);
                }
            }
            self.order.retain_mut(|k| {
                *k = moved_to[*k];
                *k != usize::MAX
            });
            self.order.extend(joined);
            self.ids.clear();
            self.ids.extend_from_slice(ids);
        }
        &mut self.order
    }
}

/// Caps an *estimated* arrival rate just below the cluster capacity so a
/// transient estimator overshoot still yields a solvable (if heavily
/// loaded) system.
#[must_use]
pub fn clamp_phi(phi: f64, cluster: &Cluster) -> f64 {
    let cap = cluster.total_rate();
    phi.min(0.995 * cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::from_groups(&[(2, 0.13), (3, 0.065), (5, 0.026), (6, 0.013)]).unwrap()
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SchemeKind::Coop.name(), "COOP");
        assert_eq!(SchemeKind::Optim.name(), "OPTIM");
        assert_eq!(SchemeKind::Prop.name(), "PROP");
    }

    #[test]
    fn all_schemes_produce_feasible_allocations() {
        let cl = cluster();
        let phi = cl.arrival_rate_for_utilization(0.6);
        for scheme in [SchemeKind::Coop, SchemeKind::Optim, SchemeKind::Prop] {
            let alloc = scheme.allocate(&cl, phi).unwrap();
            alloc.verify(&cl, phi, 1e-6).unwrap_or_else(|e| {
                panic!("{} produced infeasible allocation: {e}", scheme.name())
            });
        }
    }

    #[test]
    fn solve_table_routes_proportionally_to_loads() {
        let cl = cluster();
        let phi = cl.arrival_rate_for_utilization(0.6);
        let ids: Vec<NodeId> = (0..cl.n() as u64).map(NodeId::from_raw).collect();
        let (table, outcome) = solve_table(SchemeKind::Coop, 3, ids, &cl, phi).unwrap();
        assert_eq!(table.epoch(), 3);
        assert_eq!(outcome.epoch, 3);
        for (p, l) in table.probs().iter().zip(outcome.allocation.loads()) {
            assert!((p - l / phi).abs() < 1e-12);
        }
        assert!(outcome.predicted_mean_response.is_finite());
        assert!(outcome.predicted_mean_response > 0.0);
    }

    #[test]
    fn idle_solve_still_routable() {
        let cl = cluster();
        let ids: Vec<NodeId> = (0..cl.n() as u64).map(NodeId::from_raw).collect();
        let (table, outcome) = solve_table(SchemeKind::Coop, 1, ids, &cl, 0.0).unwrap();
        // Φ = 0: loads are all zero; routing falls back to capacity.
        assert!(outcome.predicted_mean_response.is_nan());
        let total = cl.total_rate();
        for (p, mu) in table.probs().iter().zip(cl.rates()) {
            assert!((p - mu / total).abs() < 1e-12);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whatever nodes leave or join between two solves, the rebased
        /// order is a permutation of the new serving set that keeps the
        /// survivors in their old relative order and sorts to a fresh
        /// sort's order.
        #[test]
        fn a_rebased_order_sorts_to_a_fresh_sort(
            picks in proptest::collection::vec((0u64..4, 0.0f64..1.0), 1..80),
        ) {
            // Each pick is a node id: 0 serves at both solves, 1 only at
            // the first, 2 only at the second, 3 at neither.
            let at = |keep: fn(u64) -> bool| -> Vec<NodeId> {
                (0..picks.len() as u64)
                    .filter(|&k| keep(picks[k as usize].0))
                    .map(NodeId::from_raw)
                    .collect()
            };
            let (first, second) = (at(|s| s <= 1), at(|s| s == 0 || s == 2));
            let rate = |id: &NodeId| 1.0 + (picks[id.raw() as usize].1 * 4.0).floor();
            let mut kept = KeptOrder::default();
            if !first.is_empty() {
                let cluster = Cluster::new(first.iter().map(rate).collect()).unwrap();
                cluster.sort_by_rate_desc(kept.rebase(&first));
            }
            if second.is_empty() {
                return Ok(());
            }
            let cluster = Cluster::new(second.iter().map(rate).collect()).unwrap();
            let start = kept.rebase(&second).clone();
            let mut seen = start.clone();
            seen.sort_unstable();
            proptest::prop_assert_eq!(seen, (0..second.len()).collect::<Vec<_>>());
            let survivors: Vec<NodeId> = start
                .iter()
                .map(|&k| second[k])
                .filter(|id| first.contains(id))
                .collect();
            let before: Vec<NodeId> =
                cluster_order(&first, rate).into_iter().filter(|id| second.contains(id)).collect();
            proptest::prop_assert_eq!(survivors, before);
            let order = kept.rebase(&second);
            cluster.sort_by_rate_desc(order);
            proptest::prop_assert_eq!(order.clone(), cluster.order_by_rate_desc());
        }
    }

    /// `ids` by decreasing `rate`, ties by id: a fresh sort's order.
    fn cluster_order(ids: &[NodeId], rate: impl Fn(&NodeId) -> f64) -> Vec<NodeId> {
        if ids.is_empty() {
            return Vec::new();
        }
        let cluster = Cluster::new(ids.iter().map(&rate).collect()).unwrap();
        cluster.order_by_rate_desc().into_iter().map(|k| ids[k]).collect()
    }

    #[test]
    fn clamp_phi_caps_estimates() {
        let cl = cluster();
        let cap = cl.total_rate();
        assert_eq!(clamp_phi(0.1, &cl), 0.1);
        assert!(clamp_phi(2.0 * cap, &cl) < cap);
    }
}
