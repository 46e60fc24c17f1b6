//! The re-solver: turns a registry snapshot plus rate estimates into a
//! fresh allocation and routing table.
//!
//! Two paths publish tables:
//!
//! * the **solve path** ([`solve_table`]) runs a full game-theoretic
//!   allocation (COOP / NASH / PROP / OPTIM / WARDROP) over the serving
//!   nodes — periodic, driven by the background loop or called
//!   synchronously;
//! * the **failure path** ([`RoutingTable::without_node`]) renormalizes
//!   the live table immediately when a node goes down, so no job is
//!   routed into the failed node during the (comparatively slow) next
//!   full solve. "Renormalize, then re-solve."

use gtlb_core::allocation::Allocation;
use gtlb_core::error::CoreError;
use gtlb_core::model::Cluster;
use gtlb_core::noncoop::{nash, NashInit, NashOptions, UserSystem};
use gtlb_core::schemes::{Coop, Optim, Prop, SingleClassScheme, Wardrop};

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
    /// Individually-optimal (Wardrop equilibrium) baseline.
    Wardrop,
    /// The Chapter-4 noncooperative scheme: the Nash equilibrium among
    /// `users` equal-demand dispatchers, aggregated into one routing
    /// distribution.
    Nash {
        /// Number of symmetric users sharing the stream (`m ≥ 1`).
        users: usize,
    },
}

impl SchemeKind {
    /// Display name matching the paper's scheme labels.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Coop => "COOP",
            Self::Optim => "OPTIM",
            Self::Prop => "PROP",
            Self::Wardrop => "WARDROP",
            Self::Nash { .. } => "NASH",
        }
    }

    /// Computes the scheme's allocation of total rate `phi` over
    /// `cluster`.
    ///
    /// # Errors
    /// [`CoreError::Overloaded`] when `phi` meets capacity,
    /// [`CoreError::BadInput`] on malformed parameters (including
    /// `Nash { users: 0 }`), [`CoreError::NoConvergence`] from the
    /// iterative solvers.
    pub fn allocate(&self, cluster: &Cluster, phi: f64) -> Result<Allocation, CoreError> {
        match *self {
            Self::Coop => Coop.allocate(cluster, phi),
            Self::Optim => Optim.allocate(cluster, phi),
            Self::Prop => Prop.allocate(cluster, phi),
            Self::Wardrop => Wardrop::default().allocate(cluster, phi),
            Self::Nash { users } => {
                if users == 0 {
                    return Err(CoreError::BadInput("NASH needs at least one user".into()));
                }
                cluster.check_arrival_rate(phi)?;
                if phi == 0.0 {
                    return Ok(Allocation::new(vec![0.0; cluster.n()]));
                }
                let system = UserSystem::new(cluster.clone(), vec![phi / users as f64; users])?;
                let outcome =
                    nash::solve(&system, &NashInit::Proportional, &NashOptions::default())?;
                Ok(outcome.profile.to_allocation(&system))
            }
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
    let allocation = scheme.allocate(cluster, phi)?;
    let table = RoutingTable::from_allocation(epoch, ids.clone(), &allocation, cluster.rates())?;
    let predicted_mean_response = allocation.mean_response_time(cluster);
    let outcome = ResolveOutcome {
        epoch,
        nodes: ids,
        rates: cluster.rates().to_vec(),
        phi,
        allocation,
        predicted_mean_response,
    };
    Ok((table, outcome))
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
        assert_eq!(SchemeKind::Nash { users: 3 }.name(), "NASH");
    }

    #[test]
    fn all_schemes_produce_feasible_allocations() {
        let cl = cluster();
        let phi = cl.arrival_rate_for_utilization(0.6);
        for scheme in [
            SchemeKind::Coop,
            SchemeKind::Optim,
            SchemeKind::Prop,
            SchemeKind::Wardrop,
            SchemeKind::Nash { users: 4 },
        ] {
            let alloc = scheme.allocate(&cl, phi).unwrap();
            alloc.verify(&cl, phi, 1e-6).unwrap_or_else(|e| {
                panic!("{} produced infeasible allocation: {e}", scheme.name())
            });
        }
    }

    #[test]
    fn nash_with_one_user_matches_optim() {
        let cl = cluster();
        let phi = cl.arrival_rate_for_utilization(0.5);
        let nash1 = SchemeKind::Nash { users: 1 }.allocate(&cl, phi).unwrap();
        let optim = SchemeKind::Optim.allocate(&cl, phi).unwrap();
        for (a, b) in nash1.loads().iter().zip(optim.loads()) {
            assert!((a - b).abs() < 1e-6, "single-user NASH should equal OPTIM");
        }
    }

    #[test]
    fn nash_rejects_zero_users() {
        assert!(SchemeKind::Nash { users: 0 }.allocate(&cluster(), 0.1).is_err());
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

    #[test]
    fn clamp_phi_caps_estimates() {
        let cl = cluster();
        let cap = cl.total_rate();
        assert_eq!(clamp_phi(0.1, &cl), 0.1);
        assert!(clamp_phi(2.0 * cap, &cl) < cap);
    }
}
