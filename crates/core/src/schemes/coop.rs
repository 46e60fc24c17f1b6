//! COOP — the Nash Bargaining Solution of the cooperative load-balancing
//! game (the paper's primary contribution, §3.3).
//!
//! The cooperative game: each computer `i` is a player with objective
//! `f_i(λ) = −(μ_i − λ_i)` bounded above by the initial (disagreement)
//! performance `u⁰_i = −μ_i` (no cooperation ⇒ worst case). By
//! Theorems 3.4/3.5 the Nash Bargaining Solution is the unique maximizer
//! of `Σ ln(μ_i − λ_i)` over the feasible set, and by Theorem 3.6 the
//! unconstrained interior solution is
//!
//! ```text
//! λ_i = μ_i − (Σ μ − Φ) / n
//! ```
//!
//! — every used computer keeps the same *residual capacity*, hence the
//! same expected response time `1/(μ_i − λ_i)`, hence fairness index 1
//! (Theorem 3.8). Computers too slow for the common level would receive
//! negative loads; Lemma A.1 justifies dropping the slowest and
//! recomputing (Theorem 3.7 proves the resulting algorithm correct).

use crate::allocation::Allocation;
use crate::error::CoreError;
use crate::model::Cluster;
use crate::schemes::{sorted_waterfill, SingleClassScheme};

/// The COOP algorithm: `O(n log n)` exact Nash Bargaining Solution.
///
/// ```
/// use gtlb_core::model::Cluster;
/// use gtlb_core::schemes::{Coop, SingleClassScheme};
///
/// // Fast computer 10 jobs/s, slow computer 1 job/s, Φ = 5 jobs/s:
/// // common residual (11 - 5)/2 = 3 > 1 would overload the slow one,
/// // so COOP drops it and serves everything on the fast computer.
/// let c = Cluster::new(vec![10.0, 1.0]).unwrap();
/// let a = Coop.allocate(&c, 5.0).unwrap();
/// assert_eq!(a.loads(), &[5.0, 0.0]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coop;

impl Coop {
    /// The common residual capacity `α = (Σ_act μ − Φ)/k` achieved on the
    /// active set of the NBS (the reciprocal of every used computer's
    /// response time). Useful for analytic reasoning in tests and
    /// experiments.
    ///
    /// # Errors
    /// Propagates the same conditions as [`Coop::allocate`](SingleClassScheme::allocate).
    pub fn common_residual(cluster: &Cluster, phi: f64) -> Result<f64, CoreError> {
        let alloc = Coop.allocate(cluster, phi)?;
        let (used_mu, used_lambda, k) = alloc
            .loads()
            .iter()
            .zip(cluster.rates())
            .filter(|(&l, _)| l > 0.0)
            .fold((0.0, 0.0, 0usize), |(sm, sl, k), (&l, &mu)| (sm + mu, sl + l, k + 1));
        if k == 0 {
            return Err(CoreError::BadInput("no computer is used (Φ = 0?)".into()));
        }
        Ok((used_mu - used_lambda) / k as f64)
    }

    /// [`allocate`](SingleClassScheme::allocate) after step 1: `order`
    /// lists the computers by decreasing rate, as
    /// [`Cluster::sort_by_rate_desc`] leaves it. A caller that re-solves
    /// a drifting cluster keeps `order` from solve to solve.
    ///
    /// # Errors
    /// As [`allocate`](SingleClassScheme::allocate).
    ///
    /// # Panics
    /// If `order` does not hold one index per computer.
    pub fn allocate_sorted(
        &self,
        cluster: &Cluster,
        phi: f64,
        order: &[usize],
    ) -> Result<Allocation, CoreError> {
        sorted_waterfill(
            cluster,
            phi,
            order,
            |_mu| 1.0, // prefix statistic: count (via sum of 1)
            |sum_mu, _count, k| (sum_mu - phi) / k as f64, // α
            |mu_slowest, alpha| mu_slowest > alpha, // keep iff λ = μ − α > 0
            |mu, alpha| mu - alpha,
        )
    }
}

impl SingleClassScheme for Coop {
    fn name(&self) -> &'static str {
        "COOP"
    }

    fn allocate(&self, cluster: &Cluster, phi: f64) -> Result<Allocation, CoreError> {
        self.allocate_sorted(cluster, phi, &cluster.order_by_rate_desc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equalizes_response_times_exactly() {
        let c = Cluster::new(vec![5.0, 4.0, 3.0]).unwrap();
        let phi = 6.0;
        let a = Coop.allocate(&c, phi).unwrap();
        // α = (12 - 6)/3 = 2 -> loads (3, 2, 1).
        assert!((a.loads()[0] - 3.0).abs() < 1e-12);
        assert!((a.loads()[1] - 2.0).abs() < 1e-12);
        assert!((a.loads()[2] - 1.0).abs() < 1e-12);
        assert!((a.fairness_index(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drops_slow_computers_in_cascade() {
        // μ = (10, 1, 0.5), Φ = 2: with all three, α = (11.5-2)/3 ≈ 3.17
        // kills both slow ones; with two, α = (11-2)/2 = 4.5 kills μ=1;
        // final: only the fast computer, λ = (2, 0, 0).
        let c = Cluster::new(vec![10.0, 1.0, 0.5]).unwrap();
        let a = Coop.allocate(&c, 2.0).unwrap();
        assert!((a.loads()[0] - 2.0).abs() < 1e-12);
        assert_eq!(a.loads()[1], 0.0);
        assert_eq!(a.loads()[2], 0.0);
    }

    #[test]
    fn high_load_uses_everyone() {
        let c = Cluster::new(vec![10.0, 1.0, 0.5]).unwrap();
        let phi = 11.0; // 95.6% utilization
        let a = Coop.allocate(&c, phi).unwrap();
        assert!(a.loads().iter().all(|&l| l > 0.0), "{:?}", a.loads());
        a.verify(&c, phi, 1e-9).unwrap();
    }

    #[test]
    fn paper_medium_load_response_time() {
        // §3.4.2: on Table 3.1's cluster at ρ = 50 %, COOP uses the 10
        // fastest computers and every job sees 39.4 s.
        let c = Cluster::from_groups(&[(2, 0.13), (3, 0.065), (5, 0.026), (6, 0.013)]).unwrap();
        let phi = c.arrival_rate_for_utilization(0.5);
        let a = Coop.allocate(&c, phi).unwrap();
        let used = a.loads().iter().filter(|&&l| l > 0.0).count();
        assert_eq!(used, 10, "loads {:?}", a.loads());
        let t = a.mean_response_time(&c);
        assert!((t - 39.447).abs() < 0.05, "T = {t}");
        // Paper reports 39.44 s for the common per-computer time.
        let alpha = Coop::common_residual(&c, phi).unwrap();
        assert!((1.0 / alpha - t).abs() < 1e-9);
    }

    #[test]
    fn homogeneous_cluster_splits_evenly() {
        let c = Cluster::new(vec![2.0; 8]).unwrap();
        let a = Coop.allocate(&c, 8.0).unwrap();
        for &l in a.loads() {
            assert!((l - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_computer() {
        let c = Cluster::new(vec![3.0]).unwrap();
        let a = Coop.allocate(&c, 2.0).unwrap();
        assert_eq!(a.loads(), &[2.0]);
    }

    #[test]
    fn preserves_original_computer_order() {
        // Unsorted input: the slow computer is listed first.
        let c = Cluster::new(vec![1.0, 10.0]).unwrap();
        let a = Coop.allocate(&c, 5.0).unwrap();
        assert_eq!(a.loads()[0], 0.0);
        assert!((a.loads()[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dissertation_example_3_2_structure() {
        // Example 3.2 uses three computers sorted fastest-first with the
        // slowest dropped; we encode a fully-solved instance:
        // μ = (6, 4, 1), Φ = 6. All three: α = (11-6)/3 = 5/3 > 1? μ3=1 <
        // 5/3 -> drop. Two: α = (10-6)/2 = 2 -> λ = (4, 2, 0).
        let c = Cluster::new(vec![6.0, 4.0, 1.0]).unwrap();
        let a = Coop.allocate(&c, 6.0).unwrap();
        assert!((a.loads()[0] - 4.0).abs() < 1e-12);
        assert!((a.loads()[1] - 2.0).abs() < 1e-12);
        assert_eq!(a.loads()[2], 0.0);
    }
}
