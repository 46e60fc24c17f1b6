//! OPTIM — the overall-optimal (social optimum) baseline, §3.4.2.
//!
//! Minimizes the system-wide expected delay `Σ λ_i/(μ_i − λ_i)` subject to
//! feasibility — the classical global approach of Tantawi–Towsley \[128\]
//! and Tang–Chanson \[127\]. The KKT conditions give the *square-root rule*
//! on the active set:
//!
//! ```text
//! λ_i = μ_i − c·√μ_i,     c = (Σ_act μ − Φ) / Σ_act √μ
//! ```
//!
//! with the same drop-slowest loop as COOP: a computer stays active iff
//! `√μ_i > c`. OPTIM achieves the lowest overall response time of all the
//! schemes but treats jobs unfairly — jobs on slow computers wait longer
//! (fairness index down to ≈0.88 at high load in Figure 3.1).

use crate::allocation::Allocation;
use crate::error::CoreError;
use crate::model::Cluster;
use crate::schemes::{sorted_waterfill, SingleClassScheme};

/// The OPTIM algorithm: `O(n log n)` exact social optimum.
///
/// ```
/// use gtlb_core::model::Cluster;
/// use gtlb_core::schemes::{Optim, SingleClassScheme};
///
/// // μ = (4, 1), Φ = 2: c = (5-2)/(2+1) = 1 -> λ = (4-2·1, 1-1·1) = (2, 0).
/// let c = Cluster::new(vec![4.0, 1.0]).unwrap();
/// let a = Optim.allocate(&c, 2.0).unwrap();
/// assert!((a.loads()[0] - 2.0).abs() < 1e-12);
/// assert_eq!(a.loads()[1], 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Optim;

impl Optim {
    /// [`allocate`](SingleClassScheme::allocate) after step 1: `order`
    /// lists the computers by decreasing rate, as
    /// [`Cluster::sort_by_rate_desc`] leaves it.
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
            f64::sqrt,                                        // prefix statistic: Σ√μ
            |sum_mu, sum_sqrt, _k| (sum_mu - phi) / sum_sqrt, // c
            |mu_slowest, c| mu_slowest.sqrt() > c,            // keep iff λ = μ − c√μ > 0
            |mu, c| mu - c * mu.sqrt(),
        )
    }
}

impl SingleClassScheme for Optim {
    fn name(&self) -> &'static str {
        "OPTIM"
    }

    fn allocate(&self, cluster: &Cluster, phi: f64) -> Result<Allocation, CoreError> {
        self.allocate_sorted(cluster, phi, &cluster.order_by_rate_desc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtlb_numerics::optimize::{projected_gradient, CappedSimplex, PgOptions};

    #[test]
    fn square_root_rule_interior() {
        // μ = (9, 4), Φ = 8: c = (13-8)/(3+2) = 1 -> λ = (6, 2).
        let c = Cluster::new(vec![9.0, 4.0]).unwrap();
        let a = Optim.allocate(&c, 8.0).unwrap();
        assert!((a.loads()[0] - 6.0).abs() < 1e-12);
        assert!((a.loads()[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn beats_or_ties_every_other_scheme() {
        use crate::schemes::{Coop, Prop};
        let c = Cluster::from_groups(&[(2, 0.13), (3, 0.065), (5, 0.026), (6, 0.013)]).unwrap();
        for rho in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let phi = c.arrival_rate_for_utilization(rho);
            let t_opt = Optim.allocate(&c, phi).unwrap().mean_response_time(&c);
            let t_coop = Coop.allocate(&c, phi).unwrap().mean_response_time(&c);
            let t_prop = Prop.allocate(&c, phi).unwrap().mean_response_time(&c);
            assert!(t_opt <= t_coop + 1e-9, "rho {rho}: OPTIM {t_opt} vs COOP {t_coop}");
            assert!(t_opt <= t_prop + 1e-9, "rho {rho}: OPTIM {t_opt} vs PROP {t_prop}");
        }
    }

    #[test]
    fn kkt_via_projected_gradient_reference() {
        // Cross-check the closed form against the generic convex solver.
        let mu = [3.0, 2.0, 1.0];
        let c = Cluster::new(mu.to_vec()).unwrap();
        let phi = 3.0;
        let closed = Optim.allocate(&c, phi).unwrap();
        let eps = 1e-9;
        let set = CappedSimplex::new(phi, mu.iter().map(|&m| m - eps).collect());
        let f = |x: &[f64]| -> f64 { x.iter().zip(&mu).map(|(&l, &m)| l / (m - l)).sum() };
        let g = |x: &[f64], out: &mut [f64]| {
            for i in 0..3 {
                out[i] = mu[i] / (mu[i] - x[i]).powi(2);
            }
        };
        let reference = projected_gradient(
            f,
            g,
            &set,
            vec![1.0; 3],
            PgOptions { max_iter: 200_000, ..Default::default() },
        );
        for i in 0..3 {
            assert!(
                (closed.loads()[i] - reference[i]).abs() < 1e-4,
                "closed {:?} vs reference {:?}",
                closed.loads(),
                reference
            );
        }
    }

    #[test]
    fn drop_loop_cascades() {
        // μ = (100, 1, 1), Φ = 10: c = (102-10)/(10+1+1) = 7.67 -> drop
        // both slow ones; alone: c = (100-10)/10 = 9 < 10 -> keep.
        let c = Cluster::new(vec![100.0, 1.0, 1.0]).unwrap();
        let a = Optim.allocate(&c, 10.0).unwrap();
        assert!((a.loads()[0] - 10.0).abs() < 1e-9);
        assert_eq!(a.loads()[1], 0.0);
        assert_eq!(a.loads()[2], 0.0);
    }

    #[test]
    fn homogeneous_matches_even_split() {
        let c = Cluster::new(vec![1.5; 4]).unwrap();
        let a = Optim.allocate(&c, 3.0).unwrap();
        for &l in a.loads() {
            assert!((l - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn optim_uses_more_computers_than_coop_at_medium_load() {
        // Figure 3.2: at ρ = 50 % OPTIM spreads load wider than COOP
        // (COOP parks the 6 slowest, OPTIM keeps more of them active).
        let c = Cluster::from_groups(&[(2, 0.13), (3, 0.065), (5, 0.026), (6, 0.013)]).unwrap();
        let phi = c.arrival_rate_for_utilization(0.5);
        let used_optim =
            Optim.allocate(&c, phi).unwrap().loads().iter().filter(|&&l| l > 0.0).count();
        let used_coop = crate::schemes::Coop
            .allocate(&c, phi)
            .unwrap()
            .loads()
            .iter()
            .filter(|&&l| l > 0.0)
            .count();
        assert!(used_optim >= used_coop, "OPTIM {used_optim} vs COOP {used_coop}");
    }
}
