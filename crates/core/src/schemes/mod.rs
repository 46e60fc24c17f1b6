//! The four static single-class allocation schemes of Chapter 3.
//!
//! * [`Coop`] — the paper's contribution: the Nash Bargaining Solution of
//!   the cooperative game among computers (the COOP algorithm);
//! * [`Optim`] — the overall-optimal (social-optimum) baseline of
//!   Tantawi–Towsley / Tang–Chanson;
//! * [`Prop`] — the rate-proportional baseline of Chow–Kohler;
//! * [`Wardrop`] — the individual-optimum baseline of Kameda et al.,
//!   computed by an iterative level solver.
//!
//! All schemes implement [`SingleClassScheme`] and return loads in the
//! cluster's original computer order regardless of internal sorting.

mod coop;
mod optim;
mod prop;
mod wardrop;

pub use coop::Coop;
pub use optim::Optim;
pub use prop::Prop;
pub use wardrop::{verify_wardrop_equilibrium, Wardrop, WardropReport};

use crate::allocation::Allocation;
use crate::error::CoreError;
use crate::model::Cluster;

/// A static load-balancing scheme for single-class job systems: given the
/// computers' processing rates and the total arrival rate `Φ`, produce a
/// feasible load vector.
pub trait SingleClassScheme {
    /// Short display name used in experiment tables ("COOP", "OPTIM", …).
    fn name(&self) -> &'static str;

    /// Computes the allocation.
    ///
    /// # Errors
    /// [`CoreError::Overloaded`] when `Φ ≥ Σμ`; [`CoreError::BadInput`]
    /// on malformed parameters; [`CoreError::NoConvergence`] from
    /// iterative schemes.
    fn allocate(&self, cluster: &Cluster, phi: f64) -> Result<Allocation, CoreError>;
}

/// Shared skeleton of the COOP and OPTIM algorithms.
///
/// Both algorithms (i) sort computers by decreasing rate, (ii) repeatedly
/// shrink the active prefix while the slowest active computer would
/// receive a negative load under the interior formula, then (iii) apply
/// the interior formula to the surviving prefix. They differ only in the
/// two closures:
///
/// * `level(sum_stat, k)` — the multiplier computed from the prefix
///   statistic and the active count;
/// * the prefix statistic itself and the per-computer load formula,
///   supplied by the caller via `stat` and `load`.
///
/// `order` is step (i)'s result, as [`Cluster::sort_by_rate_desc`]
/// leaves it. `stat(μ)` is accumulated over the active prefix;
/// `keep(μ_slowest, level)` decides whether the slowest active computer
/// stays; `load(μ, level)` produces the final loads.
///
/// # Panics
/// If `order` does not hold one index per computer.
pub(crate) fn sorted_waterfill(
    cluster: &Cluster,
    phi: f64,
    order: &[usize],
    stat: impl Fn(f64) -> f64,
    level: impl Fn(f64, f64, usize) -> f64,
    keep: impl Fn(f64, f64) -> bool,
    load: impl Fn(f64, f64) -> f64,
) -> Result<Allocation, CoreError> {
    let rates = cluster.rates();
    assert_eq!(order.len(), rates.len(), "waterfill: the order must cover every computer");
    debug_assert!(
        order.windows(2).all(|w| rates[w[0]] >= rates[w[1]]),
        "waterfill: the order must be by decreasing rate"
    );
    cluster.check_arrival_rate(phi)?;
    let mut loads = vec![0.0; cluster.n()];
    if phi == 0.0 {
        return Ok(Allocation::new(loads));
    }

    // Prefix sums over the sorted order so each shrink step is O(1).
    let mut sum_mu: f64 = order.iter().map(|&i| rates[i]).sum();
    let mut sum_stat: f64 = order.iter().map(|&i| stat(rates[i])).sum();
    let mut k = order.len();
    let mut lvl = level(sum_mu, sum_stat, k);
    while k > 1 && !keep(rates[order[k - 1]], lvl) {
        k -= 1;
        sum_mu -= rates[order[k]];
        sum_stat -= stat(rates[order[k]]);
        lvl = level(sum_mu, sum_stat, k);
    }
    debug_assert!(
        keep(rates[order[k - 1]], lvl),
        "waterfill: interior formula still infeasible with one computer"
    );
    for &i in order.iter().take(k) {
        loads[i] = gtlb_numerics::snap_nonnegative(load(rates[i], lvl), 1e-12);
    }
    Ok(Allocation::new(loads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_report_names() {
        assert_eq!(Coop.name(), "COOP");
        assert_eq!(Optim.name(), "OPTIM");
        assert_eq!(Prop.name(), "PROP");
        assert_eq!(Wardrop::default().name(), "WARDROP");
    }

    #[test]
    fn all_schemes_reject_overload() {
        let c = Cluster::new(vec![1.0, 1.0]).unwrap();
        let schemes: Vec<Box<dyn SingleClassScheme>> =
            vec![Box::new(Coop), Box::new(Optim), Box::new(Prop), Box::new(Wardrop::default())];
        for s in &schemes {
            assert!(
                matches!(s.allocate(&c, 2.5), Err(CoreError::Overloaded { .. })),
                "{} accepted an overloaded system",
                s.name()
            );
        }
    }

    #[test]
    fn all_schemes_feasible_on_table31_grid() {
        let c = Cluster::from_groups(&[(2, 0.13), (3, 0.065), (5, 0.026), (6, 0.013)]).unwrap();
        let schemes: Vec<Box<dyn SingleClassScheme>> =
            vec![Box::new(Coop), Box::new(Optim), Box::new(Prop), Box::new(Wardrop::default())];
        for rho10 in 1..=9 {
            let phi = c.arrival_rate_for_utilization(f64::from(rho10) / 10.0);
            for s in &schemes {
                let a = s.allocate(&c, phi).unwrap();
                a.verify(&c, phi, 1e-7)
                    .unwrap_or_else(|e| panic!("{} infeasible at rho={}: {e}", s.name(), rho10));
            }
        }
    }

    #[test]
    fn zero_arrival_rate_gives_zero_loads() {
        let c = Cluster::new(vec![2.0, 1.0]).unwrap();
        for s in [&Coop as &dyn SingleClassScheme, &Optim, &Prop] {
            let a = s.allocate(&c, 0.0).unwrap();
            assert!(a.loads().iter().all(|&l| l == 0.0), "{}", s.name());
        }
    }
}
