//! The distributed-system model: a cluster of heterogeneous M/M/1
//! computers.

use gtlb_numerics::sum::neumaier_sum;

use crate::error::CoreError;

/// A cluster of `n` heterogeneous computers, each modeled as an M/M/1
/// queue with average processing rate `μ_i` (jobs per second).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    rates: Vec<f64>,
    /// `Σ μ_i`, summed once by [`Cluster::new`].
    total: f64,
}

impl Cluster {
    /// Builds a cluster from per-computer processing rates.
    ///
    /// # Errors
    /// [`CoreError::BadInput`] when the list is empty, any rate is
    /// nonpositive or non-finite, or the rates sum to more than the
    /// largest finite `f64`.
    pub fn new(rates: Vec<f64>) -> Result<Self, CoreError> {
        if rates.is_empty() {
            return Err(CoreError::BadInput("cluster must contain at least one computer".into()));
        }
        if let Some((i, &r)) = rates.iter().enumerate().find(|&(_, &r)| !(r.is_finite() && r > 0.0))
        {
            return Err(CoreError::BadInput(format!(
                "processing rate of computer {i} must be positive and finite, got {r}"
            )));
        }
        // Every scheme works on Σμ; an overflowed total would turn the
        // solvers' levels into ∞ and their loads into −∞ or NaN.
        let total = neumaier_sum(rates.iter().copied());
        if !total.is_finite() {
            return Err(CoreError::BadInput(format!(
                "total processing rate of {} computers must be finite, got {total}",
                rates.len()
            )));
        }
        Ok(Self { rates, total })
    }

    /// Builds the paper's "groups of identical computers" configuration:
    /// `groups` is a list of `(count, rate)` pairs laid out fastest-first
    /// (the convention of Tables 3.1 / 4.1 / 5.1).
    ///
    /// # Errors
    /// As [`Cluster::new`]; also rejects zero counts.
    pub fn from_groups(groups: &[(usize, f64)]) -> Result<Self, CoreError> {
        let mut rates = Vec::new();
        for &(count, rate) in groups {
            if count == 0 {
                return Err(CoreError::BadInput("group count must be positive".into()));
            }
            rates.extend(std::iter::repeat_n(rate, count));
        }
        Self::new(rates)
    }

    /// Number of computers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.rates.len()
    }

    /// Processing rates `μ_i` in computer order.
    #[must_use]
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Aggregate processing rate `Σ μ_i`: the compensated sum of the
    /// rates in computer order, computed once at construction.
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.total
    }

    /// The arrival rate `Φ` that loads the system to utilization
    /// `ρ = Φ / Σμ` — the x-axis of Figures 3.1, 3.6, 4.4, 4.8, 5.2.
    ///
    /// # Panics
    /// If `rho ∉ [0, 1)`.
    #[must_use]
    pub fn arrival_rate_for_utilization(&self, rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "utilization must lie in [0,1)");
        rho * self.total_rate()
    }

    /// System utilization produced by total arrival rate `phi`.
    #[must_use]
    pub fn utilization(&self, phi: f64) -> f64 {
        phi / self.total_rate()
    }

    /// Speed skewness: max rate over min rate (the paper's heterogeneity
    /// measure, Figures 3.4 / 4.6).
    #[must_use]
    pub fn speed_skewness(&self) -> f64 {
        let max = self.rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = self.rates.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    }

    /// Checks that arrival rate `phi` admits a stable allocation
    /// (`0 ≤ Φ < Σμ`).
    ///
    /// # Errors
    /// [`CoreError::BadInput`] for negative/non-finite `phi`,
    /// [`CoreError::Overloaded`] when `Φ ≥ Σμ`.
    pub fn check_arrival_rate(&self, phi: f64) -> Result<(), CoreError> {
        if !phi.is_finite() || phi < 0.0 {
            return Err(CoreError::BadInput(format!(
                "total arrival rate must be nonnegative and finite, got {phi}"
            )));
        }
        let cap = self.total_rate();
        if phi >= cap {
            return Err(CoreError::Overloaded { arrival_rate: phi, capacity: cap });
        }
        Ok(())
    }

    /// Indices of the computers sorted by **decreasing** processing rate
    /// (ties keep original order). Both COOP and OPTIM start here
    /// ("Sort the computers in decreasing order of their average
    /// processing rate", step 1 of both algorithms).
    #[must_use]
    pub fn order_by_rate_desc(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.rates.len());
        self.sort_by_rate_desc(&mut order);
        order
    }

    /// Re-sorts `order`, a permutation of `0..n` such as the order of an
    /// earlier solve, into [`Cluster::order_by_rate_desc`]'s order; an
    /// `order` of any other length is reset to the identity first. A
    /// caller that re-solves a cluster whose rates drift keeps `order`
    /// between calls, so the sort starts from a near-sorted order.
    ///
    /// The key `(!μ_i.to_bits(), i)` is total: positive finite rates
    /// order as their bit patterns do, so the complement puts the fastest
    /// first, and the index breaks ties in original order whatever the
    /// starting permutation. So the result is the same however it is
    /// sorted: an insertion pass repairs a near-sorted order in one step
    /// per entry plus one move per entry it passes, and once the moves
    /// exceed two per entry the stable sort finishes instead.
    pub fn sort_by_rate_desc(&self, order: &mut Vec<usize>) {
        let rates = &self.rates;
        let key = |i: usize| (!rates[i].to_bits(), i);
        if order.len() != rates.len() {
            order.clear();
            order.extend(0..rates.len());
        }
        let mut budget = 2 * order.len();
        for k in 1..order.len() {
            let x = order[k];
            let x_key = key(x);
            let mut j = k;
            while j > 0 && x_key < key(order[j - 1]) {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = x;
            let Some(left) = budget.checked_sub(k - j) else {
                order.sort_by_key(|&i| key(i));
                return;
            };
            budget = left;
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The paper's Table 3.1 configuration.
    fn table31() -> Cluster {
        Cluster::from_groups(&[(2, 0.13), (3, 0.065), (5, 0.026), (6, 0.013)]).unwrap()
    }

    #[test]
    fn construction_guards() {
        assert!(Cluster::new(vec![]).is_err());
        assert!(Cluster::new(vec![1.0, 0.0]).is_err());
        assert!(Cluster::new(vec![1.0, -2.0]).is_err());
        assert!(Cluster::new(vec![f64::NAN]).is_err());
        assert!(Cluster::new(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn rejects_a_non_finite_total_rate() {
        // Each rate is finite; their sum is not.
        assert!(matches!(Cluster::new(vec![1e308, 1e308]), Err(CoreError::BadInput(_))));
        assert!(matches!(Cluster::new(vec![f64::MAX, 1e300]), Err(CoreError::BadInput(_))));
        assert_eq!(Cluster::new(vec![1e307, 1e307]).unwrap().total_rate(), 2e307);
    }

    #[test]
    fn table31_totals() {
        let c = table31();
        assert_eq!(c.n(), 16);
        // 2*0.13 + 3*0.065 + 5*0.026 + 6*0.013 = 0.663
        assert!((c.total_rate() - 0.663).abs() < 1e-12);
        assert!((c.speed_skewness() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_round_trip() {
        let c = table31();
        let phi = c.arrival_rate_for_utilization(0.5);
        assert!((c.utilization(phi) - 0.5).abs() < 1e-12);
        assert!((phi - 0.3315).abs() < 1e-12);
    }

    #[test]
    fn arrival_rate_checks() {
        let c = Cluster::new(vec![1.0, 1.0]).unwrap();
        assert!(c.check_arrival_rate(1.9).is_ok());
        assert!(matches!(c.check_arrival_rate(2.0), Err(CoreError::Overloaded { .. })));
        assert!(matches!(c.check_arrival_rate(-0.1), Err(CoreError::BadInput(_))));
        assert!(c.check_arrival_rate(0.0).is_ok());
    }

    #[test]
    fn ordering_is_stable_descending() {
        let c = Cluster::new(vec![1.0, 3.0, 2.0, 3.0]).unwrap();
        assert_eq!(c.order_by_rate_desc(), vec![1, 3, 2, 0]);
    }

    /// The comparison sort `order_by_rate_desc` used before it sorted by
    /// bit-pattern keys.
    fn reference(rates: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..rates.len()).collect();
        idx.sort_by(|&a, &b| rates[b].partial_cmp(&rates[a]).expect("rates are finite"));
        idx
    }

    /// A Fisher–Yates shuffle of `0..n` driven by xorshift64 from `seed`.
    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut state = seed | 1;
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On random clusters with many ties, subnormal rates and rates
        /// near `f64::MAX / n`, the key sort orders as the comparison
        /// sort does, and `sort_by_rate_desc` reaches the same order from
        /// the identity, reversed and shuffled permutations, a previous
        /// order over one more computer after that computer's removal,
        /// and vectors of the wrong length.
        #[test]
        fn key_ordering_matches_the_comparison_sort(
            picks in prop::collection::vec((0u64..5, 0.0f64..1.0), 1..64),
        ) {
            let n = picks.len() as f64;
            let rates: Vec<f64> = picks
                .iter()
                .map(|&(family, x)| {
                    // Four values per family, so ties are common.
                    let q = (x * 4.0).floor();
                    match family {
                        0 => f64::from_bits(1 + q as u64),
                        1 => f64::MIN_POSITIVE * (1.0 + q),
                        2 => f64::MAX / n * (1.0 - 1e-3 * q),
                        3 => [0.13, 0.065, 0.026, 0.013][q as usize],
                        _ => 1.0 + q,
                    }
                })
                .collect();
            if let Ok(c) = Cluster::new(rates) {
                let want = reference(c.rates());
                prop_assert_eq!(c.order_by_rate_desc(), want.clone(), "rates {:?}", c.rates());
                let n = c.n();
                let seed = picks.iter().fold(0u64, |h, &(f, x)| h.rotate_left(7) ^ f ^ x.to_bits());
                // The computer at `gone` (a copy of another one's rate, so
                // it ties) left after the previous sort: indices above it
                // shift down by one.
                let gone = (seed % (n as u64 + 1)) as usize;
                let mut wider = c.rates().to_vec();
                wider.insert(gone, c.rates()[(seed >> 8) as usize % n]);
                let after_removal: Vec<usize> = reference(&wider)
                    .into_iter()
                    .filter(|&i| i != gone)
                    .map(|i| if i > gone { i - 1 } else { i })
                    .collect();
                let starts = [
                    (0..n).collect(),
                    (0..n).rev().collect(),
                    shuffled(n, seed),
                    after_removal,
                    Vec::new(),
                    vec![0; n + 3],
                ];
                for start in starts {
                    let mut order = start.clone();
                    c.sort_by_rate_desc(&mut order);
                    prop_assert_eq!(&order, &want, "from {:?}, rates {:?}", start, c.rates());
                }
            }
        }
    }

    #[test]
    fn from_groups_rejects_zero_count() {
        assert!(Cluster::from_groups(&[(0, 1.0)]).is_err());
    }
}
