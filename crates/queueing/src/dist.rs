//! Renewal-process distributions.
//!
//! All sampling is done by inverse transform (or mixture-of-inverses for
//! the hyper-exponential) from an abstract [`UniformSource`], which keeps
//! this crate PRNG-agnostic: the simulation engine plugs in its own
//! deterministic, stream-split generator.

/// Source of i.i.d. uniforms on the open interval `(0, 1)`.
///
/// Implementations must never return exactly `0.0` or `1.0` — the
/// exponential quantile `−ln(1−u)/λ` would produce `0` or `∞`.
pub trait UniformSource {
    /// Next uniform variate in `(0, 1)`.
    fn next_f64(&mut self) -> f64;
}

impl<T: UniformSource + ?Sized> UniformSource for &mut T {
    fn next_f64(&mut self) -> f64 {
        (**self).next_f64()
    }
}

/// A nonnegative continuous distribution usable as an interarrival- or
/// service-time law in a renewal process.
pub trait Draw {
    /// Draws one variate.
    fn sample<U: UniformSource + ?Sized>(&self, u: &mut U) -> f64;
    /// First moment.
    fn mean(&self) -> f64;
    /// Central second moment.
    fn variance(&self) -> f64;
    /// Coefficient of variation `σ/μ` (0 for deterministic, 1 for
    /// exponential, >1 for hyper-exponential).
    fn cv(&self) -> f64 {
        self.variance().sqrt() / self.mean()
    }
    /// Raw second moment `E[X²] = Var + mean²`, needed by the
    /// Pollaczek–Khinchine formula.
    fn second_moment(&self) -> f64 {
        self.variance() + self.mean() * self.mean()
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential law with the given rate (events per unit
    /// time).
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "Exponential: rate must be positive");
        Self { rate }
    }

    /// The rate parameter.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Inverse CDF: `F⁻¹(u) = −ln(1−u)/λ`.
    #[must_use]
    pub fn quantile(&self, u: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&u));
        -(-u).ln_1p() / self.rate
    }
}

impl Draw for Exponential {
    fn sample<U: UniformSource + ?Sized>(&self, u: &mut U) -> f64 {
        self.quantile(u.next_f64())
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

/// Two-stage hyper-exponential distribution `H₂`: with probability `p`
/// draw `Exp(r1)`, otherwise `Exp(r2)`. Coefficient of variation ≥ 1.
///
/// This is the arrival law of the paper's Figure 3.6 / 4.8 experiments
/// ("two-stage hyper-exponential distribution … coefficient of variation
/// 1.6").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperExp2 {
    p: f64,
    r1: f64,
    r2: f64,
}

impl HyperExp2 {
    /// Creates an `H₂` law from raw parameters.
    ///
    /// # Panics
    /// If `p ∉ [0, 1]` or either rate is nonpositive.
    #[must_use]
    pub fn new(p: f64, r1: f64, r2: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "HyperExp2: p must lie in [0,1]");
        assert!(r1 > 0.0 && r2 > 0.0, "HyperExp2: rates must be positive");
        Self { p, r1, r2 }
    }

    /// Fits an `H₂` law with the given `mean` and coefficient of variation
    /// `cv ≥ 1` using the standard *balanced means* convention
    /// (`p/r1 = (1−p)/r2`, i.e. both branches contribute equally to the
    /// mean).
    ///
    /// For `cv = 1` this degenerates to the exponential (`p = 1/2`,
    /// `r1 = r2 = 1/mean`).
    ///
    /// # Panics
    /// If `mean ≤ 0`, if `cv < 1` or `cv` is NaN, or if `cv` is so large
    /// that `p` rounds to 1 and the second rate to 0: some values from
    /// about 8.5e7 and every value from about 1.01e8 (at `cv = ∞`, `p`
    /// is NaN).
    #[must_use]
    pub fn fit_balanced(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0, "HyperExp2::fit_balanced: mean must be positive");
        assert!(cv >= 1.0, "HyperExp2::fit_balanced: H2 requires cv >= 1");
        let c2 = cv * cv;
        let p = 0.5 * (1.0 + ((c2 - 1.0) / (c2 + 1.0)).sqrt());
        let r1 = 2.0 * p / mean;
        let r2 = 2.0 * (1.0 - p) / mean;
        Self::new(p, r1, r2)
    }

    /// Branch-selection probability `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }
    /// Rate of the first branch.
    #[must_use]
    pub fn rate1(&self) -> f64 {
        self.r1
    }
    /// Rate of the second branch.
    #[must_use]
    pub fn rate2(&self) -> f64 {
        self.r2
    }
}

impl Draw for HyperExp2 {
    fn sample<U: UniformSource + ?Sized>(&self, u: &mut U) -> f64 {
        let branch = u.next_f64();
        let rate = if branch < self.p { self.r1 } else { self.r2 };
        let v = u.next_f64();
        -(-v).ln_1p() / rate
    }
    fn mean(&self) -> f64 {
        self.p / self.r1 + (1.0 - self.p) / self.r2
    }
    fn variance(&self) -> f64 {
        let e2 = 2.0 * self.p / (self.r1 * self.r1) + 2.0 * (1.0 - self.p) / (self.r2 * self.r2);
        let m = self.mean();
        e2 - m * m
    }
}

/// Erlang-`k` distribution (sum of `k` i.i.d. exponentials), CV `1/√k < 1`.
/// Used in tests to exercise the simulator below the exponential's
/// variability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    k: u32,
    rate: f64,
}

impl Erlang {
    /// Erlang law with shape `k ≥ 1` and per-stage rate `rate`
    /// (mean `k/rate`).
    ///
    /// # Panics
    /// If `k == 0` or `rate ≤ 0`.
    #[must_use]
    pub fn new(k: u32, rate: f64) -> Self {
        assert!(k >= 1, "Erlang: shape must be at least 1");
        assert!(rate > 0.0, "Erlang: rate must be positive");
        Self { k, rate }
    }

    /// Fits an Erlang with the given mean and shape.
    #[must_use]
    pub fn with_mean(k: u32, mean: f64) -> Self {
        assert!(mean > 0.0, "Erlang: mean must be positive");
        Self::new(k, f64::from(k) / mean)
    }
}

impl Draw for Erlang {
    fn sample<U: UniformSource + ?Sized>(&self, u: &mut U) -> f64 {
        // Product-of-uniforms form: −ln(Πuᵢ)/rate, numerically as a sum of
        // logs to avoid underflow for large k.
        let mut acc = 0.0;
        for _ in 0..self.k {
            acc += -(-u.next_f64()).ln_1p();
        }
        acc / self.rate
    }
    fn mean(&self) -> f64 {
        f64::from(self.k) / self.rate
    }
    fn variance(&self) -> f64 {
        f64::from(self.k) / (self.rate * self.rate)
    }
}

/// Point mass at `value` (CV = 0). Handy for D/M/1-style stress tests of
/// the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Point mass at `value ≥ 0`.
    ///
    /// # Panics
    /// If `value` is negative.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(value >= 0.0, "Deterministic: value must be nonnegative");
        Self { value }
    }
}

impl Draw for Deterministic {
    fn sample<U: UniformSource + ?Sized>(&self, _u: &mut U) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
    fn variance(&self) -> f64 {
        0.0
    }
}

/// Uniform distribution on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform law on `[lo, hi]`, `0 ≤ lo < hi`.
    ///
    /// # Panics
    /// If the interval is empty or extends below zero.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo >= 0.0 && hi > lo, "Uniform: need 0 <= lo < hi");
        Self { lo, hi }
    }
}

impl Draw for Uniform {
    fn sample<U: UniformSource + ?Sized>(&self, u: &mut U) -> f64 {
        self.lo + (self.hi - self.lo) * u.next_f64()
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
}

/// Type-erased distribution enum so simulation configs can be stored,
/// serialized, and switched at run time without generics at the
/// component boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Law {
    /// Exponential (Poisson process interarrivals).
    Exp(Exponential),
    /// Two-stage hyper-exponential.
    Hyper(HyperExp2),
    /// Erlang-k.
    Erlang(Erlang),
    /// Deterministic.
    Det(Deterministic),
    /// Uniform.
    Uniform(Uniform),
    /// Lognormal (heavy-ish tail).
    Lognormal(crate::heavy::Lognormal),
    /// Bounded Pareto (heavy tail, finite moments).
    Pareto(crate::heavy::BoundedPareto),
}

impl Law {
    /// Exponential law with the given rate.
    #[must_use]
    pub fn exponential(rate: f64) -> Self {
        Law::Exp(Exponential::new(rate))
    }

    /// Balanced-means `H₂` law with the given mean and CV.
    #[must_use]
    pub fn hyperexp(mean: f64, cv: f64) -> Self {
        Law::Hyper(HyperExp2::fit_balanced(mean, cv))
    }
}

impl Draw for Law {
    fn sample<U: UniformSource + ?Sized>(&self, u: &mut U) -> f64 {
        match self {
            Law::Exp(d) => d.sample(u),
            Law::Hyper(d) => d.sample(u),
            Law::Erlang(d) => d.sample(u),
            Law::Det(d) => d.sample(u),
            Law::Uniform(d) => d.sample(u),
            Law::Lognormal(d) => d.sample(u),
            Law::Pareto(d) => d.sample(u),
        }
    }
    fn mean(&self) -> f64 {
        match self {
            Law::Exp(d) => d.mean(),
            Law::Hyper(d) => d.mean(),
            Law::Erlang(d) => d.mean(),
            Law::Det(d) => d.mean(),
            Law::Uniform(d) => d.mean(),
            Law::Lognormal(d) => d.mean(),
            Law::Pareto(d) => d.mean(),
        }
    }
    fn variance(&self) -> f64 {
        match self {
            Law::Exp(d) => d.variance(),
            Law::Hyper(d) => d.variance(),
            Law::Erlang(d) => d.variance(),
            Law::Det(d) => d.variance(),
            Law::Uniform(d) => d.variance(),
            Law::Lognormal(d) => d.variance(),
            Law::Pareto(d) => d.variance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic uniform source for tests: cycles through a fixed
    /// sequence.
    struct Seq {
        vals: Vec<f64>,
        i: usize,
    }
    impl Seq {
        fn new(vals: Vec<f64>) -> Self {
            Self { vals, i: 0 }
        }
    }
    impl UniformSource for Seq {
        fn next_f64(&mut self) -> f64 {
            let v = self.vals[self.i % self.vals.len()];
            self.i += 1;
            v
        }
    }

    /// A tiny splitmix64 stream for moment tests (not the engine's RNG —
    /// just enough to drive statistical checks here without a dependency
    /// cycle).
    struct Mix(u64);
    impl UniformSource for Mix {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // 53-bit mantissa, then nudge away from 0.
            let u = (z >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
            u.max(1e-16)
        }
    }

    fn empirical_moments<D: Draw>(d: &D, n: usize) -> (f64, f64) {
        let mut rng = Mix(0xDEAD_BEEF);
        let mut m = 0.0;
        let mut m2 = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            m += x;
            m2 += x * x;
        }
        let mean = m / n as f64;
        (mean, m2 / n as f64 - mean * mean)
    }

    #[test]
    fn exponential_quantile_median() {
        let e = Exponential::new(2.0);
        assert!((e.quantile(0.5) - (2.0f64.ln() / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn exponential_moments() {
        let e = Exponential::new(0.5);
        assert_eq!(e.mean(), 2.0);
        assert_eq!(e.variance(), 4.0);
        assert!((e.cv() - 1.0).abs() < 1e-12);
        let (m, v) = empirical_moments(&e, 200_000);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.3, "var {v}");
    }

    #[test]
    fn hyperexp_fit_hits_mean_and_cv() {
        // The paper's arrival CV.
        let h = HyperExp2::fit_balanced(3.0, 1.6);
        assert!((h.mean() - 3.0).abs() < 1e-12, "mean {}", h.mean());
        assert!((h.cv() - 1.6).abs() < 1e-12, "cv {}", h.cv());
        // Balanced means: p/r1 == (1-p)/r2.
        assert!((h.p() / h.rate1() - (1.0 - h.p()) / h.rate2()).abs() < 1e-12);
    }

    #[test]
    fn hyperexp_cv_one_is_exponential() {
        let h = HyperExp2::fit_balanced(2.0, 1.0);
        assert!((h.rate1() - h.rate2()).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hyperexp_empirical_moments() {
        let h = HyperExp2::fit_balanced(1.0, 1.6);
        let (m, v) = empirical_moments(&h, 400_000);
        assert!((m - 1.0).abs() < 0.02, "mean {m}");
        assert!((v.sqrt() / m - 1.6).abs() < 0.1, "cv {}", v.sqrt() / m);
    }

    #[test]
    #[should_panic(expected = "cv >= 1")]
    fn hyperexp_rejects_small_cv() {
        let _ = HyperExp2::fit_balanced(1.0, 0.5);
    }

    #[test]
    fn erlang_moments() {
        let e = Erlang::with_mean(4, 2.0);
        assert!((e.mean() - 2.0).abs() < 1e-12);
        assert!((e.cv() - 0.5).abs() < 1e-12);
        let (m, v) = empirical_moments(&e, 200_000);
        assert!((m - 2.0).abs() < 0.02);
        assert!((v - 1.0).abs() < 0.05);
    }

    #[test]
    fn deterministic_and_uniform() {
        let d = Deterministic::new(1.5);
        let mut s = Seq::new(vec![0.3]);
        assert_eq!(d.sample(&mut s), 1.5);
        assert_eq!(d.cv(), 0.0);
        let u = Uniform::new(1.0, 3.0);
        assert_eq!(u.mean(), 2.0);
        assert!((u.variance() - 4.0 / 12.0).abs() < 1e-12);
        let mut s = Seq::new(vec![0.5]);
        assert_eq!(u.sample(&mut s), 2.0);
    }

    #[test]
    fn law_enum_dispatch_matches_inner() {
        let inner = Exponential::new(3.0);
        let law = Law::Exp(inner);
        assert_eq!(law.mean(), inner.mean());
        assert_eq!(law.variance(), inner.variance());
        let h = Law::hyperexp(2.0, 1.6);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn second_moment_identity() {
        let e = Exponential::new(1.0);
        assert!((e.second_moment() - 2.0).abs() < 1e-12); // E[X^2] = 2/λ²
    }
}
