//! Admission control: shed load *before* it reaches the dispatcher.
//!
//! The allocators clamp an estimated `Φ̂` just below capacity so a solve
//! never wedges, but clamping only fixes the *table* — the queues behind
//! it still grow without bound once offered load exceeds what the
//! cluster can drain. Admission control closes that gap: a policy
//! compares the offered utilization `ρ = Φ̂ / Σμ̂ᵢ` against a target and
//! sheds the excess at the front door, so the load that *is* admitted
//! stays near the design point.
//!
//! ## Policy
//!
//! For target utilization `ρ*` and offered utilization `ρ`:
//!
//! * `ρ ≤ ρ*` — every job is accepted;
//! * `ρ > ρ*` — each job is **shed** with probability `1 − ρ*/ρ`
//!   (thinning a Poisson stream of rate `ρ·Σμ` by `ρ*/ρ` leaves an
//!   admitted stream of rate `ρ*·Σμ`: exactly the target);
//! * a shed job is **deferred** (retry-later backpressure) while `ρ`
//!   sits inside the defer band `(ρ*, ρ* + band]`, and **rejected**
//!   beyond it.
//!
//! Both the shed probability and the rejection probability are monotone
//! nondecreasing in `ρ`, and the rejection probability is exactly zero
//! at or below `ρ* + band` — the properties the admission property
//! tests pin.
//!
//! The verdict function is pure (`(ρ, u) → verdict`); the caller
//! supplies the uniform draw from the dispatcher's deterministic
//! admission stream
//! ([`DispatchGuard::next_admission_draw`](crate::DispatchGuard::next_admission_draw)),
//! so submission stays reproducible. [`AdmissionControl`] wraps the
//! policy with the shared atomics: the latest `ρ` (refreshed by the
//! re-solver) and the accepted/rejected/deferred counters surfaced in
//! `TraceStats`.

use std::sync::atomic::{AtomicU64, Ordering};

use gtlb_core::error::CoreError;

use crate::error::RuntimeError;

/// Tunables of the admission policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Utilization the admitted stream is thinned to, in `(0, 1)`.
    pub target_utilization: f64,
    /// Width of the defer band above the target: shed jobs are deferred
    /// while `ρ ≤ target + defer_band`, rejected beyond. Zero means
    /// every shed job is rejected outright.
    pub defer_band: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { target_utilization: 0.9, defer_band: 0.05 }
    }
}

/// What happens to one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The job proceeds to dispatch.
    Accept,
    /// The job is shed with retry-later semantics (transient overload
    /// inside the defer band).
    Defer,
    /// The job is shed outright (offered load far above target).
    Reject,
}

/// The pure thinning policy. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    cfg: AdmissionConfig,
}

impl AdmissionPolicy {
    /// Builds the policy, validating the configuration.
    ///
    /// # Errors
    /// [`RuntimeError::Core`] when `target_utilization` is outside
    /// `(0, 1)` or `defer_band` is negative or non-finite.
    pub fn new(cfg: AdmissionConfig) -> Result<Self, RuntimeError> {
        if !(cfg.target_utilization.is_finite()
            && cfg.target_utilization > 0.0
            && cfg.target_utilization < 1.0)
        {
            return Err(CoreError::BadInput(format!(
                "admission target utilization must lie in (0, 1), got {}",
                cfg.target_utilization
            ))
            .into());
        }
        if !(cfg.defer_band.is_finite() && cfg.defer_band >= 0.0) {
            return Err(CoreError::BadInput(format!(
                "admission defer band must be nonnegative and finite, got {}",
                cfg.defer_band
            ))
            .into());
        }
        Ok(Self { cfg })
    }

    /// The configuration this policy runs.
    #[must_use]
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Probability that a job is shed (deferred or rejected) at offered
    /// utilization `rho`: `max(0, 1 − ρ*/ρ)`. Monotone nondecreasing in
    /// `rho`; zero at or below the target.
    #[must_use]
    pub fn shed_probability(&self, rho: f64) -> f64 {
        if !(rho.is_finite() && rho > self.cfg.target_utilization) {
            return 0.0;
        }
        1.0 - self.cfg.target_utilization / rho
    }

    /// Probability that a job is rejected outright at offered
    /// utilization `rho`: the shed probability beyond the defer band,
    /// zero inside it. Monotone nondecreasing in `rho`.
    #[must_use]
    pub fn rejection_probability(&self, rho: f64) -> f64 {
        if rho <= self.cfg.target_utilization + self.cfg.defer_band {
            0.0
        } else {
            self.shed_probability(rho)
        }
    }

    /// Decides one job from the offered utilization `rho` and a uniform
    /// draw `u ∈ (0, 1)`. Pure: the caller owns the (deterministic)
    /// randomness.
    #[must_use]
    pub fn verdict(&self, rho: f64, u: f64) -> AdmissionVerdict {
        if u >= self.shed_probability(rho) {
            AdmissionVerdict::Accept
        } else if rho <= self.cfg.target_utilization + self.cfg.defer_band {
            AdmissionVerdict::Defer
        } else {
            AdmissionVerdict::Reject
        }
    }
}

/// Point-in-time admission counters. Conservation invariant:
/// `accepted + rejected + deferred == submitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Jobs that asked for admission.
    pub submitted: u64,
    /// Jobs admitted to dispatch.
    pub accepted: u64,
    /// Jobs shed with retry-later semantics.
    pub deferred: u64,
    /// Jobs shed outright.
    pub rejected: u64,
}

impl AdmissionStats {
    /// Fraction of submitted jobs rejected (0 when nothing submitted).
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected as f64 / self.submitted as f64
        }
    }
}

impl std::fmt::Display for AdmissionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission: {} submitted, {} accepted, {} deferred, {} rejected ({:.1}% rejection)",
            self.submitted,
            self.accepted,
            self.deferred,
            self.rejected,
            100.0 * self.rejection_rate()
        )
    }
}

/// Shared admission state: the policy, the latest offered-utilization
/// estimate, and the verdict counters. The hot path touches only relaxed atomics, one read-modify-write per
/// decision: the submitted count is the verdict counters' sum.
#[derive(Debug)]
pub struct AdmissionControl {
    policy: AdmissionPolicy,
    /// `f64` bits of the last offered utilization published by the
    /// re-solver (`Φ̂ / Σμ̂ᵢ`, *unclamped*).
    rho_bits: AtomicU64,
    accepted: AtomicU64,
    deferred: AtomicU64,
    rejected: AtomicU64,
}

impl AdmissionControl {
    /// Control state running `policy`, starting from `ρ = 0` (accept
    /// everything until the first estimate lands).
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self {
            policy,
            rho_bits: AtomicU64::new(0.0f64.to_bits()),
            accepted: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Publishes a fresh offered-utilization estimate (the re-solver
    /// calls this with the unclamped `Φ̂ / Σμ̂ᵢ` on every solve).
    pub fn publish_offered_utilization(&self, rho: f64) {
        self.rho_bits.store(rho.to_bits(), Ordering::Relaxed);
    }

    /// The last published offered utilization.
    #[must_use]
    pub fn offered_utilization(&self) -> f64 {
        f64::from_bits(self.rho_bits.load(Ordering::Relaxed))
    }

    /// Decides one job using draw `u`, recording the verdict in the
    /// shared counters.
    pub fn decide(&self, u: f64) -> AdmissionVerdict {
        let verdict = self.policy.verdict(self.offered_utilization(), u);
        match verdict {
            AdmissionVerdict::Accept => &self.accepted,
            AdmissionVerdict::Defer => &self.deferred,
            AdmissionVerdict::Reject => &self.rejected,
        }
        .fetch_add(1, Ordering::Relaxed);
        verdict
    }

    /// Counter snapshot. Taken counter-by-counter without a global lock,
    /// so under concurrent submission the three reads may straddle a
    /// decision; `submitted` is their sum, so every snapshot conserves
    /// `accepted + deferred + rejected == submitted` all the same.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let deferred = self.deferred.load(Ordering::Relaxed);
        let rejected = self.rejected.load(Ordering::Relaxed);
        AdmissionStats { submitted: accepted + deferred + rejected, accepted, deferred, rejected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(target: f64, band: f64) -> AdmissionPolicy {
        AdmissionPolicy::new(AdmissionConfig { target_utilization: target, defer_band: band })
            .unwrap()
    }

    #[test]
    fn config_is_validated() {
        for target in [0.0, 1.0, -0.5, f64::NAN] {
            let cfg = AdmissionConfig { target_utilization: target, defer_band: 0.0 };
            assert!(AdmissionPolicy::new(cfg).is_err(), "target {target} must be rejected");
        }
        for band in [-0.1, f64::INFINITY, f64::NAN] {
            let cfg = AdmissionConfig { target_utilization: 0.9, defer_band: band };
            assert!(AdmissionPolicy::new(cfg).is_err(), "band {band} must be rejected");
        }
        assert!(AdmissionPolicy::new(AdmissionConfig::default()).is_ok());
    }

    #[test]
    fn below_target_everything_is_accepted() {
        let p = policy(0.8, 0.05);
        for rho in [0.0, 0.1, 0.5, 0.8] {
            assert_eq!(p.shed_probability(rho), 0.0);
            for k in 1..100 {
                let u = k as f64 / 100.0;
                assert_eq!(p.verdict(rho, u), AdmissionVerdict::Accept, "rho {rho}, u {u}");
            }
        }
    }

    #[test]
    fn shed_thins_to_the_target() {
        // At ρ = 2ρ*, half the stream is shed: admitted rate = target.
        let p = policy(0.45, 0.0);
        assert!((p.shed_probability(0.9) - 0.5).abs() < 1e-12);
        // The admitted fraction ρ*/ρ times ρ·Σμ equals ρ*·Σμ at any ρ.
        for rho in [0.5, 0.7, 0.9, 2.0] {
            let admitted = (1.0 - p.shed_probability(rho)) * rho;
            assert!((admitted - 0.45).abs() < 1e-12, "rho {rho}: admitted {admitted}");
        }
    }

    #[test]
    fn defer_band_separates_defer_from_reject() {
        let p = policy(0.8, 0.1);
        // Inside the band: shed jobs defer, none reject.
        assert_eq!(p.verdict(0.85, 0.0), AdmissionVerdict::Defer);
        assert_eq!(p.rejection_probability(0.85), 0.0);
        assert_eq!(p.rejection_probability(0.9), 0.0);
        // Beyond the band: shed jobs reject.
        assert_eq!(p.verdict(1.2, 0.0), AdmissionVerdict::Reject);
        assert!(p.rejection_probability(1.2) > 0.0);
    }

    #[test]
    fn probabilities_are_monotone_in_load() {
        let p = policy(0.7, 0.05);
        let mut last_shed = 0.0;
        let mut last_rej = 0.0;
        for k in 0..200 {
            let rho = k as f64 * 0.01;
            let shed = p.shed_probability(rho);
            let rej = p.rejection_probability(rho);
            assert!(shed >= last_shed, "shed not monotone at rho {rho}");
            assert!(rej >= last_rej, "rejection not monotone at rho {rho}");
            assert!(rej <= shed, "rejection exceeds shed at rho {rho}");
            last_shed = shed;
            last_rej = rej;
        }
    }

    #[test]
    fn control_counts_are_conserved() {
        let control = AdmissionControl::new(policy(0.5, 0.0));
        control.publish_offered_utilization(1.0); // shed half
        let mut rng = gtlb_desim::rng::Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..10_000 {
            control.decide(rng.next_open01());
        }
        let stats = control.stats();
        assert_eq!(stats.submitted, 10_000);
        assert_eq!(stats.accepted + stats.deferred + stats.rejected, stats.submitted);
        assert_eq!(stats.deferred, 0, "band is zero");
        let rate = stats.rejection_rate();
        assert!((rate - 0.5).abs() < 0.05, "rejection rate {rate} vs shed prob 0.5");
    }

    #[test]
    fn concurrent_snapshots_are_conserved() {
        let control = AdmissionControl::new(policy(0.5, 0.05));
        let deciders = 2;
        let per_thread = 20_000;
        std::thread::scope(|scope| {
            for seed in 0..deciders {
                let control = &control;
                scope.spawn(move || {
                    let mut rng = gtlb_desim::rng::Xoshiro256PlusPlus::seed_from_u64(seed);
                    for k in 0..per_thread {
                        // ρ inside the defer band, then past it: all
                        // three verdicts occur.
                        control.publish_offered_utilization(if k % 2 == 0 { 0.52 } else { 0.9 });
                        control.decide(rng.next_open01());
                    }
                });
            }
            let mut last = 0;
            while last < deciders * per_thread {
                let s = control.stats();
                assert_eq!(s.accepted + s.deferred + s.rejected, s.submitted, "{s}");
                assert!(s.submitted >= last, "submitted went backwards");
                last = s.submitted;
                std::hint::spin_loop();
            }
        });
        let s = control.stats();
        assert_eq!(s.submitted, deciders * per_thread);
        assert!(s.accepted > 0 && s.deferred > 0 && s.rejected > 0, "{s}");
    }

    #[test]
    fn cold_control_accepts_everything() {
        let control = AdmissionControl::new(policy(0.5, 0.0));
        for k in 0..100 {
            assert_eq!(control.decide(k as f64 / 100.0), AdmissionVerdict::Accept);
        }
        assert_eq!(control.stats().accepted, 100);
    }

    #[test]
    fn non_finite_rho_fails_open() {
        let p = policy(0.5, 0.0);
        assert_eq!(p.shed_probability(f64::NAN), 0.0);
        assert_eq!(p.verdict(f64::NAN, 0.01), AdmissionVerdict::Accept);
        assert_eq!(p.shed_probability(f64::INFINITY), 0.0);
    }
}
