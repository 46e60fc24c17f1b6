//! Retry/timeout/backoff policy for the dispatch path.
//!
//! A job whose attempt drops (crashed or flaky node) is not lost: the
//! driver charges the attempt a timeout, waits a backoff, and
//! redispatches through the *current* routing snapshot — which the
//! failure path has typically already renormalized away from the sick
//! node. The policy here is pure arithmetic: it owns the budget and the
//! backoff curve, not the RNG or the clock.
//!
//! Backoff is **decorrelated jitter** (`min(MAX_BACKOFF, BASE_BACKOFF +
//! u·(3·prev − BASE_BACKOFF))`): each wait is drawn uniformly between
//! [`BASE_BACKOFF`] and three times the previous wait, capped at
//! [`MAX_BACKOFF`], which empirically spreads retry storms better than
//! either full jitter or plain exponential doubling. The uniform draw
//! `u` comes from the driver's dedicated retry stream
//! ([`RETRY_STREAM`]), so enabling retries never perturbs the arrival,
//! service, routing, or admission sequences.

use gtlb_core::error::CoreError;

use crate::error::RuntimeError;

/// RNG stream id of the retry-backoff family (seed: the driver's trace
/// seed). Disjoint from arrival `0x0500`, per-node service `0x0600+i`,
/// admission `0x0700`, and fault `0x0800+i`.
pub const RETRY_STREAM: u64 = 0x0900;

/// Lower bound of every backoff wait (virtual seconds).
pub const BASE_BACKOFF: f64 = 0.05;

/// Upper bound (cap) of every backoff wait (virtual seconds).
pub const MAX_BACKOFF: f64 = 2.0;

/// Tuning of the retry/timeout policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Total attempts per job, first try included (≥ 1). `1` means no
    /// retries: a dropped attempt immediately exhausts the budget.
    pub max_attempts: u32,
    /// Virtual seconds charged to an attempt before it is declared
    /// dropped (the per-attempt deadline).
    pub timeout: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self { max_attempts: 4, timeout: 1.0 }
    }
}

/// A validated retry policy (see [`RetryConfig`] for the semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    cfg: RetryConfig,
}

impl RetryPolicy {
    /// Validates and wraps a configuration.
    ///
    /// # Errors
    /// [`RuntimeError::Core`] when the budget is zero or the timeout is
    /// nonpositive or non-finite.
    pub fn new(cfg: RetryConfig) -> Result<Self, RuntimeError> {
        if cfg.max_attempts == 0 {
            return Err(CoreError::BadInput(
                "retry: max_attempts must be at least 1 (the first try)".into(),
            )
            .into());
        }
        if !(cfg.timeout.is_finite() && cfg.timeout > 0.0) {
            return Err(CoreError::BadInput(format!(
                "retry: timeout must be positive and finite, got {}",
                cfg.timeout
            ))
            .into());
        }
        Ok(Self { cfg })
    }

    /// Total attempts per job (first try included).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.cfg.max_attempts
    }

    /// The per-attempt deadline.
    #[must_use]
    pub fn timeout(&self) -> f64 {
        self.cfg.timeout
    }

    /// The next backoff wait after a wait of `prev` (`0.0` before the
    /// first retry), given a uniform draw `u ∈ [0, 1)`: decorrelated
    /// jitter, always within `[BASE_BACKOFF, MAX_BACKOFF]`.
    #[must_use]
    pub fn backoff(&self, prev: f64, u: f64) -> f64 {
        let span = (3.0 * prev).max(BASE_BACKOFF) - BASE_BACKOFF;
        (BASE_BACKOFF + u * span).min(MAX_BACKOFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        let with = |max_attempts, timeout| RetryPolicy::new(RetryConfig { max_attempts, timeout });
        assert!(with(0, 1.0).is_err());
        for timeout in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(with(4, timeout).is_err(), "timeout {timeout}");
        }
        assert!(with(1, 0.3).is_ok());
        assert!(RetryPolicy::new(RetryConfig::default()).is_ok());
    }

    #[test]
    fn backoff_stays_within_bounds_and_grows() {
        let p = RetryPolicy::new(RetryConfig::default()).unwrap();
        // First wait ignores prev = 0: collapses to the base.
        assert_eq!(p.backoff(0.0, 0.99), BASE_BACKOFF);
        // Subsequent waits are uniform on [base, 3·prev], capped.
        let w = p.backoff(0.1, 0.5);
        assert!((BASE_BACKOFF..=0.3).contains(&w), "got {w}");
        assert_eq!(p.backoff(10.0, 0.9), MAX_BACKOFF, "cap binds");
        // u = 0 pins to the base; u → 1 approaches 3·prev.
        assert_eq!(p.backoff(0.2, 0.0), BASE_BACKOFF);
        assert!((p.backoff(0.2, 1.0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn accessors_expose_the_config() {
        let p = RetryPolicy::new(RetryConfig::default()).unwrap();
        assert_eq!(p.max_attempts(), 4);
        assert!((p.timeout() - 1.0).abs() < 1e-12);
    }
}
