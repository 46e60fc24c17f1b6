//! Lock-free metric cells: [`Counter`] and [`Gauge`], one relaxed
//! atomic each.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Overwrites the counter with an absolute total taken from an
    /// external monotone source (e.g. a dispatch count the runtime
    /// already maintains). Callers must not mix `set_total` with
    /// [`Counter::add`] on the same counter.
    pub fn set_total(&self, total: u64) {
        self.value.store(total, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A floating-point gauge with a single writer, which stores absolute
/// values.
#[derive(Debug, Default)]
pub struct Gauge {
    /// `f64::to_bits` image of the value; all-zero bits are `0.0`.
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The last stored value.
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_set_total_is_absolute() {
        let c = Counter::new();
        c.set_total(41);
        c.set_total(42);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn gauge_set_is_absolute() {
        let g = Gauge::new();
        assert_eq!(g.value(), 0.0);
        g.set(0.75);
        g.set(-1.5);
        assert_eq!(g.value(), -1.5);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 40_000);
    }
}
