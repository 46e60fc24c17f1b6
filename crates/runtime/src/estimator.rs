//! Online rate estimation: the measured `Φ` and `μ_i` that drive
//! re-solves.
//!
//! The offline schemes take the arrival rate and processing rates as
//! givens; a live system has to measure them. Two estimators feed the
//! re-solver:
//!
//! * an EWMA over job inter-arrival times estimates the aggregate
//!   arrival rate `Φ̂` — exponentially forgetting, so it tracks load
//!   drift at a tunable time constant;
//! * a sliding window over each node's recent service times estimates
//!   its processing rate `μ̂_i = k / Σ_{last k} s` (the MLE for an
//!   exponential server over the window) — windowed, so a degraded node
//!   is re-rated within a bounded number of jobs.
//!
//! The runtime holds the one [`EwmaRate`], and each registry row owns
//! its node's [`WindowRate`]. It withholds both estimates until they
//! have enough observations and falls back to configured nominal values
//! meanwhile, so a cold system is solvable from the first dispatch.

use std::collections::VecDeque;

use gtlb_desim::stats::Ewma;

/// EWMA estimator of an event rate from event timestamps: the smoothed
/// inter-event gap is an [`Ewma`], seeded with the first gap.
#[derive(Debug, Clone)]
pub struct EwmaRate {
    mean_gap: Ewma,
    last_event: Option<f64>,
    count: u64,
}

impl EwmaRate {
    /// Estimator with smoothing factor `alpha ∈ (0, 1]` (weight of the
    /// newest inter-arrival gap).
    ///
    /// # Panics
    /// If `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self { mean_gap: Ewma::new(alpha), last_event: None, count: 0 }
    }

    /// Records an event at time `t` (nondecreasing; a backwards step is
    /// treated as a restart of the clock). A non-finite `t` is ignored
    /// and does not count as an event.
    pub fn observe(&mut self, t: f64) {
        if !t.is_finite() {
            return;
        }
        self.count += 1;
        if let Some(last) = self.last_event {
            let gap = t - last;
            if gap >= 0.0 {
                self.mean_gap.observe(gap);
            }
        }
        self.last_event = Some(t);
    }

    /// Estimated event rate (1 / smoothed gap); `None` before the second
    /// event or while the smoothed gap is zero.
    #[must_use]
    pub fn rate(&self) -> Option<f64> {
        match self.mean_gap.value() {
            Some(gap) if gap > 0.0 => Some(1.0 / gap),
            _ => None,
        }
    }

    /// Events observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Sliding-window estimator of a service rate from service durations.
///
/// The window keeps a running sum, so [`WindowRate::rate`] is O(1): a
/// push adds, an eviction subtracts, and every `capacity` pushes the sum
/// is recomputed exactly from the window. Between two re-sums at most
/// `capacity` additions and `capacity` subtractions round, each by at
/// most half an ulp, so the drift stays within about `capacity · ε`
/// times the largest sum held since the last re-sum — relative to the
/// current sum, `capacity · ε · max/min` over the window's values. The
/// buffer grows on demand, so a node that never fills its window never
/// pays for all of it.
#[derive(Debug, Clone)]
pub struct WindowRate {
    window: VecDeque<f64>,
    capacity: usize,
    /// Running `Σ window`.
    sum: f64,
    /// Pushes since `sum` was last recomputed exactly.
    since_resum: usize,
}

impl WindowRate {
    /// Estimator remembering the last `capacity` service times.
    ///
    /// # Panics
    /// If `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "service window must be positive");
        Self { window: VecDeque::new(), capacity, sum: 0.0, since_resum: 0 }
    }

    /// Records one service duration (nonpositive durations are ignored —
    /// they carry no rate information).
    pub fn observe(&mut self, service_time: f64) {
        if !(service_time.is_finite() && service_time > 0.0) {
            return;
        }
        if self.window.len() == self.capacity {
            if let Some(old) = self.window.pop_front() {
                self.sum -= old;
            }
        }
        self.window.push_back(service_time);
        self.sum += service_time;
        self.since_resum += 1;
        // A sum of positive durations is positive: cancellation that
        // says otherwise is corrected at once, not at the next period.
        if self.since_resum == self.capacity || self.sum <= 0.0 {
            self.sum = self.window.iter().sum();
            self.since_resum = 0;
        }
    }

    /// Estimated service rate over the window, `k / Σs`; `None` while
    /// empty.
    #[must_use]
    pub fn rate(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        (self.sum > 0.0).then(|| self.window.len() as f64 / self.sum)
    }

    /// Observations currently in the window.
    #[must_use]
    pub fn count(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtlb_desim::rng::Xoshiro256PlusPlus;

    #[test]
    fn ewma_tracks_a_steady_stream() {
        let mut e = EwmaRate::new(0.1);
        assert!(e.rate().is_none());
        for k in 0..100 {
            e.observe(k as f64 * 0.5); // 2 events per second
        }
        let rate = e.rate().unwrap();
        assert!((rate - 2.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(e.count(), 100);
    }

    #[test]
    fn ewma_ignores_non_finite_times() {
        let mut clean = EwmaRate::new(0.2);
        let mut noisy = EwmaRate::new(0.2);
        for k in 0..=9 {
            clean.observe(f64::from(k));
            noisy.observe(f64::from(k));
            match k {
                1 => noisy.observe(f64::INFINITY),
                5 => noisy.observe(f64::NAN),
                _ => {}
            }
        }
        assert_eq!(noisy.rate(), clean.rate());
        assert_eq!(noisy.count(), clean.count());
        assert_eq!(noisy.rate(), Some(1.0));
    }

    #[test]
    fn ewma_adapts_to_a_rate_change() {
        let mut e = EwmaRate::new(0.2);
        let mut t = 0.0;
        for _ in 0..50 {
            t += 1.0; // rate 1
            e.observe(t);
        }
        for _ in 0..100 {
            t += 0.1; // rate 10
            e.observe(t);
        }
        let rate = e.rate().unwrap();
        assert!(rate > 8.0, "EWMA should have largely forgotten the old rate, got {rate}");
    }

    #[test]
    fn window_rate_is_mle_over_window() {
        let mut w = WindowRate::new(4);
        assert!(w.rate().is_none());
        for s in [1.0, 1.0, 1.0, 1.0] {
            w.observe(s);
        }
        assert!((w.rate().unwrap() - 1.0).abs() < 1e-12);
        // Four faster services push the old ones out of the window.
        for s in [0.25, 0.25, 0.25, 0.25] {
            w.observe(s);
        }
        assert!((w.rate().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(w.count(), 4);
    }

    #[test]
    fn window_ignores_degenerate_durations() {
        let mut w = WindowRate::new(8);
        w.observe(0.0);
        w.observe(-1.0);
        w.observe(f64::NAN);
        assert_eq!(w.count(), 0);
    }

    /// Feeds `w` log-uniform durations spanning `[lo, lo · span)`.
    fn feed(w: &mut WindowRate, rng: &mut Xoshiro256PlusPlus, n: usize, lo: f64, span: f64) {
        for _ in 0..n {
            w.observe(lo * span.powf(rng.next_open01()));
        }
    }

    #[test]
    fn running_sum_tracks_a_fresh_sum() {
        let mut rng = Xoshiro256PlusPlus::stream(21, 0);
        for capacity in [1, 3, 64, 1000, 4096] {
            let mut w = WindowRate::new(capacity);
            for _ in 0..3 * capacity + 7 {
                feed(&mut w, &mut rng, 1, 1e-3, 1e3);
                let fresh: f64 = w.window.iter().sum();
                if w.since_resum == 0 {
                    assert_eq!(w.sum.to_bits(), fresh.to_bits(), "bit-equal after a re-sum");
                } else {
                    let drift = (w.sum - fresh).abs() / fresh;
                    assert!(drift <= 1e-9, "capacity {capacity}: drift {drift:e}");
                }
                assert_eq!(w.rate(), Some(w.count() as f64 / w.sum));
            }
        }
    }

    #[test]
    fn running_sum_resums_every_capacity_pushes() {
        let mut w = WindowRate::new(5);
        for k in 1..=12 {
            w.observe(0.1 * f64::from(k));
            assert_eq!(w.since_resum, k as usize % 5, "push {k}");
        }
        w.observe(-1.0);
        assert_eq!(w.since_resum, 2, "an ignored duration is not a push");
    }

    #[test]
    fn a_million_fold_drop_keeps_the_rate_positive_and_finite() {
        let mut rng = Xoshiro256PlusPlus::stream(22, 0);
        for capacity in [2, 17, 4096] {
            let mut w = WindowRate::new(capacity);
            feed(&mut w, &mut rng, capacity, 1.0, 2.0);
            for _ in 0..2 * capacity {
                feed(&mut w, &mut rng, 1, 1e-6, 2.0);
                let rate = w.rate().expect("nonempty window");
                assert!(rate.is_finite() && rate > 0.0, "capacity {capacity}: rate {rate}");
            }
            let fresh: f64 = w.window.iter().sum();
            assert_eq!(w.sum.to_bits(), fresh.to_bits(), "the drop ends on a re-sum");
        }
    }

    #[test]
    fn window_allocates_on_demand() {
        let mut w = WindowRate::new(4096);
        assert_eq!(w.window.capacity(), 0, "no buffer before the first observation");
        w.observe(1.0);
        assert!(w.window.capacity() < 4096, "grows with the samples, not the bound");
    }
}
