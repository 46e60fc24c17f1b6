//! Accrual-style failure detection: per-node suspicion accumulates from
//! missed responses and silence, and drives [`Health`] transitions with
//! hysteresis instead of manual marking.
//!
//! Each node's registry row owns its track: `register` creates it,
//! `deregister` drops it with the row, and the row's own [`Health`] is
//! the state the track's transitions start from. Every heartbeat or
//! response outcome feeds it:
//!
//! * **success** — updates the inter-observation EWMA, decays the
//!   accrued failure boost, and (past hysteresis) promotes the node back
//!   toward [`Health::Up`];
//! * **failure** — adds a fixed boost to the suspicion level.
//!
//! Suspicion is an accrual value `φ(now) = boost + silence`, where the
//! silence term grows with time since the last *successful* observation,
//! scaled by the node's own observed cadence (`(now − last) /
//! (mean_interval · ln 10)` — the φ-detector's exponential-tail
//! approximation). Crossing [`SUSPECT_PHI`] demotes Up→Suspect; crossing
//! [`DOWN_PHI`] demotes to Down. Recovery is deliberately harder than
//! demotion: Suspect→Up needs φ to fall *below* `RECOVERY_FACTOR ·
//! SUSPECT_PHI` (hysteresis, so a node flapping around the threshold
//! does not oscillate), and Down→Up additionally needs
//! `probation_successes` consecutive successes (the probation window).
//!
//! ## Self-tuning thresholds
//!
//! Fixed thresholds assume a clean, steady heartbeat
//! cadence; under gray failures and partial partitions the observed
//! cadence is jittery and a hand-set threshold either flaps or sleeps.
//! [`DetectorConfig::self_tuning`] opts a detector into true φ-accrual:
//! each track keeps a sliding window of the last `window` heartbeat
//! interarrival gaps and scales both thresholds by `1 + CV`, where `CV =
//! σ/μ` is the window's coefficient of variation. A steady cadence (`CV
//! → 0`) recovers the fixed baselines exactly; a jittery cadence
//! raises the bar in proportion to its own noise, so the thresholds are
//! monotone in the observed variance and never invert (`down > suspect`
//! is preserved by the common scale). The silence term uses the windowed
//! mean instead of the EWMA. Hysteresis and probation semantics are
//! untouched — recovery compares against the *effective* suspect
//! threshold. With `self_tuning_window == 0` (the default) every code
//! path is bit-identical to the fixed-threshold detector.
//!
//! A track is pure bookkeeping — it owns no clock and no RNG; the
//! caller supplies observation times. It *returns* the health it wants;
//! the row writes it and reports the move as a [`HealthTransition`],
//! and the runtime applies the routing consequences (renormalization on
//! Down, re-solve on recovery).

use crate::registry::{Health, NodeId};
use gtlb_desim::stats::Ewma;
use std::collections::VecDeque;

/// Suspicion level at which an Up node is demoted to Suspect.
pub const SUSPECT_PHI: f64 = 2.0;
/// Suspicion level at which a node is demoted to Down.
pub const DOWN_PHI: f64 = 6.0;
/// Suspect→Up requires φ below `RECOVERY_FACTOR * SUSPECT_PHI` (the
/// hysteresis band).
pub const RECOVERY_FACTOR: f64 = 0.5;
/// Suspicion added by each observed failure.
pub const FAILURE_BOOST: f64 = 2.0;
/// Multiplier applied to the accrued boost on each success (smaller
/// forgives faster).
pub const SUCCESS_DECAY: f64 = 0.5;
/// Successful observations required before the silence term is trusted
/// (the interval EWMA needs a baseline).
pub const MIN_SAMPLES: u64 = 3;
/// Smoothing factor of the inter-observation interval EWMA.
pub const INTERVAL_ALPHA: f64 = 0.2;

/// Tunables of the accrual detector. The thresholds, boost and decay
/// are the constants above: the silence term of φ is measured in units
/// of each node's own cadence and the boost counts failures, so no
/// threshold depends on the heartbeat interval, and the self-tuning
/// mode adapts them to jitter.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Consecutive successes a Down node must string together before it
    /// is promoted back to Up (the probation window).
    pub probation_successes: u32,
    /// Size of the per-node interarrival history window the self-tuning
    /// mode derives effective thresholds from. `0` (the default)
    /// disables self-tuning: the detector is bit-identical to the
    /// fixed-threshold detector. Nonzero values must be ≥ 2 (variance
    /// needs two samples); see [`DetectorConfig::self_tuning`].
    pub self_tuning_window: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self { probation_successes: 3, self_tuning_window: 0 }
    }
}

impl DetectorConfig {
    /// The self-tuning preset: defaults everywhere, plus a sliding
    /// window of the last `window` interarrival gaps per node from which
    /// the *effective* thresholds are derived (`threshold × (1 + σ/μ)`
    /// over the window). No hand-set thresholds needed — [`SUSPECT_PHI`]
    /// and [`DOWN_PHI`] act as the steady-cadence baseline.
    ///
    /// # Panics
    /// If `window < 2`.
    #[must_use]
    pub fn self_tuning(window: usize) -> Self {
        assert!(window >= 2, "detector: self-tuning window must be at least 2");
        Self { self_tuning_window: window, ..Self::default() }
    }

    /// Panics unless every field lies in its documented range.
    pub(crate) fn validate(&self) {
        assert!(self.probation_successes >= 1, "detector: probation window must be at least 1");
        assert!(
            self.self_tuning_window == 0 || self.self_tuning_window >= 2,
            "detector: self-tuning window must be at least 2 (or 0 to disable)"
        );
    }
}

/// One health transition the detector decided on: `node` moved `from` →
/// `to` at virtual time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTransition {
    /// The node that moved.
    pub node: NodeId,
    /// Health before.
    pub from: Health,
    /// Health after.
    pub to: Health,
    /// Virtual time of the observation that triggered the move.
    pub at: f64,
}

impl std::fmt::Display for HealthTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} -> {} at t={:.3}", self.node, self.from, self.to, self.at)
    }
}

/// One node's accrual state, owned by the node's registry row.
#[derive(Debug, Clone)]
pub(crate) struct Track {
    intervals: Ewma,
    /// Sliding window of the last `self_tuning_window` interarrival
    /// gaps; empty (and never pushed) in fixed-threshold mode.
    gaps: VecDeque<f64>,
    last_seen: Option<f64>,
    boost: f64,
    consecutive_successes: u32,
}

impl Track {
    /// A fresh track whose interval EWMA smooths with [`INTERVAL_ALPHA`].
    pub(crate) fn new() -> Self {
        Self {
            intervals: Ewma::new(INTERVAL_ALPHA),
            gaps: VecDeque::new(),
            last_seen: None,
            boost: 0.0,
            consecutive_successes: 0,
        }
    }

    /// Clears the probation streak: after a manual mark a node must
    /// string together a fresh streak, so a forced Down still earns its
    /// way back.
    pub(crate) fn reset_streak(&mut self) {
        self.consecutive_successes = 0;
    }

    /// Feeds one successful observation (heartbeat ack or completed
    /// response) at time `t` to a node whose health is `health`, and
    /// returns the health it moves to: Suspect→Up past hysteresis,
    /// Down→Up after probation, `health` otherwise.
    pub(crate) fn observe_success(
        &mut self,
        cfg: &DetectorConfig,
        health: Health,
        t: f64,
    ) -> Health {
        if let Some(last) = self.last_seen {
            let gap = (t - last).max(0.0);
            if gap > 0.0 {
                self.intervals.observe(gap);
                if cfg.self_tuning_window > 0 {
                    self.gaps.push_back(gap);
                    if self.gaps.len() > cfg.self_tuning_window {
                        self.gaps.pop_front();
                    }
                }
            }
        }
        self.last_seen = Some(t);
        self.boost *= SUCCESS_DECAY;
        self.consecutive_successes += 1;
        // Effective suspect threshold after this observation landed (the
        // identity in fixed mode).
        let (eff_suspect, _) = thresholds(cfg, self);
        match health {
            Health::Down if self.consecutive_successes >= cfg.probation_successes => Health::Up,
            // Re-read φ with the refreshed boost/last_seen; the silence
            // term is zero at the observation instant.
            Health::Suspect if self.boost < RECOVERY_FACTOR * eff_suspect => Health::Up,
            _ => health,
        }
    }

    /// Feeds one failed observation (dropped attempt, missed heartbeat)
    /// at time `t` to a node whose health is `health`, and returns the
    /// health it moves to: a demotion once φ crosses a threshold,
    /// `health` otherwise.
    pub(crate) fn observe_failure(
        &mut self,
        cfg: &DetectorConfig,
        health: Health,
        t: f64,
    ) -> Health {
        self.boost += FAILURE_BOOST;
        self.consecutive_successes = 0;
        let phi = track_phi(cfg, self, t);
        let (eff_suspect, eff_down) = thresholds(cfg, self);
        match health {
            Health::Up | Health::Suspect if phi >= eff_down => Health::Down,
            Health::Up if phi >= eff_suspect => Health::Suspect,
            _ => health,
        }
    }
}

/// `1 + σ/μ` over the track's gap window — the common factor both
/// effective thresholds scale by. `1.0` in fixed mode or before two
/// gaps have landed, so fixed-mode arithmetic is untouched.
fn tuning_scale(cfg: &DetectorConfig, track: &Track) -> f64 {
    if cfg.self_tuning_window == 0 || track.gaps.len() < 2 {
        return 1.0;
    }
    let n = track.gaps.len() as f64;
    let mean = track.gaps.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 1.0;
    }
    let var = track.gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / (n - 1.0);
    1.0 + var.sqrt() / mean
}

/// The cadence estimate backing the silence term: the windowed mean in
/// self-tuning mode (gated on `min(MIN_SAMPLES, window)` gaps), the
/// interval EWMA in fixed mode (gated on [`MIN_SAMPLES`], exactly as
/// before).
fn mean_interval(cfg: &DetectorConfig, track: &Track) -> Option<f64> {
    if cfg.self_tuning_window > 0 {
        let need = MIN_SAMPLES.min(cfg.self_tuning_window as u64) as usize;
        let n = track.gaps.len();
        (n >= need && n > 0).then(|| track.gaps.iter().sum::<f64>() / n as f64)
    } else {
        track.intervals.value().filter(|_| track.intervals.count() >= MIN_SAMPLES)
    }
}

/// `(SUSPECT_PHI, DOWN_PHI)` scaled by the track's tuning factor.
pub(crate) fn thresholds(cfg: &DetectorConfig, track: &Track) -> (f64, f64) {
    let scale = tuning_scale(cfg, track);
    (SUSPECT_PHI * scale, DOWN_PHI * scale)
}

/// Suspicion of one track at `now`: accrued boost plus the silence term.
pub(crate) fn track_phi(cfg: &DetectorConfig, track: &Track, now: f64) -> f64 {
    let silence = match (track.last_seen, mean_interval(cfg, track)) {
        (Some(last), Some(mean)) if mean > 0.0 => {
            ((now - last).max(0.0)) / (mean * std::f64::consts::LN_10)
        }
        _ => 0.0,
    };
    track.boost + silence
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    /// A runtime with one registered node, whose row owns the track.
    fn watch(cfg: DetectorConfig) -> (Runtime, NodeId) {
        let rt = Runtime::builder().detector(cfg).build();
        let n = rt.register_node(1.0).unwrap();
        (rt, n)
    }

    fn warm(rt: &Runtime, n: NodeId, upto: f64) {
        let mut t = 0.0;
        while t < upto {
            assert_eq!(rt.observe_success(n, t), Ok(None));
            t += 1.0;
        }
    }

    #[test]
    fn repeated_failures_walk_up_to_suspect_then_down() {
        let (rt, n) = watch(DetectorConfig::default());
        warm(&rt, n, 5.0);
        assert_eq!(rt.node_health(n), Some(Health::Up));
        let t1 = rt.observe_failure(n, 5.0).unwrap().expect("boost 2 crosses suspect_phi 2");
        assert_eq!((t1.node, t1.from, t1.to), (n, Health::Up, Health::Suspect));
        assert!(rt.observe_failure(n, 5.1).unwrap().is_none(), "boost 4 < down_phi 6");
        let t2 = rt.observe_failure(n, 5.2).unwrap().expect("boost 6 crosses down_phi 6");
        assert_eq!((t2.from, t2.to), (Health::Suspect, Health::Down));
        assert_eq!(rt.node_health(n), Some(Health::Down));
    }

    #[test]
    fn silence_alone_accrues_suspicion() {
        let (rt, n) = watch(DetectorConfig::default());
        warm(&rt, n, 10.0); // cadence 1s, EWMA warm
        let base = rt.suspicion(n, 9.0);
        assert!(base < 0.1, "just observed, φ ≈ 0, got {base}");
        let quiet = rt.suspicion(n, 40.0);
        assert!(quiet > 6.0, "~30s of silence at 1s cadence must exceed down_phi, got {quiet}");
    }

    #[test]
    fn suspect_recovers_with_hysteresis() {
        let (rt, n) = watch(DetectorConfig::default());
        warm(&rt, n, 5.0);
        // One failure → Suspect, boost 2.
        rt.observe_failure(n, 5.0).unwrap().unwrap();
        // One success: boost 1.0 ≥ 0.5·2.0 — still inside the band.
        assert_eq!(rt.observe_success(n, 5.5), Ok(None));
        assert_eq!(rt.node_health(n), Some(Health::Suspect));
        // Second success: boost 0.5 < 1.0 — recovered.
        let t = rt.observe_success(n, 6.0).unwrap().expect("past hysteresis");
        assert_eq!((t.from, t.to), (Health::Suspect, Health::Up));
    }

    #[test]
    fn down_recovers_only_after_probation() {
        let (rt, n) = watch(DetectorConfig::default());
        let fail = |t: f64| rt.observe_failure(n, t).unwrap();
        let succeed = |t: f64| rt.observe_success(n, t).unwrap();
        warm(&rt, n, 5.0);
        for k in 0..3 {
            fail(5.0 + 0.1 * f64::from(k));
        }
        assert_eq!(rt.node_health(n), Some(Health::Down));
        assert!(succeed(6.0).is_none(), "probation 1/3");
        assert!(succeed(7.0).is_none(), "probation 2/3");
        let t = succeed(8.0).expect("probation complete");
        assert_eq!((t.from, t.to), (Health::Down, Health::Up));
        // A failure mid-probation resets the streak.
        for k in 0..3 {
            fail(9.0 + 0.1 * f64::from(k));
        }
        succeed(10.0);
        fail(10.5);
        assert!(succeed(11.0).is_none());
        assert!(succeed(12.0).is_none());
        assert_eq!(rt.node_health(n), Some(Health::Down), "streak was reset");
        // So does a manual mark, even one that leaves the health as is.
        rt.mark_down(n).unwrap();
        assert!(succeed(13.0).is_none(), "probation restarts at 1/3");
        assert!(succeed(14.0).is_none());
        assert!(succeed(15.0).is_some(), "probation complete");
    }

    #[test]
    fn unknown_nodes_are_benign() {
        let (rt, _) = watch(DetectorConfig::default());
        let ghost = NodeId::from_raw(7);
        assert_eq!(rt.suspicion(ghost, 100.0), 0.0);
        assert_eq!(rt.effective_thresholds(ghost), (2.0, 6.0));
        assert_eq!(rt.observe_failure(ghost, 1.0), Ok(None));
        assert_eq!(rt.node_health(ghost), None);
    }

    #[test]
    fn self_tuning_on_a_steady_cadence_matches_the_fixed_thresholds() {
        let (rt, n) = watch(DetectorConfig::self_tuning(8));
        warm(&rt, n, 10.0); // perfectly steady 1s cadence: CV = 0
        let (s, d) = rt.effective_thresholds(n);
        assert!((s - 2.0).abs() < 1e-12 && (d - 6.0).abs() < 1e-12, "CV 0 recovers baselines");
        // Same demotion walk as the fixed detector.
        let t1 = rt.observe_failure(n, 10.0).unwrap().expect("boost 2 crosses effective suspect 2");
        assert_eq!((t1.from, t1.to), (Health::Up, Health::Suspect));
    }

    #[test]
    fn self_tuning_raises_thresholds_under_jitter() {
        let (rt, n) = watch(DetectorConfig::self_tuning(8));
        // Jittery cadence: gaps alternate 0.2s / 1.8s (mean 1, high CV).
        let mut t = 0.0;
        for k in 0..12 {
            t += if k % 2 == 0 { 0.2 } else { 1.8 };
            rt.observe_success(n, t).unwrap();
        }
        let (s, d) = rt.effective_thresholds(n);
        assert!(s > 2.0 && d > 6.0, "jitter must raise both thresholds, got ({s}, {d})");
        assert!(d > s, "ordering preserved");
        // One failure (boost 2) no longer demotes: the bar moved with
        // the observed noise.
        assert_eq!(rt.observe_failure(n, t), Ok(None), "eff suspect {s} > boost 2");
        assert_eq!(rt.node_health(n), Some(Health::Up));
    }

    #[test]
    fn effective_thresholds_default_to_the_config() {
        for cfg in [DetectorConfig::default(), DetectorConfig::self_tuning(8)] {
            let (rt, n) = watch(cfg);
            assert_eq!(rt.effective_thresholds(n), (2.0, 6.0), "fresh track");
            assert_eq!(rt.suspicion(n, 100.0), 0.0, "nothing observed yet");
        }
    }

    #[test]
    #[should_panic(expected = "self-tuning window")]
    fn config_rejects_tiny_tuning_window() {
        let _ = DetectorConfig::self_tuning(1);
    }
}
