//! Accrual-style failure detection: per-node suspicion accumulates from
//! missed responses and silence, and drives [`Health`] transitions with
//! hysteresis instead of manual marking.
//!
//! The detector keeps one track per node. Every heartbeat or response
//! outcome feeds it:
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
//! approximation). Crossing `suspect_phi` demotes Up→Suspect; crossing
//! `down_phi` demotes to Down. Recovery is deliberately harder than
//! demotion: Suspect→Up needs φ to fall *below* `recovery_factor ·
//! suspect_phi` (hysteresis, so a node flapping around the threshold
//! does not oscillate), and Down→Up additionally needs
//! `probation_successes` consecutive successes (the probation window).
//!
//! ## Self-tuning thresholds
//!
//! Fixed `suspect_phi`/`down_phi` assume a clean, steady heartbeat
//! cadence; under gray failures and partial partitions the observed
//! cadence is jittery and a hand-set threshold either flaps or sleeps.
//! [`DetectorConfig::self_tuning`] opts a detector into true φ-accrual:
//! each track keeps a sliding window of the last `window` heartbeat
//! interarrival gaps and scales both thresholds by `1 + CV`, where `CV =
//! σ/μ` is the window's coefficient of variation. A steady cadence (`CV
//! → 0`) recovers the configured baselines exactly; a jittery cadence
//! raises the bar in proportion to its own noise, so the thresholds are
//! monotone in the observed variance and never invert (`down > suspect`
//! is preserved by the common scale). The silence term uses the windowed
//! mean instead of the EWMA. Hysteresis and probation semantics are
//! untouched — recovery compares against the *effective* suspect
//! threshold. With `self_tuning_window == 0` (the default) every code
//! path is bit-identical to the fixed-threshold detector.
//!
//! The detector is pure bookkeeping — it owns no clock and no RNG, and
//! never touches the registry itself. It *returns* the transition it
//! wants ([`HealthTransition`]); the runtime applies it (and its routing
//! consequences: renormalization on Down, re-solve on recovery).

use crate::registry::{Health, NodeId};
use gtlb_desim::stats::Ewma;
use std::collections::VecDeque;

/// Tunables of the accrual detector. Defaults are deliberately snappy
/// for simulation timescales; production deployments would scale them
/// with real heartbeat cadences.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Suspicion level at which an Up node is demoted to Suspect.
    pub suspect_phi: f64,
    /// Suspicion level at which a node is demoted to Down.
    pub down_phi: f64,
    /// Suspect→Up requires φ below `recovery_factor * suspect_phi`
    /// (hysteresis band; must lie in `(0, 1)`).
    pub recovery_factor: f64,
    /// Suspicion added by each observed failure.
    pub failure_boost: f64,
    /// Multiplier applied to the accrued boost on each success (in
    /// `[0, 1)`; smaller forgives faster).
    pub success_decay: f64,
    /// Successful observations required before the silence term is
    /// trusted (the interval EWMA needs a baseline).
    pub min_samples: u64,
    /// Smoothing factor of the inter-observation interval EWMA.
    pub interval_alpha: f64,
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
        Self {
            suspect_phi: 2.0,
            down_phi: 6.0,
            recovery_factor: 0.5,
            failure_boost: 2.0,
            success_decay: 0.5,
            min_samples: 3,
            interval_alpha: 0.2,
            probation_successes: 3,
            self_tuning_window: 0,
        }
    }
}

impl DetectorConfig {
    /// The self-tuning preset: defaults everywhere, plus a sliding
    /// window of the last `window` interarrival gaps per node from which
    /// the *effective* `suspect_phi`/`down_phi` are derived (`threshold
    /// × (1 + σ/μ)` over the window). No hand-set thresholds needed —
    /// the configured values act as the steady-cadence baseline.
    ///
    /// # Panics
    /// If `window < 2`.
    #[must_use]
    pub fn self_tuning(window: usize) -> Self {
        assert!(window >= 2, "detector: self-tuning window must be at least 2");
        Self { self_tuning_window: window, ..Self::default() }
    }

    fn validate(&self) {
        assert!(
            self.suspect_phi.is_finite() && self.suspect_phi > 0.0,
            "detector: suspect_phi must be positive and finite"
        );
        assert!(
            self.down_phi.is_finite() && self.down_phi > self.suspect_phi,
            "detector: down_phi must exceed suspect_phi"
        );
        assert!(
            self.recovery_factor > 0.0 && self.recovery_factor < 1.0,
            "detector: recovery_factor must lie in (0, 1)"
        );
        assert!(
            self.failure_boost.is_finite() && self.failure_boost > 0.0,
            "detector: failure_boost must be positive and finite"
        );
        assert!(
            (0.0..1.0).contains(&self.success_decay),
            "detector: success_decay must lie in [0, 1)"
        );
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

#[derive(Debug)]
struct Track {
    intervals: Ewma,
    /// Sliding window of the last `self_tuning_window` interarrival
    /// gaps; empty (and never pushed) in fixed-threshold mode.
    gaps: VecDeque<f64>,
    last_seen: Option<f64>,
    boost: f64,
    consecutive_successes: u32,
    view: Health,
}

impl Track {
    fn new(alpha: f64) -> Self {
        Self {
            intervals: Ewma::new(alpha),
            gaps: VecDeque::new(),
            last_seen: None,
            boost: 0.0,
            consecutive_successes: 0,
            view: Health::Up,
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
/// self-tuning mode (gated on `min(min_samples, window)` gaps), the
/// interval EWMA in fixed mode (gated on `min_samples`, exactly as
/// before).
fn mean_interval(cfg: &DetectorConfig, track: &Track) -> Option<f64> {
    if cfg.self_tuning_window > 0 {
        let need = cfg.min_samples.min(cfg.self_tuning_window as u64) as usize;
        let n = track.gaps.len();
        (n >= need && n > 0).then(|| track.gaps.iter().sum::<f64>() / n as f64)
    } else {
        track.intervals.value().filter(|_| track.intervals.count() >= cfg.min_samples)
    }
}

/// `(suspect_phi, down_phi)` scaled by the track's tuning factor.
fn thresholds(cfg: &DetectorConfig, track: &Track) -> (f64, f64) {
    let scale = tuning_scale(cfg, track);
    (cfg.suspect_phi * scale, cfg.down_phi * scale)
}

/// Suspicion of one track at `now`: accrued boost plus the silence term.
fn track_phi(cfg: &DetectorConfig, track: &Track, now: f64) -> f64 {
    let silence = match (track.last_seen, mean_interval(cfg, track)) {
        (Some(last), Some(mean)) if mean > 0.0 => {
            ((now - last).max(0.0)) / (mean * std::f64::consts::LN_10)
        }
        _ => 0.0,
    };
    track.boost + silence
}

/// The accrual failure detector: per-node suspicion tracks feeding
/// [`Health`] transitions. Deterministic — no clock, no randomness; the
/// caller supplies observation times.
///
/// Tracks live in a table sorted by [`NodeId`] and are found by one
/// binary search per call, so a caller may name any id: an unknown one
/// costs one track, never storage in proportion to its value.
#[derive(Debug)]
pub struct AccrualDetector {
    cfg: DetectorConfig,
    /// Observed nodes, ascending; `tracks[i]` belongs to `ids[i]`.
    ids: Vec<NodeId>,
    tracks: Vec<Track>,
}

impl AccrualDetector {
    /// A detector with the given tuning.
    ///
    /// # Panics
    /// If the configuration is inconsistent (see the field docs).
    #[must_use]
    pub fn new(cfg: DetectorConfig) -> Self {
        cfg.validate();
        Self { cfg, ids: Vec::new(), tracks: Vec::new() }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    fn find(&self, node: NodeId) -> Option<&Track> {
        self.ids.binary_search(&node).ok().map(|i| &self.tracks[i])
    }

    /// The node's track, created on first sight.
    fn track(&mut self, node: NodeId) -> &mut Track {
        let i = match self.ids.binary_search(&node) {
            Ok(i) => i,
            Err(i) => {
                self.ids.insert(i, node);
                self.tracks.insert(i, Track::new(self.cfg.interval_alpha));
                i
            }
        };
        &mut self.tracks[i]
    }

    /// Current suspicion level of `node` at time `now`: accrued boost
    /// plus the silence term. Zero for unknown nodes.
    #[must_use]
    pub fn phi(&self, node: NodeId, now: f64) -> f64 {
        self.find(node).map_or(0.0, |track| track_phi(&self.cfg, track, now))
    }

    /// The thresholds in force for `node` right now: the configured
    /// `(suspect_phi, down_phi)` in fixed mode (and for unknown nodes),
    /// both scaled by `1 + σ/μ` of the node's observed interarrival
    /// window in self-tuning mode. Monotone in the observed variance;
    /// `down > suspect` always.
    #[must_use]
    pub fn effective_thresholds(&self, node: NodeId) -> (f64, f64) {
        let fixed = (self.cfg.suspect_phi, self.cfg.down_phi);
        self.find(node).map_or(fixed, |track| thresholds(&self.cfg, track))
    }

    /// The detector's current view of `node`'s health (its own state
    /// machine, which the runtime mirrors into the registry).
    #[must_use]
    pub fn view(&self, node: NodeId) -> Health {
        self.find(node).map_or(Health::Up, |t| t.view)
    }

    /// Forgets a node entirely (deregistration).
    pub fn forget(&mut self, node: NodeId) {
        if let Ok(i) = self.ids.binary_search(&node) {
            self.ids.remove(i);
            self.tracks.remove(i);
        }
    }

    /// Forces the detector's view of `node` (operator override): when
    /// the runtime is marked manually, the detector must agree or it
    /// would never emit the transition that undoes the mark. Clears the
    /// probation streak so a forced Down still earns its way back.
    pub fn set_view(&mut self, node: NodeId, health: Health) {
        let track = self.track(node);
        track.view = health;
        track.consecutive_successes = 0;
    }

    /// Feeds one successful observation (heartbeat ack or completed
    /// response) of `node` at time `t`. Returns the transition this
    /// implies, if any (Suspect→Up past hysteresis, Down→Up after
    /// probation).
    pub fn observe_success(&mut self, node: NodeId, t: f64) -> Option<HealthTransition> {
        let cfg = self.cfg;
        let track = self.track(node);
        if let Some(last) = track.last_seen {
            let gap = (t - last).max(0.0);
            if gap > 0.0 {
                track.intervals.observe(gap);
                if cfg.self_tuning_window > 0 {
                    track.gaps.push_back(gap);
                    if track.gaps.len() > cfg.self_tuning_window {
                        track.gaps.pop_front();
                    }
                }
            }
        }
        track.last_seen = Some(t);
        track.boost *= cfg.success_decay;
        track.consecutive_successes += 1;
        let from = track.view;
        // Effective suspect threshold after this observation landed (the
        // identity in fixed mode).
        let (eff_suspect, _) = thresholds(&cfg, track);
        match from {
            Health::Down if track.consecutive_successes >= cfg.probation_successes => {
                track.view = Health::Up;
            }
            // Re-read φ with the refreshed boost/last_seen; the silence
            // term is zero at the observation instant.
            Health::Suspect if track.boost < cfg.recovery_factor * eff_suspect => {
                track.view = Health::Up;
            }
            _ => {}
        }
        let to = track.view;
        (from != to).then_some(HealthTransition { node, from, to, at: t })
    }

    /// Feeds one failed observation (dropped attempt, missed heartbeat)
    /// of `node` at time `t`. Returns the demotion this implies, if any.
    pub fn observe_failure(&mut self, node: NodeId, t: f64) -> Option<HealthTransition> {
        let cfg = self.cfg;
        let track = self.track(node);
        track.boost += cfg.failure_boost;
        track.consecutive_successes = 0;
        let from = track.view;
        let phi = track_phi(&cfg, track, t);
        let (eff_suspect, eff_down) = thresholds(&cfg, track);
        match from {
            Health::Up | Health::Suspect if phi >= eff_down => track.view = Health::Down,
            Health::Up if phi >= eff_suspect => track.view = Health::Suspect,
            _ => {}
        }
        let to = track.view;
        (from != to).then_some(HealthTransition { node, from, to, at: t })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(raw: u64) -> NodeId {
        NodeId::from_raw(raw)
    }

    fn warm(det: &mut AccrualDetector, n: NodeId, upto: f64) {
        let mut t = 0.0;
        while t < upto {
            assert!(det.observe_success(n, t).is_none());
            t += 1.0;
        }
    }

    #[test]
    fn repeated_failures_walk_up_to_suspect_then_down() {
        let mut det = AccrualDetector::new(DetectorConfig::default());
        let n = node(0);
        warm(&mut det, n, 5.0);
        assert_eq!(det.view(n), Health::Up);
        let t1 = det.observe_failure(n, 5.0).expect("boost 2 crosses suspect_phi 2");
        assert_eq!((t1.from, t1.to), (Health::Up, Health::Suspect));
        assert!(det.observe_failure(n, 5.1).is_none(), "boost 4 < down_phi 6");
        let t2 = det.observe_failure(n, 5.2).expect("boost 6 crosses down_phi 6");
        assert_eq!((t2.from, t2.to), (Health::Suspect, Health::Down));
        assert_eq!(det.view(n), Health::Down);
    }

    #[test]
    fn silence_alone_accrues_suspicion() {
        let mut det = AccrualDetector::new(DetectorConfig::default());
        let n = node(0);
        warm(&mut det, n, 10.0); // cadence 1s, EWMA warm
        let base = det.phi(n, 9.0);
        assert!(base < 0.1, "just observed, φ ≈ 0, got {base}");
        let quiet = det.phi(n, 40.0);
        assert!(quiet > 6.0, "~30s of silence at 1s cadence must exceed down_phi, got {quiet}");
    }

    #[test]
    fn suspect_recovers_with_hysteresis() {
        let mut det = AccrualDetector::new(DetectorConfig::default());
        let n = node(0);
        warm(&mut det, n, 5.0);
        // One failure → Suspect, boost 2.
        det.observe_failure(n, 5.0).unwrap();
        // One success: boost 1.0 ≥ 0.5·2.0 — still inside the band.
        assert!(det.observe_success(n, 5.5).is_none());
        assert_eq!(det.view(n), Health::Suspect);
        // Second success: boost 0.5 < 1.0 — recovered.
        let t = det.observe_success(n, 6.0).expect("past hysteresis");
        assert_eq!((t.from, t.to), (Health::Suspect, Health::Up));
    }

    #[test]
    fn down_recovers_only_after_probation() {
        let mut det = AccrualDetector::new(DetectorConfig::default());
        let n = node(0);
        warm(&mut det, n, 5.0);
        for k in 0..3 {
            det.observe_failure(n, 5.0 + 0.1 * f64::from(k));
        }
        assert_eq!(det.view(n), Health::Down);
        assert!(det.observe_success(n, 6.0).is_none(), "probation 1/3");
        assert!(det.observe_success(n, 7.0).is_none(), "probation 2/3");
        let t = det.observe_success(n, 8.0).expect("probation complete");
        assert_eq!((t.from, t.to), (Health::Down, Health::Up));
        // A failure mid-probation resets the streak.
        for k in 0..3 {
            det.observe_failure(n, 9.0 + 0.1 * f64::from(k));
        }
        det.observe_success(n, 10.0);
        det.observe_failure(n, 10.5);
        assert!(det.observe_success(n, 11.0).is_none());
        assert!(det.observe_success(n, 12.0).is_none());
        assert_eq!(det.view(n), Health::Down, "streak was reset");
    }

    #[test]
    fn unknown_nodes_are_benign() {
        let mut det = AccrualDetector::new(DetectorConfig::default());
        assert_eq!(det.phi(node(7), 100.0), 0.0);
        assert_eq!(det.view(node(7)), Health::Up);
        det.forget(node(7)); // no-op
    }

    #[test]
    fn self_tuning_on_a_steady_cadence_matches_the_fixed_thresholds() {
        let mut det = AccrualDetector::new(DetectorConfig::self_tuning(8));
        let n = node(0);
        warm(&mut det, n, 10.0); // perfectly steady 1s cadence: CV = 0
        let (s, d) = det.effective_thresholds(n);
        assert!((s - 2.0).abs() < 1e-12 && (d - 6.0).abs() < 1e-12, "CV 0 recovers baselines");
        // Same demotion walk as the fixed detector.
        let t1 = det.observe_failure(n, 10.0).expect("boost 2 crosses effective suspect 2");
        assert_eq!((t1.from, t1.to), (Health::Up, Health::Suspect));
    }

    #[test]
    fn self_tuning_raises_thresholds_under_jitter() {
        let mut det = AccrualDetector::new(DetectorConfig::self_tuning(8));
        let n = node(0);
        // Jittery cadence: gaps alternate 0.2s / 1.8s (mean 1, high CV).
        let mut t = 0.0;
        for k in 0..12 {
            t += if k % 2 == 0 { 0.2 } else { 1.8 };
            det.observe_success(n, t);
        }
        let (s, d) = det.effective_thresholds(n);
        assert!(s > 2.0 && d > 6.0, "jitter must raise both thresholds, got ({s}, {d})");
        assert!(d > s, "ordering preserved");
        // One failure (boost 2) no longer demotes: the bar moved with
        // the observed noise.
        assert!(det.observe_failure(n, t).is_none(), "eff suspect {s} > boost 2");
        assert_eq!(det.view(n), Health::Up);
    }

    #[test]
    fn effective_thresholds_default_to_the_config() {
        let det = AccrualDetector::new(DetectorConfig::default());
        assert_eq!(det.effective_thresholds(node(9)), (2.0, 6.0), "unknown node");
    }

    #[test]
    #[should_panic(expected = "self-tuning window")]
    fn config_rejects_tiny_tuning_window() {
        let _ = DetectorConfig::self_tuning(1);
    }

    #[test]
    #[should_panic(expected = "down_phi must exceed suspect_phi")]
    fn config_rejects_inverted_thresholds() {
        let _ = AccrualDetector::new(DetectorConfig {
            suspect_phi: 5.0,
            down_phi: 2.0,
            ..DetectorConfig::default()
        });
    }
}
