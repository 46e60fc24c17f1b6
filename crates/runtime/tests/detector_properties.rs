//! Property tests over the accrual detector (vendored proptest shim),
//! centered on the self-tuning mode. Each property watches one node
//! registered on a [`Runtime`], whose registry row owns the node's
//! track and health:
//!
//! 1. the effective thresholds are monotone in the observed
//!    interarrival variance (more jitter → a higher bar, never lower
//!    than the configured baseline) and never invert;
//! 2. hysteresis survives any observation cadence: recovery stays
//!    harder than demotion — `down > suspect` at every instant, a node
//!    never leaves Down without `probation_successes` consecutive
//!    successes, and no failure ever promotes;
//! 3. fixed-config mode is bit-identical to the pre-self-tuning
//!    detector: an inline reference model re-implementing the original
//!    arithmetic must agree on every φ bit and every view over
//!    arbitrary observation sequences.

use std::collections::HashMap;

use gtlb_runtime::detector::{
    DOWN_PHI, FAILURE_BOOST, INTERVAL_ALPHA, MIN_SAMPLES, RECOVERY_FACTOR, SUCCESS_DECAY,
    SUSPECT_PHI,
};
use gtlb_runtime::{DetectorConfig, Health, NodeId, Runtime};
use proptest::prelude::*;

/// A runtime with one registered node under `cfg`.
fn watch(cfg: DetectorConfig) -> (Runtime, NodeId) {
    let rt = Runtime::builder().detector(cfg).build();
    let n = rt.register_node(1.0).unwrap();
    (rt, n)
}

fn view(rt: &Runtime, n: NodeId) -> Health {
    rt.node_health(n).expect("registered")
}

/// Feeds a same-mean, `±spread` alternating cadence: gaps `g − d`,
/// `g + d`, … — variance grows with `d` while the mean stays `g`.
fn feed_alternating(rt: &Runtime, n: NodeId, gap: f64, spread: f64, beats: usize) {
    let mut t = 0.0;
    for k in 0..beats {
        t += if k % 2 == 0 { gap - spread } else { gap + spread };
        rt.observe_success(n, t).unwrap();
    }
}

/// The original fixed-threshold detector, re-implemented verbatim (EWMA
/// intervals, fixed `SUSPECT_PHI`/`DOWN_PHI`, boost/decay, hysteresis
/// band, probation streak) as the bit-identity oracle for property 3.
struct ReferenceDetector {
    cfg: DetectorConfig,
    tracks: HashMap<u64, RefTrack>,
}

struct RefTrack {
    mean: f64,
    samples: u64,
    last_seen: Option<f64>,
    boost: f64,
    streak: u32,
    view: Health,
}

impl ReferenceDetector {
    fn new(cfg: DetectorConfig) -> Self {
        Self { cfg, tracks: HashMap::new() }
    }

    fn track(&mut self, n: NodeId) -> &mut RefTrack {
        self.tracks.entry(n.raw()).or_insert(RefTrack {
            mean: 0.0,
            samples: 0,
            last_seen: None,
            boost: 0.0,
            streak: 0,
            view: Health::Up,
        })
    }

    fn phi(&self, n: NodeId, now: f64) -> f64 {
        let Some(t) = self.tracks.get(&n.raw()) else { return 0.0 };
        let silence = match t.last_seen {
            Some(last) if t.samples >= MIN_SAMPLES && t.mean > 0.0 => {
                ((now - last).max(0.0)) / (t.mean * std::f64::consts::LN_10)
            }
            _ => 0.0,
        };
        t.boost + silence
    }

    fn observe_success(&mut self, n: NodeId, t: f64) -> Health {
        let cfg = self.cfg;
        let track = self.track(n);
        if let Some(last) = track.last_seen {
            let gap = (t - last).max(0.0);
            if gap > 0.0 {
                // Ewma::observe, verbatim.
                if track.samples == 0 {
                    track.mean = gap;
                } else {
                    track.mean += INTERVAL_ALPHA * (gap - track.mean);
                }
                track.samples += 1;
            }
        }
        track.last_seen = Some(t);
        track.boost *= SUCCESS_DECAY;
        track.streak += 1;
        match track.view {
            Health::Down if track.streak >= cfg.probation_successes => track.view = Health::Up,
            Health::Suspect if track.boost < RECOVERY_FACTOR * SUSPECT_PHI => {
                track.view = Health::Up;
            }
            _ => {}
        }
        track.view
    }

    fn observe_failure(&mut self, n: NodeId, t: f64) -> Health {
        let track = self.track(n);
        track.boost += FAILURE_BOOST;
        track.streak = 0;
        let phi = self.phi(n, t);
        let track = self.tracks.get_mut(&n.raw()).expect("track just created");
        match track.view {
            Health::Up | Health::Suspect if phi >= DOWN_PHI => track.view = Health::Down,
            Health::Up if phi >= SUSPECT_PHI => track.view = Health::Suspect,
            _ => {}
        }
        track.view
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: more observed variance never lowers the bar. At a
    /// fixed mean cadence, a wider spread yields effective thresholds
    /// at least as high, both bounded below by the configured
    /// baselines, with `down > suspect` preserved.
    #[test]
    fn effective_thresholds_are_monotone_in_observed_variance(
        gap in 0.5f64..3.0,
        lo_frac in 0.0f64..0.45,
        hi_extra in 0.05f64..0.45,
        window in 4usize..16,
        beats in 8usize..40,
    ) {
        let lo = gap * lo_frac;
        let hi = gap * (lo_frac + hi_extra).min(0.9);
        let (calm, c) = watch(DetectorConfig::self_tuning(window));
        let (noisy, n) = watch(DetectorConfig::self_tuning(window));
        feed_alternating(&calm, c, gap, lo, beats);
        feed_alternating(&noisy, n, gap, hi, beats);
        let (cs, cd) = calm.effective_thresholds(c);
        let (ns, nd) = noisy.effective_thresholds(n);
        prop_assert!(ns >= cs - 1e-12, "suspect threshold fell with variance: {cs} -> {ns}");
        prop_assert!(nd >= cd - 1e-12, "down threshold fell with variance: {cd} -> {nd}");
        prop_assert!(cs >= SUSPECT_PHI - 1e-12 && ns >= SUSPECT_PHI - 1e-12,
            "never below the configured baseline");
        prop_assert!(cd > cs && nd > ns, "ordering preserved under tuning");
    }

    /// Property 2: hysteresis and probation survive any cadence. Over
    /// an arbitrary mix of successes and failures at arbitrary gaps,
    /// the effective thresholds never invert, a Down node re-enters Up
    /// only after `probation_successes` consecutive successes, and no
    /// failure ever promotes a node.
    #[test]
    fn hysteresis_is_preserved_under_any_cadence(
        window in 0usize..12, // 0 and 1 both exercise fixed mode
        steps in prop::collection::vec((0.0f64..4.0, 0u32..2), 1..80),
    ) {
        let cfg = if window >= 2 {
            DetectorConfig::self_tuning(window)
        } else {
            DetectorConfig::default()
        };
        let probation = cfg.probation_successes;
        let (rt, n) = watch(cfg);
        let mut t = 0.0;
        let mut streak: u32 = 0;
        for &(gap, success_bit) in &steps {
            let success = success_bit == 1;
            t += gap;
            let before = view(&rt, n);
            let transition = if success {
                streak += 1;
                rt.observe_success(n, t).unwrap()
            } else {
                streak = 0;
                rt.observe_failure(n, t).unwrap()
            };
            let after = view(&rt, n);
            let (s, d) = rt.effective_thresholds(n);
            prop_assert!(d > s, "effective thresholds inverted: suspect {s}, down {d}");
            prop_assert!(s > 0.0 && s.is_finite() && d.is_finite());
            if before == Health::Down && after == Health::Up {
                prop_assert!(success && streak >= probation,
                    "left Down with a streak of only {streak}");
            }
            if !success {
                // A failure must never promote: Suspect can't jump back
                // to Up, Down can't leave Down.
                prop_assert!(!(before == Health::Suspect && after == Health::Up));
                prop_assert!(!(before == Health::Down && after != Health::Down));
            }
            if let Some(tr) = transition {
                prop_assert_eq!(tr.to, after);
                prop_assert_eq!(tr.from, before);
            }
        }
    }

    /// Property 3: `self_tuning_window == 0` is the pre-self-tuning
    /// detector, bit for bit — every φ (probed at the observation time
    /// and into the silent future) and every view matches the inline
    /// reference model on arbitrary observation sequences.
    #[test]
    fn fixed_config_mode_is_bit_identical_to_the_reference(
        steps in prop::collection::vec((0.0f64..4.0, 0u32..2), 1..80),
        probe_offset in 0.1f64..50.0,
    ) {
        let cfg = DetectorConfig::default();
        let (rt, n) = watch(cfg);
        let mut oracle = ReferenceDetector::new(cfg);
        let mut t = 0.0;
        for &(gap, success_bit) in &steps {
            let success = success_bit == 1;
            t += gap;
            let want = if success {
                rt.observe_success(n, t).unwrap();
                oracle.observe_success(n, t)
            } else {
                rt.observe_failure(n, t).unwrap();
                oracle.observe_failure(n, t)
            };
            prop_assert_eq!(view(&rt, n), want, "views diverged at t={}", t);
            prop_assert_eq!(
                rt.suspicion(n, t).to_bits(), oracle.phi(n, t).to_bits(),
                "φ diverged at the observation instant t={}", t
            );
            prop_assert_eq!(
                rt.suspicion(n, t + probe_offset).to_bits(),
                oracle.phi(n, t + probe_offset).to_bits(),
                "silence-term φ diverged at t={}", t + probe_offset
            );
            let (s, d) = rt.effective_thresholds(n);
            prop_assert_eq!(s.to_bits(), SUSPECT_PHI.to_bits());
            prop_assert_eq!(d.to_bits(), DOWN_PHI.to_bits());
        }
    }
}
