//! Robustness of the sorted-id lookups behind the registry rows
//! (vendored proptest shim).
//!
//! * The registry keeps `nodes()` strictly increasing by id under any
//!   interleaving of register, deregister and `set_health`, and its
//!   `node(id)` — a guess at the id's own index, then a binary search
//!   below it — agrees with a linear `find` for live, removed and
//!   never-issued ids, also once deregistrations have moved rows below
//!   their ids; an absent id answers unknown without allocating.
//! * Each row owns its node's detector track. Nodes of one [`Runtime`]
//!   observed in any interleaving behave exactly as if each had a
//!   runtime of its own, and a hostile id such as `u64::MAX` gets no
//!   row and so no track: no panic, no allocation.
//! * Under any interleaving of lifecycle calls, marks and observations,
//!   every live node answers exactly as a model of one track plus one
//!   health value would, and an unknown id (removed, never issued, or
//!   `u64::MAX`) answers as unregistered without allocating.

mod support;

use std::collections::{BTreeMap, VecDeque};

use gtlb_runtime::detector::{
    DOWN_PHI, FAILURE_BOOST, INTERVAL_ALPHA, MIN_SAMPLES, RECOVERY_FACTOR, SUCCESS_DECAY,
    SUSPECT_PHI,
};
use gtlb_runtime::{
    DetectorConfig, Health, HealthTransition, Node, NodeId, Registry, Runtime, RuntimeError,
};
use proptest::prelude::*;
use support::allocations_during;

fn health(pick: u64) -> Health {
    [Health::Up, Health::Suspect, Health::Draining, Health::Down][(pick % 4) as usize]
}

/// The model of one registered node: one health value and one accrual
/// track, re-derived from the detector's documented rules. A mark sets
/// the health and clears the probation streak; a draining node ignores
/// observations.
struct ModelNode {
    health: Health,
    /// The interval EWMA's value and the gaps folded into it.
    mean: f64,
    samples: u64,
    /// The last `self_tuning_window` gaps (self-tuning mode only).
    gaps: VecDeque<f64>,
    last_seen: Option<f64>,
    boost: f64,
    streak: u32,
}

impl ModelNode {
    fn new() -> Self {
        Self {
            health: Health::Up,
            mean: 0.0,
            samples: 0,
            gaps: VecDeque::new(),
            last_seen: None,
            boost: 0.0,
            streak: 0,
        }
    }

    fn mark(&mut self, health: Health) -> Health {
        self.streak = 0;
        std::mem::replace(&mut self.health, health)
    }

    /// Both thresholds scaled by `1 + σ/μ` over the gap window (by 1
    /// in fixed mode or before two gaps have landed).
    fn thresholds(&self, cfg: &DetectorConfig) -> (f64, f64) {
        let n = self.gaps.len() as f64;
        let mean = self.gaps.iter().sum::<f64>() / n;
        let scale = if cfg.self_tuning_window == 0 || self.gaps.len() < 2 || mean <= 0.0 {
            1.0
        } else {
            let var = self.gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / (n - 1.0);
            1.0 + var.sqrt() / mean
        };
        (SUSPECT_PHI * scale, DOWN_PHI * scale)
    }

    /// Accrued boost plus silence since the last success, in units of
    /// the observed cadence (the window mean when self-tuning, the
    /// EWMA otherwise), once enough gaps back it.
    fn phi(&self, cfg: &DetectorConfig, now: f64) -> f64 {
        let cadence = if cfg.self_tuning_window > 0 {
            let need = MIN_SAMPLES.min(cfg.self_tuning_window as u64) as usize;
            let n = self.gaps.len();
            (n >= need && n > 0).then(|| self.gaps.iter().sum::<f64>() / n as f64)
        } else {
            (self.samples >= MIN_SAMPLES).then_some(self.mean)
        };
        let silence = match (self.last_seen, cadence) {
            (Some(last), Some(mean)) if mean > 0.0 => {
                (now - last).max(0.0) / (mean * std::f64::consts::LN_10)
            }
            _ => 0.0,
        };
        self.boost + silence
    }

    /// One observation at `t`; the `(from, to)` move it causes, if any.
    fn observe(&mut self, cfg: &DetectorConfig, t: f64, success: bool) -> Option<(Health, Health)> {
        let from = self.health;
        if from == Health::Draining {
            return None;
        }
        if success {
            let gap = self.last_seen.map_or(0.0, |last| (t - last).max(0.0));
            if gap > 0.0 {
                let first = self.samples == 0;
                self.mean =
                    if first { gap } else { self.mean + INTERVAL_ALPHA * (gap - self.mean) };
                self.samples += 1;
                if cfg.self_tuning_window > 0 {
                    self.gaps.push_back(gap);
                    if self.gaps.len() > cfg.self_tuning_window {
                        self.gaps.pop_front();
                    }
                }
            }
            self.last_seen = Some(t);
            self.boost *= SUCCESS_DECAY;
            self.streak += 1;
            let recovered = match from {
                Health::Down => self.streak >= cfg.probation_successes,
                Health::Suspect => self.boost < RECOVERY_FACTOR * self.thresholds(cfg).0,
                _ => false,
            };
            if recovered {
                self.health = Health::Up;
            }
        } else {
            self.boost += FAILURE_BOOST;
            self.streak = 0;
            let phi = self.phi(cfg, t);
            let (suspect, down) = self.thresholds(cfg);
            if phi >= down {
                self.health = Health::Down;
            } else if phi >= suspect && from == Health::Up {
                self.health = Health::Suspect;
            }
        }
        (self.health != from).then_some((from, self.health))
    }
}

/// Ids no registration has issued yet: the next one, and `u64::MAX`.
fn never_issued(issued: &[NodeId]) -> [NodeId; 2] {
    [NodeId::from_raw(issued.len() as u64), NodeId::from_raw(u64::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Register (op 0), deregister (op 1) and `set_health` (op 2) in any
    /// order keep the registry sorted by id, and every lookup — live,
    /// removed, never issued — answers as a linear scan would.
    #[test]
    fn registry_stays_sorted_and_lookups_match_a_linear_find(
        ops in prop::collection::vec((0u32..3, 0u64..64, 0u64..4), 1..80),
    ) {
        let mut registry = Registry::new(16);
        let mut model: BTreeMap<NodeId, Health> = BTreeMap::new();
        let mut issued: Vec<NodeId> = Vec::new();
        for &(op, pick, h) in &ops {
            let target = (!issued.is_empty()).then(|| issued[pick as usize % issued.len()]);
            match (op, target) {
                (1, Some(id)) => {
                    let removed = registry.deregister(id);
                    prop_assert_eq!(removed.is_ok(), model.remove(&id).is_some());
                }
                (2, Some(id)) => {
                    let old = registry.set_health(id, health(h)).ok();
                    let want = model.get_mut(&id).map(|slot| std::mem::replace(slot, health(h)));
                    prop_assert_eq!(old, want);
                }
                _ => {
                    let id = registry.register(1.0 + pick as f64).unwrap();
                    issued.push(id);
                    model.insert(id, Health::Up);
                }
            }
            let ids: Vec<NodeId> = registry.nodes().iter().map(Node::id).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "not increasing: {:?}", ids);
            prop_assert_eq!(&ids, &model.keys().copied().collect::<Vec<_>>());
            for &id in issued.iter().chain(&never_issued(&issued)) {
                let row = |n: &Node| (n.id(), n.health());
                let linear = registry.nodes().iter().find(|n| n.id() == id).map(row);
                prop_assert_eq!(registry.node(id).map(row), linear);
            }
        }
    }

    /// A registry of ids `0..n` with some of them deregistered, so that
    /// rows sit below their ids and the lookup's first guess misses:
    /// every id answers as a linear scan would, and every absent one —
    /// removed, past the last issued, up to `u64::MAX` — answers unknown
    /// to each lookup without allocating.
    #[test]
    fn guessed_lookups_survive_deregistration_and_unissued_ids(
        n in 1u64..80,
        removed in prop::collection::vec(0u64..96, 0..48),
        past in prop::collection::vec(0u64..1_000, 1..8),
    ) {
        let mut registry = Registry::new(16);
        for k in 0..n {
            prop_assert_eq!(registry.register(1.0 + k as f64).unwrap(), NodeId::from_raw(k));
        }
        for &raw in &removed {
            let id = NodeId::from_raw(raw);
            let live = registry.nodes().iter().any(|row| row.id() == id);
            prop_assert_eq!(registry.deregister(id).is_ok(), live);
        }
        let far = [u64::MAX, u64::MAX - 1, u64::MAX / 2, 1 << 32];
        let probes = (0..n).chain(past.iter().map(|&p| n + p)).chain(far).map(NodeId::from_raw);
        for id in probes {
            let linear = registry.nodes().iter().find(|row| row.id() == id).map(Node::id);
            prop_assert_eq!(registry.node(id).map(Node::id), linear);
            if linear.is_none() {
                let (answers, allocations, _) = allocations_during(|| {
                    [
                        registry.node(id).map(|_| ()).ok_or(RuntimeError::UnknownNode(id)),
                        registry.set_health(id, Health::Down).map(|_| ()),
                        registry.observe_service(id, 1.0),
                        registry.set_nominal_rate(id, 2.0),
                        registry.deregister(id).map(|_| ()),
                    ]
                });
                prop_assert_eq!(answers, [0; 5].map(|_| Err(RuntimeError::UnknownNode(id))));
                prop_assert_eq!(allocations, 0, "{} allocated", id);
            }
        }
    }

    /// Failures (kind 0), successes (1) and deregistrations (2) aimed at
    /// five nodes of one runtime, in any interleaving, give each node
    /// exactly the transitions, φ and thresholds a runtime watching it
    /// alone would give: a row's track moves with its row when a
    /// deregistration shifts the table, and no row reads another's.
    #[test]
    fn detector_tracks_are_independent_per_id(
        steps in prop::collection::vec((0u64..5, 0.0f64..3.0, 0u32..3), 1..120),
        window in 0usize..6,
    ) {
        let cfg = if window >= 2 {
            DetectorConfig::self_tuning(window)
        } else {
            DetectorConfig::default()
        };
        let with_nodes = |n: usize| {
            let rt = Runtime::builder().detector(cfg).build();
            let ids: Vec<NodeId> = (0..n).map(|_| rt.register_node(1.0).unwrap()).collect();
            (rt, ids)
        };
        let (shared, ids) = with_nodes(5);
        let alone: Vec<(Runtime, NodeId)> = ids
            .iter()
            .map(|_| {
                let (rt, only) = with_nodes(1);
                (rt, only[0])
            })
            .collect();
        let mut t = 0.0;
        for &(pick, gap, kind) in &steps {
            let k = pick as usize;
            t += gap;
            // The runtimes issue different ids, so compare everything
            // but the id and check the id separately.
            let step = |rt: &Runtime, id: NodeId| {
                let observed = match kind {
                    0 => rt.observe_failure(id, t),
                    1 => rt.observe_success(id, t),
                    _ => rt.deregister_node(id).map(|()| None),
                };
                let moved = |tr: HealthTransition| (tr.node == id, tr.from, tr.to, tr.at.to_bits());
                observed.ok().map(|tr| tr.map(moved))
            };
            prop_assert_eq!(step(&shared, ids[k]), step(&alone[k].0, alone[k].1));
            let later = t + 1.0;
            for (&id, (rt, only)) in ids.iter().zip(&alone) {
                prop_assert_eq!(shared.node_health(id), rt.node_health(*only));
                let phi = (shared.suspicion(id, later), rt.suspicion(*only, later));
                prop_assert_eq!(phi.0.to_bits(), phi.1.to_bits());
                let (s, d) = shared.effective_thresholds(id);
                let (os, od) = rt.effective_thresholds(*only);
                prop_assert_eq!((s.to_bits(), d.to_bits()), (os.to_bits(), od.to_bits()));
            }
        }
    }

    /// Register (op 0), deregister (1), drain (2), `mark_up` (3),
    /// `mark_suspect` (4), `mark_down` (5), `observe_success` (6) and
    /// `observe_failure` (7), each aimed at a live, removed or
    /// never-issued id. After every step, each live node's health, φ
    /// bits and effective thresholds match its model, and every
    /// unknown id answers `Ok(None)`, φ 0 and the fixed thresholds
    /// without allocating.
    #[test]
    fn runtime_rows_match_a_per_node_model(
        ops in prop::collection::vec((0u32..8, 0u64..64, 0.0f64..3.0), 1..120),
        window in 0usize..6,
    ) {
        let cfg = if window >= 2 {
            DetectorConfig::self_tuning(window)
        } else {
            DetectorConfig::default()
        };
        let rt = Runtime::builder().detector(cfg).build();
        let mut model: BTreeMap<NodeId, ModelNode> = BTreeMap::new();
        let mut issued: Vec<NodeId> = Vec::new();
        let mut t = 0.0;
        for &(op, pick, gap) in &ops {
            t += gap;
            let targets = [&issued[..], &never_issued(&issued)].concat();
            let id = targets[pick as usize % targets.len()];
            match op {
                0 => {
                    let id = rt.register_node(1.0).unwrap();
                    prop_assert_eq!(id, never_issued(&issued)[0], "ids are issued in order");
                    issued.push(id);
                    model.insert(id, ModelNode::new());
                }
                1 => prop_assert_eq!(rt.deregister_node(id).is_ok(), model.remove(&id).is_some()),
                2..=5 => {
                    let (got, health) = match op {
                        2 => (rt.drain_node(id), Health::Draining),
                        3 => (rt.mark_up(id), Health::Up),
                        4 => (rt.mark_suspect(id), Health::Suspect),
                        _ => (rt.mark_down(id), Health::Down),
                    };
                    let want = model.get_mut(&id).map(|m| m.mark(health));
                    prop_assert_eq!(got, want.ok_or(RuntimeError::UnknownNode(id)));
                }
                _ => {
                    let success = op == 6;
                    let got = if success {
                        rt.observe_success(id, t)
                    } else {
                        rt.observe_failure(id, t)
                    };
                    let got = got.unwrap().map(|tr| (tr.node, tr.from, tr.to, tr.at.to_bits()));
                    let want = model.get_mut(&id).and_then(|m| m.observe(&cfg, t, success));
                    prop_assert_eq!(got, want.map(|(from, to)| (id, from, to, t.to_bits())));
                }
            }
            prop_assert_eq!(rt.node_ids(), model.keys().copied().collect::<Vec<_>>());
            let later = t + 1.0;
            for &id in issued.iter().chain(&never_issued(&issued)) {
                if let Some(m) = model.get(&id) {
                    prop_assert_eq!(rt.node_health(id), Some(m.health));
                    let phi = rt.suspicion(id, later);
                    prop_assert_eq!(phi.to_bits(), m.phi(&cfg, later).to_bits());
                    let (s, d) = rt.effective_thresholds(id);
                    let (ms, md) = m.thresholds(&cfg);
                    prop_assert_eq!((s.to_bits(), d.to_bits()), (ms.to_bits(), md.to_bits()));
                } else {
                    let (answers, allocations, _) = allocations_during(|| {
                        let observed = (rt.observe_success(id, t), rt.observe_failure(id, t));
                        let read = (rt.suspicion(id, later), rt.effective_thresholds(id));
                        (observed, read, rt.node_health(id))
                    });
                    let fixed = (SUSPECT_PHI, DOWN_PHI);
                    let unregistered = ((Ok(None), Ok(None)), (0.0, fixed), None);
                    prop_assert_eq!(answers, unregistered, "{} answered as registered", id);
                    prop_assert_eq!(allocations, 0, "{} allocated", id);
                }
            }
        }
    }
}

/// `u64::MAX` is an id no registration issues, so it never gets a row
/// and never a track. Observing, reading, marking, draining and
/// deregistering it neither panics nor allocates, which keeps it well
/// inside one track's cost, and the registered node beside it keeps its
/// own track untouched.
#[test]
fn the_largest_id_costs_one_track() {
    for cfg in [DetectorConfig::default(), DetectorConfig::self_tuning(8)] {
        let rt = Runtime::builder().detector(cfg).build();
        let node = rt.register_node(1.0).unwrap();
        for k in 0..4 {
            rt.observe_success(node, f64::from(k)).unwrap();
        }
        let view = |id| {
            let (s, d) = rt.effective_thresholds(id);
            (rt.node_health(id), rt.suspicion(id, 5.0).to_bits(), s.to_bits(), d.to_bits())
        };
        let before = view(node);
        let max = NodeId::from_raw(u64::MAX);
        let (answers, allocations, _) = allocations_during(|| {
            let observed = [
                rt.observe_success(max, 0.0),
                rt.observe_success(max, 1.0),
                rt.observe_failure(max, 4.0),
                rt.observe_failure(max, 4.1),
            ];
            let marked =
                [rt.mark_down(max), rt.mark_suspect(max), rt.mark_up(max), rt.drain_node(max)];
            let read = (rt.node_health(max), rt.suspicion(max, 5.0), rt.effective_thresholds(max));
            (observed, marked, read, rt.deregister_node(max))
        });
        assert_eq!(allocations, 0, "an unknown id allocated");
        let (observed, marked, read, deregistered) = answers;
        assert_eq!(observed, [Ok(None), Ok(None), Ok(None), Ok(None)]);
        assert_eq!(marked, [0; 4].map(|_| Err(RuntimeError::UnknownNode(max))));
        assert_eq!(read, (None, 0.0, (SUSPECT_PHI, DOWN_PHI)));
        assert_eq!(deregistered, Err(RuntimeError::UnknownNode(max)));
        assert_eq!(view(node), before, "the registered node's track changed");
        assert_eq!(rt.node_ids(), vec![node]);
    }
}
