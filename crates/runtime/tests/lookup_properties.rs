//! Robustness of the sorted-id lookups behind the registry and the
//! accrual detector (vendored proptest shim).
//!
//! * The registry keeps `nodes()` strictly increasing by id under any
//!   interleaving of register, deregister and `set_health`, and its
//!   binary-searched `node(id)` agrees with a linear `find` for live,
//!   removed and never-issued ids.
//! * The detector's tracks are a table sorted by id: nodes observed in
//!   any interleaving behave exactly as if each had a detector of its
//!   own, and a hostile id such as `u64::MAX` costs one track — no
//!   panic, no storage in proportion to the id's value.

mod support;

use std::collections::BTreeMap;

use gtlb_runtime::{
    AccrualDetector, DetectorConfig, Health, HealthTransition, Node, NodeId, Registry,
};
use proptest::prelude::*;
use support::allocations_during;

fn health(pick: u64) -> Health {
    [Health::Up, Health::Suspect, Health::Draining, Health::Down][(pick % 4) as usize]
}

/// A detector track is a few hundred bytes; a table entry for one id
/// must stay within a small constant of that, whatever the id.
const ONE_TRACK_BYTES: u64 = 4096;

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
            let never = [NodeId::from_raw(issued.len() as u64), NodeId::from_raw(u64::MAX)];
            for &id in issued.iter().chain(&never) {
                let row = |n: &Node| (n.id(), n.health());
                let linear = registry.nodes().iter().find(|n| n.id() == id).map(row);
                prop_assert_eq!(registry.node(id).map(row), linear);
            }
        }
    }

    /// Observations of many nodes, interleaved and with ids spread over
    /// the whole `u64` range, give each node exactly the transitions a
    /// detector watching it alone would give; `forget` drops only its
    /// own node.
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
        let ids = [u64::MAX, 7, 0, u64::MAX / 3, 8].map(NodeId::from_raw);
        let mut shared = AccrualDetector::new(cfg);
        let mut alone: Vec<AccrualDetector> =
            ids.iter().map(|_| AccrualDetector::new(cfg)).collect();
        let mut t = 0.0;
        for &(pick, gap, kind) in &steps {
            let k = pick as usize;
            let n = ids[k];
            t += gap;
            let observe = |det: &mut AccrualDetector| -> Option<HealthTransition> {
                match kind {
                    0 => det.observe_failure(n, t),
                    1 => det.observe_success(n, t),
                    _ => {
                        det.forget(n);
                        None
                    }
                }
            };
            prop_assert_eq!(observe(&mut shared), observe(&mut alone[k]));
            for (j, &m) in ids.iter().enumerate() {
                prop_assert_eq!(shared.view(m), alone[j].view(m));
                let later = t + 1.0;
                prop_assert_eq!(shared.phi(m, later).to_bits(), alone[j].phi(m, later).to_bits());
                prop_assert_eq!(shared.effective_thresholds(m), alone[j].effective_thresholds(m));
            }
        }
    }
}

/// `observe_*`, `phi` and `forget` on `u64::MAX` neither panic nor
/// allocate in proportion to the id; reads of an unknown id allocate
/// nothing at all.
#[test]
fn the_largest_id_costs_one_track() {
    for cfg in [DetectorConfig::default(), DetectorConfig::self_tuning(8)] {
        let mut det = AccrualDetector::new(cfg);
        let max = NodeId::from_raw(u64::MAX);
        let (phi, allocations, _) = allocations_during(|| det.phi(max, 5.0));
        assert_eq!((phi, allocations), (0.0, 0), "reading an unknown id is free");
        let (_, _, bytes) = allocations_during(|| {
            for k in 0..4 {
                det.observe_success(max, f64::from(k));
            }
            det.observe_failure(max, 4.0);
            det.observe_failure(max, 4.1);
            det.observe_failure(max, 4.2)
        });
        assert!(bytes <= ONE_TRACK_BYTES, "one track took {bytes} bytes");
        assert_eq!(det.view(max), Health::Down);
        assert!(det.phi(max, 5.0) > 0.0);
        let (_, allocations, _) = allocations_during(|| det.forget(max));
        assert_eq!(allocations, 0);
        assert_eq!(det.view(max), Health::Up, "forgotten");
        assert_eq!(det.phi(max, 5.0), 0.0);
    }
}
