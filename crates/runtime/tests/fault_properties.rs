//! Property tests over the fault injector's per-node index (vendored
//! proptest shim).
//!
//! `FaultInjector` indexes its plan by node once and folds one node's
//! slice per query. The oracle here is the linear scan it replaced: a
//! node's events, filtered from the whole plan. Over random plans —
//! overlapping windows of every kind, and events striking a group of
//! nodes at one time — both must agree on every query
//! (`service_factor` to the bit) and on every drop decision in
//! sequence, which pins the draw order of the flaky and gray streams.
//! Ids the plan never names answer "no fault" without allocating.

mod support;

use std::collections::HashMap;

use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_runtime::{
    DropCause, FaultInjector, FaultKind, FaultPlan, NodeId, PartitionDirection, ADVERSARIAL_STREAM,
    FAULT_STREAM,
};
use proptest::prelude::*;
use support::allocations_during;

/// Nodes the generated plans name; probes also ask about ids beyond.
const PLAN_NODES: u64 = 4;

fn node(raw: u64) -> NodeId {
    NodeId::from_raw(raw)
}

/// The plan nodes whose bit is set in `mask`.
fn group(mask: u64) -> impl Iterator<Item = NodeId> {
    (0..PLAN_NODES).filter(move |i| mask >> i & 1 == 1).map(node)
}

/// Builds a plan from generated steps `(op, pick, at, lasts, x)`: ops
/// 0–6 schedule one event on node `pick % PLAN_NODES`; ops 7–13
/// schedule one event at one time on every node whose bit is set in
/// `pick`, as a rack that fails together, so windows open and close at
/// once across nodes. `x ∈ [0, 1)` parameterises factors and
/// probabilities.
fn build_plan(seed: u64, steps: &[(usize, u64, f64, f64, f64)]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for &(op, pick, at, lasts, x) in steps {
        let factor = 1.0 - 0.95 * x;
        let (inflation, loss) = (1.0 + 2.0 * x, 0.05 + 0.5 * x);
        let event = |plan: FaultPlan, n: NodeId| match op % 7 {
            0 => plan.crash(n, at),
            1 => plan.crash_recover(n, at, lasts),
            2 => plan.slow(n, at, lasts, factor),
            3 => plan.flaky(n, at, lasts, 1.0 - x),
            4 => plan.partition(n, at, lasts, PartitionDirection::DropDispatch),
            5 => plan.partition(n, at, lasts, PartitionDirection::DropHeartbeats),
            _ => plan.gray(n, at, lasts, inflation, loss),
        };
        plan = if op < 7 {
            event(plan, node(pick % PLAN_NODES))
        } else {
            group(pick).fold(plan, event)
        };
    }
    plan
}

/// The linear-scan injector, as it was before the index: every query
/// filters the whole plan.
struct Reference {
    plan: FaultPlan,
    flaky: HashMap<u64, Xoshiro256PlusPlus>,
    gray: HashMap<u64, Xoshiro256PlusPlus>,
}

impl Reference {
    fn new(plan: FaultPlan) -> Self {
        Self { plan, flaky: HashMap::new(), gray: HashMap::new() }
    }

    fn events_on(&self, n: NodeId) -> Vec<(f64, FaultKind)> {
        self.plan.events().iter().filter(|e| e.node == n).map(|e| (e.at, e.kind)).collect()
    }

    fn crashed(&self, n: NodeId, t: f64) -> bool {
        self.events_on(n).into_iter().any(|(at, kind)| match kind {
            FaultKind::Crash => t >= at,
            FaultKind::CrashRecover { down_for } => t >= at && t < at + down_for,
            _ => false,
        })
    }

    fn partitioned(&self, n: NodeId, t: f64, direction: PartitionDirection) -> bool {
        self.events_on(n).into_iter().any(|(at, kind)| match kind {
            FaultKind::Partition { direction: d, lasts } => {
                d == direction && t >= at && t < at + lasts
            }
            _ => false,
        })
    }

    fn service_factor(&self, n: NodeId, t: f64) -> f64 {
        self.events_on(n)
            .into_iter()
            .filter_map(|(at, kind)| match kind {
                FaultKind::Slow { factor, lasts } if t >= at && t < at + lasts => Some(factor),
                FaultKind::Gray { inflation, lasts, .. } if t >= at && t < at + lasts => {
                    Some(1.0 / inflation)
                }
                _ => None,
            })
            .product()
    }

    fn drop_probability(&self, n: NodeId, t: f64) -> f64 {
        if self.crashed(n, t) {
            return 1.0;
        }
        self.events_on(n)
            .into_iter()
            .filter_map(|(at, kind)| match kind {
                FaultKind::Flaky { drop_probability, lasts } if t >= at && t < at + lasts => {
                    Some(drop_probability)
                }
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    fn gray_loss_probability(&self, n: NodeId, t: f64) -> f64 {
        self.events_on(n)
            .into_iter()
            .filter_map(|(at, kind)| match kind {
                FaultKind::Gray { loss_probability, lasts, .. } if t >= at && t < at + lasts => {
                    Some(loss_probability)
                }
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    fn attempt_drop(&mut self, n: NodeId, t: f64, cut: PartitionDirection) -> Option<DropCause> {
        if self.crashed(n, t) {
            return Some(DropCause::Crash);
        }
        if self.partitioned(n, t, cut) {
            return Some(DropCause::Partition);
        }
        let seed = self.plan.seed();
        let p = self.drop_probability(n, t);
        if p > 0.0 {
            let rng = self.flaky.entry(n.raw()).or_insert_with(|| {
                Xoshiro256PlusPlus::stream(seed, FAULT_STREAM.wrapping_add(n.raw()))
            });
            if rng.next_open01() < p {
                return Some(DropCause::Flaky);
            }
        }
        let p = self.gray_loss_probability(n, t);
        if p > 0.0 {
            let rng = self.gray.entry(n.raw()).or_insert_with(|| {
                Xoshiro256PlusPlus::stream(seed, ADVERSARIAL_STREAM.wrapping_add(n.raw()))
            });
            if rng.next_open01() < p {
                return Some(DropCause::Gray);
            }
        }
        None
    }
}

fn step_strategy() -> impl Strategy<Value = (usize, u64, f64, f64, f64)> {
    (0usize..14, 0u64..1 << PLAN_NODES, 0.0f64..20.0, 1.0f64..25.0, 0.0f64..1.0)
}

/// A probe id: mostly plan nodes, sometimes an id the plan never names,
/// sometimes the largest id there is.
fn probe_node(pick: u64) -> NodeId {
    match pick {
        0 => node(u64::MAX),
        1 => node(PLAN_NODES + 3),
        _ => node(pick % PLAN_NODES),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every stateless query of the indexed injector equals the linear
    /// scan, `service_factor` to the bit.
    #[test]
    fn indexed_queries_match_the_linear_scan(
        seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 1..40),
        probes in prop::collection::vec((0u64..12, 0.0f64..40.0), 1..60),
    ) {
        let plan = build_plan(seed, &steps);
        let reference = Reference::new(plan.clone());
        let injector = FaultInjector::new(plan);
        for &(pick, t) in &probes {
            let n = probe_node(pick);
            prop_assert_eq!(injector.crashed(n, t), reference.crashed(n, t));
            for d in [PartitionDirection::DropDispatch, PartitionDirection::DropHeartbeats] {
                prop_assert_eq!(injector.partitioned(n, t, d), reference.partitioned(n, t, d));
            }
            prop_assert_eq!(
                injector.drop_probability(n, t).to_bits(),
                reference.drop_probability(n, t).to_bits()
            );
            prop_assert_eq!(
                injector.gray_loss_probability(n, t).to_bits(),
                reference.gray_loss_probability(n, t).to_bits()
            );
            prop_assert_eq!(
                injector.service_factor(n, t).to_bits(),
                reference.service_factor(n, t).to_bits(),
                "service factor of {} at {}", n, t
            );
        }
    }

    /// Dispatch and heartbeat decisions, interleaved over random
    /// `(node, t)` probes, produce the same sequence as the linear scan:
    /// the same causes, hence the same flaky and gray draws in the same
    /// order.
    #[test]
    fn drop_decision_sequences_match_the_linear_scan(
        seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 1..40),
        probes in prop::collection::vec((0u64..12, 0.0f64..40.0, 0u32..2), 1..160),
    ) {
        let plan = build_plan(seed, &steps);
        let mut reference = Reference::new(plan.clone());
        let mut injector = FaultInjector::new(plan);
        for (k, &(pick, t, heartbeat)) in probes.iter().enumerate() {
            let n = probe_node(pick);
            if heartbeat == 1 {
                let want = reference.attempt_drop(n, t, PartitionDirection::DropHeartbeats);
                prop_assert_eq!(injector.heartbeat_drops(n, t), want.is_some(), "probe {}", k);
            } else {
                let want = reference.attempt_drop(n, t, PartitionDirection::DropDispatch);
                prop_assert_eq!(injector.dispatch_drop_cause(n, t), want, "probe {}", k);
            }
        }
    }

    /// An id the plan never names — including `u64::MAX` — has no fault
    /// at any time, and asking costs no allocation, whatever the plan.
    #[test]
    fn absent_ids_answer_no_fault_without_allocating(
        seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 0..40),
        t in 0.0f64..40.0,
    ) {
        let mut injector = FaultInjector::new(build_plan(seed, &steps));
        for n in [node(u64::MAX), node(PLAN_NODES), node(u64::MAX / 2)] {
            let (answers, allocations, _) = allocations_during(|| {
                (
                    injector.crashed(n, t),
                    injector.partitioned(n, t, PartitionDirection::DropDispatch),
                    injector.partitioned(n, t, PartitionDirection::DropHeartbeats),
                    injector.service_factor(n, t),
                    injector.drop_probability(n, t),
                    injector.gray_loss_probability(n, t),
                    injector.dispatch_drop_cause(n, t),
                    injector.heartbeat_drops(n, t),
                )
            });
            prop_assert_eq!(answers, (false, false, false, 1.0, 0.0, 0.0, None, false));
            prop_assert_eq!(allocations, 0, "lookup of {} allocated", n);
        }
    }
}

/// The times at which one of `events` opens or closes: each `at`, and
/// its end `at + lasts` (or `at + down_for`) computed as the injector
/// computes it.
fn edges(events: &[(f64, FaultKind)]) -> Vec<f64> {
    let mut out = Vec::new();
    for &(at, kind) in events {
        out.push(at);
        match kind {
            FaultKind::Crash => {}
            FaultKind::CrashRecover { down_for } => out.push(at + down_for),
            FaultKind::Slow { lasts, .. }
            | FaultKind::Flaky { lasts, .. }
            | FaultKind::Partition { lasts, .. }
            | FaultKind::Gray { lasts, .. } => out.push(at + lasts),
        }
    }
    out
}

/// `t` moved by `n` units in the last place (`t ≥ 0`).
fn ulps(t: f64, n: i64) -> f64 {
    match n {
        0 => t,
        _ if t == 0.0 && n < 0 => -f64::from_bits(n.unsigned_abs()),
        _ => f64::from_bits(t.to_bits().wrapping_add_signed(n)),
    }
}

/// The three neighbours of an edge in one of their six orders.
fn neighbours(edge: f64, order: u64) -> [f64; 3] {
    let [a, b, c] = [ulps(edge, -1), edge, ulps(edge, 1)];
    match order % 6 {
        0 => [a, b, c],
        1 => [a, c, b],
        2 => [b, a, c],
        3 => [b, c, a],
        4 => [c, a, b],
        _ => [c, b, a],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One injector asked every kind of query, drop decisions included,
    /// at times that jump back and forth: mostly an edge of the probed
    /// node's events and the floats one ulp either side of it, in any
    /// order, sometimes an arbitrary time, and sometimes NaN or ±∞
    /// followed by an arbitrary time. Every answer equals the linear
    /// scan's, `service_factor` to the bit, so a fold kept for a window
    /// never outlives the window.
    #[test]
    fn queries_at_window_edges_match_the_linear_scan(
        seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 1..40),
        probes in prop::collection::vec(
            (0u64..12, 0u64..1_000, 0u64..6, 0u32..8, 0.0f64..60.0),
            1..120,
        ),
    ) {
        let plan = build_plan(seed, &steps);
        let mut reference = Reference::new(plan.clone());
        let mut injector = FaultInjector::new(plan);
        for (k, &(pick, edge, order, kind, free)) in probes.iter().enumerate() {
            let n = probe_node(pick);
            let own = edges(&reference.events_on(n));
            let times = match (own.is_empty(), edge % 10) {
                (false, 0..=6) => neighbours(own[edge as usize % own.len()], order),
                (_, 7) => {
                    [[f64::NAN, f64::INFINITY, f64::NEG_INFINITY][order as usize % 3], free, free]
                }
                _ => [free, ulps(free, 1), free + 1.0],
            };
            for t in times {
                let d = [PartitionDirection::DropDispatch, PartitionDirection::DropHeartbeats]
                    [(kind % 2) as usize];
                match kind {
                    0 => prop_assert_eq!(injector.crashed(n, t), reference.crashed(n, t)),
                    1 | 2 => prop_assert_eq!(
                        injector.partitioned(n, t, d),
                        reference.partitioned(n, t, d)
                    ),
                    3 => prop_assert_eq!(
                        injector.service_factor(n, t).to_bits(),
                        reference.service_factor(n, t).to_bits(),
                        "service factor of {} at {} (probe {})", n, t, k
                    ),
                    4 => prop_assert_eq!(
                        injector.drop_probability(n, t).to_bits(),
                        reference.drop_probability(n, t).to_bits()
                    ),
                    5 => prop_assert_eq!(
                        injector.gray_loss_probability(n, t).to_bits(),
                        reference.gray_loss_probability(n, t).to_bits()
                    ),
                    6 => {
                        let want = reference.attempt_drop(n, t, PartitionDirection::DropDispatch);
                        prop_assert_eq!(injector.dispatch_drop_cause(n, t), want, "probe {}", k);
                    }
                    _ => {
                        let want = reference.attempt_drop(n, t, PartitionDirection::DropHeartbeats);
                        let got = injector.heartbeat_drops(n, t);
                        prop_assert_eq!(got, want.is_some(), "probe {}", k);
                    }
                }
            }
        }
    }
}

/// The largest id may itself carry faults: its flaky and gray streams
/// derive with a wrapping offset instead of overflowing.
#[test]
fn the_largest_id_can_be_faulted() {
    let max = node(u64::MAX);
    let plan = FaultPlan::new(3).flaky(max, 0.0, 10.0, 0.5).gray(max, 0.0, 10.0, 2.0, 0.5);
    let mut reference = Reference::new(plan.clone());
    let mut injector = FaultInjector::new(plan);
    assert_eq!(injector.service_factor(max, 1.0), 0.5);
    for k in 0..64 {
        let t = f64::from(k) * 0.1;
        let want = reference.attempt_drop(max, t, PartitionDirection::DropDispatch);
        assert_eq!(injector.dispatch_drop_cause(max, t), want, "attempt {k}");
    }
    assert!(!injector.crashed(node(0), 1.0), "a neighbour of nothing stays healthy");
}
