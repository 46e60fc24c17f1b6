//! Property tests for the routing hot path (vendored proptest shim):
//!
//! 1. alias-method routing agrees **in distribution** with the reference
//!    inverse-CDF router ([`support::CdfRouter`]) — a chi-square
//!    statistic of each path's sample counts against the expected
//!    counts stays far below any plausible rejection threshold, for
//!    random weight vectors;
//! 2. neither path ever returns a zero-probability node, for weight
//!    vectors with zeros injected at random positions;
//! 3. batch routing replays the per-job decision sequence draw for draw,
//!    for random weights, seeds, and batch splits.
//!
//! Two fixed-table tests pin the reference router itself: its
//! boundaries and clamping, and its agreement with the alias path on a
//! fine grid.

mod support;

use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_runtime::{EpochSwap, NodeId, RoutingTable, ShardedDispatcher};
use proptest::prelude::*;
use std::sync::Arc;
use support::CdfRouter;

/// Weights bounded away from zero (so chi-square expected counts are
/// healthy), 1–11 nodes.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..1.0, 1..12)
}

/// Weights where each node is zeroed with probability ~1/4 — at least
/// one survivor is enforced by construction.
fn arb_weights_with_zeros() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.05f64..1.0, 0u32..4), 1..12).prop_map(|pairs| {
        let mut weights: Vec<f64> =
            pairs.iter().map(|&(w, keep)| if keep == 0 { 0.0 } else { w }).collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = pairs[0].0;
        }
        weights
    })
}

fn table_from(weights: &[f64]) -> RoutingTable {
    let ids = (0..weights.len() as u64).map(NodeId::from_raw).collect();
    RoutingTable::new(1, ids, weights).unwrap()
}

/// Pearson chi-square statistic of observed counts against `n·pᵢ`,
/// over positive-probability buckets only.
fn chi_square(counts: &[u64], probs: &[f64], draws: u64) -> f64 {
    counts
        .iter()
        .zip(probs)
        .filter(|&(_, &p)| p > 0.0)
        .map(|(&c, &p)| {
            let expected = draws as f64 * p;
            let diff = c as f64 - expected;
            diff * diff / expected
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alias_and_cdf_agree_in_distribution(
        weights in arb_weights(),
        seed in 0u64..u64::MAX,
    ) {
        let table = table_from(&weights);
        let cdf = CdfRouter::new(&table);
        let probs = table.probs().to_vec();
        let n = probs.len();
        let draws = 20_000u64;
        let mut rng = Xoshiro256PlusPlus::stream(seed, 0x0400);
        let mut alias_counts = vec![0u64; n];
        let mut cdf_counts = vec![0u64; n];
        for _ in 0..draws {
            let u = rng.next_open01();
            alias_counts[table.route_index(u)] += 1;
            cdf_counts[cdf.route(u).raw() as usize] += 1;
        }
        // df ≤ 10; the 1−10⁻⁹ quantile of χ²(10) is ≈ 62. A bound of
        // 120 on both paths (with expected counts ≥ 80 per bucket) makes
        // a false failure astronomically unlikely while still catching a
        // path that samples the wrong distribution outright.
        let chi_alias = chi_square(&alias_counts, &probs, draws);
        let chi_cdf = chi_square(&cdf_counts, &probs, draws);
        prop_assert!(chi_alias < 120.0, "alias chi-square {chi_alias} for {weights:?}");
        prop_assert!(chi_cdf < 120.0, "cdf chi-square {chi_cdf} for {weights:?}");
        // And the two paths agree with each other at least as tightly.
        for i in 0..n {
            let (a, c) = (alias_counts[i] as f64, cdf_counts[i] as f64);
            prop_assert!(
                (a - c).abs() / (draws as f64) < 0.05,
                "bucket {i}: alias {a} vs cdf {c}"
            );
        }
    }

    #[test]
    fn zero_probability_nodes_are_never_routed(
        weights in arb_weights_with_zeros(),
        seed in 0u64..u64::MAX,
    ) {
        let table = table_from(&weights);
        let cdf = CdfRouter::new(&table);
        let zero_ids: Vec<NodeId> = table
            .nodes()
            .iter()
            .zip(table.probs())
            .filter(|&(_, &p)| p == 0.0)
            .map(|(&id, _)| id)
            .collect();
        let mut rng = Xoshiro256PlusPlus::stream(seed, 0x0400);
        for _ in 0..2_000 {
            let u = rng.next_open01();
            prop_assert!(!zero_ids.contains(&table.route(u)));
            prop_assert!(!zero_ids.contains(&cdf.route(u)));
        }
        // Boundary draws included.
        for u in [0.0, 0.5, 1.0 - 1e-17, 1.0] {
            prop_assert!(!zero_ids.contains(&table.route(u)));
            prop_assert!(!zero_ids.contains(&cdf.route(u)));
        }
    }

    #[test]
    fn batch_routing_replays_the_per_job_sequence(
        weights in arb_weights(),
        seed in 0u64..u64::MAX,
        first in 0usize..96,
        second in 0usize..96,
    ) {
        let swap = || Arc::new(EpochSwap::new(table_from(&weights)));
        let batched = ShardedDispatcher::new(swap(), seed, 2);
        let reference = ShardedDispatcher::new(swap(), seed, 2);
        let mut decisions = Vec::new();
        {
            let mut guard = batched.shard(1);
            guard.route_batch(first, &mut decisions).unwrap();
            guard.route_batch(second, &mut decisions).unwrap();
        }
        {
            let mut guard = reference.shard(1);
            for d in &decisions {
                prop_assert_eq!(*d, guard.dispatch().unwrap());
            }
        }
        prop_assert_eq!(decisions.len(), first + second);
        prop_assert_eq!(batched.hit_counts(), reference.hit_counts());
        prop_assert_eq!(batched.dispatched(), (first + second) as u64);
    }
}

fn ids(raws: &[u64]) -> Vec<NodeId> {
    raws.iter().map(|&r| NodeId::from_raw(r)).collect()
}

#[test]
fn reference_cdf_respects_the_cdf() {
    let t = RoutingTable::new(0, ids(&[10, 20, 30]), &[0.5, 0.25, 0.25]).unwrap();
    let cdf = CdfRouter::new(&t);
    assert_eq!(cdf.route(0.0), NodeId::from_raw(10));
    assert_eq!(cdf.route(0.49), NodeId::from_raw(10));
    assert_eq!(cdf.route(0.5), NodeId::from_raw(20));
    assert_eq!(cdf.route(0.74), NodeId::from_raw(20));
    assert_eq!(cdf.route(0.75), NodeId::from_raw(30));
    assert_eq!(cdf.route(0.999_999), NodeId::from_raw(30));
    // Out-of-range draws clamp instead of panicking; 1.0 − 1e-17 rounds
    // to exactly 1.0 and must land on the last node too.
    assert_eq!(cdf.route(1.0), NodeId::from_raw(30));
    assert_eq!(cdf.route(1.0 - 1e-17), NodeId::from_raw(30));
    assert_eq!(cdf.route(-0.5), NodeId::from_raw(10));
    let single = RoutingTable::new(0, ids(&[7]), &[1.0]).unwrap();
    assert_eq!(CdfRouter::new(&single).route(1.0 - 1e-17), NodeId::from_raw(7));
    // A NaN reaching `partition_point` would return index 0 — the
    // leading zero-probability node here; non-finite draws pin to 0.0.
    let leading_zero = RoutingTable::new(0, ids(&[0, 1]), &[0.0, 1.0]).unwrap();
    let cdf = CdfRouter::new(&leading_zero);
    for u in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(cdf.route(u), NodeId::from_raw(1));
    }
}

#[test]
fn route_agrees_with_reference_cdf_on_a_grid() {
    // Alias and inverse-CDF routing differ draw-by-draw but must
    // produce the same per-node frequencies over a fine grid.
    let probs = [0.5, 0.25, 0.25];
    let t = RoutingTable::new(0, ids(&[10, 20, 30]), &probs).unwrap();
    let cdf = CdfRouter::new(&t);
    let draws = 200_000;
    let mut alias_counts = [0u64; 3];
    let mut cdf_counts = [0u64; 3];
    let slot = |id: NodeId| (id.raw() / 10 - 1) as usize;
    for k in 0..draws {
        let u = k as f64 / draws as f64;
        alias_counts[slot(t.route(u))] += 1;
        cdf_counts[slot(cdf.route(u))] += 1;
    }
    for i in 0..3 {
        let (a, c) = (alias_counts[i] as f64, cdf_counts[i] as f64);
        assert!((a - c).abs() / (draws as f64) < 1e-3, "node {i}: alias {a} vs cdf {c}");
        assert!((a / draws as f64 - probs[i]).abs() < 1e-3);
    }
}
