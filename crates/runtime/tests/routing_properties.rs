//! Property tests for the routing hot path (vendored proptest shim):
//!
//! 1. alias-method routing agrees **in distribution** with the reference
//!    inverse-CDF router ([`support::CdfRouter`]) — a chi-square
//!    statistic of each path's sample counts against the expected
//!    counts stays far below any plausible rejection threshold, for
//!    random weight vectors;
//! 2. neither path ever returns a zero-probability node, for weight
//!    vectors with zeros injected at random positions.
//!
//! Two fixed-table tests pin the reference router itself: its
//! boundaries and clamping, and its agreement with the alias path on a
//! fine grid.
//!
//! A third property holds [`RoutingTable::from_allocation`] to the
//! construction it replaced ([`reference::from_allocation`]): the same
//! probabilities bit for bit, or the same error, for any loads.

mod support;

use gtlb_core::allocation::Allocation;
use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_runtime::{NodeId, RoutingTable};
use proptest::prelude::*;
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
}

/// A load a solve can hand over: ties, zeros of both signs,
/// subnormals, ordinary values, and values near `f64::MAX`, two of
/// which overflow a sum.
fn arb_load() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        0.0f64..8.0,
        (1u64..1 << 52).prop_map(f64::from_bits),
        (0.25f64..1.0).prop_map(|x| x * f64::MAX),
    ]
}

/// A value no load may take: negative, NaN or infinite.
fn arb_bad_load() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1e-300f64..8.0).prop_map(|x| -x),
        Just(-f64::MAX),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// `values` with `bad` written over one of them, at an index drawn
/// from `at`, when `put` is 0 of its 0–2.
fn spoil(mut values: Vec<f64>, (bad, at, put): (f64, usize, u32)) -> Vec<f64> {
    if put == 0 && !values.is_empty() {
        let i = at % values.len();
        values[i] = bad;
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn from_allocation_matches_the_reference(
        loads in prop::collection::vec(arb_load(), 0..9),
        zeroed in 0u32..4,
        bad_load in (arb_bad_load(), 0usize..9, 0u32..3),
        fallback in prop::collection::vec(arb_load(), 0..9),
        bad_fallback in (arb_bad_load(), 0usize..9, 0u32..6),
        shape in 0u32..8,
    ) {
        // A quarter of the allocations are all zero, as at Φ = 0.
        let loads = if zeroed == 0 { vec![0.0; loads.len()] } else { loads };
        let loads = spoil(loads, bad_load);
        // Mostly one fallback weight and one id per load, as a solve
        // passes them; otherwise lengths that disagree.
        let n = loads.len();
        let mut fallback = spoil(fallback, bad_fallback);
        if shape > 0 {
            fallback.resize(n, 1.0);
        }
        let nodes: Vec<NodeId> = (0..(n + usize::from(shape == 1)) as u64)
            .map(NodeId::from_raw)
            .collect();
        let allocation = Allocation::new(loads.clone());
        let got = RoutingTable::from_allocation(9, nodes.clone(), &allocation, &fallback);
        let want = reference::from_allocation(9, nodes, &allocation, &fallback);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let bits = |t: &RoutingTable| t.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want), "loads {:?}", loads);
                prop_assert_eq!(got, want);
            }
            (got, want) => prop_assert_eq!(got.err(), want.err(), "loads {:?}", loads),
        }
    }
}

/// The construction [`RoutingTable::from_allocation`] replaced: the
/// loads' compensated total picks the loads or the fallback weights.
mod reference {
    use gtlb_core::allocation::Allocation;
    use gtlb_runtime::{NodeId, RoutingTable, RuntimeError};

    pub fn from_allocation(
        epoch: u64,
        nodes: Vec<NodeId>,
        allocation: &Allocation,
        fallback_weights: &[f64],
    ) -> Result<RoutingTable, RuntimeError> {
        if allocation.total() > 0.0 {
            RoutingTable::new(epoch, nodes, allocation.loads())
        } else {
            RoutingTable::new(epoch, nodes, fallback_weights)
        }
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
