//! Walker alias method: O(1) sampling from a discrete distribution.
//!
//! The COOP allocation is a *static* probability vector, so routing is
//! pure sampling — and sampling a categorical distribution does not
//! need the O(log n) inverse-CDF binary search the first runtime
//! shipped with. Walker's alias method precomputes, per bucket `i`, a
//! threshold `prob[i]` and an alternative `alias[i]`; a single uniform
//! draw `u ∈ [0, 1)` is split into a bucket index `⌊u·n⌋` and a
//! leftover fraction, and the sample is `i` if the fraction clears the
//! threshold, `alias[i]` otherwise. One multiply, one floor, one
//! compare — O(1) per draw, independent of the node count.
//!
//! ## Determinism
//!
//! The table is built with the classic two-stack (Vose) construction,
//! seeded by scanning the probabilities **in index order** and using
//! `Vec` stacks popped from the back — every step is a deterministic
//! function of the probability vector alone, so the same vector always
//! yields bit-identical `prob`/`alias` arrays on every platform. That
//! matters because routing decisions are part of the runtime's
//! determinism fingerprint: the mapping `u → node` must be a pure
//! function of the published table.
//!
//! ## Zero-probability buckets
//!
//! A bucket with zero weight gets `prob[i] = 0`, which the leftover
//! fraction (always ≥ 0) never undercuts, so the sample falls through
//! to its alias — always a positive-weight bucket. Rounding in the
//! stack arithmetic can strand a zero-weight bucket in the small stack
//! after the large stack empties; the drain pass pins such buckets to
//! `prob = 0` with the heaviest bucket as alias, preserving the
//! "zero-probability nodes are never routed" invariant exactly (not
//! merely with high probability).

/// The largest `f64` strictly below `1.0` (`1 − 2⁻⁵³`): the clamp bound
/// for uniform draws, so `u = 1.0` (or anything that rounds to it)
/// still lands in the last bucket instead of indexing out of range.
/// `1.0 - f64::EPSILON` is *two* ulps below one and would skip the top
/// sliver of the distribution; this is exactly one.
pub const MAX_BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// A prebuilt Walker alias table over `n` buckets.
///
/// Built once per [`RoutingTable`](crate::table::RoutingTable) publish;
/// [`sample`](Self::sample) is the per-dispatch hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Threshold in `[0, 1]` for keeping bucket `i` itself.
    prob: Vec<f64>,
    /// Alternative bucket taken when the fraction clears `prob[i]`.
    alias: Vec<u32>,
}

impl AliasTable {
    /// An empty table (zero buckets). [`sample`](Self::sample) must not
    /// be called on it; paired with `RoutingTable::empty`.
    #[must_use]
    pub fn empty() -> Self {
        Self { prob: Vec::new(), alias: Vec::new() }
    }

    /// Builds the table from normalized probabilities (nonnegative,
    /// finite, summing to 1 up to rounding — the invariants
    /// `RoutingTable::new` already enforces).
    ///
    /// # Panics
    /// If `probs` is empty, exceeds `u32::MAX` buckets, or contains no
    /// positive entry (callers validate; this is a programming error).
    #[must_use]
    pub fn new(probs: &[f64]) -> Self {
        let n = probs.len();
        assert!(n > 0, "alias table needs at least one bucket");
        assert!(u32::try_from(n).is_ok(), "alias table capped at u32::MAX buckets");
        // The heaviest bucket backs zero-weight buckets stranded by
        // rounding (see the module docs); scanning in index order keeps
        // ties deterministic.
        let mut heaviest = 0usize;
        for (i, &p) in probs.iter().enumerate() {
            if p > probs[heaviest] {
                heaviest = i;
            }
        }
        assert!(probs[heaviest] > 0.0, "alias table needs a positive probability");

        // `prob` starts as the scaled weights `p·n` and the stacks drain
        // inside it: a bucket popped from `small` keeps its scaled weight
        // as its threshold and is never pushed again, and only the top
        // of `large` changes after.
        let mut prob: Vec<f64> = probs.iter().map(|&p| p * n as f64).collect();
        let mut alias: Vec<u32> = vec![heaviest as u32; n];
        // Two stacks, filled in index order, popped from the back: the
        // construction is a pure function of `probs`. A bucket sits in
        // at most one of them, so neither outgrows `n`.
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in prob.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        // The top of `large` donates to small buckets until it falls
        // below 1 and moves to `small`, or `small` runs out; its running
        // weight stays in a local meanwhile.
        while let Some(&l) = large.last() {
            let mut rest = prob[l as usize];
            let mut spent = false;
            while let Some(s) = small.pop() {
                alias[s as usize] = l;
                // Donate the deficit 1 − prob[s] out of the large bucket.
                rest = (rest + prob[s as usize]) - 1.0;
                if rest < 1.0 {
                    spent = true;
                    break;
                }
            }
            prob[l as usize] = rest;
            if !spent {
                break;
            }
            large.pop();
            small.push(l);
        }
        // Leftovers hold exactly 1.0 in exact arithmetic; under
        // rounding, pin genuine mass to "always keep" and stranded
        // zero-weight buckets to "always alias" (to the heaviest).
        for &l in &large {
            prob[l as usize] = 1.0;
        }
        for &s in &small {
            prob[s as usize] = if probs[s as usize] > 0.0 { 1.0 } else { 0.0 };
        }
        Self { prob, alias }
    }

    /// Number of buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has zero buckets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Samples a bucket from one uniform draw: `u` is clamped into
    /// `[0, 1)` (non-finite draws pin to `0.0`), split into
    /// `bucket = ⌊u·n⌋` and its leftover fraction, and resolved through
    /// the threshold/alias pair — O(1).
    ///
    /// # Panics
    /// If the table is empty (debug builds; release indexing panics).
    #[inline]
    #[must_use]
    pub fn sample(&self, u: f64) -> usize {
        debug_assert!(!self.is_empty(), "sample on an empty alias table");
        let n = self.prob.len();
        // NaN defeats `clamp` (NaN.clamp is NaN); pin non-finite draws
        // to 0.0 so arbitrary caller input keeps every invariant —
        // in particular "zero-probability buckets are never sampled".
        let u = if u.is_finite() { u.clamp(0.0, MAX_BELOW_ONE) } else { 0.0 };
        let scaled = u * n as f64;
        // `u < 1` bounds `⌊u·n⌋ ≤ n−1` in exact arithmetic, but the
        // product can round up to exactly `n` — clamp defensively.
        let bucket = (scaled as usize).min(n - 1);
        let fraction = scaled - bucket as f64;
        if fraction < self.prob[bucket] {
            bucket
        } else {
            self.alias[bucket] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The construction `AliasTable::new` used before its stacks drained
    /// inside `prob`: a separate scaled copy and unreserved stacks.
    fn reference(probs: &[f64]) -> AliasTable {
        let n = probs.len();
        let mut heaviest = 0usize;
        for (i, &p) in probs.iter().enumerate() {
            if p > probs[heaviest] {
                heaviest = i;
            }
        }
        let mut scaled: Vec<f64> = probs.iter().map(|&p| p * n as f64).collect();
        let mut prob = vec![0.0; n];
        let mut alias: Vec<u32> = vec![heaviest as u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            let (s_idx, l_idx) = (s as usize, l as usize);
            prob[s_idx] = scaled[s_idx];
            alias[s_idx] = l;
            scaled[l_idx] = (scaled[l_idx] + scaled[s_idx]) - 1.0;
            if scaled[l_idx] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &l in &large {
            prob[l as usize] = 1.0;
        }
        for &s in &small {
            prob[s as usize] = if probs[s as usize] > 0.0 { 1.0 } else { 0.0 };
        }
        AliasTable { prob, alias }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On random, tied, subnormal and zero weights, normalized as
        /// `RoutingTable::new` normalizes them, the in-place build gives
        /// the reference's `prob` and `alias` bit for bit.
        #[test]
        fn in_place_build_matches_the_reference(
            picks in prop::collection::vec((0u64..5, 0.0f64..1.0), 1..300),
        ) {
            let weights: Vec<f64> = picks
                .iter()
                .map(|&(family, x)| {
                    let q = (x * 4.0).floor();
                    match family {
                        0 => 0.0,
                        1 => f64::from_bits(1 + q as u64),
                        2 => [0.13, 0.065, 0.026, 0.013][q as usize],
                        3 => x,
                        _ => f64::MIN_POSITIVE * (1.0 + q),
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            if total > 0.0 {
                let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
                let (got, want) = (AliasTable::new(&probs), reference(&probs));
                let bits = |t: &AliasTable| t.prob.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want), "probs {:?}", probs);
                prop_assert_eq!(got.alias, want.alias, "probs {:?}", probs);
            }
        }
    }

    fn frequencies(table: &AliasTable, draws: usize) -> Vec<f64> {
        let mut counts = vec![0u64; table.len()];
        for k in 0..draws {
            // A fine deterministic grid covers every bucket boundary.
            counts[table.sample(k as f64 / draws as f64)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn grid_frequencies_match_probabilities() {
        for probs in [
            vec![1.0],
            vec![0.5, 0.5],
            vec![0.6, 0.3, 0.1],
            vec![0.05, 0.05, 0.45, 0.45],
            vec![0.25; 4],
        ] {
            let table = AliasTable::new(&probs);
            let freq = frequencies(&table, 100_000);
            for (i, (&f, &p)) in freq.iter().zip(&probs).enumerate() {
                assert!((f - p).abs() < 1e-3, "bucket {i}: freq {f} vs p {p} in {probs:?}");
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let probs = [0.3, 0.1, 0.25, 0.05, 0.3];
        assert_eq!(AliasTable::new(&probs), AliasTable::new(&probs));
    }

    #[test]
    fn zero_probability_buckets_never_sampled() {
        let table = AliasTable::new(&[0.5, 0.0, 0.5, 0.0]);
        for k in 0..100_000 {
            let got = table.sample(k as f64 / 100_000.0);
            assert!(got != 1 && got != 3, "sampled zero-probability bucket {got}");
        }
    }

    #[test]
    fn extreme_draws_clamp_into_range() {
        let table = AliasTable::new(&[0.2, 0.8]);
        for u in [
            0.0,
            -1.0,
            1.0,
            2.5,
            1.0 - 1e-17,
            MAX_BELOW_ONE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(table.sample(u) < 2);
        }
        // A non-finite draw pins to 0.0 and must still respect the
        // zero-probability invariant, even with a zero-weight bucket 0.
        let leading_zero = AliasTable::new(&[0.0, 1.0]);
        for u in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0] {
            assert_eq!(leading_zero.sample(u), 1);
        }
        // u = 1.0 − 1e-17 rounds to exactly 1.0; it must land in the
        // last bucket's range, not index out of bounds.
        assert_eq!((1.0f64 - 1e-17).to_bits(), 1.0f64.to_bits());
        let single = AliasTable::new(&[1.0]);
        assert_eq!(single.sample(1.0 - 1e-17), 0);
    }

    #[test]
    fn singleton_and_heavily_skewed() {
        assert_eq!(AliasTable::new(&[1.0]).sample(0.7), 0);
        let skewed = AliasTable::new(&[1e-9, 1.0 - 1e-9]);
        let freq = frequencies(&skewed, 1_000_000);
        assert!(freq[1] > 0.999_99, "heavy bucket starved: {freq:?}");
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn empty_probs_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "positive probability")]
    fn all_zero_probs_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }
}
