//! A log-linear HDR-style histogram with a fixed bucket layout.
//!
//! The value axis is split into powers of two (octaves) from
//! [`MIN_TRACKED`] = 2⁻³² up to [`MAX_TRACKED`] = 2³², and each octave
//! into 2^[`SUB_BUCKET_BITS`] = 16 linear sub-buckets, giving a
//! relative bucket width of 1/16 ≈ 6.25 % across ~19 decades — ample
//! for latencies measured in seconds. Values below the tracked range
//! (including zero and non-finite junk) land in [`UNDERFLOW_BUCKET`];
//! values at or above [`MAX_TRACKED`] land in [`OVERFLOW_BUCKET`].
//!
//! Bucket selection reads the exponent and top mantissa bits straight
//! out of the IEEE 754 representation, so classification is a few
//! integer ops with no floating-point comparisons or loops, and the
//! boundaries are exactly reconstructible ([`bucket_lower_bound`] /
//! [`bucket_upper_bound`]) — a property the test-suite round-trips.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of sub-bucket bits per octave (16 linear sub-buckets).
pub const SUB_BUCKET_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BUCKET_BITS;
/// Smallest tracked exponent: values below 2^MIN_EXP underflow.
const MIN_EXP: i32 = -32;
/// One past the largest tracked exponent: values at or above
/// 2^(MAX_EXP+1) overflow.
const MAX_EXP: i32 = 31;
/// Number of octaves in the tracked range.
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// Index of the underflow bucket (zero, negative, sub-range, and
/// non-finite values).
pub const UNDERFLOW_BUCKET: usize = 0;
/// Index of the overflow bucket (values `>=` [`MAX_TRACKED`]).
pub const OVERFLOW_BUCKET: usize = 1 + OCTAVES * SUB;
/// Total number of buckets including underflow and overflow.
pub const BUCKET_COUNT: usize = OVERFLOW_BUCKET + 1;

/// Smallest value classified into a regular bucket: 2⁻³².
pub const MIN_TRACKED: f64 = 1.0 / (4_294_967_296.0);
/// Smallest value classified as overflow: 2³².
pub const MAX_TRACKED: f64 = 4_294_967_296.0;

/// Maps a value to its bucket index in `0..BUCKET_COUNT`.
///
/// `NaN`, negatives, zero, and values below [`MIN_TRACKED`] map to
/// [`UNDERFLOW_BUCKET`]; values at or above [`MAX_TRACKED`] map to
/// [`OVERFLOW_BUCKET`].
#[must_use]
pub fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value < MIN_TRACKED {
        return UNDERFLOW_BUCKET;
    }
    if value >= MAX_TRACKED {
        return OVERFLOW_BUCKET;
    }
    // The tracked range is entirely normal, so the biased exponent and
    // top mantissa bits identify the (octave, sub-bucket) pair.
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let sub = ((bits >> (52 - SUB_BUCKET_BITS)) & (SUB as u64 - 1)) as usize;
    1 + (((exp - MIN_EXP) as usize) << SUB_BUCKET_BITS) + sub
}

/// Inclusive lower bound of bucket `index`.
///
/// The underflow bucket starts at `0.0`; the overflow bucket starts at
/// [`MAX_TRACKED`]. For every value `v` in the tracked range,
/// `bucket_lower_bound(bucket_index(v)) <= v`.
#[must_use]
pub fn bucket_lower_bound(index: usize) -> f64 {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    if index == UNDERFLOW_BUCKET {
        return 0.0;
    }
    if index == OVERFLOW_BUCKET {
        return MAX_TRACKED;
    }
    let j = index - 1;
    let exp = MIN_EXP + (j >> SUB_BUCKET_BITS) as i32;
    let sub = (j & (SUB - 1)) as u64;
    f64::from_bits((((exp + 1023) as u64) << 52) | (sub << (52 - SUB_BUCKET_BITS)))
}

/// Exclusive upper bound of bucket `index` (`f64::INFINITY` for the
/// overflow bucket). For every tracked value `v`,
/// `v < bucket_upper_bound(bucket_index(v))`.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> f64 {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    if index == OVERFLOW_BUCKET {
        return f64::INFINITY;
    }
    bucket_lower_bound(index + 1)
}

/// What the sum and maximum take of `value`: junk (NaN, negative,
/// ±∞) counts as `0.0`, so it can inflate a count but never corrupt
/// the statistics. Both record paths clamp through this one helper.
fn clamp(value: f64) -> f64 {
    if value.is_finite() && value > 0.0 {
        value
    } else {
        0.0
    }
}

/// The exemplar cell that stores `trace_id`: `trace_id + 1`, with `0`
/// meaning empty, so `u64::MAX` (which wraps to `0`) is never stored.
fn exemplar_cell(trace_id: u64) -> u64 {
    trace_id.wrapping_add(1)
}

/// A concurrent log-linear histogram.
///
/// Recording is one relaxed `fetch_add` on the bucket plus a CAS loop
/// for the running sum; the maximum costs one relaxed load, and an
/// integer `fetch_max` only when the value is a new maximum. So a
/// value that is not one takes two atomic read-modify-writes, not
/// three. A single owner that records many values can instead record
/// them into a plain [`HistogramSnapshot`] and add that in with
/// [`Histogram::absorb`], at one `fetch_add` per non-empty bucket and
/// one CAS on the sum. Reads go through [`Histogram::snapshot`], which
/// copies the cells into a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    /// Per-bucket exemplar cells: `trace_id + 1` of the last traced
    /// observation that landed in the bucket (`0` = none yet).
    exemplars: Vec<AtomicU64>,
    /// `f64::to_bits` image of the running sum of recorded values.
    sum_bits: AtomicU64,
    /// `f64::to_bits` image of the maximum recorded value (bit order
    /// matches value order for non-negative doubles).
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            exemplars: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation of `value`.
    ///
    /// Non-finite and negative values count toward the underflow
    /// bucket and contribute `0.0` to the sum and maximum, so a junk
    /// sample can inflate the count but never corrupt the statistics.
    pub fn record(&self, value: f64) {
        self.record_at(bucket_index(value), value);
    }

    /// [`Histogram::record`] with the value already classified into
    /// bucket `index`.
    fn record_at(&self, index: usize, value: f64) {
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        let clamped = clamp(value);
        self.add_sum(clamped);
        self.raise_max(clamped);
    }

    /// Adds `x` to the running sum (a CAS loop on its bits).
    fn add_sum(&self, x: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the maximum to `x`, a clamped (non-negative) value, if it
    /// is larger.
    fn raise_max(&self, x: f64) {
        // The maximum only grows, so a stale load reads it low, never
        // high: skipping the RMW when `bits` is no larger is exact.
        let bits = x.to_bits();
        if bits > self.max_bits.load(Ordering::Relaxed) {
            self.max_bits.fetch_max(bits, Ordering::Relaxed);
        }
    }

    /// Records one observation of `value` and remembers `trace_id` as
    /// the bucket's exemplar, so a quantile computed from the snapshot
    /// links back to a concrete trace.
    ///
    /// The cell stores `trace_id + 1` (`0` = empty), so an id of
    /// `u64::MAX` cannot be stored and is recorded without an
    /// exemplar — an acceptable loss for a hash-derived id space.
    pub fn record_with_exemplar(&self, value: f64, trace_id: u64) {
        let index = bucket_index(value);
        self.record_at(index, value);
        let cell = exemplar_cell(trace_id);
        if cell != 0 {
            self.exemplars[index].store(cell, Ordering::Relaxed);
        }
    }

    /// Adds the observations buffered in `pending` and leaves it
    /// empty: one relaxed `fetch_add` per non-empty bucket, a store per
    /// set exemplar cell, one CAS on the sum and the maximum raised as
    /// [`Histogram::record`] raises it. Afterwards the counts, maximum
    /// and exemplars equal those of recording each buffered value
    /// directly; the sum differs only by floating-point association.
    ///
    /// Only the buckets between the lowest and the highest that
    /// `pending` holds are visited, so a buffer of a few nearby values
    /// costs a few cells, not all [`BUCKET_COUNT`]. Emptying includes
    /// the exemplar cells, so a later absorb never stores a stale trace
    /// id over a newer one.
    pub fn absorb(&self, pending: &mut HistogramSnapshot) {
        let span = pending.lo.min(pending.hi)..pending.hi;
        (pending.lo, pending.hi) = (BUCKET_COUNT, 0);
        let cells = self.buckets[span.clone()].iter().zip(&self.exemplars[span.clone()]);
        let buffered = pending.buckets[span.clone()].iter_mut().zip(&mut pending.exemplars[span]);
        for ((bucket, exemplar), (count, cell)) in cells.zip(buffered) {
            if *count != 0 {
                bucket.fetch_add(std::mem::take(count), Ordering::Relaxed);
            }
            if *cell != 0 {
                exemplar.store(std::mem::take(cell), Ordering::Relaxed);
            }
        }
        self.add_sum(std::mem::take(&mut pending.sum));
        self.raise_max(std::mem::take(&mut pending.max));
    }

    /// Total number of recorded observations: the sum of relaxed
    /// bucket loads, without copying the histogram.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Copies the current cells into a [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let exemplars: Vec<u64> =
            self.exemplars.iter().map(|e| e.load(Ordering::Relaxed)).collect();
        let held = |i: &usize| buckets[*i] != 0 || exemplars[*i] != 0;
        let lo = (0..BUCKET_COUNT).find(held).unwrap_or(BUCKET_COUNT);
        let hi = (0..BUCKET_COUNT).rfind(held).map_or(0, |i| i + 1);
        HistogramSnapshot {
            buckets,
            exemplars,
            lo,
            hi,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A histogram in plain (non-atomic) cells: dense bucket counts,
/// exemplar cells, and the exact running sum and maximum, in the same
/// layout as [`Histogram`]. It serves two roles:
///
/// * a scrape's copy of a [`Histogram`] ([`Histogram::snapshot`]), which
///   answers quantile queries;
/// * a single owner's recording buffer ([`record`](Self::record),
///   [`record_with_exemplar`](Self::record_with_exemplar)), added into a
///   shared [`Histogram`] by [`Histogram::absorb`].
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a histogram snapshot carries the data; query or absorb it"]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Exemplar cells as stored (`trace_id + 1`, `0` = none).
    exemplars: Vec<u64>,
    /// `lo..hi` is the smallest range of bucket indexes holding every
    /// non-zero bucket and exemplar cell, so [`Histogram::absorb`]
    /// visits only that range; without any, `lo` is [`BUCKET_COUNT`]
    /// and `hi` is 0, so that recording is two branch-free updates.
    lo: usize,
    hi: usize,
    sum: f64,
    max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (all buckets zero).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKET_COUNT],
            exemplars: vec![0; BUCKET_COUNT],
            lo: BUCKET_COUNT,
            hi: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Records one observation of `value`, exactly as
    /// [`Histogram::record`] would: the same bucket, and junk values
    /// clamped to `0.0` in the sum and maximum.
    pub fn record(&mut self, value: f64) {
        self.record_at(bucket_index(value), value);
    }

    /// [`HistogramSnapshot::record`] with the value already classified
    /// into bucket `index`.
    fn record_at(&mut self, index: usize, value: f64) {
        self.buckets[index] += 1;
        self.lo = self.lo.min(index);
        self.hi = self.hi.max(index + 1);
        let clamped = clamp(value);
        self.sum += clamped;
        self.max = self.max.max(clamped);
    }

    /// Records one observation of `value` with `trace_id` as the
    /// bucket's exemplar, exactly as [`Histogram::record_with_exemplar`]
    /// would (an id of `u64::MAX` is recorded without one).
    pub fn record_with_exemplar(&mut self, value: f64, trace_id: u64) {
        let index = bucket_index(value);
        self.record_at(index, value);
        let cell = exemplar_cell(trace_id);
        if cell != 0 {
            self.exemplars[index] = cell;
        }
    }

    /// Total number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucket-quantized).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// Raw count of bucket `index`.
    #[must_use]
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Trace id of the last traced observation in bucket `index`, if
    /// any observation carried an exemplar.
    #[must_use]
    pub fn exemplar(&self, index: usize) -> Option<u64> {
        match self.exemplars[index] {
            0 => None,
            cell => Some(cell - 1),
        }
    }

    /// Trace id exemplifying quantile `q`: the exemplar of the bucket
    /// holding the q-th observation, falling back to the nearest
    /// populated exemplar at or below it. `None` for an empty snapshot
    /// or when no observation carried an exemplar.
    #[must_use]
    pub fn quantile_exemplar(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        let mut best = None;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if c > 0 {
                if let Some(id) = self.exemplar(i) {
                    best = Some(id);
                }
            }
            if cum >= target {
                break;
            }
        }
        best
    }

    /// Value at quantile `q` in `[0, 1]`, quantized to the upper bound
    /// of the bucket holding the q-th observation (clamped to the
    /// exact maximum so granularity never reports a value above the
    /// largest sample). Returns `0.0` for an empty snapshot.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let v = if i == UNDERFLOW_BUCKET {
                    0.0
                } else if i == OVERFLOW_BUCKET {
                    self.max
                } else {
                    bucket_upper_bound(i)
                };
                return if self.max > 0.0 { v.min(self.max) } else { v };
            }
        }
        self.max
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_constants_are_consistent() {
        assert_eq!(BUCKET_COUNT, 1 + 64 * 16 + 1);
        assert_eq!(bucket_index(MIN_TRACKED), 1);
        assert_eq!(bucket_index(MAX_TRACKED), OVERFLOW_BUCKET);
        assert_eq!(bucket_lower_bound(1), MIN_TRACKED);
        assert_eq!(bucket_lower_bound(OVERFLOW_BUCKET), MAX_TRACKED);
        assert_eq!(bucket_upper_bound(OVERFLOW_BUCKET), f64::INFINITY);
    }

    #[test]
    fn junk_values_underflow() {
        for v in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY, MIN_TRACKED / 2.0] {
            assert_eq!(bucket_index(v), UNDERFLOW_BUCKET, "value {v}");
        }
        assert_eq!(bucket_index(f64::INFINITY), OVERFLOW_BUCKET);
    }

    #[test]
    fn bounds_bracket_the_value() {
        for &v in &[1e-9, 3.7e-6, 0.001, 0.5, 1.0, 1.5, 2.0, 123.456, 1e9] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v, "lower({i}) <= {v}");
            assert!(v < bucket_upper_bound(i), "{v} < upper({i})");
        }
    }

    #[test]
    fn lower_bounds_round_trip() {
        for i in 1..OVERFLOW_BUCKET {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn relative_width_is_about_six_percent() {
        for &v in &[1e-6, 1.0, 1e6] {
            let i = bucket_index(v);
            let (lo, hi) = (bucket_lower_bound(i), bucket_upper_bound(i));
            let rel = (hi - lo) / lo;
            assert!(rel <= 1.0 / 16.0 + 1e-12, "relative width {rel} at {v}");
        }
    }

    #[test]
    fn quantiles_and_stats() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 0.001 ..= 1.000
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert!((s.sum() - 500.5).abs() < 1e-9);
        assert_eq!(s.max(), 1.0);
        assert!((s.mean() - 0.5005).abs() < 1e-9);
        // 6.25% bucket quantization, quantized to upper bounds.
        assert!((s.p50() - 0.5).abs() / 0.5 < 0.10, "p50 {}", s.p50());
        assert!((s.p90() - 0.9).abs() / 0.9 < 0.10, "p90 {}", s.p90());
        assert!((s.p99() - 0.99).abs() / 0.99 < 0.10, "p99 {}", s.p99());
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        assert!(s.p99() <= s.max());
    }

    /// Four threads record the same range into one histogram, so they
    /// race on every bucket, while one of them records the global
    /// maximum partway through. Each value goes through
    /// `record(histogram, own buffer, i, value)`, and each thread then
    /// absorbs what its buffer still holds. Count, every bucket and the
    /// maximum must be exact, and the sum within 1e-9.
    fn assert_concurrent_recording_is_exact(
        record: impl Fn(&Histogram, &mut HistogramSnapshot, u32, f64) + Sync,
    ) {
        const PER_THREAD: u32 = 10_000;
        const GLOBAL_MAX: f64 = 1e6;
        let value = |k: u32, i: u32| {
            if k == 2 && i == PER_THREAD / 2 {
                GLOBAL_MAX
            } else {
                1.0 + f64::from(i) / f64::from(PER_THREAD)
            }
        };
        let h = Histogram::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for k in 0..4 {
                let (h, start, record) = (&h, &start, &record);
                s.spawn(move || {
                    let mut pending = HistogramSnapshot::empty();
                    start.wait();
                    for i in 0..PER_THREAD {
                        record(h, &mut pending, i, value(k, i));
                    }
                    h.absorb(&mut pending);
                    assert_eq!(pending, HistogramSnapshot::empty());
                });
            }
        });
        let reference = Histogram::new();
        for k in 0..4 {
            for i in 0..PER_THREAD {
                reference.record(value(k, i));
            }
        }
        let (got, want) = (h.snapshot(), reference.snapshot());
        assert_eq!(got.count(), 4 * u64::from(PER_THREAD));
        assert_eq!(h.count(), got.count());
        for i in 0..BUCKET_COUNT {
            assert_eq!(got.bucket(i), want.bucket(i), "bucket {i}");
        }
        assert_eq!(got.max(), GLOBAL_MAX);
        assert!(
            (got.sum() - want.sum()).abs() <= 1e-9 * want.sum(),
            "{} vs {}",
            got.sum(),
            want.sum()
        );
    }

    #[test]
    fn concurrent_records_are_exact() {
        // Direct records race the load-before-`fetch_max` on both sides
        // of the global maximum.
        assert_concurrent_recording_is_exact(|h, _, _, v| h.record(v));
    }

    #[test]
    fn concurrent_absorbs_are_exact() {
        // Buffered records absorbed every 97 values: the absorbs' bucket
        // adds, sum CAS and max raises race.
        assert_concurrent_recording_is_exact(|h, pending, i, v| {
            pending.record(v);
            if i % 97 == 0 {
                h.absorb(pending);
            }
        });
    }

    #[test]
    fn exemplars_link_buckets_to_trace_ids() {
        let h = Histogram::new();
        h.record(0.1); // untraced observation: no exemplar
        h.record_with_exemplar(0.1, 0xAB);
        h.record_with_exemplar(0.1, 0xCD); // last writer wins
        h.record_with_exemplar(100.0, 0xEF);
        let s = h.snapshot();
        assert_eq!(s.exemplar(bucket_index(0.1)), Some(0xCD));
        assert_eq!(s.exemplar(bucket_index(100.0)), Some(0xEF));
        assert_eq!(s.exemplar(bucket_index(7.0)), None);
        // p99 lands in the 100.0 bucket; its exemplar resolves.
        assert_eq!(s.quantile_exemplar(0.99), Some(0xEF));
        assert_eq!(s.quantile_exemplar(0.25), Some(0xCD));
        assert_eq!(HistogramSnapshot::empty().quantile_exemplar(0.5), None);
    }

    #[test]
    fn empty_snapshot_queries_are_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }
}
