//! Property tests for the telemetry core (vendored proptest shim):
//!
//! 1. **bucket round-trip** — every tracked value lands in a bucket
//!    whose `[lower, upper)` bounds contain it, and every bucket lower
//!    bound indexes back to its own bucket (the log-linear grid has no
//!    cracks and no overlaps);
//! 2. **recorder wraparound** — after any number of fast, completed
//!    traces, the flight recorder's drop-oldest main lane retains
//!    exactly `min(recorded, capacity)` of them, the newest survive, and
//!    `dropped()` counts exactly the evicted ones;
//! 3. **buffered recording** — values recorded into a plain snapshot
//!    and added in by `Histogram::absorb`, at any absorb points, leave
//!    the same buckets, count, maximum and exemplars as recording each
//!    value into the shared histogram directly, junk values included.

use gtlb_telemetry::trace::{trace_id, AttemptOutcome, FlightRecorder, SpanKind, Trace};
use gtlb_telemetry::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot,
    BUCKET_COUNT, MAX_TRACKED, MIN_TRACKED, OVERFLOW_BUCKET, UNDERFLOW_BUCKET,
};
use proptest::prelude::*;

/// Values spanning the full tracked range (and a little beyond):
/// mantissa in [1, 2), exponent in [-34, 34] — overflow/underflow
/// buckets get exercised too.
fn arb_value() -> impl Strategy<Value = f64> {
    (1.0f64..2.0, 0u32..69).prop_map(|(m, e)| m * f64::from(e as i32 - 34).exp2())
}

/// Anything a caller might record: the tracked range, zeros of both
/// signs, negatives, NaN, ±∞, subnormals and values from 2³² up to
/// 2¹⁰⁰⁰.
fn arb_any_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        arb_value(),
        Just(0.0),
        Just(-0.0),
        arb_value().prop_map(|v| -v),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (0.0f64..1.0).prop_map(|u| u * f64::MIN_POSITIVE),
        (1.0f64..2.0, 32u32..1001).prop_map(|(m, e)| m * f64::from(e).exp2()),
    ]
}

/// An exemplar id or none: few distinct small ids (so later ids
/// overwrite earlier ones in a bucket), arbitrary ids, and `u64::MAX`,
/// which the cell encoding cannot store.
fn arb_exemplar() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        (0u64..4).prop_map(Some),
        (0u64..u64::MAX).prop_map(Some),
        Just(Some(u64::MAX)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// value → bucket → bounds round-trip: the bucket that claims a
    /// value must actually contain it.
    #[test]
    fn bucket_bounds_contain_their_values(v in arb_value()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKET_COUNT);
        if v < MIN_TRACKED {
            prop_assert_eq!(i, UNDERFLOW_BUCKET);
        } else if v >= MAX_TRACKED {
            prop_assert_eq!(i, OVERFLOW_BUCKET);
        } else {
            let lo = bucket_lower_bound(i);
            let hi = bucket_upper_bound(i);
            prop_assert!(
                lo <= v && v < hi,
                "value {} escaped bucket {} = [{}, {})", v, i, lo, hi
            );
        }
    }

    /// bucket → lower bound → bucket round-trip, over every regular
    /// bucket: boundaries belong to the bucket they open.
    #[test]
    fn bucket_lower_bounds_index_home(i in 1usize..OVERFLOW_BUCKET) {
        prop_assert_eq!(bucket_index(bucket_lower_bound(i)), i);
    }

    /// Recording into a plain snapshot and absorbing it at random points
    /// is indistinguishable from recording into the shared histogram:
    /// every bucket, the count, the maximum and every exemplar cell
    /// match exactly, the sums agree to 1e-9 relative, and each absorb
    /// leaves the buffer empty.
    #[test]
    fn buffered_records_absorb_to_direct_records(
        ops in prop::collection::vec((arb_any_value(), arb_exemplar(), 0u32..8), 0..96),
    ) {
        let direct = Histogram::new();
        let shared = Histogram::new();
        let mut pending = HistogramSnapshot::empty();
        for &(value, exemplar, absorb_now) in &ops {
            match exemplar {
                Some(id) => {
                    direct.record_with_exemplar(value, id);
                    pending.record_with_exemplar(value, id);
                }
                None => {
                    direct.record(value);
                    pending.record(value);
                }
            }
            if absorb_now == 0 {
                shared.absorb(&mut pending);
                prop_assert_eq!(&pending, &HistogramSnapshot::empty());
            }
        }
        shared.absorb(&mut pending);
        prop_assert_eq!(&pending, &HistogramSnapshot::empty());

        let (got, want) = (shared.snapshot(), direct.snapshot());
        prop_assert_eq!(shared.count(), ops.len() as u64);
        prop_assert_eq!(got.count(), want.count());
        prop_assert_eq!(got.max().to_bits(), want.max().to_bits());
        for i in 0..BUCKET_COUNT {
            prop_assert_eq!(got.bucket(i), want.bucket(i), "bucket {}", i);
            prop_assert_eq!(got.exemplar(i), want.exemplar(i), "exemplar of bucket {}", i);
        }
        let (a, b) = (got.sum(), want.sum());
        prop_assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            "sums differ: {} vs {}", a, b
        );
    }

    /// Drop-oldest wraparound: record `n` fast, completed traces (none
    /// reaches the tail lane) into a recorder of capacity `cap`; it
    /// keeps the newest `min(n, cap)`, in order, and the dropped counter
    /// equals the exact number of evicted traces.
    #[test]
    fn recorder_wraparound_counts_drops_exactly(
        cap in 1usize..17,
        n in 0u64..200,
    ) {
        let recorder = FlightRecorder::new(cap);
        for k in 0..n {
            let mut t = Trace::new(trace_id(7, k), k);
            let ok = SpanKind::Attempt { n: 1, outcome: AttemptOutcome::Ok, backoff: 0.0 };
            t.interval(ok, k as f64, k as f64 + 0.1);
            t.instant(SpanKind::Completed, k as f64 + 0.1);
            recorder.record(t);
        }
        let dropped = n.saturating_sub(cap as u64);
        prop_assert_eq!(recorder.recorded(), n);
        prop_assert_eq!(recorder.dropped(), dropped);
        let kept: Vec<u64> = recorder.traces().iter().map(|t| t.sequence).collect();
        prop_assert_eq!(kept, (dropped..n).collect::<Vec<u64>>());
    }
}
