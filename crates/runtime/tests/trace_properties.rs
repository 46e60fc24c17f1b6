//! Property tests over deterministic per-job tracing (vendored
//! proptest shim): under **arbitrary fault plans** —
//!
//! 1. every recorded trace is well-formed: spans are virtual-time
//!    ordered, there is exactly one terminal span, and the attempt
//!    count never exceeds the retry budget;
//! 2. the trace set is a pure function of the scenario — bit-identical
//!    (ids, sequences, span kinds, and every timestamp bit) across
//!    `RAYON_NUM_THREADS ∈ {1, 2, 4}`;
//! 3. head sampling selects a subset, never rewrites: the default-mask
//!    trace set equals the sample-all trace set filtered by the mask
//!    test on the id (capacity held large enough that nothing evicts).

use gtlb_runtime::{
    FaultPlan, NodeId, PartitionDirection, RetryConfig, RetryPolicy, Runtime, SchemeKind, Trace,
    TraceConfig, TraceDriver, TracingConfig,
};
use proptest::prelude::*;

/// One schedulable fault, as raw draws; `build` maps it onto the
/// `FaultPlan` builder with every panic-guard respected.
#[derive(Debug, Clone, Copy)]
struct FaultDraw {
    kind: u32,
    node_idx: usize,
    at: f64,
    lasts: f64,
    p: f64,
}

fn fault_draws() -> impl Strategy<Value = Vec<FaultDraw>> {
    prop::collection::vec(
        (0u32..5, 0usize..3, 0.0f64..200.0, 1.0f64..80.0, 0.0f64..0.9)
            .prop_map(|(kind, node_idx, at, lasts, p)| FaultDraw { kind, node_idx, at, lasts, p }),
        0..6,
    )
}

fn build_plan(seed: u64, ids: &[NodeId], draws: &[FaultDraw]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for d in draws {
        let node = ids[d.node_idx % ids.len()];
        plan = match d.kind {
            0 => plan.crash_recover(node, d.at, d.lasts),
            1 => plan.flaky(node, d.at, d.lasts, d.p),
            2 => plan.slow(node, d.at, d.lasts, 0.2 + 0.7 * d.p),
            3 => plan.gray(node, d.at, d.lasts, 1.0 + d.p, 0.8 * d.p),
            _ => {
                let dir = if d.p < 0.45 {
                    PartitionDirection::DropDispatch
                } else {
                    PartitionDirection::DropHeartbeats
                };
                plan.partition(node, d.at, d.lasts, dir)
            }
        };
    }
    plan
}

/// Runs the traced chaos scenario and returns the recorder's trace
/// set. Capacity is far above the job count so nothing ever evicts
/// and the set is the *complete* sampled population.
fn run_traced(
    seed: u64,
    draws: &[FaultDraw],
    max_attempts: u32,
    mask: u64,
    jobs: u64,
) -> Vec<Trace> {
    let rt = Runtime::builder()
        .seed(seed)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(1.2)
        .tracing_config(TracingConfig { sample_mask: mask, recorder_capacity: 8192 })
        .build();
    let ids: Vec<NodeId> = [2.0, 1.0, 0.5].iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let retry = RetryPolicy::new(RetryConfig { max_attempts, ..RetryConfig::default() }).unwrap();
    let mut driver = TraceDriver::new(1.2, TraceConfig { seed: seed ^ 0xBEEF, batch_size: 200 })
        .with_faults(build_plan(seed, &ids, draws))
        .with_retry(retry)
        .with_heartbeats(1.0);
    driver.run_jobs(&rt, jobs).unwrap();
    rt.tracer().traces()
}

/// Canonical bit-exact encoding of a trace set: every id, sequence,
/// span kind (with its fields), and timestamp bit, in recorder order.
fn words(traces: &[Trace]) -> Vec<u64> {
    use gtlb_runtime::SpanKind;
    let mut out = Vec::new();
    for t in traces {
        out.push(t.id.raw());
        out.push(t.sequence);
        out.push(t.spans.len() as u64);
        for s in &t.spans {
            let (a, b, c, d) = match s.kind {
                SpanKind::Admitted => (0, 0, 0, 0),
                SpanKind::Deferred => (1, 0, 0, 0),
                SpanKind::Rejected => (2, 0, 0, 0),
                SpanKind::Queued { depth } => (3, depth, 0, 0),
                SpanKind::Routed { node, epoch, shard } => (4, node, epoch, u64::from(shard)),
                SpanKind::Attempt { n, outcome, backoff } => {
                    (5, u64::from(n), outcome.code(), backoff.to_bits())
                }
                SpanKind::Completed => (6, 0, 0, 0),
                SpanKind::Failed => (7, 0, 0, 0),
            };
            out.extend([a, b, c, d, s.start.to_bits(), s.end.to_bits()]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: arbitrary fault plans never produce a malformed
    /// trace. Sample-all so the assertion covers every job.
    #[test]
    fn traces_are_well_formed_under_arbitrary_fault_plans(
        seed in 1u64..u64::MAX,
        draws in fault_draws(),
        max_attempts in 1u32..5,
    ) {
        let traces = run_traced(seed, &draws, max_attempts, 0, 800);
        prop_assert!(!traces.is_empty(), "sample-all must record traces");
        for t in &traces {
            prop_assert!(t.terminal().is_some(), "no terminal span: {t:?}");
            prop_assert_eq!(
                t.spans.iter().filter(|s| s.kind.is_terminal()).count(), 1,
                "exactly one terminal span: {:?}", t
            );
            for w in t.spans.windows(2) {
                prop_assert!(w[1].start >= w[0].start, "spans out of causal order: {t:?}");
                prop_assert!(w[0].end >= w[0].start, "span ends before it starts: {t:?}");
            }
            prop_assert!(
                t.attempts() <= max_attempts,
                "attempt count {} exceeds the retry budget {}: {:?}", t.attempts(), max_attempts, t
            );
        }
    }

    /// Property 2: the trace set is bit-identical across worker-pool
    /// sizes. `RAYON_NUM_THREADS` feeds the desim scoped pool that the
    /// background resolver uses; traces must not care.
    #[test]
    fn trace_set_is_bit_identical_across_thread_counts(
        seed in 1u64..u64::MAX,
        draws in fault_draws(),
    ) {
        let run_with_threads = |threads: &str| {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let traces = run_traced(seed, &draws, 3, 0x7, 800);
            std::env::remove_var("RAYON_NUM_THREADS");
            words(&traces)
        };
        let one = run_with_threads("1");
        let two = run_with_threads("2");
        let four = run_with_threads("4");
        prop_assert_eq!(&one, &two, "trace set diverged between 1 and 2 threads");
        prop_assert_eq!(&one, &four, "trace set diverged between 1 and 4 threads");
    }

    /// Property 3: head sampling filters, it never rewrites. The
    /// masked run's trace set is exactly the sample-all set restricted
    /// to ids passing the mask test.
    #[test]
    fn sampling_selects_a_subset_without_rewriting(
        seed in 1u64..u64::MAX,
        draws in fault_draws(),
        mask_bits in 1u32..6,
    ) {
        let mask = (1u64 << mask_bits) - 1;
        let all = run_traced(seed, &draws, 3, 0, 800);
        let masked = run_traced(seed, &draws, 3, mask, 800);
        let expected: Vec<Trace> =
            all.into_iter().filter(|t| t.id.sampled(mask)).collect();
        prop_assert_eq!(
            words(&masked), words(&expected),
            "masked trace set is not the filtered sample-all set"
        );
    }
}
