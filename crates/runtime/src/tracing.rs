//! The runtime's tracing facade: deterministic per-job traces over the
//! `gtlb-telemetry` [`trace`](gtlb_telemetry::trace) primitives.
//!
//! Like [`Telemetry`](crate::telemetry::Telemetry), the facade is an
//! `Option<Arc<_>>`: [`Tracer::disabled`] (the default) costs one
//! never-taken branch per record site. [`Tracer::enabled`] allocates
//! the [`FlightRecorder`] and pins the identity scheme.
//!
//! ## Determinism contract
//!
//! Tracing owns **no RNG stream and no clock**. A job's [`TraceId`] is
//! a SplitMix64 hash of the runtime's base seed and the job's sequence
//! number ([`gtlb_telemetry::trace_id`]); the sampling decision is a
//! mask test on that id. Every span timestamp is the driver's virtual
//! time, already computed for the decision being traced. Enabling
//! tracing therefore leaves all determinism fingerprints bit-identical
//! — `tests/fingerprints.rs` checks them with tracing on and off — and
//! the trace *set* itself is a pure function of
//! `(seed, plan, shard count)`, identical across thread counts.
//!
//! ## Hot-path budget
//!
//! An unsampled job costs exactly one hash and one mask test
//! ([`Tracer::begin`] returning `None`); only sampled jobs build spans
//! (a handful of `Vec` pushes on the driver's already-cold per-job
//! path) and take the recorder lock once, at the terminal span. CI
//! gates sampled tracing at ≤ 1.03× the untraced driver loop.

use std::sync::Arc;

use gtlb_telemetry::trace::{trace_id, FlightRecorder, Trace, TraceId, TracingConfig};

/// The runtime's tracing facade: either a no-op ([`Tracer::disabled`])
/// or a shared flight recorder plus the deterministic identity scheme
/// ([`Tracer::enabled`]). Cloning shares the recorder.
///
/// The identity seed and sampling mask live inline (not behind the
/// `Arc`) so the per-job unsampled path — hash, mask test, return —
/// never chases the shared pointer; only sampled jobs touch the
/// shared recorder state.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    seed: u64,
    mask: u64,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Tracer {
    /// The no-op facade: [`Tracer::begin`] always returns `None`.
    #[must_use]
    pub fn disabled() -> Self {
        Self { seed: 0, mask: 0, recorder: None }
    }

    /// An enabled facade: trace ids hash from `seed`, the flight
    /// recorder gets one lane per shard plus the tail-sampling lane.
    #[must_use]
    pub fn enabled(seed: u64, shards: usize, cfg: TracingConfig) -> Self {
        let recorder = FlightRecorder::new(shards, cfg.recorder_capacity);
        Self { seed, mask: cfg.sample_mask, recorder: Some(Arc::new(recorder)) }
    }

    /// Whether this facade records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The deterministic id job `sequence` would get (hash of the base
    /// seed and the sequence number), even when the job is not sampled.
    /// `None` when tracing is disabled.
    #[must_use]
    pub fn id_of(&self, sequence: u64) -> Option<TraceId> {
        self.recorder.is_some().then(|| trace_id(self.seed, sequence))
    }

    /// Starts a trace for job `sequence` if tracing is enabled and the
    /// job's id falls under the sampling mask. Pure: one hash, one mask
    /// test against inline fields, no draws, no clock, no pointer
    /// chase.
    #[must_use]
    pub fn begin(&self, sequence: u64) -> Option<Trace> {
        self.recorder.as_ref()?;
        let id = trace_id(self.seed, sequence);
        id.sampled(self.mask).then(|| Trace::new(id, sequence))
    }

    /// Lands a finished trace in the flight recorder's lane for
    /// `shard` (and the tail lane when it is slow or failed).
    pub fn finish(&self, shard: usize, trace: Trace) {
        if let Some(recorder) = &self.recorder {
            recorder.record(shard, trace);
        }
    }

    /// All currently-held traces, in start-time order (empty when
    /// disabled).
    #[must_use]
    pub fn traces(&self) -> Vec<Trace> {
        self.recorder.as_ref().map_or_else(Vec::new, |r| r.traces())
    }

    /// Looks up one recorded trace by id.
    #[must_use]
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        self.recorder.as_ref()?.trace(id)
    }

    /// Traces ever recorded (tail-lane copies counted; 0 when
    /// disabled).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorder.as_ref().map_or(0, |r| r.recorded())
    }

    /// Traces evicted across every lane (0 when disabled).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorder.as_ref().map_or(0, |r| r.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtlb_telemetry::trace::SpanKind;

    #[test]
    fn disabled_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(t.begin(1).is_none());
        assert!(t.id_of(1).is_none());
        assert!(t.traces().is_empty());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_id() {
        let t = Tracer::enabled(
            0xF1A6,
            2,
            TracingConfig { sample_mask: 0x3, ..TracingConfig::default() },
        );
        let sampled: Vec<u64> = (1..=100).filter(|&s| t.begin(s).is_some()).collect();
        let again: Vec<u64> = (1..=100).filter(|&s| t.begin(s).is_some()).collect();
        assert_eq!(sampled, again, "replayable");
        assert!(!sampled.is_empty() && sampled.len() < 100, "mask thins: {}", sampled.len());
        // Every sampled sequence's id passes the mask test.
        for s in sampled {
            assert!(t.id_of(s).unwrap().sampled(0x3));
        }
    }

    #[test]
    fn finished_traces_are_queryable() {
        let t = Tracer::enabled(7, 1, TracingConfig::sample_all());
        let mut trace = t.begin(1).unwrap();
        trace.instant(SpanKind::Admitted, 0.5);
        trace.instant(SpanKind::Completed, 1.0);
        let id = trace.id;
        t.finish(0, trace);
        assert_eq!(t.recorded(), 1);
        assert_eq!(t.traces().len(), 1);
        assert_eq!(t.trace(id).unwrap().sequence, 1);
    }
}
