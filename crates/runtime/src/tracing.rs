//! The runtime's tracer: deterministic per-job traces over the
//! `gtlb-telemetry` [`trace`](gtlb_telemetry::trace) primitives.
//!
//! Every [`Runtime`](crate::Runtime) holds one [`Tracer`] by value: the
//! [`FlightRecorder`] and the identity scheme, sampling one job in 64
//! unless [`RuntimeBuilder::tracing_config`] sets another mask.
//!
//! ## Determinism contract
//!
//! Tracing owns **no RNG stream and no clock**. A job's [`TraceId`] is
//! a SplitMix64 hash of the runtime's base seed and the job's sequence
//! number ([`gtlb_telemetry::trace_id`]); the sampling decision is a
//! mask test on that id. Every span timestamp is the driver's virtual
//! time, already computed for the decision being traced. Which jobs
//! build spans therefore leaves all determinism fingerprints
//! bit-identical — `tests/fingerprints.rs` checks them under the
//! default mask and with every job sampled — and the trace *set* itself
//! is a pure function of `(seed, plan)`, identical across thread
//! counts.
//!
//! ## Hot-path budget
//!
//! An unsampled job costs exactly one hash and one mask test
//! ([`Tracer::begin`] returning `None`); only sampled jobs build spans
//! (a handful of `Vec` pushes on the driver's already-cold per-job
//! path) and take the recorder lock once, at the terminal span. At the
//! default mask that is ≈ 2 ns per job; the benchmark's workloads pay it
//! in every run.
//!
//! [`RuntimeBuilder::tracing_config`]: crate::RuntimeBuilder::tracing_config

use gtlb_telemetry::trace::{trace_id, FlightRecorder, Trace, TraceId, TracingConfig};

/// The runtime's tracer: a flight recorder plus the deterministic
/// identity scheme.
///
/// The identity seed and sampling mask sit beside the recorder, so the
/// per-job unsampled path — hash, mask test, return — reads two words
/// and takes no lock; only sampled jobs touch the recorder.
#[derive(Debug)]
pub struct Tracer {
    seed: u64,
    mask: u64,
    recorder: FlightRecorder,
}

impl Tracer {
    /// A tracer whose trace ids hash from `seed`, and whose flight
    /// recorder holds `cfg.recorder_capacity` traces in its lane plus as
    /// many in its tail-sampling lane.
    #[must_use]
    pub fn new(seed: u64, cfg: TracingConfig) -> Self {
        Self { seed, mask: cfg.sample_mask, recorder: FlightRecorder::new(cfg.recorder_capacity) }
    }

    /// The deterministic id job `sequence` gets (hash of the base seed
    /// and the sequence number), even when the job is not sampled.
    #[must_use]
    pub fn id_of(&self, sequence: u64) -> TraceId {
        trace_id(self.seed, sequence)
    }

    /// Starts a trace for job `sequence` if the job's id falls under the
    /// sampling mask. Pure: one hash, one mask test against inline
    /// fields, no draws, no clock, no lock.
    #[must_use]
    pub fn begin(&self, sequence: u64) -> Option<Trace> {
        let id = self.id_of(sequence);
        id.sampled(self.mask).then(|| Trace::new(id, sequence))
    }

    /// Lands a finished trace in the flight recorder (and in its tail
    /// lane when it is slow or failed). The first argument is ignored;
    /// it is kept for the benchmark's job loop until that loop is
    /// retired.
    pub fn finish(&self, _shard: usize, trace: Trace) {
        self.recorder.record(trace);
    }

    /// All currently-held traces, in start-time order.
    #[must_use]
    pub fn traces(&self) -> Vec<Trace> {
        self.recorder.traces()
    }

    /// Looks up one recorded trace by id.
    #[must_use]
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        self.recorder.trace(id)
    }

    /// Traces ever recorded (tail-lane copies counted).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorder.recorded()
    }

    /// Traces evicted across every lane.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorder.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtlb_telemetry::trace::SpanKind;

    #[test]
    fn sampling_is_a_pure_function_of_the_id() {
        let t = Tracer::new(0xF1A6, TracingConfig { sample_mask: 0x3, ..TracingConfig::default() });
        let sampled: Vec<u64> = (1..=100).filter(|&s| t.begin(s).is_some()).collect();
        let again: Vec<u64> = (1..=100).filter(|&s| t.begin(s).is_some()).collect();
        assert_eq!(sampled, again, "replayable");
        assert!(!sampled.is_empty() && sampled.len() < 100, "mask thins: {}", sampled.len());
        // Every sampled sequence's id passes the mask test.
        for s in sampled {
            assert!(t.id_of(s).sampled(0x3));
        }
    }

    #[test]
    fn finished_traces_are_queryable() {
        let t = Tracer::new(7, TracingConfig::sample_all());
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
