//! Deterministic per-job tracing: spans, trace identity, and the
//! flight recorder.
//!
//! Every sampled job accumulates a [`Trace`]: a causally-ordered list
//! of [`Span`]s stamped with **virtual time** supplied by the caller.
//! Identity and sampling are pure functions — a [`TraceId`] is a
//! SplitMix64-style hash of the runtime's base seed and the job's
//! sequence number ([`trace_id`]), and the sampling decision is a mask
//! test on that id ([`TraceId::sampled`]) — so the tracing layer draws
//! **no RNG stream and no wall clock** and cannot perturb a
//! deterministic run. Disabling or enabling tracing leaves every
//! dispatch fingerprint bit-identical.
//!
//! Finished traces land in a [`FlightRecorder`]: a bounded,
//! drop-oldest lane plus one reserved tail-sampling lane for
//! slow/failed traces, with exact accounting (recorded and dropped
//! counters) per lane. Dropping happens at whole-trace granularity — a
//! trace is either fully present or fully evicted.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::Number;

/// A deterministic trace identifier.
///
/// Constructed by [`trace_id`] from the runtime seed and the job's
/// sequence number; never random, never clock-derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The raw 64-bit id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this id is head-sampled under `mask`: the id's low bits
    /// under the mask must all be zero, so a mask of `(1 << k) - 1`
    /// samples one job in `2^k` on average. A mask of `0` samples
    /// every job.
    ///
    /// The decision is a pure function of the id — no RNG, no clock —
    /// so the same job is sampled (or not) in every replay.
    #[must_use]
    pub fn sampled(self, mask: u64) -> bool {
        self.0 & mask == 0
    }

    /// Renders the id as fixed-width lowercase hex (the wire format
    /// used by `/traces/{id}`).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the fixed-width hex form produced by [`Self::to_hex`].
    /// Accepts any valid hex string up to 16 digits.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Self)
    }
}

/// Hashes `(seed, sequence)` into a [`TraceId`] with a SplitMix64
/// finalizer. The map is deterministic and well-dispersed: consecutive
/// sequence numbers produce ids that look uniform under any sampling
/// mask, yet the whole scheme is replayable from the seed alone.
#[must_use]
pub fn trace_id(seed: u64, sequence: u64) -> TraceId {
    let mut z = seed ^ sequence.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    TraceId(z ^ (z >> 31))
}

/// Why a dispatch attempt did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt was served successfully.
    Ok,
    /// An injected fault (flaky or gray loss draw, or a crashed node)
    /// dropped the dispatch.
    FaultDrop,
    /// An asymmetric partition dropped the dispatch.
    PartitionDrop,
    /// No serving nodes were available; the attempt timed out waiting.
    Timeout,
}

impl AttemptOutcome {
    /// Stable lowercase name used in JSON exports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::FaultDrop => "fault-drop",
            Self::PartitionDrop => "partition-drop",
            Self::Timeout => "timeout",
        }
    }

    /// Stable small integer for fingerprint folding.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            Self::Ok => 0,
            Self::FaultDrop => 1,
            Self::PartitionDrop => 2,
            Self::Timeout => 3,
        }
    }
}

/// One causal step in a job's trajectory through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// Admission control accepted the job.
    Admitted,
    /// Admission control deferred the job (terminal when it happens on
    /// the first attempt).
    Deferred,
    /// Admission control rejected the job (terminal).
    Rejected,
    /// The job entered the pipeline.
    Queued {
        /// Jobs queued ahead of this one before admission. The
        /// runtime's job loops queue nothing there and record `0`.
        depth: u64,
    },
    /// The routing table picked a node.
    Routed {
        /// Raw id of the chosen node.
        node: u64,
        /// Routing-table epoch the decision was made under.
        epoch: u64,
        /// Always 0, the runtime's one dispatcher. Kept for the
        /// benchmark's job loop, which names it, and for the determinism
        /// fingerprint, which folds it; `/traces` does not render it.
        shard: u32,
    },
    /// One dispatch attempt.
    Attempt {
        /// 1-based attempt number.
        n: u32,
        /// How the attempt ended.
        outcome: AttemptOutcome,
        /// Backoff applied before this attempt (seconds of virtual
        /// time; `0.0` for the first attempt).
        backoff: f64,
    },
    /// The job completed (terminal).
    Completed,
    /// The job exhausted its retry budget (terminal).
    Failed,
}

impl SpanKind {
    /// Stable lowercase name used in JSON exports (`attempt` for every
    /// attempt span; the attempt number is a separate field).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Admitted => "admitted",
            Self::Deferred => "deferred",
            Self::Rejected => "rejected",
            Self::Queued { .. } => "queued",
            Self::Routed { .. } => "routed",
            Self::Attempt { .. } => "attempt",
            Self::Completed => "completed",
            Self::Failed => "failed",
        }
    }

    /// Whether this span ends the trace.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, Self::Completed | Self::Failed | Self::Deferred | Self::Rejected)
    }
}

/// A span: one [`SpanKind`] stamped with the virtual times it covers.
/// Instant events have `start == end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What happened.
    pub kind: SpanKind,
    /// Virtual time the step began.
    pub start: f64,
    /// Virtual time the step ended (`start` for instants).
    pub end: f64,
}

/// A finished per-job trace: the deterministic id, the job sequence
/// number it hashes from, and the causally-ordered spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Deterministic trace id.
    pub id: TraceId,
    /// Job sequence number (1-based submission index).
    pub sequence: u64,
    /// Spans in causal order; exactly one terminal span, last.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Starts an empty trace for `(id, sequence)`.
    #[must_use]
    pub fn new(id: TraceId, sequence: u64) -> Self {
        Self { id, sequence, spans: Vec::with_capacity(6) }
    }

    // The two span appends are `#[inline]`: the trace driver calls them
    // from another crate on every sampled job, and out of line they cost
    // ≈ 40 % of a sampled trace (measured on a 2-vCPU VM).

    /// Appends an instant span at virtual time `at`.
    #[inline]
    pub fn instant(&mut self, kind: SpanKind, at: f64) {
        self.spans.push(Span { kind, start: at, end: at });
    }

    /// Appends an interval span covering `[start, end]`.
    #[inline]
    pub fn interval(&mut self, kind: SpanKind, start: f64, end: f64) {
        self.spans.push(Span { kind, start, end });
    }

    /// Virtual time of the first span, or `0.0` for an empty trace.
    #[must_use]
    pub fn started_at(&self) -> f64 {
        self.spans.first().map_or(0.0, |s| s.start)
    }

    /// Virtual time of the last span's end, or `0.0` for an empty
    /// trace.
    #[must_use]
    pub fn ended_at(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.end)
    }

    /// End-to-end duration in virtual seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.ended_at() - self.started_at()
    }

    /// The terminal span kind, if the trace is finished.
    #[must_use]
    pub fn terminal(&self) -> Option<SpanKind> {
        self.spans.last().map(|s| s.kind).filter(SpanKind::is_terminal)
    }

    /// Whether the trace ended in `failed`.
    #[must_use]
    pub fn failed(&self) -> bool {
        matches!(self.terminal(), Some(SpanKind::Failed))
    }

    /// Number of attempt spans.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.spans.iter().filter(|s| matches!(s.kind, SpanKind::Attempt { .. })).count() as u32
    }
}

/// Configuration for the tracing layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracingConfig {
    /// Head-sampling mask: a job is traced when
    /// `trace_id & sample_mask == 0` (see [`TraceId::sampled`]).
    /// `0` traces every job; `(1 << k) - 1` traces one in `2^k`.
    pub sample_mask: u64,
    /// Capacity of each flight-recorder lane, in whole traces.
    pub recorder_capacity: usize,
}

impl Default for TracingConfig {
    fn default() -> Self {
        // 1-in-64 head sampling: a sampled job costs ~40 ns (one Vec,
        // a handful of inlined span pushes, one recorder lock; 2-vCPU
        // VM), so this mask plus the per-job id hash amortizes tracing
        // to ≈ 2 ns per job, while a few-thousand-job run still lands
        // dozens of traces in the recorder. Every runtime traces at
        // this mask unless told otherwise, so those ≈ 2 ns are part of
        // every benchmark workload's per-job cost.
        Self { sample_mask: 0x3F, recorder_capacity: 256 }
    }
}

impl TracingConfig {
    /// A config that traces every job; convenient in tests.
    #[must_use]
    pub fn sample_all() -> Self {
        Self { sample_mask: 0, ..Self::default() }
    }
}

/// Traces whose end-to-end duration is at least this many virtual
/// seconds are tail-sampled into the flight recorder's reserved lane
/// (failed traces always are).
pub const SLOW_TRACE_SECONDS: f64 = 4.0;

/// One bounded, drop-oldest lane of a [`FlightRecorder`], with exact
/// accounting.
#[derive(Debug)]
struct Lane {
    buf: VecDeque<Trace>,
    /// Traces evicted to make room.
    dropped: u64,
    /// Traces ever pushed.
    recorded: u64,
}

impl Lane {
    /// An empty lane of `capacity` traces behind its own lock.
    fn new(capacity: usize) -> Mutex<Self> {
        Mutex::new(Self { buf: VecDeque::with_capacity(capacity), dropped: 0, recorded: 0 })
    }

    /// Locks `lane`. A holder that panicked leaves the lane valid, at
    /// worst with one count off, so a poisoned lock is recovered rather
    /// than propagated.
    fn lock(lane: &Mutex<Self>) -> MutexGuard<'_, Self> {
        lane.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `trace`, first evicting the oldest one if the lane holds
    /// `capacity` traces.
    fn push(&mut self, trace: Trace, capacity: usize) {
        if self.buf.len() == capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(trace);
        self.recorded += 1;
    }
}

/// The control-plane flight recorder: one lane of finished traces plus
/// one reserved tail-sampling lane, each bounded and drop-oldest at
/// whole-trace granularity with exact dropped counters.
///
/// Slow (duration ≥ [`SLOW_TRACE_SECONDS`]) and failed traces are
/// copied into the tail lane in addition to the main lane, so the
/// interesting traces survive wraparound of the busy main lane.
#[derive(Debug)]
pub struct FlightRecorder {
    /// The main lane, then the reserved tail lane.
    lanes: [Mutex<Lane>; 2],
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder whose main and tail lanes each hold up to `capacity`
    /// traces (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { lanes: [Lane::new(capacity), Lane::new(capacity)], capacity }
    }

    fn lane(&self, i: usize) -> MutexGuard<'_, Lane> {
        Lane::lock(&self.lanes[i])
    }

    /// Records a finished trace into the main lane. Slow and failed
    /// traces are additionally copied into the reserved tail lane.
    pub fn record(&self, trace: Trace) {
        let tail = trace.failed() || trace.duration() >= SLOW_TRACE_SECONDS;
        if tail {
            self.lane(1).push(trace.clone(), self.capacity);
        }
        self.lane(0).push(trace, self.capacity);
    }

    /// All currently-held traces from both lanes (tail lane excluded
    /// unless a trace only survives there), sorted by start time then
    /// id, deduplicated by id: of two copies with one id, the main
    /// lane's survives. Each lane's lock is held only to copy its traces
    /// out; the dedup and the sort run after, in O(n log n).
    #[must_use]
    pub fn traces(&self) -> Vec<Trace> {
        let mut out: Vec<Trace> = Vec::new();
        for i in 0..self.lanes.len() {
            out.extend(self.lane(i).buf.iter().cloned());
        }
        // The sort is stable, so equal ids keep their lane order.
        out.sort_by_key(|t| t.id);
        out.dedup_by_key(|t| t.id);
        out.sort_by(|a, b| a.started_at().total_cmp(&b.started_at()).then_with(|| a.id.cmp(&b.id)));
        out
    }

    /// Looks up a single trace by id in both lanes.
    #[must_use]
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        for i in 0..self.lanes.len() {
            if let Some(t) = self.lane(i).buf.iter().find(|t| t.id == id) {
                return Some(t.clone());
            }
        }
        None
    }

    /// Total traces evicted from both lanes.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        (0..self.lanes.len()).map(|i| self.lane(i).dropped).sum()
    }

    /// Total traces ever recorded in both lanes (a tail-sampled trace
    /// counts in each).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        (0..self.lanes.len()).map(|i| self.lane(i).recorded).sum()
    }
}

/// Renders `traces` as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form), loadable in `about:tracing`
/// and Perfetto.
///
/// Virtual seconds map to microseconds (`ts = start * 1e6`); each
/// trace renders as complete (`"X"`) events for intervals and instant
/// (`"i"`) events for zero-width spans, all in `pid` 0, with the job
/// sequence as `tid` so concurrent jobs stack into rows.
#[must_use]
pub fn to_chrome_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut any = false;
    for t in traces {
        for s in &t.spans {
            if any {
                out.push(',');
            }
            any = true;
            let ts = Number(s.start * 1e6);
            let dur = (s.end - s.start) * 1e6;
            let name = match s.kind {
                SpanKind::Attempt { n, outcome, .. } => {
                    format!("attempt{n}:{}", outcome.as_str())
                }
                ref k => k.name().to_string(),
            };
            out.push_str("{\"name\":\"");
            out.push_str(&name);
            out.push_str("\",\"cat\":\"job\",\"ph\":\"");
            if dur > 0.0 {
                let _ = write!(out, "X\",\"ts\":{ts},\"dur\":{}", Number(dur));
            } else {
                let _ = write!(out, "i\",\"s\":\"t\",\"ts\":{ts}");
            }
            let _ = write!(
                out,
                ",\"pid\":0,\"tid\":{},\"args\":{{\"trace_id\":\"{}\"}}}}",
                t.sequence,
                t.id.to_hex()
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn finished(seed: u64, seq: u64, start: f64, dur: f64, fail: bool) -> Trace {
        let mut t = Trace::new(trace_id(seed, seq), seq);
        t.instant(SpanKind::Admitted, start);
        t.instant(SpanKind::Routed { node: 1, epoch: 3, shard: 0 }, start);
        t.interval(
            SpanKind::Attempt { n: 1, outcome: AttemptOutcome::Ok, backoff: 0.0 },
            start,
            start + dur,
        );
        t.instant(if fail { SpanKind::Failed } else { SpanKind::Completed }, start + dur);
        t
    }

    #[test]
    fn trace_ids_are_deterministic_and_dispersed() {
        assert_eq!(trace_id(42, 7), trace_id(42, 7));
        assert_ne!(trace_id(42, 7), trace_id(42, 8));
        assert_ne!(trace_id(42, 7), trace_id(43, 7));
        // Under a 1-in-16 mask roughly 1/16 of sequential ids sample.
        let sampled = (0..16_000).filter(|&i| trace_id(0xBEEF, i).sampled(0xF)).count();
        assert!((800..1200).contains(&sampled), "got {sampled}");
    }

    #[test]
    fn hex_round_trips() {
        let id = trace_id(1, 2);
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(TraceId::from_hex("zz"), None);
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("00000000000000000"), None, "17 digits");
    }

    #[test]
    fn trace_shape_queries() {
        let t = finished(1, 9, 2.0, 0.5, false);
        assert_eq!(t.terminal(), Some(SpanKind::Completed));
        assert_eq!(t.attempts(), 1);
        assert!((t.duration() - 0.5).abs() < 1e-12);
        assert!(!t.failed());
        assert!(finished(1, 10, 2.0, 0.5, true).failed());
    }

    #[test]
    fn recorder_drops_oldest_with_exact_accounting() {
        let r = FlightRecorder::new(2);
        for seq in 0..5 {
            r.record(finished(7, seq, seq as f64, 0.1, false));
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 3, "the main lane evicted 3; the tail lane held nothing");
        let held = r.traces();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].sequence, 3, "oldest evicted first");
    }

    #[test]
    fn tail_lane_keeps_slow_and_failed_traces() {
        let r = FlightRecorder::new(2);
        r.record(finished(7, 0, 0.0, 5.0, false)); // slow
        r.record(finished(7, 1, 1.0, 0.1, true)); // failed
        for seq in 2..10 {
            r.record(finished(7, seq, seq as f64, 0.1, false));
        }
        // The main lane wrapped past them, but the tail lane kept both.
        let ids: Vec<u64> = r.traces().iter().map(|t| t.sequence).collect();
        assert!(ids.contains(&0) && ids.contains(&1), "{ids:?}");
        assert_eq!(r.dropped(), 8, "the main lane evicted 8 of 10; the tail lane none");
    }

    /// The scan [`FlightRecorder::traces`] replaced, kept as the
    /// reference its output must match: every lane in order, each trace
    /// kept unless an earlier one has its id (a quadratic scan under
    /// the lane's lock), then sorted by start time and id.
    fn reference_traces(r: &FlightRecorder) -> Vec<Trace> {
        let mut out: Vec<Trace> = Vec::new();
        for i in 0..r.lanes.len() {
            for t in &r.lane(i).buf {
                if !out.iter().any(|o| o.id == t.id) {
                    out.push(t.clone());
                }
            }
        }
        out.sort_by(|a, b| a.started_at().total_cmp(&b.started_at()).then_with(|| a.id.cmp(&b.id)));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Records read back exactly as the reference scan reads them.
        /// Ids come from a few sequence numbers, so one id recurs in a
        /// lane and in both lanes with different starts and durations;
        /// starts come from a few values, so distinct ids tie on start;
        /// slow (kind 1) and failed (kind 2) traces also land in the
        /// tail lane; small capacities make lanes wrap.
        #[test]
        fn traces_match_the_reference_scan(
            capacity in 1usize..6,
            records in prop::collection::vec((0u64..12, 0u32..4, 0u32..3), 0..40),
        ) {
            let r = FlightRecorder::new(capacity);
            for &(seq, start, kind) in &records {
                let dur = if kind == 1 { SLOW_TRACE_SECONDS + 1.0 } else { 0.1 };
                r.record(finished(7, seq, f64::from(start), dur, kind == 2));
            }
            prop_assert_eq!(r.traces(), reference_traces(&r));
        }
    }

    #[test]
    fn lookup_by_id_spans_lanes() {
        let r = FlightRecorder::new(2);
        let failed = finished(7, 3, 0.0, 0.1, true);
        let id = failed.id;
        r.record(failed);
        assert_eq!(r.trace(id).unwrap().sequence, 3);
        // Once the main lane wraps past it, the tail lane still has it.
        for seq in 4..6 {
            r.record(finished(7, seq, seq as f64, 0.1, false));
        }
        assert_eq!(r.trace(id).unwrap().sequence, 3);
        assert!(r.trace(trace_id(7, 999)).is_none());
    }

    #[test]
    fn chrome_export_is_structurally_sound() {
        let traces = vec![finished(7, 1, 0.0, 0.25, false), finished(7, 2, 0.5, 0.0, true)];
        let json = to_chrome_json(&traces);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""), "interval events: {json}");
        assert!(json.contains("\"ph\":\"i\""), "instant events: {json}");
        assert!(json.contains("attempt1:ok"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
