//! Runtime observability: a [`Telemetry`] facade over the
//! `gtlb-telemetry` instruments, threaded through every subsystem.
//!
//! The facade is an `Option<Arc<_>>`: [`Telemetry::disabled`] (the
//! default) carries `None` and every record method compiles to a plain
//! branch on it, so the instrumented paths cost one predictable
//! never-taken branch when telemetry is off. [`Telemetry::enabled`]
//! allocates the event ring and the seven instruments the runtime
//! records into.
//!
//! ## Determinism contract
//!
//! Telemetry consumes **no RNG draws** and owns **no clock**: every
//! event is tagged with the virtual time the [`TraceDriver`] publishes
//! through [`Telemetry::set_clock`], and no instrument reads wall-clock
//! time. The `stream` tag on an event names the seed-stream family of the
//! subsystem that emitted it ([`DISPATCH_STREAM`], [`FAULT_STREAM`], …,
//! or `0` for subsystems that draw nothing); telemetry itself has no
//! entry in the stream-family map because it never draws. Enabling
//! telemetry therefore leaves every determinism fingerprint
//! bit-identical — `tests/fingerprints.rs` checks them with telemetry
//! on and off.
//!
//! ## Hot-path budget
//!
//! The alias-routing hot path gains only the enabled-check branch plus,
//! every [`ROUTE_SAMPLE_EVERY`]-th dispatch, one sampled
//! [`RuntimeEvent::Routed`] ring push (amortized to well under a
//! nanosecond). CI gates the enabled/disabled ratio at ≤ 1.03× on the
//! n=1024 route bench.
//!
//! Every served job has a response time and a queue wait. The
//! [`TraceDriver`] records both into plain buffers of its own and adds
//! them into `gtlb_response_seconds` and `gtlb_queue_wait_seconds`
//! ([`Histogram::absorb`]: one `fetch_add` per non-empty bucket and one
//! CAS on the sum) on every return from `run_jobs` and every 4,096
//! served jobs inside a call. A scrape between calls is exact; one
//! during a call lags the driver by at most 4,096 completions, and
//! `gtlb_jobs_inflight` reads high by at most 4,096. Other job loops
//! record per call through the `record_*` methods. Admission, fault and
//! health events and retries record on paths that are already cold or
//! lock-bound.
//!
//! ## Scrape
//!
//! [`Runtime::telemetry_snapshot`] builds a [`Snapshot`] from the
//! sources themselves and reads each once: here, the seven recorded
//! instruments (retries, fault drops, health transitions and solves,
//! plus the response, queue-wait and backoff histograms), the ring's
//! drop count and the telemetry clock; in the runtime, the
//! dispatcher's count, the table slot's publishes, admission's
//! counters and ρ, and one pass over the registry rows under the
//! `state` lock for each node's φ and thresholds, the same pass
//! `/nodes` reads ([`ControlPlaneHooks::nodes`]). `gtlb_jobs_inflight`
//! is derived from the exported values, so every scrape agrees with
//! itself. A new per-node series is one more column of that pass.
//!
//! [`Runtime::telemetry_snapshot`]: crate::Runtime::telemetry_snapshot
//! [`ControlPlaneHooks::nodes`]: crate::ControlPlaneHooks::nodes
//! [`TraceDriver`]: crate::driver::TraceDriver
//! [`DISPATCH_STREAM`]: crate::shard::DISPATCH_STREAM
//! [`FAULT_STREAM`]: crate::fault::FAULT_STREAM

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gtlb_telemetry::{
    Counter, EventRing, FamilySnapshot, Histogram, HistogramSnapshot, Snapshot, TaggedEvent,
};

use crate::admission::{AdmissionStats, AdmissionVerdict};
use crate::detector::HealthTransition;
use crate::fault::{
    FaultMarker, FaultMarkerKind, PartitionDirection, ADVERSARIAL_STREAM, FAULT_STREAM,
};
use crate::registry::{Health, NodeId};
use crate::shard::{ADMISSION_STREAM, DISPATCH_STREAM};

/// Events the event ring holds.
pub const TELEMETRY_EVENT_CAPACITY: usize = 1024;

/// The dispatcher pushes one sampled [`RuntimeEvent::Routed`] event
/// every this many dispatches (a power of two, so the check is one
/// mask). Routing *counts* are exact regardless — they come from the
/// dispatcher's counters — only the per-decision event stream is
/// sampled.
pub const ROUTE_SAMPLE_EVERY: u64 = 1024;

/// Canonical metric names, as they appear in [`Snapshot`] and both
/// exposition formats. The README's metric table documents each.
pub mod names {
    /// Jobs routed (the dispatcher's count, read at scrape).
    pub const DISPATCHES: &str = "gtlb_dispatches_total";
    /// Jobs that asked admission for a verdict.
    pub const ADMISSION_SUBMITTED: &str = "gtlb_admission_submitted_total";
    /// Jobs admitted to dispatch.
    pub const ADMISSION_ACCEPTED: &str = "gtlb_admission_accepted_total";
    /// Jobs shed with retry-later semantics.
    pub const ADMISSION_DEFERRED: &str = "gtlb_admission_deferred_total";
    /// Jobs shed outright.
    pub const ADMISSION_REJECTED: &str = "gtlb_admission_rejected_total";
    /// Redispatch attempts made by the trace driver.
    pub const RETRIES: &str = "gtlb_retries_total";
    /// Dispatch attempts dropped by injected faults.
    pub const FAULT_DROPS: &str = "gtlb_fault_drops_total";
    /// Health transitions applied (detector-driven and manual).
    pub const HEALTH_TRANSITIONS: &str = "gtlb_health_transitions_total";
    /// Routing tables published through the table slot.
    pub const TABLE_PUBLISHES: &str = "gtlb_table_publishes_total";
    /// Events overwritten in the ring (drop-oldest).
    pub const EVENTS_DROPPED: &str = "gtlb_events_dropped_total";
    /// Offered utilization `ρ = Φ̂ / Σμ̂` admission acts on (0 without
    /// admission).
    pub const OFFERED_UTILIZATION: &str = "gtlb_offered_utilization";
    /// The driver's virtual clock, in seconds.
    pub const VIRTUAL_CLOCK: &str = "gtlb_virtual_clock_seconds";
    /// Jobs dispatched whose completion has not been recorded yet
    /// (derived at scrape: dispatches − responses − fault drops). During
    /// a `TraceDriver::run_jobs` call it reads high by at most 4,096,
    /// the driver's flush period; at every flush it is exact.
    pub const JOBS_INFLIGHT: &str = "gtlb_jobs_inflight";
    /// Response time, arrival → completion (virtual seconds).
    pub const RESPONSE_SECONDS: &str = "gtlb_response_seconds";
    /// Queue wait at the chosen node (virtual seconds).
    pub const QUEUE_WAIT_SECONDS: &str = "gtlb_queue_wait_seconds";
    /// Retry backoff waits (virtual seconds).
    pub const RETRY_BACKOFF_SECONDS: &str = "gtlb_retry_backoff_seconds";
    /// Successful solves published.
    pub const SOLVER_RESOLVES: &str = "gtlb_solver_resolves_total";
    /// Per-node gauge family: each registered node's live accrual φ at
    /// the telemetry clock (read at scrape).
    pub const NODE_PHI: &str = "gtlb_node_phi";
    /// Per-node gauge family: the effective Suspect threshold
    /// (self-tuned when the detector runs in self-tuning mode, the
    /// configured value otherwise).
    pub const NODE_SUSPECT_PHI: &str = "gtlb_node_suspect_phi";
    /// Per-node gauge family: the effective Down threshold.
    pub const NODE_DOWN_PHI: &str = "gtlb_node_down_phi";
    /// The label every per-node family is keyed by: the raw node id.
    pub const NODE_LABEL: &str = "node";
}

/// A structured happening recorded in the event ring, tagged (by
/// [`TaggedEvent`]) with virtual time and seed-stream family.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// A sampled routing decision (every [`ROUTE_SAMPLE_EVERY`]-th
    /// dispatch).
    Routed {
        /// The chosen node.
        node: NodeId,
        /// Epoch of the table that chose it.
        epoch: u64,
    },
    /// A health transition was applied.
    HealthChanged {
        /// The node that moved.
        node: NodeId,
        /// Health before.
        from: Health,
        /// Health after.
        to: Health,
    },
    /// An injected fault dropped a dispatch attempt.
    FaultDropped {
        /// The node whose attempt dropped.
        node: NodeId,
    },
    /// Admission shed a job.
    AdmissionShed {
        /// `true` for defer (retry-later), `false` for reject.
        deferred: bool,
    },
    /// A routing table was published.
    EpochPublished {
        /// The new table's epoch.
        epoch: u64,
    },
    /// An asymmetric partition opened on a node (scheduled by the fault
    /// plan; surfaced by the driver at the plan's virtual time).
    PartitionOpened {
        /// The partitioned node.
        node: NodeId,
        /// Which link direction dropped.
        direction: PartitionDirection,
    },
    /// The asymmetric partition on a node healed.
    PartitionHealed {
        /// The healed node.
        node: NodeId,
        /// Which link direction had dropped.
        direction: PartitionDirection,
    },
}

impl std::fmt::Display for RuntimeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Routed { node, epoch } => write!(f, "routed {node} (epoch {epoch})"),
            Self::HealthChanged { node, from, to } => write!(f, "health {node} {from} -> {to}"),
            Self::FaultDropped { node } => write!(f, "fault dropped attempt at {node}"),
            Self::AdmissionShed { deferred: true } => write!(f, "admission deferred a job"),
            Self::AdmissionShed { deferred: false } => write!(f, "admission rejected a job"),
            Self::EpochPublished { epoch } => write!(f, "published table epoch {epoch}"),
            Self::PartitionOpened { node, direction } => {
                write!(f, "partition opened on {node} ({direction})")
            }
            Self::PartitionHealed { node, direction } => {
                write!(f, "partition healed on {node} ({direction})")
            }
        }
    }
}

/// The instrument set behind an enabled [`Telemetry`]: the event ring,
/// the telemetry clock and the seven instruments the runtime records
/// into.
#[derive(Debug)]
pub(crate) struct TelemetryInner {
    ring: EventRing<RuntimeEvent>,
    /// `f64` bits of the driver-published virtual clock.
    clock_bits: AtomicU64,
    retries: Counter,
    fault_drops: Counter,
    health_transitions: Counter,
    solver_resolves: Counter,
    response: Histogram,
    queue_wait: Histogram,
    backoff: Histogram,
}

impl TelemetryInner {
    fn new() -> Self {
        Self {
            ring: EventRing::new(TELEMETRY_EVENT_CAPACITY),
            clock_bits: AtomicU64::new(0f64.to_bits()),
            retries: Counter::new(),
            fault_drops: Counter::new(),
            health_transitions: Counter::new(),
            solver_resolves: Counter::new(),
            response: Histogram::new(),
            queue_wait: Histogram::new(),
            backoff: Histogram::new(),
        }
    }

    pub(crate) fn clock(&self) -> f64 {
        f64::from_bits(self.clock_bits.load(Ordering::Relaxed))
    }

    fn push(&self, stream: u64, event: RuntimeEvent) {
        self.push_at(self.clock(), stream, event);
    }

    fn push_at(&self, time: f64, stream: u64, event: RuntimeEvent) {
        self.ring.push(TaggedEvent { time, stream, event });
    }

    /// One scrape, every series in exposition order, each source read
    /// once. The caller passes what the runtime holds: the clock
    /// reading `now` the rows' φ was evaluated at, the dispatch count,
    /// the table publishes, admission's counters and ρ (`None` without
    /// admission, exported as zeros) and one `(node, φ, suspect, down)`
    /// row per registered node in ascending id order. `gtlb_jobs_inflight` is derived from
    /// the exported values: dispatched minus responses minus
    /// fault-dropped attempts, floored at 0 (a job loop that records no
    /// responses leaves it at the raw dispatch count, still an honest
    /// upper bound).
    pub(crate) fn snapshot(
        &self,
        now: f64,
        dispatched: u64,
        publishes: u64,
        admission: Option<(AdmissionStats, f64)>,
        nodes: &[(u64, f64, f64, f64)],
    ) -> Snapshot {
        let (admission, rho) = admission.unwrap_or_default();
        let response = self.response.snapshot();
        let drops = self.fault_drops.value();
        let inflight = dispatched.saturating_sub(response.count() + drops) as f64;
        let counters = named([
            (names::DISPATCHES, dispatched),
            (names::ADMISSION_SUBMITTED, admission.submitted),
            (names::ADMISSION_ACCEPTED, admission.accepted),
            (names::ADMISSION_DEFERRED, admission.deferred),
            (names::ADMISSION_REJECTED, admission.rejected),
            (names::RETRIES, self.retries.value()),
            (names::FAULT_DROPS, drops),
            (names::HEALTH_TRANSITIONS, self.health_transitions.value()),
            (names::TABLE_PUBLISHES, publishes),
            (names::EVENTS_DROPPED, self.ring.dropped()),
            (names::SOLVER_RESOLVES, self.solver_resolves.value()),
        ]);
        let gauges = named([
            (names::OFFERED_UTILIZATION, rho),
            (names::VIRTUAL_CLOCK, now),
            (names::JOBS_INFLIGHT, inflight),
        ]);
        let histograms = named([
            (names::RESPONSE_SECONDS, response),
            (names::QUEUE_WAIT_SECONDS, self.queue_wait.snapshot()),
            (names::RETRY_BACKOFF_SECONDS, self.backoff.snapshot()),
        ]);
        let family = |column: fn(&(u64, f64, f64, f64)) -> f64| {
            let cells = nodes.iter().map(|row| (row.0, column(row))).collect();
            FamilySnapshot::new(names::NODE_LABEL, cells)
        };
        let families = named([
            (names::NODE_PHI, family(|row| row.1)),
            (names::NODE_SUSPECT_PHI, family(|row| row.2)),
            (names::NODE_DOWN_PHI, family(|row| row.3)),
        ]);
        Snapshot::new(counters, gauges, histograms, families)
    }
}

/// `series` with owned names, in the order given.
fn named<T, const N: usize>(series: [(&str, T); N]) -> Vec<(String, T)> {
    series.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
}

/// The runtime's telemetry facade: either a no-op
/// ([`Telemetry::disabled`]) or a shared instrument set
/// ([`Telemetry::enabled`]). Cloning shares the instruments.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op facade: every record method is a never-taken branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled facade.
    #[must_use]
    pub fn enabled() -> Self {
        Self { inner: Some(Arc::new(TelemetryInner::new())) }
    }

    /// Whether this facade records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    pub(crate) fn inner(&self) -> Option<&TelemetryInner> {
        self.inner.as_deref()
    }

    /// Publishes the driver's virtual clock; subsequent events are
    /// tagged with it.
    #[inline]
    pub fn set_clock(&self, t: f64) {
        if let Some(inner) = self.inner() {
            inner.clock_bits.store(t.to_bits(), Ordering::Relaxed);
        }
    }

    /// The last published virtual time (0 when disabled).
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.inner().map_or(0.0, TelemetryInner::clock)
    }

    /// Records a sampled routing decision.
    #[inline]
    pub(crate) fn record_routed(&self, node: NodeId, epoch: u64) {
        if let Some(inner) = self.inner() {
            inner.push(DISPATCH_STREAM, RuntimeEvent::Routed { node, epoch });
        }
    }

    /// Records an admission shed verdict (accepts are counted by
    /// admission's own [`AdmissionStats`], not per-event).
    #[inline]
    pub(crate) fn record_admission_shed(&self, verdict: AdmissionVerdict) {
        if let Some(inner) = self.inner() {
            let deferred = match verdict {
                AdmissionVerdict::Accept => return,
                AdmissionVerdict::Defer => true,
                AdmissionVerdict::Reject => false,
            };
            inner.push(ADMISSION_STREAM, RuntimeEvent::AdmissionShed { deferred });
        }
    }

    /// Records a completed job's response time together with its trace
    /// id as the bucket exemplar (when the job was sampled), so
    /// `gtlb_response_seconds` percentiles link to a concrete trace.
    /// It records into the shared histogram at once; [`TraceDriver`]
    /// buffers its own jobs instead, so this is for other job loops.
    ///
    /// [`TraceDriver`]: crate::driver::TraceDriver
    #[inline]
    pub fn record_response_traced(&self, seconds: f64, exemplar: Option<u64>) {
        if let Some(inner) = self.inner() {
            match exemplar {
                Some(id) => inner.response.record_with_exemplar(seconds, id),
                None => inner.response.record(seconds),
            }
        }
    }

    /// The depth of an ingest queue in front of the runtime: always
    /// `0.0`, because nothing queues jobs ahead of admission. Kept for
    /// job loops that stamp it into a [`SpanKind::Queued`] span, as
    /// [`TraceDriver`] stamps `0`.
    ///
    /// [`SpanKind::Queued`]: crate::SpanKind::Queued
    /// [`TraceDriver`]: crate::driver::TraceDriver
    #[must_use]
    pub fn ingest_depth(&self) -> f64 {
        0.0
    }

    /// Records a completed job's queue wait (virtual seconds) at once,
    /// like [`Telemetry::record_response_traced`].
    #[inline]
    pub fn record_queue_wait(&self, seconds: f64) {
        if let Some(inner) = self.inner() {
            inner.queue_wait.record(seconds);
        }
    }

    /// Adds a driver's buffered response times and queue waits into
    /// `gtlb_response_seconds` and `gtlb_queue_wait_seconds`, leaving
    /// both buffers empty (a no-op when disabled).
    pub(crate) fn absorb_served(
        &self,
        response: &mut HistogramSnapshot,
        queue_wait: &mut HistogramSnapshot,
    ) {
        if let Some(inner) = self.inner() {
            inner.response.absorb(response);
            inner.queue_wait.absorb(queue_wait);
        }
    }

    /// Records one retry and the backoff it waited (virtual seconds).
    /// The first argument is ignored; it is kept for the benchmark's job
    /// loop until that loop is retired.
    #[inline]
    pub fn record_retry(&self, _shard: usize, backoff_seconds: f64) {
        if let Some(inner) = self.inner() {
            inner.retries.incr();
            inner.backoff.record(backoff_seconds);
        }
    }

    /// Records a dispatch attempt dropped by an injected fault at
    /// virtual time `t`. The first argument is ignored, as in
    /// [`Telemetry::record_retry`].
    #[inline]
    pub fn record_fault_drop(&self, _shard: usize, node: NodeId, t: f64) {
        if let Some(inner) = self.inner() {
            inner.fault_drops.incr();
            inner.push_at(t, FAULT_STREAM, RuntimeEvent::FaultDropped { node });
        }
    }

    /// Records a fault-schedule milestone (partition opened or healed)
    /// at the marker's own virtual time, on the adversarial stream
    /// family.
    #[inline]
    pub(crate) fn record_fault_marker(&self, marker: &FaultMarker) {
        if let Some(inner) = self.inner() {
            let event = match &marker.kind {
                FaultMarkerKind::PartitionOpened { node, direction } => {
                    RuntimeEvent::PartitionOpened { node: *node, direction: *direction }
                }
                FaultMarkerKind::PartitionHealed { node, direction } => {
                    RuntimeEvent::PartitionHealed { node: *node, direction: *direction }
                }
            };
            inner.push_at(marker.at, ADVERSARIAL_STREAM, event);
        }
    }

    /// Records an applied health transition.
    #[inline]
    pub(crate) fn record_health(&self, tr: HealthTransition) {
        if let Some(inner) = self.inner() {
            inner.health_transitions.incr();
            inner.push_at(
                tr.at,
                0,
                RuntimeEvent::HealthChanged { node: tr.node, from: tr.from, to: tr.to },
            );
        }
    }

    /// Records one successful solve.
    #[inline]
    pub(crate) fn record_solve(&self) {
        if let Some(inner) = self.inner() {
            inner.solver_resolves.incr();
        }
    }

    /// Records a table publish.
    #[inline]
    pub(crate) fn record_publish(&self, epoch: u64) {
        if let Some(inner) = self.inner() {
            inner.push(0, RuntimeEvent::EpochPublished { epoch });
        }
    }

    /// The most recent `n` ring events in virtual-time order (empty
    /// when disabled).
    #[must_use]
    pub fn recent_events(&self, n: usize) -> Vec<TaggedEvent<RuntimeEvent>> {
        self.inner().map_or_else(Vec::new, |inner| inner.ring.recent(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.set_clock(5.0);
        tel.record_response_traced(1.0, Some(7));
        tel.record_retry(0, 0.1);
        assert_eq!(tel.clock(), 0.0);
        assert!(tel.recent_events(8).is_empty());
    }

    #[test]
    fn enabled_records_and_tags_with_virtual_time() {
        let tel = Telemetry::enabled();
        tel.set_clock(3.5);
        tel.record_routed(NodeId::from_raw(7), 4);
        let events = tel.recent_events(8);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time, 3.5);
        assert_eq!(events[0].stream, DISPATCH_STREAM);
        assert_eq!(events[0].event, RuntimeEvent::Routed { node: NodeId::from_raw(7), epoch: 4 });
    }

    #[test]
    fn event_display_is_readable() {
        let e = RuntimeEvent::HealthChanged {
            node: NodeId::from_raw(3),
            from: Health::Up,
            to: Health::Suspect,
        };
        assert_eq!(e.to_string(), "health node-3 up -> suspect");
        assert_eq!(
            RuntimeEvent::EpochPublished { epoch: 9 }.to_string(),
            "published table epoch 9"
        );
    }
}
