//! Runtime observability: a [`Telemetry`] facade over the
//! `gtlb-telemetry` instruments, threaded through every subsystem.
//!
//! The facade is an `Option<Arc<_>>`: [`Telemetry::disabled`] (the
//! default) carries `None` and every record method compiles to a plain
//! branch on it, so the instrumented paths cost one predictable
//! never-taken branch when telemetry is off. [`Telemetry::enabled`]
//! allocates the instrument set and the per-shard event ring.
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
//! every [`ROUTE_SAMPLE_EVERY`]-th dispatch of a shard, one sampled
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
//! [`TraceDriver`]: crate::driver::TraceDriver
//! [`DISPATCH_STREAM`]: crate::shard::DISPATCH_STREAM
//! [`FAULT_STREAM`]: crate::fault::FAULT_STREAM

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gtlb_telemetry::{
    Counter, EventRing, Gauge, GaugeFamily, Histogram, HistogramSnapshot,
    Registry as MetricRegistry, Snapshot, TaggedEvent,
};

use crate::admission::{AdmissionStats, AdmissionVerdict};
use crate::detector::HealthTransition;
use crate::fault::{
    FaultMarker, FaultMarkerKind, PartitionDirection, ADVERSARIAL_STREAM, FAULT_STREAM,
};
use crate::registry::{Health, NodeId};
use crate::shard::{ADMISSION_STREAM, DISPATCH_STREAM};

/// Events per event-ring lane (one lane per shard).
pub const TELEMETRY_EVENT_CAPACITY: usize = 1024;

/// A shard pushes one sampled [`RuntimeEvent::Routed`] event every this
/// many dispatches (a power of two, so the check is one mask). Routing
/// *counts* are exact regardless — they come from the shard counters —
/// only the per-decision event stream is sampled.
pub const ROUTE_SAMPLE_EVERY: u64 = 1024;

/// Canonical metric names, as they appear in [`Snapshot`] and both
/// exposition formats. The README's metric table documents each.
pub mod names {
    /// Jobs routed, merged over all shards (synced from shard counters).
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
    /// Offered utilization `ρ = Φ̂ / Σμ̂` admission acts on.
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
    /// the telemetry clock (rewritten on snapshot).
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
/// [`TaggedEvent`]) with virtual time, shard, and seed-stream family.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// A sampled routing decision (every [`ROUTE_SAMPLE_EVERY`]-th
    /// dispatch per shard).
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

/// The instrument set behind an enabled [`Telemetry`].
#[derive(Debug)]
pub(crate) struct TelemetryInner {
    registry: MetricRegistry,
    ring: EventRing<RuntimeEvent>,
    /// `f64` bits of the driver-published virtual clock.
    clock_bits: AtomicU64,
    dispatches: Arc<Counter>,
    admission_submitted: Arc<Counter>,
    admission_accepted: Arc<Counter>,
    admission_deferred: Arc<Counter>,
    admission_rejected: Arc<Counter>,
    retries: Arc<Counter>,
    fault_drops: Arc<Counter>,
    health_transitions: Arc<Counter>,
    table_publishes: Arc<Counter>,
    events_dropped: Arc<Counter>,
    offered_utilization: Arc<Gauge>,
    virtual_clock: Arc<Gauge>,
    jobs_inflight: Arc<Gauge>,
    response: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    backoff: Arc<Histogram>,
    solver_resolves: Arc<Counter>,
    node_phi: Arc<GaugeFamily>,
    node_suspect_phi: Arc<GaugeFamily>,
    node_down_phi: Arc<GaugeFamily>,
}

impl TelemetryInner {
    fn new(shards: usize) -> Self {
        let registry = MetricRegistry::new();
        Self {
            ring: EventRing::new(shards.max(1), TELEMETRY_EVENT_CAPACITY),
            clock_bits: AtomicU64::new(0f64.to_bits()),
            dispatches: registry.counter(names::DISPATCHES),
            admission_submitted: registry.counter(names::ADMISSION_SUBMITTED),
            admission_accepted: registry.counter(names::ADMISSION_ACCEPTED),
            admission_deferred: registry.counter(names::ADMISSION_DEFERRED),
            admission_rejected: registry.counter(names::ADMISSION_REJECTED),
            retries: registry.counter(names::RETRIES),
            fault_drops: registry.counter(names::FAULT_DROPS),
            health_transitions: registry.counter(names::HEALTH_TRANSITIONS),
            table_publishes: registry.counter(names::TABLE_PUBLISHES),
            events_dropped: registry.counter(names::EVENTS_DROPPED),
            offered_utilization: registry.gauge(names::OFFERED_UTILIZATION),
            virtual_clock: registry.gauge(names::VIRTUAL_CLOCK),
            jobs_inflight: registry.gauge(names::JOBS_INFLIGHT),
            response: registry.histogram(names::RESPONSE_SECONDS),
            queue_wait: registry.histogram(names::QUEUE_WAIT_SECONDS),
            backoff: registry.histogram(names::RETRY_BACKOFF_SECONDS),
            solver_resolves: registry.counter(names::SOLVER_RESOLVES),
            node_phi: registry.gauge_family(names::NODE_PHI, names::NODE_LABEL),
            node_suspect_phi: registry.gauge_family(names::NODE_SUSPECT_PHI, names::NODE_LABEL),
            node_down_phi: registry.gauge_family(names::NODE_DOWN_PHI, names::NODE_LABEL),
            registry,
        }
    }

    fn clock(&self) -> f64 {
        f64::from_bits(self.clock_bits.load(Ordering::Relaxed))
    }

    fn push(&self, shard: usize, stream: u64, event: RuntimeEvent) {
        self.push_at(self.clock(), shard, stream, event);
    }

    fn push_at(&self, time: f64, shard: usize, stream: u64, event: RuntimeEvent) {
        self.ring.push(shard, TaggedEvent { time, shard: shard as u32, stream, event });
    }

    /// Mirrors externally-maintained totals into the registry so a
    /// scrape sees them; called by
    /// [`Runtime::telemetry_snapshot`](crate::Runtime::telemetry_snapshot).
    pub(crate) fn sync(
        &self,
        dispatched: u64,
        publishes: u64,
        admission: Option<(AdmissionStats, f64)>,
    ) {
        self.dispatches.set_total(dispatched);
        self.table_publishes.set_total(publishes);
        if let Some((stats, rho)) = admission {
            self.admission_submitted.set_total(stats.submitted);
            self.admission_accepted.set_total(stats.accepted);
            self.admission_deferred.set_total(stats.deferred);
            self.admission_rejected.set_total(stats.rejected);
            self.offered_utilization.set(rho);
        }
        self.events_dropped.set_total(self.ring.dropped());
        self.virtual_clock.set(self.clock());
        // Jobs routed whose completion is not recorded yet: dispatched
        // minus responses minus fault-dropped attempts, floored at 0
        // (drivers that don't record responses leave this at the raw
        // dispatch count, which is still the honest upper bound).
        let completed = self.response.count();
        let drops = self.fault_drops.value();
        self.jobs_inflight.set(dispatched.saturating_sub(completed + drops) as f64);
    }

    /// Rewrites the per-node suspicion families (live φ and the
    /// effective thresholds) from `rows`, one `(node, φ, suspect,
    /// down)` row per registered node in ascending id order; called by
    /// [`Runtime::telemetry_snapshot`](crate::Runtime::telemetry_snapshot).
    /// A node missing from `rows` (it was deregistered) drops out of
    /// every family.
    pub(crate) fn sync_node_suspicion(&self, rows: &[(NodeId, f64, f64, f64)]) {
        self.node_phi.replace(rows.iter().map(|&(node, phi, _, _)| (node.raw(), phi)));
        self.node_suspect_phi.replace(rows.iter().map(|&(node, _, s, _)| (node.raw(), s)));
        self.node_down_phi.replace(rows.iter().map(|&(node, _, _, d)| (node.raw(), d)));
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
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

    /// An enabled facade with one event-ring lane per shard.
    #[must_use]
    pub fn enabled(shards: usize) -> Self {
        Self { inner: Some(Arc::new(TelemetryInner::new(shards))) }
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

    /// Records a sampled routing decision from `shard`.
    #[inline]
    pub(crate) fn record_routed(&self, shard: usize, node: NodeId, epoch: u64) {
        if let Some(inner) = self.inner() {
            inner.push(shard, DISPATCH_STREAM, RuntimeEvent::Routed { node, epoch });
        }
    }

    /// Records an admission shed verdict (accepts are counted via the
    /// synced [`AdmissionStats`], not per-event).
    #[inline]
    pub(crate) fn record_admission_shed(&self, shard: usize, verdict: AdmissionVerdict) {
        if let Some(inner) = self.inner() {
            let deferred = match verdict {
                AdmissionVerdict::Accept => return,
                AdmissionVerdict::Defer => true,
                AdmissionVerdict::Reject => false,
            };
            inner.push(shard, ADMISSION_STREAM, RuntimeEvent::AdmissionShed { deferred });
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
    /// `shard` is unused: every retry lands in one counter.
    #[inline]
    pub fn record_retry(&self, _shard: usize, backoff_seconds: f64) {
        if let Some(inner) = self.inner() {
            inner.retries.incr();
            inner.backoff.record(backoff_seconds);
        }
    }

    /// Records a dispatch attempt dropped by an injected fault at
    /// virtual time `t`.
    #[inline]
    pub fn record_fault_drop(&self, shard: usize, node: NodeId, t: f64) {
        if let Some(inner) = self.inner() {
            inner.fault_drops.incr();
            inner.push_at(t, shard, FAULT_STREAM, RuntimeEvent::FaultDropped { node });
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
            inner.push_at(marker.at, 0, ADVERSARIAL_STREAM, event);
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
            inner.push(0, 0, RuntimeEvent::EpochPublished { epoch });
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
        let tel = Telemetry::enabled(2);
        tel.set_clock(3.5);
        tel.record_routed(1, NodeId::from_raw(7), 4);
        let events = tel.recent_events(8);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time, 3.5);
        assert_eq!(events[0].shard, 1);
        assert_eq!(events[0].stream, DISPATCH_STREAM);
        assert_eq!(events[0].event, RuntimeEvent::Routed { node: NodeId::from_raw(7), epoch: 4 });
    }

    #[test]
    fn sync_mirrors_external_totals() {
        let tel = Telemetry::enabled(1);
        let inner = tel.inner().unwrap();
        inner.sync(
            42,
            7,
            Some((AdmissionStats { submitted: 10, accepted: 8, deferred: 1, rejected: 1 }, 0.75)),
        );
        let snap = inner.snapshot();
        assert_eq!(snap.counter(names::DISPATCHES), Some(42));
        assert_eq!(snap.counter(names::TABLE_PUBLISHES), Some(7));
        assert_eq!(snap.counter(names::ADMISSION_ACCEPTED), Some(8));
        assert_eq!(snap.gauge(names::OFFERED_UTILIZATION), Some(0.75));
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
