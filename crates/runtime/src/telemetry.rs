//! Runtime observability: the [`Telemetry`] instruments every
//! [`Runtime`] records into, over the `gtlb-telemetry` primitives.
//!
//! The runtime holds one [`Telemetry`] by value, the telemetry clock
//! and the seven instruments, and every record lands in it: telemetry
//! has no off switch.
//!
//! ## Determinism contract
//!
//! Telemetry consumes **no RNG draws** and owns **no clock**: its clock
//! is the virtual time the [`TraceDriver`] publishes through
//! [`Telemetry::set_clock`], and no instrument reads wall-clock time;
//! telemetry has no entry in the stream-family map because it never
//! draws. Recording therefore cannot move a determinism fingerprint;
//! `tests/fingerprints.rs` pins them with telemetry recording in every
//! run.
//!
//! ## Hot-path budget
//!
//! The dispatcher holds no telemetry handle: a route records nothing,
//! and the dispatch count a scrape exports is the dispatcher's own.
//!
//! Every served job has a response time and a queue wait. The
//! [`TraceDriver`] records both into plain buffers of its own and adds
//! them into `gtlb_response_seconds` and `gtlb_queue_wait_seconds`
//! ([`Histogram::absorb`]: one `fetch_add` per non-empty bucket and one
//! CAS on the sum) on every return from `run_jobs` and every 4,096
//! served jobs inside a call. A scrape between calls is exact; one
//! during a call lags the driver by at most 4,096 completions, and
//! `gtlb_jobs_inflight` reads high by at most 4,096. Other job loops
//! record per call through the `record_*` methods. Fault drops, health
//! transitions, solves and retries record on paths that are already
//! cold or lock-bound.
//!
//! ## Scrape
//!
//! [`Runtime::telemetry_snapshot`] builds a [`Snapshot`] from the
//! sources themselves and reads each once: here, the seven recorded
//! instruments (retries, fault drops, health transitions and solves,
//! plus the response, queue-wait and backoff histograms) and the
//! telemetry clock; in the runtime, the dispatcher's count, the table
//! slot's publishes, admission's counters and ρ, and one pass over the
//! registry rows under the `state` lock for each node's φ and
//! thresholds, the same pass `/nodes` reads
//! ([`ControlPlaneHooks::nodes`]). `gtlb_jobs_inflight` is derived from
//! the exported values, so every scrape agrees with itself. A new
//! per-node series is one more column of that pass.
//!
//! [`Runtime`]: crate::Runtime
//! [`Runtime::telemetry_snapshot`]: crate::Runtime::telemetry_snapshot
//! [`ControlPlaneHooks::nodes`]: crate::ControlPlaneHooks::nodes
//! [`TraceDriver`]: crate::driver::TraceDriver

use std::sync::atomic::{AtomicU64, Ordering};

use gtlb_telemetry::{Counter, FamilySnapshot, Histogram, HistogramSnapshot, Snapshot};

use crate::admission::AdmissionStats;
use crate::registry::NodeId;

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

/// The runtime's telemetry: the telemetry clock and the seven
/// instruments the runtime records into. Every [`Runtime`] holds one.
///
/// [`Runtime`]: crate::Runtime
#[derive(Debug, Default)]
pub struct Telemetry {
    /// `f64` bits of the driver-published virtual clock (all-zero bits
    /// read 0.0).
    clock_bits: AtomicU64,
    retries: Counter,
    fault_drops: Counter,
    health_transitions: Counter,
    solver_resolves: Counter,
    response: Histogram,
    queue_wait: Histogram,
    backoff: Histogram,
}

impl Telemetry {
    /// The last published virtual time (0 before the first).
    #[must_use]
    pub fn clock(&self) -> f64 {
        f64::from_bits(self.clock_bits.load(Ordering::Relaxed))
    }

    /// One scrape, every series in exposition order, each source read
    /// once. The caller passes what the runtime holds: the clock
    /// reading `now` the rows' φ was evaluated at, the dispatch count,
    /// the table publishes, admission's counters and ρ (`None` without
    /// admission, exported as zeros) and one `(node, φ, suspect, down)`
    /// row per registered node in ascending id order.
    /// `gtlb_jobs_inflight` is derived from the exported values:
    /// dispatched minus responses minus fault-dropped attempts, floored
    /// at 0 (a job loop that records no responses leaves it at the raw
    /// dispatch count, still an honest upper bound).
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

    /// Publishes the driver's virtual clock: a scrape exports it as
    /// `gtlb_virtual_clock_seconds` and evaluates each node's φ at it.
    #[inline]
    pub fn set_clock(&self, t: f64) {
        self.clock_bits.store(t.to_bits(), Ordering::Relaxed);
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
        match exemplar {
            Some(id) => self.response.record_with_exemplar(seconds, id),
            None => self.response.record(seconds),
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
        self.queue_wait.record(seconds);
    }

    /// Adds a driver's buffered response times and queue waits into
    /// `gtlb_response_seconds` and `gtlb_queue_wait_seconds`, leaving
    /// both buffers empty.
    pub(crate) fn absorb_served(
        &self,
        response: &mut HistogramSnapshot,
        queue_wait: &mut HistogramSnapshot,
    ) {
        self.response.absorb(response);
        self.queue_wait.absorb(queue_wait);
    }

    /// Records one retry and the backoff it waited (virtual seconds).
    /// The first argument is ignored; it is kept for the benchmark's job
    /// loop until that loop is retired.
    #[inline]
    pub fn record_retry(&self, _shard: usize, backoff_seconds: f64) {
        self.retries.incr();
        self.backoff.record(backoff_seconds);
    }

    /// Records a dispatch attempt dropped by an injected fault. Every
    /// argument is ignored, as the first is in
    /// [`Telemetry::record_retry`]: the node and the virtual time are
    /// kept for the benchmark's job loop until that loop is retired.
    #[inline]
    pub fn record_fault_drop(&self, _shard: usize, _node: NodeId, _t: f64) {
        self.fault_drops.incr();
    }

    /// Records an applied health transition, detector-driven or manual.
    #[inline]
    pub(crate) fn record_health(&self) {
        self.health_transitions.incr();
    }

    /// Records one successful solve.
    #[inline]
    pub(crate) fn record_solve(&self) {
        self.solver_resolves.incr();
    }
}

/// `series` with owned names, in the order given.
fn named<T, const N: usize>(series: [(&str, T); N]) -> Vec<(String, T)> {
    series.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
}
