//! The trace driver: a closed-loop harness replaying a synthetic job
//! stream through a [`Runtime`].
//!
//! The driver plays two roles at once:
//!
//! * **workload** — it generates Poisson arrivals at rate `Φ` on a
//!   virtual clock and draws exponential service times at the chosen
//!   node's true (nominal) rate, modeling each node as an FCFS queue via
//!   its next-free time;
//! * **telemetry** — it feeds every arrival and completed service back
//!   into the runtime's estimators, closing the loop the re-solver runs
//!   on.
//!
//! Response times are accumulated both raw (Welford) and as batch means,
//! so a run yields a 95 % confidence interval to hold against the
//! allocator's analytic prediction — the validation the integration test
//! and example perform. `run_jobs` is resumable: callers interleave
//! chunks of jobs with control-plane events (failures, drains,
//! re-solves) to exercise mid-run transitions.

use std::fmt;

use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_desim::stats::{BatchMeans, ConfidenceInterval, Welford};
use gtlb_telemetry::HistogramSnapshot;

use crate::error::RuntimeError;
use crate::fault::{DropCause, FaultInjector, FaultPlan};
use crate::registry::NodeId;
use crate::retry::{RetryPolicy, RETRY_STREAM};
use crate::shard::ShardGuard;
use crate::telemetry::Telemetry;
use crate::{AttemptOutcome, Runtime, SpanKind, State, Submission, Trace};

/// RNG stream id of the driver's arrival process.
pub const DRIVER_ARRIVAL_STREAM: u64 = 0x0500;
/// Base RNG stream id of per-node service processes (node `i` uses
/// `DRIVER_SERVICE_STREAM_BASE + i`).
pub const DRIVER_SERVICE_STREAM_BASE: u64 = 0x0600;

/// Driver parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Base seed; arrival and per-node service streams are derived from
    /// it, so a trace is exactly reproducible.
    pub seed: u64,
    /// Response times per batch for the batch-means interval.
    pub batch_size: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { seed: 0x5EED, batch_size: 1_000 }
    }
}

/// Measurements accumulated since the last reset.
///
/// The per-job counters satisfy the conservation invariant
/// `accepted + rejected + deferred + failed == submitted` — every
/// offered job ends in exactly one of: completed (`accepted`, and
/// `jobs == accepted`), shed at first admission (`rejected` /
/// `deferred`), or abandoned with its retry budget exhausted
/// (`failed`). Without faults and retries, `failed` stays zero and the
/// invariant reduces to PR 2's admission partition.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Jobs completed (accepted jobs that ran to completion).
    pub jobs: u64,
    /// Jobs offered to the runtime.
    pub submitted: u64,
    /// Jobs eventually dispatched to a node that served them.
    pub accepted: u64,
    /// Jobs shed outright by admission control (first attempt).
    pub rejected: u64,
    /// Jobs shed with retry-later semantics by admission control
    /// (first attempt).
    pub deferred: u64,
    /// Jobs abandoned after their last attempt dropped or was shed
    /// (retry budget exhausted). Zero without fault injection.
    pub failed: u64,
    /// Redispatch attempts made (count of backoff waits, not jobs; one
    /// job can contribute up to `max_attempts − 1`).
    pub retried: u64,
    /// Dispatch attempts that dropped against a crashed, flaky,
    /// partitioned, or gray node (attempt count, not jobs). The
    /// mis-routing measure: each one is a job the routing table sent at
    /// a node dispatch could not reach. Zero without fault injection.
    pub dropped: u64,
    /// Mean observed response time (arrival → completion, retry delays
    /// included).
    pub mean_response: f64,
    /// 95 % batch-means confidence interval (needs ≥ 2 full batches).
    pub ci: Option<ConfidenceInterval>,
    /// Jobs per node, in node-id order (the node that completed them).
    pub per_node: Vec<(NodeId, u64)>,
    /// Terminal-attempt distribution: `attempts[k]` is the number of
    /// jobs that ended (completed, shed, or abandoned) on attempt
    /// `k + 1`. Without retries everything lands in `attempts[0]`; the
    /// vector's length is the deepest attempt any job reached.
    pub attempts: Vec<u64>,
}

impl TraceStats {
    /// Fraction of submitted jobs rejected (0 when nothing submitted).
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected as f64 / self.submitted as f64
        }
    }

    /// Fraction of submitted jobs abandoned with an exhausted retry
    /// budget (0 when nothing submitted).
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.failed as f64 / self.submitted as f64
        }
    }

    /// Checks the conservation invariant; `true` when every submitted
    /// job is accounted for exactly once.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.accepted + self.rejected + self.deferred + self.failed == self.submitted
            && self.jobs == self.accepted
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} submitted: {} completed, {} rejected, {} deferred, {} failed ({} retries)",
            self.submitted, self.jobs, self.rejected, self.deferred, self.failed, self.retried
        )?;
        write!(f, "\nmean response {:.4}s", self.mean_response)?;
        if let Some(ci) = self.ci {
            write!(f, " ± {:.4} (95% CI)", ci.half_width)?;
        }
        if self.attempts.len() > 1 {
            write!(f, "\nattempts:")?;
            for (k, &count) in self.attempts.iter().enumerate() {
                write!(f, " {}×{count}", k + 1)?;
            }
        }
        for &(node, count) in &self.per_node {
            write!(f, "\n  {node}: {count} jobs")?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Heartbeat {
    interval: f64,
    next: f64,
    /// Reused probe-target buffer, refilled from the registry each
    /// tick via [`Runtime::node_ids_into`] — heartbeats allocate
    /// nothing in steady state.
    ids: Vec<NodeId>,
}

/// The driver's model of one node: its service stream (seeded on the
/// node's first job), FCFS next-free time, and completions since the
/// last reset.
#[derive(Debug, Default)]
struct NodeLane {
    service: Option<Xoshiro256PlusPlus>,
    next_free: f64,
    completed: u64,
}

/// Served jobs a driver buffers between two flushes into the runtime's
/// shared histograms, at most: a scrape made during
/// [`TraceDriver::run_jobs`] lags it by at most this many completions.
const FLUSH_EVERY: u64 = 4_096;

/// Jobs [`TraceDriver::run_jobs`] runs under one hold of the runtime's
/// locks, at most: a batch ends early, after its current job, when
/// another thread waits for one of them.
const BATCH: u64 = 64;

/// Served jobs' response times and queue waits, recorded in plain cells
/// and added into the runtime's `gtlb_response_seconds` and
/// `gtlb_queue_wait_seconds` at each flush, instead of two shared
/// histogram records per job.
#[derive(Debug, Default)]
struct ServedLatencies {
    response: HistogramSnapshot,
    queue_wait: HistogramSnapshot,
    /// Jobs recorded since the last flush.
    pending: u64,
}

impl ServedLatencies {
    /// Records one served job (`exemplar` is its trace id when it was
    /// sampled), flushing every [`FLUSH_EVERY`] jobs.
    fn record(
        &mut self,
        telemetry: &Telemetry,
        queue_wait: f64,
        response: f64,
        exemplar: Option<u64>,
    ) {
        self.queue_wait.record(queue_wait);
        match exemplar {
            Some(id) => self.response.record_with_exemplar(response, id),
            None => self.response.record(response),
        }
        self.pending += 1;
        if self.pending == FLUSH_EVERY {
            self.flush(telemetry);
        }
    }

    /// Adds the buffered records into `telemetry`'s histograms. Empty
    /// buffers are skipped: an absorb scans every bucket, and a call
    /// that served a multiple of [`FLUSH_EVERY`] jobs ends empty.
    fn flush(&mut self, telemetry: &Telemetry) {
        if self.pending > 0 {
            telemetry.absorb_served(&mut self.response, &mut self.queue_wait);
            self.pending = 0;
        }
    }
}

/// Replays a synthetic arrival stream against a runtime.
#[derive(Debug)]
pub struct TraceDriver {
    phi: f64,
    seed: u64,
    batch_size: u64,
    clock: f64,
    arrivals: Xoshiro256PlusPlus,
    /// Indexed by the registry-issued node id, which is dense from 0.
    lanes: Vec<NodeLane>,
    responses: Welford,
    batches: BatchMeans,
    /// Jobs offered since construction: the sequence number a job's
    /// trace id hashes. [`TraceDriver::reset_measurements`] leaves it
    /// alone, so trace ids never repeat.
    sequence: u64,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    deferred: u64,
    failed: u64,
    retried: u64,
    dropped: u64,
    attempts: Vec<u64>,
    faults: Option<FaultInjector>,
    retry: Option<(RetryPolicy, Xoshiro256PlusPlus)>,
    heartbeat: Option<Heartbeat>,
    /// Allocated on the first job served by a runtime with telemetry
    /// on, and empty between calls of [`TraceDriver::run_jobs`].
    served: Option<ServedLatencies>,
}

impl TraceDriver {
    /// Driver generating Poisson arrivals at total rate `phi`.
    ///
    /// # Panics
    /// If `phi` is nonpositive or non-finite.
    #[must_use]
    pub fn new(phi: f64, cfg: TraceConfig) -> Self {
        assert!(phi.is_finite() && phi > 0.0, "trace arrival rate must be positive");
        Self {
            phi,
            seed: cfg.seed,
            batch_size: cfg.batch_size,
            clock: 0.0,
            arrivals: Xoshiro256PlusPlus::stream(cfg.seed, DRIVER_ARRIVAL_STREAM),
            lanes: Vec::new(),
            responses: Welford::new(),
            batches: BatchMeans::new(cfg.batch_size),
            sequence: 0,
            submitted: 0,
            accepted: 0,
            rejected: 0,
            deferred: 0,
            failed: 0,
            retried: 0,
            dropped: 0,
            attempts: Vec::new(),
            faults: None,
            retry: None,
            heartbeat: None,
            served: None,
        }
    }

    /// Enacts a scripted fault plan: dispatch attempts against crashed
    /// or flaky nodes drop, slow windows degrade the true service rate
    /// the driver simulates with, and every drop/ack feeds the
    /// runtime's failure detector. Flaky draws come from the plan's own
    /// stream family, so the arrival/service/routing/admission
    /// sequences are untouched.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultInjector::new(plan));
        self
    }

    /// Enables retry/timeout/backoff on dropped attempts. Backoff draws
    /// come from the driver seed's [`RETRY_STREAM`], disjoint from every
    /// other stream family.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        let rng = Xoshiro256PlusPlus::stream(self.seed, RETRY_STREAM);
        self.retry = Some((policy, rng));
        self
    }

    /// Probes every registered node each `interval` virtual seconds
    /// (Down nodes included — that is the probation path), feeding the
    /// runtime's failure detector. Without heartbeats the detector only
    /// sees dispatch outcomes, so an idle dead node is never noticed.
    ///
    /// # Panics
    /// If `interval` is nonpositive or non-finite.
    #[must_use]
    pub fn with_heartbeats(mut self, interval: f64) -> Self {
        assert!(
            interval.is_finite() && interval > 0.0,
            "heartbeat interval must be positive and finite"
        );
        self.heartbeat = Some(Heartbeat { interval, next: self.clock + interval, ids: Vec::new() });
        self
    }

    /// Current virtual time.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Pushes `jobs` jobs through the runtime: generate arrival →
    /// admission → dispatch → queue at the chosen node → record the
    /// response time and feed the estimators. Jobs shed by admission
    /// control are counted ([`TraceStats::rejected`] /
    /// [`TraceStats::deferred`]) and leave no queueing footprint; every
    /// arrival still feeds `Φ̂`, because admission reacts to *offered*
    /// load.
    ///
    /// Jobs run in batches of at most 64. A batch takes every dispatch
    /// shard in ascending order and then `state` once, and runs each
    /// job's heartbeats, arrival, admission, dispatch and feedback on the
    /// held guards, re-solves and renormalizations included, through the
    /// same bodies the public methods lock and call, in the separate
    /// calls' order: heartbeats, then the arrival, then the job's
    /// attempts. Before each attempt the held shard re-reads the table
    /// slot if a publish has landed, so every attempt routes on the table
    /// a fresh guard would have seen. When another thread waits for
    /// `state` or a shard, the batch ends after its current job and the
    /// driver yields until that thread has the lock; no lock is held
    /// between calls.
    ///
    /// Resumable: queues, clocks and RNG streams persist across calls, so
    /// callers can inject control-plane events between chunks.
    ///
    /// With telemetry on, the driver buffers each served job's response
    /// time and queue wait, and adds them into the runtime's
    /// `gtlb_response_seconds` and `gtlb_queue_wait_seconds` on every
    /// return (an error one too) and every 4,096 served jobs inside a
    /// call. A scrape between calls is exact; one during a call lags by
    /// at most 4,096 completions.
    ///
    /// With a fault plan ([`TraceDriver::with_faults`]) attempts against
    /// sick nodes drop; with a retry policy ([`TraceDriver::with_retry`])
    /// a dropped attempt waits out its timeout, backs off with
    /// decorrelated jitter, and redispatches through the *current*
    /// routing snapshot — which the detector has typically already
    /// renormalized away from the sick node. A job whose budget runs out
    /// counts as [`TraceStats::failed`].
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] when an admitted job has nowhere
    /// to route and no faults are being injected (with faults on, a
    /// transiently empty table is a retryable condition, not an error);
    /// [`RuntimeError::UnknownNode`] when a chosen node was deregistered
    /// mid-flight.
    pub fn run_jobs(&mut self, runtime: &Runtime, jobs: u64) -> Result<(), RuntimeError> {
        let mut shards = Vec::with_capacity(runtime.shard_count());
        let mut left = jobs;
        let mut result = Ok(());
        while left > 0 && result.is_ok() {
            // The lock order: every shard in ascending index, then `state`.
            let dispatcher = runtime.sharded_dispatcher();
            shards.extend((0..dispatcher.shard_count()).map(|k| dispatcher.shard(k)));
            let mut state = runtime.state();
            let end = left.saturating_sub(BATCH);
            while left > end && result.is_ok() {
                left -= 1;
                result = self.run_job(runtime, &mut shards, &mut state);
                if runtime.has_waiters() {
                    break;
                }
            }
            drop(state);
            shards.clear();
            // `Mutex` lets its holder take it again before a woken waiter
            // runs: without this, a waiter could wait out many batches.
            while runtime.has_waiters() {
                std::thread::yield_now();
            }
        }
        // Flushing on every return puts each record in the runtime that
        // served its job, even when one driver alternates runtimes.
        if let Some(served) = &mut self.served {
            served.flush(runtime.telemetry());
        }
        result
    }

    /// One job of [`TraceDriver::run_jobs`] on a batch's held `shards`
    /// and `state`: its arrival, the heartbeats due by then, and the
    /// offer.
    fn run_job(
        &mut self,
        runtime: &Runtime,
        shards: &mut [ShardGuard<'_>],
        state: &mut State,
    ) -> Result<(), RuntimeError> {
        let gap = -self.arrivals.next_open01().ln() / self.phi;
        self.clock += gap;
        let arrived = self.clock;
        // Publish the virtual clock so telemetry events carry it.
        runtime.telemetry().set_clock(arrived);
        // Surface due partition milestones before the
        // detector observations they explain.
        if let Some(f) = self.faults.as_mut() {
            for marker in f.drain_markers(arrived) {
                runtime.telemetry().record_fault_marker(&marker);
            }
        }
        self.run_heartbeats(runtime, state, arrived);

        self.submitted += 1;
        self.sequence += 1;
        // Tracing is draw-free: begin() is a hash plus a mask test,
        // so the sampled/unsampled decision cannot perturb the run.
        let mut trace = runtime.tracer().begin(self.sequence);
        // Every arrival feeds Φ̂, whatever happens to the job.
        state.record_arrival(arrived);
        let outcome = self.offer_job(runtime, shards, state, arrived, &mut trace);
        if let Some(t) = trace.take() {
            let shard = t
                .spans
                .iter()
                .find_map(|s| match s.kind {
                    SpanKind::Routed { shard, .. } => Some(shard as usize),
                    _ => None,
                })
                .unwrap_or(0);
            runtime.tracer().finish(shard, t);
        }
        outcome
    }

    /// Delivers all heartbeat ticks due at or before `upto`: every
    /// registered node is probed in registration order (Down nodes too —
    /// the probation path runs on probes), and the outcome feeds the
    /// runtime's failure detector as [`Runtime::observe_success`] and
    /// [`Runtime::observe_failure`] feed it.
    fn run_heartbeats(&mut self, runtime: &Runtime, state: &mut State, upto: f64) {
        let Some(hb) = &mut self.heartbeat else { return };
        while hb.next <= upto {
            let t = hb.next;
            hb.next += hb.interval;
            state.node_ids_into(&mut hb.ids);
            for &node in &hb.ids {
                let dropped = self.faults.as_mut().is_some_and(|f| f.heartbeat_drops(node, t));
                runtime.observe(state, node, t, !dropped);
            }
        }
    }

    /// Offers one job through admission/dispatch, simulating drops and
    /// the retry loop. Exactly one terminal counter is bumped per call
    /// (`accepted`, `rejected`, `deferred`, or `failed`) — the
    /// conservation invariant [`TraceStats::is_conserved`] checks.
    ///
    /// When the job is sampled (`trace` is `Some`), every decision the
    /// loop already makes is mirrored into a span — admission verdict,
    /// routing choice, each attempt's outcome, and the terminal — all
    /// stamped with the virtual times the loop computed anyway, so
    /// tracing adds no draws and no clock reads.
    ///
    /// Each attempt routes on its shard's held guard, refreshed first,
    /// and a served or dropped one feeds the held `state`
    /// ([`Runtime::record_served`] / [`Runtime::record_dropped`]).
    fn offer_job(
        &mut self,
        runtime: &Runtime,
        shards: &mut [ShardGuard<'_>],
        state: &mut State,
        arrived: f64,
        trace: &mut Option<Trace>,
    ) -> Result<(), RuntimeError> {
        let budget = self.retry.as_ref().map_or(1, |(p, _)| p.max_attempts());
        let timeout = self.retry.as_ref().map_or(0.0, |(p, _)| p.timeout());
        let chaos = self.faults.is_some();
        let mut t_attempt = arrived;
        let mut prev_backoff = 0.0;
        let mut attempt = 0;
        // One pass per attempt: each pass returns, or retries while
        // `schedule_retry` finds budget left, so the loop ends by
        // attempt `budget`.
        loop {
            attempt += 1;
            // Claim the round-robin shard explicitly so the trace can
            // name it; `submit()` is exactly `submit_on(next_shard())`,
            // so the decision stream is untouched. A publish since the
            // shard last looked (a transition this batch applied) reaches
            // it here, as it would reach a fresh guard.
            let shard = runtime.sharded_dispatcher().next_shard();
            let guard = &mut shards[shard];
            guard.refresh();
            let decision = match runtime.submit_with(guard) {
                Ok(Submission::Dispatched(d)) => Some(d),
                Ok(Submission::Rejected) if attempt == 1 => {
                    if let Some(t) = trace.as_mut() {
                        t.instant(SpanKind::Rejected, arrived);
                    }
                    self.rejected += 1;
                    self.note_terminal(1);
                    return Ok(());
                }
                Ok(Submission::Deferred) if attempt == 1 => {
                    if let Some(t) = trace.as_mut() {
                        t.instant(SpanKind::Deferred, arrived);
                    }
                    self.deferred += 1;
                    self.note_terminal(1);
                    return Ok(());
                }
                // Shed mid-retry: consumes budget like a drop.
                Ok(Submission::Rejected | Submission::Deferred) => None,
                // With faults on, an empty table is transient (the last
                // serving node just went Down; recovery or probation will
                // repopulate it) — retryable, not fatal.
                Err(RuntimeError::NoServingNodes) if chaos => None,
                Err(e) => return Err(e),
            };
            if let Some(decision) = decision {
                let node = decision.node;
                if let Some(t) = trace.as_mut() {
                    // Head spans once, on the first attempt that
                    // dispatched. No queue precedes admission.
                    if t.spans.is_empty() {
                        t.instant(SpanKind::Admitted, arrived);
                        t.instant(SpanKind::Queued { depth: 0 }, arrived);
                    }
                    t.instant(
                        SpanKind::Routed {
                            node: node.raw(),
                            epoch: decision.epoch,
                            shard: shard as u32,
                        },
                        t_attempt,
                    );
                }
                let cause =
                    self.faults.as_mut().and_then(|f| f.dispatch_drop_cause(node, t_attempt));
                let Some(cause) = cause else {
                    // Served. Slow windows degrade the *true* rate the
                    // service time is drawn with — the estimator's μ̂
                    // then lags reality, exactly the mismatch the
                    // re-solver must absorb.
                    let factor =
                        self.faults.as_ref().map_or(1.0, |f| f.service_factor(node, t_attempt));
                    let seed = self.seed;
                    let lane = self.lane(node);
                    let start = t_attempt.max(lane.next_free);
                    let done = runtime.record_served(state, node, chaos, |mu| {
                        let rng = lane.service.get_or_insert_with(|| {
                            Xoshiro256PlusPlus::stream(
                                seed,
                                DRIVER_SERVICE_STREAM_BASE + node.raw(),
                            )
                        });
                        let service = -rng.next_open01().ln() / (mu * factor);
                        (service, start + service)
                    })?;
                    lane.next_free = done;
                    lane.completed += 1;
                    self.accepted += 1;
                    self.note_terminal(attempt);
                    let response = done - arrived;
                    if let Some(t) = trace.as_mut() {
                        t.interval(
                            SpanKind::Attempt {
                                n: attempt,
                                outcome: AttemptOutcome::Ok,
                                backoff: prev_backoff,
                            },
                            t_attempt,
                            done,
                        );
                        t.instant(SpanKind::Completed, done);
                    }
                    let telemetry = runtime.telemetry();
                    if telemetry.is_enabled() {
                        let exemplar = trace.as_ref().map(|t| t.id.raw());
                        let served = self.served.get_or_insert_with(ServedLatencies::default);
                        served.record(telemetry, start - t_attempt, response, exemplar);
                    }
                    self.responses.add(response);
                    self.batches.add(response);
                    return Ok(());
                };
                // The attempt times out against the sick node; the
                // detector hears about it at the deadline.
                self.dropped += 1;
                runtime.telemetry().record_fault_drop(0, node, t_attempt);
                runtime.record_dropped(state, node, t_attempt + timeout)?;
                if let Some(t) = trace.as_mut() {
                    let outcome = match cause {
                        DropCause::Partition => AttemptOutcome::PartitionDrop,
                        DropCause::Crash | DropCause::Flaky | DropCause::Gray => {
                            AttemptOutcome::FaultDrop
                        }
                    };
                    t.interval(
                        SpanKind::Attempt { n: attempt, outcome, backoff: prev_backoff },
                        t_attempt,
                        t_attempt + timeout,
                    );
                }
                t_attempt += timeout;
            } else if let Some(t) = trace.as_mut() {
                // Nothing was dispatched: the attempt times out at once.
                t.instant(
                    SpanKind::Attempt {
                        n: attempt,
                        outcome: AttemptOutcome::Timeout,
                        backoff: prev_backoff,
                    },
                    t_attempt,
                );
            }
            if !self.schedule_retry(runtime, attempt, budget, &mut t_attempt, &mut prev_backoff) {
                if let Some(t) = trace.as_mut() {
                    t.instant(SpanKind::Failed, t_attempt);
                }
                return Ok(());
            }
        }
    }

    /// The lane of a registry-issued node id, grown on first sight.
    fn lane(&mut self, node: NodeId) -> &mut NodeLane {
        let idx = usize::try_from(node.raw()).expect("registry-issued ids fit in usize");
        if idx >= self.lanes.len() {
            self.lanes.resize_with(idx + 1, NodeLane::default);
        }
        &mut self.lanes[idx]
    }

    /// Records a job ending (completed, shed, or abandoned) on attempt
    /// `attempt` in the terminal-attempt distribution.
    fn note_terminal(&mut self, attempt: u32) {
        let idx = attempt as usize - 1;
        if idx >= self.attempts.len() {
            self.attempts.resize(idx + 1, 0);
        }
        self.attempts[idx] += 1;
    }

    /// After a dropped or shed attempt: waits a decorrelated-jitter
    /// backoff and reports `true` when budget remains; otherwise charges
    /// the job to `failed` and reports `false`.
    fn schedule_retry(
        &mut self,
        runtime: &Runtime,
        attempt: u32,
        budget: u32,
        t_attempt: &mut f64,
        prev_backoff: &mut f64,
    ) -> bool {
        if attempt >= budget {
            self.failed += 1;
            self.note_terminal(attempt);
            return false;
        }
        let (policy, rng) = self.retry.as_mut().expect("budget > 1 implies a retry policy");
        let u = rng.next_open01();
        *prev_backoff = policy.backoff(*prev_backoff, u);
        *t_attempt += *prev_backoff;
        self.retried += 1;
        runtime.telemetry().record_retry(0, *prev_backoff);
        true
    }

    /// Drops accumulated measurements (warm-up deletion, or isolating a
    /// post-failure phase) while keeping the clock, queues, and RNG
    /// streams — the workload continues seamlessly.
    pub fn reset_measurements(&mut self) {
        self.responses = Welford::new();
        self.batches = BatchMeans::new(self.batch_size);
        for lane in &mut self.lanes {
            lane.completed = 0;
        }
        self.submitted = 0;
        self.accepted = 0;
        self.rejected = 0;
        self.deferred = 0;
        self.failed = 0;
        self.retried = 0;
        self.dropped = 0;
        self.attempts.clear();
    }

    /// Measurements since construction or the last reset.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let per_node = (0u64..)
            .zip(&self.lanes)
            .filter(|(_, lane)| lane.completed > 0)
            .map(|(raw, lane)| (NodeId::from_raw(raw), lane.completed))
            .collect();
        TraceStats {
            jobs: self.responses.count(),
            submitted: self.submitted,
            accepted: self.accepted,
            rejected: self.rejected,
            deferred: self.deferred,
            failed: self.failed,
            retried: self.retried,
            dropped: self.dropped,
            mean_response: self.responses.mean(),
            ci: (self.batches.batches() >= 2).then(|| self.batches.confidence_interval()),
            per_node,
            attempts: self.attempts.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::SchemeKind;
    use crate::RuntimeBuilder;

    fn runtime(rates: &[f64], phi: f64) -> (Runtime, Vec<NodeId>) {
        let rt = RuntimeBuilder::new()
            .seed(11)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(phi)
            .build();
        let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
        rt.resolve_now().unwrap();
        (rt, ids)
    }

    #[test]
    fn single_node_matches_mm1() {
        // One node: the closed loop is an M/M/1 queue with ρ = 0.5, whose
        // mean response time is 1/(μ − λ) = 2.
        let (rt, _) = runtime(&[1.0], 0.5);
        let mut driver = TraceDriver::new(0.5, TraceConfig { seed: 3, batch_size: 2_000 });
        driver.run_jobs(&rt, 10_000).unwrap();
        driver.reset_measurements(); // warm-up deletion
        driver.run_jobs(&rt, 40_000).unwrap();
        let stats = driver.stats();
        assert_eq!(stats.jobs, 40_000);
        let ci = stats.ci.expect("enough batches");
        let tol = (3.0 * ci.half_width).max(0.05 * 2.0);
        assert!(
            (stats.mean_response - 2.0).abs() < tol,
            "observed {} vs analytic 2.0 (tol {tol})",
            stats.mean_response
        );
    }

    #[test]
    fn trace_is_reproducible() {
        let run = || {
            let (rt, _) = runtime(&[1.0, 0.5], 0.6);
            let mut driver = TraceDriver::new(0.6, TraceConfig { seed: 9, batch_size: 100 });
            driver.run_jobs(&rt, 2_000).unwrap();
            (driver.stats().mean_response, driver.clock())
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a.to_bits(), b.to_bits(), "same seed ⇒ bit-identical trace");
        assert_eq!(ta.to_bits(), tb.to_bits());
    }

    #[test]
    fn stats_count_submissions_without_admission() {
        let (rt, _) = runtime(&[1.0], 0.5);
        let mut driver = TraceDriver::new(0.5, TraceConfig { seed: 2, batch_size: 100 });
        driver.run_jobs(&rt, 1_000).unwrap();
        let stats = driver.stats();
        assert_eq!(stats.submitted, 1_000);
        assert_eq!(stats.accepted, 1_000, "no admission control: everything admitted");
        assert_eq!(stats.rejected + stats.deferred, 0);
        assert_eq!(stats.rejection_rate(), 0.0);
    }

    #[test]
    fn admission_counts_are_conserved_and_surface_in_stats() {
        // Capacity 2, design load 1.8 ⇒ ρ = 0.9 against a 0.6 target.
        let rt = RuntimeBuilder::new()
            .seed(2)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(1.8)
            .admission(crate::AdmissionConfig { target_utilization: 0.6, defer_band: 0.0 })
            .build();
        rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();

        let mut driver = TraceDriver::new(1.8, TraceConfig { seed: 6, batch_size: 500 });
        driver.run_jobs(&rt, 10_000).unwrap();
        let stats = driver.stats();
        assert_eq!(stats.submitted, 10_000);
        assert_eq!(stats.accepted + stats.rejected + stats.deferred, stats.submitted);
        assert_eq!(stats.jobs, stats.accepted, "every admitted job completes");
        let expected = 1.0 - 0.6 / 0.9;
        assert!(
            (stats.rejection_rate() - expected).abs() < 0.05,
            "rejection rate {} vs thinning prediction {expected}",
            stats.rejection_rate()
        );
        // The runtime's own counters agree with the driver's view.
        let rt_stats = rt.admission_stats().unwrap();
        assert_eq!(rt_stats.submitted, stats.submitted);
        assert_eq!(rt_stats.rejected, stats.rejected);

        // reset_measurements clears the admission window too.
        driver.reset_measurements();
        assert_eq!(driver.stats().submitted, 0);
    }

    #[test]
    fn every_arrival_feeds_phi_whatever_happens_to_the_job() {
        // Arrival times come from their own stream, so Φ̂ must not care
        // whether a job was served, shed on its first attempt, dropped
        // against a crashed node or retried: the same seed gives the same
        // estimate, bit for bit.
        let run = |admission: bool, crash: bool| {
            let mut b = RuntimeBuilder::new().seed(2).scheme(SchemeKind::Coop);
            if admission {
                // Capacity 2, design load 1.8 ⇒ ρ = 0.9 against a 0.6 target.
                b = b
                    .admission(crate::AdmissionConfig { target_utilization: 0.6, defer_band: 0.0 });
            }
            let rt = b.nominal_arrival_rate(1.8).build();
            let ids: Vec<NodeId> =
                [1.0, 1.0].iter().map(|&r| rt.register_node(r).unwrap()).collect();
            rt.resolve_now().unwrap();
            let mut driver = TraceDriver::new(1.8, TraceConfig { seed: 6, batch_size: 500 });
            if crash {
                driver = driver
                    .with_faults(FaultPlan::new(21).crash(ids[0], 200.0))
                    .with_retry(RetryPolicy::new(crate::RetryConfig::default()).unwrap());
            }
            driver.run_jobs(&rt, 6_000).unwrap();
            (rt.estimated_arrival_rate().expect("warm").to_bits(), driver.stats())
        };
        let (plain, plain_stats) = run(false, false);
        let (shed, shed_stats) = run(true, false);
        let (chaos, chaos_stats) = run(true, true);
        assert_eq!(plain_stats.rejected, 0);
        assert!(shed_stats.rejected > 0, "admission must shed: {shed_stats:?}");
        assert!(chaos_stats.rejected > 0 && chaos_stats.dropped > 0, "{chaos_stats:?}");
        assert_eq!(plain, shed, "shed jobs must feed Φ̂");
        assert_eq!(plain, chaos, "dropped and retried jobs must feed Φ̂ once each");
    }

    #[test]
    fn empty_fault_plan_reproduces_the_fault_free_trace() {
        // Chaos machinery enabled but idle must not perturb the trace:
        // the fault and retry streams are only drawn on actual drops.
        let base = || {
            let (rt, _) = runtime(&[1.0, 0.5], 0.6);
            let mut driver = TraceDriver::new(0.6, TraceConfig { seed: 9, batch_size: 100 });
            driver.run_jobs(&rt, 2_000).unwrap();
            (driver.stats().mean_response, driver.clock())
        };
        let chaos = || {
            let (rt, _) = runtime(&[1.0, 0.5], 0.6);
            let mut driver = TraceDriver::new(0.6, TraceConfig { seed: 9, batch_size: 100 })
                .with_faults(FaultPlan::new(77))
                .with_retry(RetryPolicy::new(crate::RetryConfig::default()).unwrap())
                .with_heartbeats(0.5);
            driver.run_jobs(&rt, 2_000).unwrap();
            (driver.stats().mean_response, driver.clock())
        };
        let (a, ta) = base();
        let (b, tb) = chaos();
        assert_eq!(a.to_bits(), b.to_bits(), "idle chaos must be invisible");
        assert_eq!(ta.to_bits(), tb.to_bits());
    }

    #[test]
    fn crash_with_retry_conserves_and_redispatches() {
        let (rt, ids) = runtime(&[1.0, 1.0], 0.8);
        let plan = FaultPlan::new(21).crash(ids[0], 50.0);
        let mut driver = TraceDriver::new(0.8, TraceConfig { seed: 13, batch_size: 500 })
            .with_faults(plan)
            .with_retry(RetryPolicy::new(crate::RetryConfig::default()).unwrap())
            .with_heartbeats(1.0);
        driver.run_jobs(&rt, 8_000).unwrap();
        let stats = driver.stats();
        assert!(stats.is_conserved(), "conservation violated: {stats:?}");
        assert!(stats.retried > 0, "attempts against the corpse must retry");
        assert_eq!(rt.node_health(ids[0]), Some(crate::Health::Down), "detector caught the crash");
        // After the detector downs node 0, everything lands on node 1.
        let survivors = stats.per_node.iter().find(|&&(n, _)| n == ids[1]).unwrap().1;
        assert!(survivors > stats.jobs / 2);
        assert!(stats.failure_rate() < 0.05, "retries should save nearly every job");
    }

    #[test]
    fn crash_without_retry_exhausts_budget_immediately() {
        let (rt, ids) = runtime(&[1.0, 1.0], 0.8);
        // No heartbeats: the detector only hears dispatch outcomes, so it
        // needs several dropped jobs before it downs the node — each one
        // a budget-1 failure.
        let plan = FaultPlan::new(5).crash(ids[0], 10.0);
        let mut driver =
            TraceDriver::new(0.8, TraceConfig { seed: 13, batch_size: 500 }).with_faults(plan);
        driver.run_jobs(&rt, 4_000).unwrap();
        let stats = driver.stats();
        assert!(stats.is_conserved(), "conservation violated: {stats:?}");
        assert_eq!(stats.retried, 0, "no retry policy, no retries");
        assert!(stats.failed >= 3, "attempts at the corpse before detection are lost: {stats:?}");
        assert_eq!(rt.node_health(ids[0]), Some(crate::Health::Down));
        assert_eq!(stats.jobs + stats.failed, stats.submitted);
    }

    #[test]
    fn chaos_trace_is_reproducible() {
        let run = || {
            let (rt, ids) = runtime(&[1.0, 0.5], 0.6);
            let plan =
                FaultPlan::new(3).crash_recover(ids[0], 40.0, 30.0).flaky(ids[1], 10.0, 20.0, 0.4);
            let mut driver = TraceDriver::new(0.6, TraceConfig { seed: 9, batch_size: 100 })
                .with_faults(plan)
                .with_retry(RetryPolicy::new(crate::RetryConfig::default()).unwrap())
                .with_heartbeats(1.0);
            driver.run_jobs(&rt, 4_000).unwrap();
            let s = driver.stats();
            (s.mean_response.to_bits(), s.failed, s.retried, driver.clock().to_bits())
        };
        assert_eq!(run(), run(), "same seed and plan ⇒ bit-identical chaos trace");
    }

    #[test]
    fn tracing_is_observation_only_and_records_causal_traces() {
        let run = |traced: bool| {
            let mut b =
                RuntimeBuilder::new().seed(11).scheme(SchemeKind::Coop).nominal_arrival_rate(0.6);
            if traced {
                b = b.tracing_config(crate::TracingConfig::sample_all());
            }
            let rt = b.build();
            let ids: Vec<NodeId> =
                [1.0, 0.5].iter().map(|&r| rt.register_node(r).unwrap()).collect();
            rt.resolve_now().unwrap();
            let plan =
                FaultPlan::new(3).crash_recover(ids[0], 40.0, 30.0).flaky(ids[1], 10.0, 20.0, 0.4);
            let mut driver = TraceDriver::new(0.6, TraceConfig { seed: 9, batch_size: 100 })
                .with_faults(plan)
                .with_retry(RetryPolicy::new(crate::RetryConfig::default()).unwrap())
                .with_heartbeats(1.0);
            driver.run_jobs(&rt, 2_000).unwrap();
            (driver.stats().mean_response.to_bits(), driver.clock().to_bits(), rt.tracer().traces())
        };
        let (a, ta, none) = run(false);
        let (b, tb, traces) = run(true);
        assert_eq!(a, b, "tracing must not perturb the trace");
        assert_eq!(ta, tb);
        assert!(none.is_empty(), "disabled tracer records nothing");
        assert!(!traces.is_empty(), "sample-all chaos run must record traces");
        for t in &traces {
            t.terminal().expect("every trace ends in a terminal span");
            assert_eq!(
                t.spans.iter().filter(|s| s.kind.is_terminal()).count(),
                1,
                "exactly one terminal: {t:?}"
            );
            for w in t.spans.windows(2) {
                assert!(w[1].start >= w[0].start, "spans out of causal order: {t:?}");
            }
        }
    }

    #[test]
    fn trace_ids_do_not_repeat_after_a_reset() {
        let rt = RuntimeBuilder::new()
            .seed(11)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(0.6)
            .tracing_config(crate::TracingConfig::sample_all())
            .build();
        for rate in [1.0, 0.5] {
            rt.register_node(rate).unwrap();
        }
        rt.resolve_now().unwrap();
        let mut driver = TraceDriver::new(0.6, TraceConfig { seed: 9, batch_size: 100 });
        driver.run_jobs(&rt, 100).unwrap();
        driver.reset_measurements();
        driver.run_jobs(&rt, 100).unwrap();
        assert_eq!(driver.stats().submitted, 100, "the books restart at the reset");

        let traces = rt.tracer().traces();
        let ids: std::collections::HashSet<_> = traces.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), 200, "every job keeps its own trace id");
        let mut sequences: Vec<u64> = traces.iter().map(|t| t.sequence).collect();
        sequences.sort_unstable();
        assert_eq!(sequences, (1..=200).collect::<Vec<_>>());
        let last = rt.tracer().id_of(200).unwrap();
        assert_eq!(rt.tracer().trace(last).unwrap().sequence, 200);
    }

    /// Everything a chaos-style run leaves behind, offered `chunk` jobs
    /// per `run_jobs` call: the books, the detector's transitions, the
    /// publishes, the dispatch counts and the recorded traces.
    type Books = (TraceStats, Vec<crate::HealthTransition>, u64, Vec<(NodeId, u64)>, Vec<Trace>);

    fn chaos_books(jobs: u64, chunk: u64) -> Books {
        let rt = RuntimeBuilder::new()
            .seed(17)
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(2.4)
            .admission(crate::AdmissionConfig { target_utilization: 0.8, defer_band: 0.05 })
            .tracing_config(crate::TracingConfig::sample_all())
            .build();
        let ids: Vec<NodeId> =
            [2.0, 1.0, 1.0, 0.5].iter().map(|&r| rt.register_node(r).unwrap()).collect();
        rt.resolve_now().unwrap();
        let plan = FaultPlan::new(29)
            .crash_recover(ids[0], 60.0, 40.0)
            .flaky(ids[1], 20.0, 200.0, 0.3)
            .slow(ids[2], 80.0, 120.0, 0.5)
            .gray(ids[2], 300.0, 60.0, 2.0, 0.2)
            .partition(ids[3], 150.0, 40.0, crate::PartitionDirection::DropDispatch)
            .partition(ids[1], 400.0, 30.0, crate::PartitionDirection::DropHeartbeats);
        let mut driver = TraceDriver::new(2.4, TraceConfig { seed: 5, batch_size: 100 })
            .with_faults(plan)
            .with_retry(RetryPolicy::new(crate::RetryConfig::default()).unwrap())
            .with_heartbeats(1.0);
        let mut left = jobs;
        while left > 0 {
            let n = chunk.min(left);
            driver.run_jobs(&rt, n).unwrap();
            left -= n;
        }
        (
            driver.stats(),
            rt.health_transitions(),
            rt.swap_stats().publishes,
            rt.hit_counts(),
            rt.tracer().traces(),
        )
    }

    #[test]
    fn batching_is_invisible() {
        // One call runs the jobs in batches under held locks; one call
        // per job takes fresh locks for every job, as the runtime's
        // public entry points do. Transitions publish inside batches, so
        // this holds only if each attempt sees the publishes before it.
        let (stats, transitions, publishes, hits, traces) = chaos_books(1_500, 1_500);
        assert!(stats.is_conserved(), "{stats:?}");
        assert!(stats.rejected + stats.deferred > 0 && stats.dropped > 0, "{stats:?}");
        assert!(stats.retried > 0 && stats.failed > 0, "{stats:?}");
        assert!(transitions.len() > 20, "the plan must drive transitions: {transitions:?}");
        assert!(publishes > 20, "transitions must publish: {publishes}");
        assert_eq!(hits.len(), 4);
        assert!(!traces.is_empty());

        let (single, single_transitions, single_publishes, single_hits, single_traces) =
            chaos_books(1_500, 1);
        assert_eq!(single.mean_response.to_bits(), stats.mean_response.to_bits());
        assert_eq!(format!("{single:?}"), format!("{stats:?}"));
        assert_eq!(single_transitions, transitions);
        assert_eq!(single_publishes, publishes);
        assert_eq!(single_hits, hits);
        assert_eq!(single_traces, traces);
    }

    #[test]
    fn a_waiting_thread_gets_the_locks_within_a_batch() {
        // Measured in virtual time, so a loaded machine cannot fail it:
        // the driver publishes each job's arrival as the telemetry clock,
        // so the clock's advance during another thread's call, times Φ,
        // counts the jobs the driver ran while that call waited. The
        // calls come a few batches apart, so each finds the driver
        // mid-batch (back to back, they would starve the driver instead).
        // The paper's Table 3.1 cluster at ρ = 0.7, every job traced.
        let phi = 0.7 * 51.0;
        let rt = RuntimeBuilder::new()
            .seed(11)
            .nominal_arrival_rate(phi)
            .telemetry(true)
            .tracing_config(crate::TracingConfig::sample_all())
            .build();
        let rates = [[10.0; 2].as_slice(), &[5.0; 3], &[2.0; 5], &[1.0; 6]].concat();
        let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
        let node = ids[0];
        rt.resolve_now().unwrap();
        let running = std::sync::atomic::AtomicBool::new(true);
        let mut jobs: Vec<f64> = std::thread::scope(|s| {
            s.spawn(|| {
                let mut driver = TraceDriver::new(phi, TraceConfig::default());
                while running.load(std::sync::atomic::Ordering::Relaxed) {
                    driver.run_jobs(&rt, 10_000).unwrap();
                }
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            let mut after = 0.0;
            let jobs = (0..200)
                .map(|_| {
                    while rt.telemetry().clock() < after + (4 * BATCH) as f64 / phi {
                        assert!(std::time::Instant::now() < deadline, "the driver stalled");
                        std::thread::yield_now();
                    }
                    let before = rt.telemetry().clock();
                    rt.observe_success(node, before).unwrap();
                    after = rt.telemetry().clock();
                    (after - before) * phi
                })
                .collect();
            running.store(false, std::sync::atomic::Ordering::Relaxed);
            jobs
        });
        jobs.sort_by(f64::total_cmp);
        let median = jobs[jobs.len() / 2];
        assert!(
            median <= BATCH as f64,
            "the driver ran {median:.1} jobs during the median call (max {:.1})",
            jobs[jobs.len() - 1]
        );
    }

    #[test]
    fn per_node_counts_follow_the_table() {
        // ρ = 0.8, high enough that COOP loads the slow node too.
        let (rt, ids) = runtime(&[4.0, 1.0], 4.0);
        let mut driver = TraceDriver::new(4.0, TraceConfig::default());
        driver.run_jobs(&rt, 20_000).unwrap();
        let stats = driver.stats();
        let table = rt.current_table();
        let total: u64 = stats.per_node.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 20_000);
        for &id in &ids {
            let p = table.prob_of(id).unwrap();
            let count = stats.per_node.iter().find(|&&(n, _)| n == id).map_or(0, |&(_, c)| c);
            let freq = count as f64 / total as f64;
            assert!((freq - p).abs() < 0.02, "{id}: freq {freq} vs p {p}");
            assert!(p > 0.0 && count > 0, "{id} should carry load at ρ = 0.8");
        }
    }
}
