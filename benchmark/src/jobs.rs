//! The job workloads, `farm` and `chaos`: a closed loop of Poisson
//! arrivals through a COOP-routed runtime.
//!
//! A *pass* builds a fresh runtime, registers the cluster over HTTP,
//! resolves, warms the loop up and then runs the measured jobs in
//! chunks, with one `resolve_now` after each chunk — the resolver tick.
//! A traced pass also scrapes `GET /metrics` and `GET /nodes` after each
//! tick, as an operator would. The same seed gives the same pass, so a
//! run repeats passes and compares each chunk with itself across them.
//!
//! [`Replica`] is the benchmark's copy of `TraceDriver::run_jobs`,
//! written against public functions only, with a span around every call
//! into a layer. It makes the same calls in the same order, so for one
//! seed it reproduces the driver's counts and mean response exactly —
//! [`fidelity`] checks that on every run.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_desim::stats::{BatchMeans, Welford};
use gtlb_runtime::driver::{DRIVER_ARRIVAL_STREAM, DRIVER_SERVICE_STREAM_BASE};
use gtlb_runtime::{
    AdmissionConfig, AdmissionControl, AdmissionPolicy, AttemptOutcome, DropCause, FaultInjector,
    FaultPlan, NodeId, PartitionDirection, ResolveOutcome, RetryConfig, RetryPolicy, Runtime,
    RuntimeError, SchemeKind, SpanKind, Submission, Trace, TraceConfig, TraceDriver, TraceStats,
    RETRY_STREAM,
};

use crate::endpoint::Endpoint;
use crate::ledger::{Layer, Ledger};

/// The paper's Table 3.1 cluster: rates {10, 5, 2, 1} × counts
/// {2, 3, 5, 6}.
const TABLE_3_1: [(f64, usize); 4] = [(10.0, 2), (5.0, 3), (2.0, 5), (1.0, 6)];

/// Stream id of the benchmark's fault-plan generator, apart from every
/// stream the runtime uses.
const PLAN_STREAM: u64 = 0x0C00;

/// Admission target of the chaos workload.
const CHAOS_ADMISSION: AdmissionConfig =
    AdmissionConfig { target_utilization: 0.95, defer_band: 0.02 };

/// Design utilization `Φ / Σμ` of every workload.
const RHO: f64 = 0.7;

/// Mean virtual seconds between fault windows on one chaos node.
const FAULT_EVERY_S: f64 = 300.0;

/// Which job workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's experiment: no faults, no admission.
    Farm,
    /// Faults, retries, heartbeats and admission.
    Chaos,
}

/// Shape and size of one job workload.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Which workload.
    pub kind: Kind,
    /// Copies of the Table 3.1 cluster.
    pub copies: usize,
    /// Jobs run before measurement starts (part of set-up).
    pub warmup_jobs: u64,
    /// Jobs measured per pass.
    pub jobs: u64,
    /// Jobs between resolver ticks.
    pub chunk: u64,
}

impl JobSpec {
    /// `farm`: 16 nodes at ρ = 0.7.
    #[must_use]
    pub fn farm() -> Self {
        Self { kind: Kind::Farm, copies: 1, warmup_jobs: 100_000, jobs: 1_000_000, chunk: 20_000 }
    }

    /// `chaos`: 256 nodes at ρ = 0.7 with a fault window per node every
    /// 300 virtual seconds on average.
    #[must_use]
    pub fn chaos() -> Self {
        Self { kind: Kind::Chaos, copies: 16, warmup_jobs: 20_000, jobs: 180_000, chunk: 10_000 }
    }

    /// Node rates in registration order.
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        for _ in 0..self.copies {
            for (rate, count) in TABLE_3_1 {
                rates.extend(std::iter::repeat_n(rate, count));
            }
        }
        rates
    }

    /// Offered arrival rate `Φ`.
    #[must_use]
    pub fn phi(&self) -> f64 {
        RHO * self.rates().iter().sum::<f64>()
    }

    fn faulty(&self) -> bool {
        self.kind == Kind::Chaos
    }
}

/// A runtime ready for jobs: built, registered over HTTP and resolved.
pub struct Setup {
    /// The runtime.
    pub runtime: Arc<Runtime>,
    /// Its control plane, in process.
    pub endpoint: Endpoint,
    /// Node ids in registration order.
    pub ids: Vec<NodeId>,
    /// The first resolve: the design allocation at nominal rates.
    pub design: ResolveOutcome,
    /// The fault plan (chaos only).
    pub plan: Option<FaultPlan>,
}

/// Builds the runtime for `spec`, registers the cluster and resolves.
///
/// # Errors
/// When a registration or the first resolve fails.
pub fn setup(spec: &JobSpec, seed: u64) -> Result<Setup, String> {
    let mut builder = Runtime::builder()
        .seed(seed)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(spec.phi())
        // Wide estimator windows, as the chaos end-to-end tests use: with
        // the defaults, μ̂ noise moves the allocation at every tick.
        .service_window(4096)
        .ewma_alpha(0.005)
        .telemetry(true)
        .tracing(true);
    if spec.faulty() {
        builder = builder.admission(CHAOS_ADMISSION);
    } else {
        // The paper's experiment routes on known rates: the estimators
        // still record every arrival and service, but never warm up, so
        // every resolver tick republishes the design allocation and the
        // observed mean response can be held to its prediction.
        builder = builder.min_observations(u64::MAX, usize::MAX);
    }
    let runtime = Arc::new(builder.build());
    let mut endpoint = Endpoint::new(&runtime);
    let ids = endpoint.register_all(&spec.rates(), &mut Ledger::off())?;
    let design = runtime.resolve_now().map_err(|e| format!("first resolve: {e}"))?;
    let plan = spec.faulty().then(|| fault_plan(spec, seed, &ids));
    Ok(Setup { runtime, endpoint, ids, design, plan })
}

/// The chaos fault plan for `seed`. The measured part of the pass is cut
/// into slots of about [`FAULT_EVERY_S`] virtual seconds, and every node gets
/// one window per slot at a seeded offset inside it. Node `i`'s window in
/// slot `j` is of kind `(i + j) mod 5` — crash-recover, flaky, slow, gray
/// or one-way partition — so every seed plans the same number of windows
/// of each kind on the same nodes, and only their timing moves.
#[must_use]
pub fn fault_plan(spec: &JobSpec, seed: u64, ids: &[NodeId]) -> FaultPlan {
    let phi = spec.phi();
    let start = spec.warmup_jobs as f64 / phi;
    let measured = spec.jobs as f64 / phi;
    let slots = (measured / FAULT_EVERY_S).round().max(1.0) as usize;
    let slot = measured / slots as f64;
    let mut rng = Xoshiro256PlusPlus::stream(seed, PLAN_STREAM);
    let mut plan = FaultPlan::new(seed);
    for (i, &node) in ids.iter().enumerate() {
        for j in 0..slots {
            // Windows last at most 30 s and open in the slot's first
            // 90 %, so each ends before the next slot's can open.
            let t = start + slot * (j as f64 + 0.9 * rng.next_open01());
            plan = match (i + j) % 5 {
                0 => plan.crash_recover(node, t, 20.0),
                1 => plan.flaky(node, t, 30.0, 0.3),
                2 => plan.slow(node, t, 30.0, 0.5),
                3 => plan.gray(node, t, 30.0, 2.0, 0.05),
                _ if (i + j) % 10 == 4 => {
                    plan.partition(node, t, 20.0, PartitionDirection::DropDispatch)
                }
                _ => plan.partition(node, t, 20.0, PartitionDirection::DropHeartbeats),
            };
        }
    }
    plan
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Set-up: build, registration, first resolve and warm-up (s).
    pub setup_s: f64,
    /// Wall time of the measured chunks and their resolver ticks (s).
    pub job_s: f64,
    /// Wall time of each measured chunk, its resolver tick included (s).
    pub chunk_s: Vec<f64>,
    /// Measured jobs.
    pub jobs: u64,
    /// `resolve_now` latencies (ms).
    pub solve_ms: Vec<f64>,
    /// `GET /metrics` latencies (ms), traced passes only.
    pub scrape_ms: Vec<f64>,
    /// `GET /nodes` latencies (ms), traced passes only.
    pub nodes_ms: Vec<f64>,
    /// The measured jobs' books.
    pub stats: Option<TraceStats>,
    /// The design allocation's predicted mean response.
    pub predicted: f64,
    /// Fault-plan events.
    pub plan_events: usize,
}

fn checked(result: Result<(), RuntimeError>, what: &str) -> Result<(), String> {
    result.map_err(|e| format!("{what}: {e}"))
}

/// The job loop both [`driver_pass`] and [`replica_pass`] run.
trait JobLoop {
    fn run(&mut self, rt: &Runtime, jobs: u64, led: &mut Ledger) -> Result<(), RuntimeError>;
    fn reset(&mut self);
}

impl JobLoop for TraceDriver {
    fn run(&mut self, rt: &Runtime, jobs: u64, _: &mut Ledger) -> Result<(), RuntimeError> {
        self.run_jobs(rt, jobs)
    }
    fn reset(&mut self) {
        self.reset_measurements();
    }
}

/// Runs `spec`'s chunk schedule: warm-up chunks, reset, then measured
/// chunks each followed by a resolver tick. A traced pass also has the
/// operator scrape after each tick, outside the chunk's time.
fn run_pass<L: JobLoop>(
    spec: &JobSpec,
    setup: &mut Setup,
    job_loop: &mut L,
    led: &mut Ledger,
    started: Instant,
) -> Result<Pass, String> {
    let rt = Arc::clone(&setup.runtime);
    let mut warm = Ledger::off();
    for _ in 0..spec.warmup_jobs / spec.chunk {
        checked(job_loop.run(&rt, spec.chunk, &mut warm), "warm-up")?;
        rt.resolve_now().map_err(|e| format!("resolve: {e}"))?;
    }
    job_loop.reset();
    let mut pass = Pass {
        setup_s: started.elapsed().as_secs_f64(),
        predicted: setup.design.predicted_mean_response,
        plan_events: setup.plan.as_ref().map_or(0, |p| p.events().len()),
        ..Pass::default()
    };
    for _ in 0..spec.jobs / spec.chunk {
        let t0 = Instant::now();
        checked(job_loop.run(&rt, spec.chunk, led), "jobs")?;
        let t1 = Instant::now();
        led.open(Layer::Resolver);
        let solved = rt.resolve_now();
        led.close();
        let t2 = Instant::now();
        solved.map_err(|e| format!("resolve: {e}"))?;
        pass.chunk_s.push((t2 - t0).as_secs_f64());
        pass.solve_ms.push((t2 - t1).as_secs_f64() * 1e3);
        pass.jobs += spec.chunk;
        if led.is_on() {
            let (scrape, nodes, _) = setup.endpoint.scrape(setup.ids.len(), led)?;
            pass.scrape_ms.push(scrape);
            pass.nodes_ms.push(nodes);
            isolate_scrape(&setup.runtime, &setup.endpoint, led);
        }
    }
    pass.job_s = pass.chunk_s.iter().sum();
    Ok(pass)
}

/// The hooks calls behind the last scrape, each on its own: telemetry
/// snapshot, Prometheus render and the node table. They split the
/// router's time from the layers below it.
pub fn isolate_scrape(rt: &Runtime, endpoint: &Endpoint, led: &mut Ledger) {
    let snap = led.span(Layer::Snapshot, || rt.telemetry_snapshot());
    if let Some(snap) = snap {
        black_box(led.span(Layer::Render, || snap.to_prometheus()));
    }
    black_box(led.span(Layer::HooksNodes, || endpoint.state().hooks().nodes()));
}

/// One untraced pass of `TraceDriver` itself.
///
/// # Errors
/// When set-up, a job chunk, a resolve or a scrape fails.
pub fn driver_pass(spec: &JobSpec, seed: u64) -> Result<Pass, String> {
    let started = Instant::now();
    let mut s = setup(spec, seed)?;
    let mut driver = TraceDriver::new(spec.phi(), TraceConfig { seed, batch_size: 10_000 });
    if let Some(plan) = s.plan.clone() {
        driver = driver
            .with_faults(plan)
            .with_retry(RetryPolicy::new(RetryConfig::default()).map_err(|e| e.to_string())?)
            .with_heartbeats(1.0);
    }
    let mut pass = run_pass(spec, &mut s, &mut driver, &mut Ledger::off(), started)?;
    pass.stats = Some(driver.stats());
    Ok(pass)
}

/// A pass of the [`Replica`], traced when `led` is on. Returns the pass
/// and the replica, whose counters the per-layer report reads.
///
/// # Errors
/// As [`driver_pass`].
pub fn replica_pass(
    spec: &JobSpec,
    seed: u64,
    led: &mut Ledger,
) -> Result<(Pass, Replica, Setup), String> {
    let started = Instant::now();
    let mut s = setup(spec, seed)?;
    let mut replica = Replica::new(spec.phi(), seed, s.ids.len());
    if let Some(plan) = s.plan.clone() {
        replica = replica.with_chaos(plan, 1.0).map_err(|e| e.to_string())?;
    }
    let mut pass = run_pass(spec, &mut s, &mut replica, led, started)?;
    pass.stats = Some(replica.stats());
    Ok((pass, replica, s))
}

/// Checks a pass's books: conservation always; for the farm, the
/// observed mean response within 5 % of the design prediction.
///
/// # Errors
/// With the failed check.
pub fn check_pass(spec: &JobSpec, pass: &Pass) -> Result<(), String> {
    let stats = pass.stats.as_ref().ok_or("pass has no stats")?;
    if !stats.is_conserved() {
        return Err(format!("conservation violated: {stats:?}"));
    }
    if stats.submitted != pass.jobs {
        return Err(format!("submitted {} of {} jobs", stats.submitted, pass.jobs));
    }
    if spec.kind == Kind::Farm {
        let error = stats.mean_response / pass.predicted - 1.0;
        if error.abs() > 0.05 {
            return Err(format!(
                "observed mean response {} is {:+.1} % off the predicted {}",
                stats.mean_response,
                100.0 * error,
                pass.predicted
            ));
        }
    }
    Ok(())
}

/// Checks that the replica's books equal the driver's: every count, and
/// the mean response bit for bit.
///
/// # Errors
/// With the first difference.
pub fn fidelity(driver: &TraceStats, replica: &TraceStats) -> Result<(), String> {
    let pairs = [
        ("submitted", driver.submitted, replica.submitted),
        ("accepted", driver.accepted, replica.accepted),
        ("rejected", driver.rejected, replica.rejected),
        ("deferred", driver.deferred, replica.deferred),
        ("failed", driver.failed, replica.failed),
        ("retried", driver.retried, replica.retried),
        ("dropped", driver.dropped, replica.dropped),
    ];
    for (name, d, r) in pairs {
        if d != r {
            return Err(format!("replica {name} {r} differs from the driver's {d}"));
        }
    }
    if driver.mean_response.to_bits() != replica.mean_response.to_bits() {
        return Err(format!(
            "replica mean response {} differs from the driver's {}",
            replica.mean_response, driver.mean_response
        ));
    }
    if driver.per_node != replica.per_node {
        return Err("replica per-node counts differ from the driver's".to_string());
    }
    Ok(())
}

/// Times `calls` admission decisions on a stand-alone
/// [`AdmissionControl`] at the runtime's offered utilization; returns ns
/// per call. `submit_on` makes this call inside the shard span, so the
/// ledger subtracts it there.
#[must_use]
pub fn admission_replay_ns(rt: &Runtime, calls: u64) -> f64 {
    let Some(rho) = rt.offered_utilization() else { return 0.0 };
    let policy =
        AdmissionPolicy::new(CHAOS_ADMISSION).expect("the chaos admission config is valid");
    let control = AdmissionControl::new(policy);
    control.publish_offered_utilization(rho);
    let mut rng = Xoshiro256PlusPlus::stream(0, PLAN_STREAM + 1);
    let draws: Vec<f64> = (0..4096).map(|_| rng.next_open01()).collect();
    let calls = calls.clamp(1, 4_000_000);
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for k in 0..calls {
            black_box(control.decide(black_box(draws[(k & 4095) as usize])));
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

#[derive(Debug)]
struct Heartbeat {
    interval: f64,
    next: f64,
    ids: Vec<NodeId>,
}

/// Layer counters the replica keeps beside the driver's books.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `submit_on` calls.
    pub submit_calls: u64,
    /// `FaultInjector` plan lookups.
    pub fault_lookups: u64,
    /// `observe_success` / `observe_failure` calls.
    pub detector_calls: u64,
    /// Health transitions those calls drove.
    pub transitions: u64,
    /// Dispatch attempts, shed and timed-out ones included.
    pub attempts: u64,
    /// Jobs the tracer sampled.
    pub sampled: u64,
}

impl Counts {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &Self) {
        self.submit_calls += other.submit_calls;
        self.fault_lookups += other.fault_lookups;
        self.detector_calls += other.detector_calls;
        self.transitions += other.transitions;
        self.attempts += other.attempts;
        self.sampled += other.sampled;
    }
}

/// The benchmark's copy of `TraceDriver`: the same calls in the same
/// order, each wrapped in a span of its layer.
#[derive(Debug)]
pub struct Replica {
    phi: f64,
    seed: u64,
    clock: f64,
    arrivals: Xoshiro256PlusPlus,
    services: HashMap<NodeId, Xoshiro256PlusPlus>,
    next_free: HashMap<NodeId, f64>,
    responses: Welford,
    batches: BatchMeans,
    per_node: HashMap<NodeId, u64>,
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
    /// Per-node (response sum, jobs), indexed by raw node id.
    node_response: Vec<(f64, u64)>,
    /// Layer counters since the last reset.
    pub counts: Counts,
}

impl Replica {
    /// A replica generating arrivals at `phi` from `seed`, over nodes
    /// with raw ids below `nodes`.
    #[must_use]
    pub fn new(phi: f64, seed: u64, nodes: usize) -> Self {
        Self {
            phi,
            seed,
            clock: 0.0,
            arrivals: Xoshiro256PlusPlus::stream(seed, DRIVER_ARRIVAL_STREAM),
            services: HashMap::new(),
            next_free: HashMap::new(),
            responses: Welford::new(),
            batches: BatchMeans::new(10_000),
            per_node: HashMap::new(),
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
            node_response: vec![(0.0, 0); nodes],
            counts: Counts::default(),
        }
    }

    /// Faults, the default retry policy and heartbeats every
    /// `heartbeat` virtual seconds, as the chaos driver is configured.
    ///
    /// # Errors
    /// When the default retry policy is rejected.
    pub fn with_chaos(mut self, plan: FaultPlan, heartbeat: f64) -> Result<Self, RuntimeError> {
        self.faults = Some(FaultInjector::new(plan));
        let rng = Xoshiro256PlusPlus::stream(self.seed, RETRY_STREAM);
        self.retry = Some((RetryPolicy::new(RetryConfig::default())?, rng));
        self.heartbeat = Some(Heartbeat { interval: heartbeat, next: heartbeat, ids: Vec::new() });
        Ok(self)
    }

    /// Jain's index of `1 / mean response` over nodes that completed
    /// jobs — for an M/M/1 node, its slack `μ − λ`. Theorem 3.8 has COOP
    /// give every loaded node the same slack, an index of 1.
    #[must_use]
    pub fn fairness(&self) -> f64 {
        let slacks: Vec<f64> = self
            .node_response
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(sum, n)| n as f64 / sum)
            .collect();
        crate::stats::jain(&slacks)
    }

    /// The books in `TraceDriver::stats` form.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut per_node: Vec<(NodeId, u64)> =
            self.per_node.iter().map(|(&id, &c)| (id, c)).collect();
        per_node.sort_by_key(|&(id, _)| id);
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

    fn run_heartbeats(
        &mut self,
        rt: &Runtime,
        upto: f64,
        led: &mut Ledger,
    ) -> Result<(), RuntimeError> {
        let Some(hb) = &mut self.heartbeat else { return Ok(()) };
        while hb.next <= upto {
            let t = hb.next;
            hb.next += hb.interval;
            led.span(Layer::Detector, || rt.node_ids_into(&mut hb.ids));
            for &node in &hb.ids {
                self.counts.fault_lookups += 1;
                let faults = &mut self.faults;
                let dropped = led.span(Layer::Fault, || {
                    faults.as_mut().is_some_and(|f| f.heartbeat_drops(node, t))
                });
                self.counts.detector_calls += 1;
                let tr = led.span(Layer::Detector, || {
                    if dropped {
                        rt.observe_failure(node, t)
                    } else {
                        rt.observe_success(node, t)
                    }
                })?;
                self.counts.transitions += u64::from(tr.is_some());
            }
        }
        Ok(())
    }

    fn run_job(&mut self, rt: &Runtime, led: &mut Ledger) -> Result<(), RuntimeError> {
        let arrivals = &mut self.arrivals;
        let gap = led.span(Layer::Driver, || -arrivals.next_open01().ln());
        self.clock += gap / self.phi;
        let arrived = self.clock;
        led.span(Layer::Telemetry, || rt.telemetry().set_clock(arrived));
        if let Some(f) = self.faults.as_mut() {
            // `record_fault_marker` is crate-private: the replica drains
            // the markers but cannot record them.
            black_box(led.span(Layer::Fault, || f.drain_markers(arrived)));
        }
        self.run_heartbeats(rt, arrived, led)?;
        led.span(Layer::Estimator, || rt.record_arrival(arrived));

        self.submitted += 1;
        let sequence = self.submitted;
        let mut trace = led.span(Layer::Tracing, || rt.tracer().begin(sequence));
        self.counts.sampled += u64::from(trace.is_some());
        let outcome = self.offer_job(rt, arrived, &mut trace, led);
        led.span(Layer::Tracing, || {
            if let Some(t) = trace.take() {
                let shard = t
                    .spans
                    .iter()
                    .find_map(|s| match s.kind {
                        SpanKind::Routed { shard, .. } => Some(shard as usize),
                        _ => None,
                    })
                    .unwrap_or(0);
                rt.tracer().finish(shard, t);
            }
        });
        outcome
    }

    /// `TraceDriver::offer_job`, span by span.
    #[allow(clippy::too_many_lines)]
    fn offer_job(
        &mut self,
        rt: &Runtime,
        arrived: f64,
        trace: &mut Option<Trace>,
        led: &mut Ledger,
    ) -> Result<(), RuntimeError> {
        let budget = self.retry.as_ref().map_or(1, |(p, _)| p.max_attempts());
        let timeout = self.retry.as_ref().map_or(0.0, |(p, _)| p.timeout());
        let chaos = self.faults.is_some();
        let mut t_attempt = arrived;
        let mut prev_backoff = 0.0;
        for attempt in 1..=budget {
            self.counts.attempts += 1;
            self.counts.submit_calls += 1;
            let (shard, submitted) = led.span(Layer::Shard, || {
                let shard = rt.sharded_dispatcher().next_shard();
                (shard, rt.submit_on(shard))
            });
            let shed_timeout =
                move |trace: &mut Option<Trace>, led: &mut Ledger, t_attempt: f64| {
                    if let Some(t) = trace.as_mut() {
                        led.span(Layer::Tracing, || {
                            t.instant(
                                SpanKind::Attempt {
                                    n: attempt,
                                    outcome: AttemptOutcome::Timeout,
                                    backoff: prev_backoff,
                                },
                                t_attempt,
                            );
                        });
                    }
                };
            let submission = match submitted {
                Ok(s) => s,
                Err(RuntimeError::NoServingNodes) if chaos => {
                    shed_timeout(trace, led, t_attempt);
                    if self.schedule_retry(
                        rt,
                        attempt,
                        budget,
                        &mut t_attempt,
                        &mut prev_backoff,
                        led,
                    ) {
                        continue;
                    }
                    self.failed_span(trace, t_attempt, led);
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            let decision = match submission {
                Submission::Dispatched(d) => d,
                shed @ (Submission::Rejected | Submission::Deferred) => {
                    if attempt == 1 {
                        let kind = if shed == Submission::Rejected {
                            self.rejected += 1;
                            SpanKind::Rejected
                        } else {
                            self.deferred += 1;
                            SpanKind::Deferred
                        };
                        if let Some(t) = trace.as_mut() {
                            led.span(Layer::Tracing, || t.instant(kind, arrived));
                        }
                        self.note_terminal(1);
                        return Ok(());
                    }
                    shed_timeout(trace, led, t_attempt);
                    if self.schedule_retry(
                        rt,
                        attempt,
                        budget,
                        &mut t_attempt,
                        &mut prev_backoff,
                        led,
                    ) {
                        continue;
                    }
                    self.failed_span(trace, t_attempt, led);
                    return Ok(());
                }
            };
            let node = decision.node;
            let mu = led
                .span(Layer::Driver, || rt.node_rate(node))
                .ok_or(RuntimeError::UnknownNode(node))?;
            if let Some(t) = trace.as_mut() {
                led.span(Layer::Tracing, || {
                    if t.spans.is_empty() {
                        t.instant(SpanKind::Admitted, arrived);
                        let depth = rt.telemetry().ingest_depth().max(0.0) as u64;
                        t.instant(SpanKind::Queued { depth }, arrived);
                    }
                    t.instant(
                        SpanKind::Routed {
                            node: node.raw(),
                            epoch: decision.epoch,
                            shard: shard as u32,
                        },
                        t_attempt,
                    );
                });
            }

            let cause = match self.faults.as_mut() {
                Some(f) => {
                    self.counts.fault_lookups += 1;
                    led.span(Layer::Fault, || f.dispatch_drop_cause(node, t_attempt))
                }
                None => None,
            };
            if let Some(cause) = cause {
                self.dropped += 1;
                led.span(Layer::Telemetry, || rt.telemetry().record_fault_drop(0, node, t_attempt));
                self.counts.detector_calls += 1;
                let tr =
                    led.span(Layer::Detector, || rt.observe_failure(node, t_attempt + timeout))?;
                self.counts.transitions += u64::from(tr.is_some());
                if let Some(t) = trace.as_mut() {
                    let outcome = match cause {
                        DropCause::Partition => AttemptOutcome::PartitionDrop,
                        DropCause::Crash | DropCause::Flaky | DropCause::Gray => {
                            AttemptOutcome::FaultDrop
                        }
                    };
                    led.span(Layer::Tracing, || {
                        t.interval(
                            SpanKind::Attempt { n: attempt, outcome, backoff: prev_backoff },
                            t_attempt,
                            t_attempt + timeout,
                        );
                    });
                }
                t_attempt += timeout;
                if self.schedule_retry(rt, attempt, budget, &mut t_attempt, &mut prev_backoff, led)
                {
                    continue;
                }
                self.failed_span(trace, t_attempt, led);
                return Ok(());
            }

            let factor = match self.faults.as_ref() {
                Some(f) => {
                    self.counts.fault_lookups += 1;
                    led.span(Layer::Fault, || f.service_factor(node, t_attempt))
                }
                None => 1.0,
            };
            let seed = self.seed;
            let (services, next_free) = (&mut self.services, &mut self.next_free);
            let (service, start, done) = led.span(Layer::Driver, || {
                let rng = services.entry(node).or_insert_with(|| {
                    Xoshiro256PlusPlus::stream(seed, DRIVER_SERVICE_STREAM_BASE + node.raw())
                });
                let service = -rng.next_open01().ln() / (mu * factor);
                let free = next_free.entry(node).or_insert(0.0);
                let start = t_attempt.max(*free);
                let done = start + service;
                *free = done;
                (service, start, done)
            });

            led.span(Layer::Estimator, || rt.record_service(node, service));
            if chaos {
                self.counts.detector_calls += 1;
                let tr = led.span(Layer::Detector, || rt.observe_success(node, done))?;
                self.counts.transitions += u64::from(tr.is_some());
            }
            self.accepted += 1;
            self.note_terminal(attempt);
            let response = done - arrived;
            if let Some(t) = trace.as_mut() {
                led.span(Layer::Tracing, || {
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
                });
            }
            let exemplar = trace.as_ref().map(|t| t.id.raw());
            led.span(Layer::Telemetry, || {
                rt.telemetry().record_queue_wait(start - t_attempt);
                rt.telemetry().record_response_traced(response, exemplar);
            });
            let (responses, batches, per_node) =
                (&mut self.responses, &mut self.batches, &mut self.per_node);
            led.span(Layer::Driver, || {
                responses.add(response);
                batches.add(response);
                *per_node.entry(node).or_insert(0) += 1;
            });
            if let Some(slot) = self.node_response.get_mut(node.raw() as usize) {
                slot.0 += response;
                slot.1 += 1;
            }
            return Ok(());
        }
        unreachable!("every attempt either returns or schedules a retry");
    }

    fn failed_span(&self, trace: &mut Option<Trace>, at: f64, led: &mut Ledger) {
        if let Some(t) = trace.as_mut() {
            led.span(Layer::Tracing, || t.instant(SpanKind::Failed, at));
        }
    }

    fn note_terminal(&mut self, attempt: u32) {
        let idx = attempt as usize - 1;
        if idx >= self.attempts.len() {
            self.attempts.resize(idx + 1, 0);
        }
        self.attempts[idx] += 1;
    }

    fn schedule_retry(
        &mut self,
        rt: &Runtime,
        attempt: u32,
        budget: u32,
        t_attempt: &mut f64,
        prev_backoff: &mut f64,
        led: &mut Ledger,
    ) -> bool {
        if attempt >= budget {
            self.failed += 1;
            self.note_terminal(attempt);
            return false;
        }
        let (policy, rng) = self.retry.as_mut().expect("budget > 1 implies a retry policy");
        let prev = *prev_backoff;
        *prev_backoff = led.span(Layer::Retry, || policy.backoff(prev, rng.next_open01()));
        *t_attempt += *prev_backoff;
        self.retried += 1;
        let backoff = *prev_backoff;
        led.span(Layer::Telemetry, || rt.telemetry().record_retry(0, backoff));
        true
    }
}

impl JobLoop for Replica {
    fn run(&mut self, rt: &Runtime, jobs: u64, led: &mut Ledger) -> Result<(), RuntimeError> {
        for _ in 0..jobs {
            led.set_job(self.submitted + 1);
            led.open(Layer::Op);
            led.empty();
            let outcome = self.run_job(rt, led);
            led.close();
            outcome?;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.responses = Welford::new();
        self.batches = BatchMeans::new(10_000);
        self.per_node.clear();
        self.submitted = 0;
        self.accepted = 0;
        self.rejected = 0;
        self.deferred = 0;
        self.failed = 0;
        self.retried = 0;
        self.dropped = 0;
        self.attempts.clear();
        self.node_response.iter_mut().for_each(|slot| *slot = (0.0, 0));
        self.counts = Counts::default();
    }
}
