//! `gtlb-runtime` — an online dispatch runtime serving live job streams
//! from the game-theoretic allocators.
//!
//! The offline crates answer "given rates, what is the optimal split?".
//! This crate runs that answer as a service. Data flows in a loop:
//!
//! ```text
//!   registry (membership, health, nominal μ)
//!       │ snapshot of serving nodes
//!       ▼
//!   estimator bank (EWMA Φ̂, windowed μ̂ᵢ)──▶ re-solver (COOP/NASH/…)
//!       ▲                                        │ publish (epoch n+1)
//!       │ arrivals & service times               ▼
//!   dispatcher ◀── epoch-swapped routing table (Arc snapshot)
//!       │ jobs
//!       ▼
//!   nodes … whose measurements feed the estimators
//! ```
//!
//! * [`registry`] — who is in the cluster and whether they serve;
//! * [`estimator`] — online `Φ̂` / `μ̂ᵢ` estimates feeding the solver;
//! * [`resolver`] — the scheme ([`SchemeKind`]) and the solve/publish
//!   step, plus the immediate renormalize-on-failure path;
//! * [`table`] / [`alias`] / [`swap`] — immutable routing tables (with a
//!   prebuilt Walker alias table for O(1) sampling) behind a lock-free
//!   epoch-swapped `Arc`, so the dispatch hot path never blocks on — or
//!   even takes a lock against — a re-solve;
//! * [`dispatcher`] — the single-stream hot path: one deterministic
//!   uniform draw, one O(1) alias lookup;
//! * [`shard`] — N per-core dispatchers over the same table, each with
//!   its own RNG stream (seed `base ^ shard_id`) and local counters
//!   merged on read — the dispatch path without a global lock;
//! * [`admission`] — target-utilization admission control in front of
//!   the shards: accept/defer/reject verdicts that keep the admitted
//!   load at the design point once `Φ̂` nears capacity;
//! * [`ingest`] — a bounded MPMC queue decoupling bursty producers from
//!   the dispatch shards (`try_submit` sheds, `submit` backpressures);
//! * [`driver`] — a closed-loop trace harness validating observed mean
//!   response times against the allocator's analytic prediction.
//!
//! The [`Runtime`] ties these together behind one handle that is cheap
//! to share across threads; [`Runtime::spawn_resolver`] runs the
//! re-solve loop in the background.

#![deny(unsafe_code)] // `swap` opts back in; see its safety argument.

pub mod admission;
pub mod alias;
pub mod control;
pub mod detector;
pub mod dispatcher;
pub mod driver;
pub mod dynamics;
pub mod error;
pub mod estimator;
pub mod fault;
pub mod ingest;
pub mod registry;
pub mod resolver;
pub mod retry;
pub mod shard;
pub mod swap;
pub mod table;
pub mod telemetry;
pub mod tracing;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gtlb_desim::rng::Xoshiro256PlusPlus;

pub use admission::{
    AdmissionConfig, AdmissionControl, AdmissionPolicy, AdmissionStats, AdmissionVerdict,
};
pub use alias::{AliasTable, MAX_BELOW_ONE};
pub use control::{ClockAdapter, ControlPlaneHooks, NodeStatus};
pub use detector::{AccrualDetector, DetectorConfig, HealthTransition};
pub use dispatcher::{Decision, Dispatcher};
pub use driver::{TraceConfig, TraceDriver, TraceStats};
pub use dynamics::{
    BestReplyConfig, BestReplyOutcome, ConvergenceStats, SolverMode, DYNAMICS_STREAM,
};
pub use error::RuntimeError;
pub use estimator::EstimatorBank;
pub use fault::{
    DomainEvent, DropCause, FaultEvent, FaultInjector, FaultKind, FaultMarker, FaultMarkerKind,
    FaultPlan, PartitionDirection, ADVERSARIAL_STREAM, FAULT_STREAM,
};
pub use ingest::{IngestError, IngestQueue};
pub use registry::{Health, Node, NodeId, Registry};
pub use resolver::{ResolveOutcome, SchemeKind};
pub use retry::{RetryConfig, RetryPolicy, RETRY_STREAM};
pub use shard::{ShardGuard, ShardedDispatcher};
pub use swap::{EpochSwap, Lease, SwapStats};
pub use table::RoutingTable;
pub use telemetry::{RuntimeEvent, Telemetry, TelemetryHandle};
pub use tracing::Tracer;
// Trace primitives, re-exported so downstream crates name one source.
pub use gtlb_telemetry::trace::{
    to_chrome_json, AttemptOutcome, Span, SpanKind, Trace, TraceId, TracingConfig,
};

/// Tunables of a [`Runtime`]; built through [`RuntimeBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Base seed for the dispatcher's RNG stream.
    pub seed: u64,
    /// Allocation scheme the re-solver runs.
    pub scheme: SchemeKind,
    /// Arrival rate assumed until the estimator is warm (and whenever it
    /// goes cold again). `0.0` means "idle until measured": tables fall
    /// back to capacity-proportional routing.
    pub nominal_arrival_rate: f64,
    /// Smoothing factor of the arrival-rate EWMA.
    pub ewma_alpha: f64,
    /// Service times remembered per node.
    pub service_window: usize,
    /// Arrivals required before `Φ̂` is trusted.
    pub min_arrival_obs: u64,
    /// Per-node services required before `μ̂ᵢ` is trusted.
    pub min_service_obs: usize,
    /// Dispatch shards. `1` reproduces the single-dispatcher decision
    /// stream exactly (shard 0's RNG is seeded `seed ^ 0 = seed`);
    /// larger counts give per-core dispatchers that never contend.
    pub shards: usize,
    /// Admission control in front of the shards; `None` admits
    /// everything (the default).
    pub admission: Option<AdmissionConfig>,
    /// Tuning of the accrual failure detector behind
    /// [`Runtime::observe_success`] / [`Runtime::observe_failure`].
    pub detector: DetectorConfig,
    /// Whether the runtime records telemetry (metrics + event ring).
    /// Off by default. Telemetry consumes no RNG draws and leaves every
    /// decision sequence bit-identical; it only adds instruments.
    pub telemetry: bool,
    /// Per-job tracing (spans + flight recorder); `None` (the default)
    /// disables it. Tracing owns no RNG stream and no clock — trace
    /// ids hash from `seed` and the job sequence — so enabling it
    /// leaves every decision sequence and fingerprint bit-identical.
    pub tracing: Option<TracingConfig>,
    /// How the resolve path computes allocations: the centralized
    /// closed-form scheme (the default) or decentralized best-reply
    /// iteration. Switchable live via [`Runtime::set_solver_mode`].
    pub solver: SolverMode,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            scheme: SchemeKind::Coop,
            nominal_arrival_rate: 0.0,
            ewma_alpha: 0.05,
            service_window: 256,
            min_arrival_obs: 64,
            min_service_obs: 16,
            shards: 1,
            admission: None,
            detector: DetectorConfig::default(),
            telemetry: false,
            tracing: None,
            solver: SolverMode::Coop,
        }
    }
}

/// Builder for [`Runtime`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeBuilder {
    /// Default configuration: COOP, seed 0, idle nominal rate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dispatcher seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the allocation scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the designed-for arrival rate used until estimates warm up.
    #[must_use]
    pub fn nominal_arrival_rate(mut self, phi: f64) -> Self {
        self.cfg.nominal_arrival_rate = phi;
        self
    }

    /// Sets the arrival-EWMA smoothing factor.
    #[must_use]
    pub fn ewma_alpha(mut self, alpha: f64) -> Self {
        self.cfg.ewma_alpha = alpha;
        self
    }

    /// Sets the per-node service-time window.
    #[must_use]
    pub fn service_window(mut self, window: usize) -> Self {
        self.cfg.service_window = window;
        self
    }

    /// Sets the warm-up thresholds below which estimates are withheld.
    #[must_use]
    pub fn min_observations(mut self, arrivals: u64, services: usize) -> Self {
        self.cfg.min_arrival_obs = arrivals;
        self.cfg.min_service_obs = services;
        self
    }

    /// Sets the number of dispatch shards (clamped to at least 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards.max(1);
        self
    }

    /// Enables admission control with the given policy configuration.
    #[must_use]
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.cfg.admission = Some(cfg);
        self
    }

    /// Tunes the accrual failure detector (defaults apply otherwise).
    #[must_use]
    pub fn detector(mut self, cfg: DetectorConfig) -> Self {
        self.cfg.detector = cfg;
        self
    }

    /// Enables or disables telemetry (metrics + event ring). Disabled by
    /// default; enabling it never perturbs a decision sequence.
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.cfg.telemetry = enabled;
        self
    }

    /// Enables or disables per-job tracing with the default
    /// [`TracingConfig`] (1-in-16 head sampling). Disabled by default;
    /// enabling it never perturbs a decision sequence — trace identity
    /// and sampling are pure hash functions of the seed and job
    /// sequence number.
    #[must_use]
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.cfg.tracing = enabled.then(TracingConfig::default);
        self
    }

    /// Enables per-job tracing with an explicit configuration
    /// (sampling mask, recorder capacity, slow-trace threshold).
    #[must_use]
    pub fn tracing_config(mut self, cfg: TracingConfig) -> Self {
        self.cfg.tracing = Some(cfg);
        self
    }

    /// Selects the solver mode: centralized [`SolverMode::Coop`] (the
    /// default) or decentralized [`SolverMode::BestReply`]. Invalid
    /// best-reply tunables fail at the first solve, not here.
    #[must_use]
    pub fn solver_mode(mut self, mode: SolverMode) -> Self {
        self.cfg.solver = mode;
        self
    }

    /// Builds the runtime (no nodes, empty routing table).
    ///
    /// # Panics
    /// If the admission configuration is invalid (target utilization
    /// outside `(0, 1)`, negative defer band) or the detector
    /// configuration is inconsistent (see [`DetectorConfig`]).
    #[must_use]
    pub fn build(self) -> Runtime {
        Runtime::with_config(self.cfg)
    }
}

struct State {
    registry: Registry,
    bank: EstimatorBank,
}

struct DetectorState {
    detector: AccrualDetector,
    log: Vec<HealthTransition>,
}

struct SolverRuntime {
    /// Mode currently in effect (starts at `cfg.solver`, switchable
    /// live).
    mode: SolverMode,
    /// Tie-break stream of the best-reply solver ([`DYNAMICS_STREAM`]);
    /// untouched by `Coop` solves, so leaving the mode at its default
    /// keeps every pre-existing trace bit-identical.
    rng: Xoshiro256PlusPlus,
    /// Stats of the most recent best-reply solve.
    last: Option<ConvergenceStats>,
}

/// What happened to one job offered through [`Runtime::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// Admitted and routed.
    Dispatched(Decision),
    /// Shed with retry-later semantics (offered load inside the defer
    /// band above target).
    Deferred,
    /// Shed outright (offered load beyond the defer band).
    Rejected,
}

impl Submission {
    /// The routing decision, if the job was admitted.
    #[must_use]
    pub fn decision(self) -> Option<Decision> {
        match self {
            Self::Dispatched(d) => Some(d),
            Self::Deferred | Self::Rejected => None,
        }
    }
}

/// Outcome of a batch offered through [`Runtime::submit_batch`]: the
/// decisions of the admitted jobs (in submission order) plus how many
/// were shed either way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchSubmission {
    /// Routing decisions of the admitted jobs, in submission order.
    pub decisions: Vec<Decision>,
    /// Jobs shed with retry-later semantics.
    pub deferred: u64,
    /// Jobs shed outright.
    pub rejected: u64,
}

impl BatchSubmission {
    /// Jobs admitted and routed.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.decisions.len() as u64
    }

    /// Jobs offered in total (dispatched + deferred + rejected).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.dispatched() + self.deferred + self.rejected
    }
}

/// The online dispatch runtime: registry + estimators + re-solver +
/// sharded dispatcher behind one shareable handle.
pub struct Runtime {
    cfg: RuntimeConfig,
    state: Mutex<State>,
    // Separate lock, never held together with `state` (each method
    // acquires them strictly in sequence), so detector bookkeeping can't
    // deadlock against the dispatch/telemetry paths.
    detector: Mutex<DetectorState>,
    // Lock order: `state` before `solver` (resolve_now holds both),
    // never the reverse; `solver` and `detector` are never held
    // together.
    solver: Mutex<SolverRuntime>,
    table: Arc<EpochSwap<RoutingTable>>,
    sharded: ShardedDispatcher,
    admission: Option<AdmissionControl>,
    epoch: AtomicU64,
    // Non-empty tables published; each one was a full build.
    tables_built: AtomicU64,
    telemetry: Telemetry,
    tracer: Tracer,
}

impl Runtime {
    /// Starts building a runtime.
    #[must_use]
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Builds a runtime from an explicit configuration.
    ///
    /// # Panics
    /// If `cfg.admission` is invalid (see [`AdmissionPolicy::new`]) or
    /// `cfg.detector` is inconsistent (see [`DetectorConfig`]).
    #[must_use]
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        let table = Arc::new(EpochSwap::new(RoutingTable::empty(0)));
        let telemetry = if cfg.telemetry {
            Telemetry::enabled(cfg.shards.max(1))
        } else {
            Telemetry::disabled()
        };
        let tracer = cfg
            .tracing
            .map_or_else(Tracer::disabled, |tc| Tracer::enabled(cfg.seed, cfg.shards.max(1), tc));
        let sharded = ShardedDispatcher::with_telemetry(
            Arc::clone(&table),
            cfg.seed,
            cfg.shards.max(1),
            telemetry.clone(),
        );
        let admission = cfg.admission.map(|a| {
            AdmissionControl::new(
                AdmissionPolicy::new(a).unwrap_or_else(|e| panic!("invalid admission config: {e}")),
            )
        });
        let bank = EstimatorBank::new(
            cfg.ewma_alpha,
            cfg.service_window,
            cfg.min_arrival_obs,
            cfg.min_service_obs,
        );
        Self {
            cfg,
            state: Mutex::new(State { registry: Registry::new(), bank }),
            detector: Mutex::new(DetectorState {
                detector: AccrualDetector::new(cfg.detector),
                log: Vec::new(),
            }),
            solver: Mutex::new(SolverRuntime {
                mode: cfg.solver,
                rng: Xoshiro256PlusPlus::stream(cfg.seed, DYNAMICS_STREAM),
                last: None,
            }),
            table,
            sharded,
            admission,
            epoch: AtomicU64::new(0),
            tables_built: AtomicU64::new(0),
            telemetry,
            tracer,
        }
    }

    /// The configuration this runtime was built with.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    // ---- membership & health -------------------------------------------

    /// Registers a node with declared capacity `rate` (jobs/second). The
    /// node joins the routing table at the next resolve.
    ///
    /// # Errors
    /// [`RuntimeError::Core`] for a nonpositive or non-finite rate.
    pub fn register_node(&self, rate: f64) -> Result<NodeId, RuntimeError> {
        self.state().registry.register(rate)
    }

    /// Deregisters a node: removed from the registry and estimator bank,
    /// and — if it is in the live table — routed around immediately.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn deregister_node(&self, id: NodeId) -> Result<(), RuntimeError> {
        {
            let mut state = self.state();
            state.registry.deregister(id)?;
            state.bank.forget(id);
        }
        self.detector_state().detector.forget(id);
        self.republish_without(id);
        self.refresh_offered_utilization();
        Ok(())
    }

    /// Starts draining a node: it finishes queued work but stops
    /// receiving new jobs, immediately and at every future resolve.
    /// Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn drain_node(&self, id: NodeId) -> Result<Health, RuntimeError> {
        let prev = self.set_health_synced(id, Health::Draining)?;
        self.republish_without(id);
        self.refresh_offered_utilization();
        Ok(prev)
    }

    /// Marks a node suspect (still serving, flagged for demotion).
    /// Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn mark_suspect(&self, id: NodeId) -> Result<Health, RuntimeError> {
        self.set_health_synced(id, Health::Suspect)
    }

    /// Marks a node up. It rejoins the routing table at the next resolve
    /// (rejoining needs a real allocation, not a renormalization).
    /// Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn mark_up(&self, id: NodeId) -> Result<Health, RuntimeError> {
        let prev = self.set_health_synced(id, Health::Up)?;
        self.refresh_offered_utilization();
        Ok(prev)
    }

    /// Marks a node down. Its probability mass is redistributed over the
    /// survivors **immediately** (renormalized table, next epoch); the
    /// full re-solve that rebalances everyone follows separately —
    /// "renormalize, then re-solve". Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn mark_down(&self, id: NodeId) -> Result<Health, RuntimeError> {
        let prev = self.set_health_synced(id, Health::Down)?;
        self.republish_without(id);
        self.refresh_offered_utilization();
        Ok(prev)
    }

    /// A node's declared capacity, if registered.
    #[must_use]
    pub fn node_rate(&self, id: NodeId) -> Option<f64> {
        self.state().registry.node(id).map(Node::nominal_rate)
    }

    /// A node's health, if registered.
    #[must_use]
    pub fn node_health(&self, id: NodeId) -> Option<Health> {
        self.state().registry.node(id).map(Node::health)
    }

    /// Ids of all registered nodes (any health), in registration order.
    #[must_use]
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.state().registry.nodes().iter().map(Node::id).collect()
    }

    /// As [`Runtime::node_ids`], refilling a caller-owned buffer —
    /// periodic pollers (heartbeat loops and the like) reuse one `Vec`
    /// instead of allocating per tick. `out` is cleared first.
    pub fn node_ids_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.state().registry.nodes().iter().map(Node::id));
    }

    // ---- failure detection ---------------------------------------------

    /// Feeds the failure detector one successful observation (heartbeat
    /// ack or completed response) of `node` at virtual time `t`, and
    /// applies any health transition it decides on: Suspect→Up past the
    /// hysteresis band, Down→Up after the probation window (which also
    /// triggers a best-effort re-solve so the node regains routing
    /// mass). Unknown or draining nodes are ignored (`Ok(None)`) —
    /// observations may race deregistration, and drains are
    /// administrative, not health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] when the node vanishes between the
    /// detector's decision and its application.
    pub fn observe_success(
        &self,
        node: NodeId,
        t: f64,
    ) -> Result<Option<HealthTransition>, RuntimeError> {
        self.observe(node, t, true)
    }

    /// Feeds the failure detector one failed observation (dropped
    /// attempt, missed heartbeat) of `node` at virtual time `t`, and
    /// applies any transition: Up→Suspect once suspicion crosses the
    /// suspect threshold, →Down once it crosses the down threshold
    /// (which renormalizes the routing table away from the node
    /// immediately and refreshes the brownout coupling).
    ///
    /// # Errors
    /// As [`Runtime::observe_success`].
    pub fn observe_failure(
        &self,
        node: NodeId,
        t: f64,
    ) -> Result<Option<HealthTransition>, RuntimeError> {
        self.observe(node, t, false)
    }

    /// Every health transition the detector has driven, in order.
    #[must_use]
    pub fn health_transitions(&self) -> Vec<HealthTransition> {
        self.detector_state().log.clone()
    }

    /// The detector's current suspicion level φ for `node` at time
    /// `now` (zero for unobserved nodes).
    #[must_use]
    pub fn suspicion(&self, node: NodeId, now: f64) -> f64 {
        self.detector_state().detector.phi(node, now)
    }

    /// The detector thresholds in force for `node` right now:
    /// `(suspect_phi, down_phi)` — the configured values in fixed mode,
    /// the variance-scaled effective values in self-tuning mode (see
    /// [`DetectorConfig::self_tuning`]).
    #[must_use]
    pub fn effective_thresholds(&self, node: NodeId) -> (f64, f64) {
        self.detector_state().detector.effective_thresholds(node)
    }

    // ---- telemetry ------------------------------------------------------

    /// Records a job arrival at time `t` (drives `Φ̂`).
    pub fn record_arrival(&self, t: f64) {
        self.state().bank.observe_arrival(t);
    }

    /// Records a completed service at `node` (drives `μ̂ᵢ`). Unknown
    /// nodes are accepted — completions may race deregistration.
    pub fn record_service(&self, node: NodeId, duration: f64) {
        self.state().bank.observe_service(node, duration);
    }

    /// The current arrival-rate estimate, once warm.
    #[must_use]
    pub fn estimated_arrival_rate(&self) -> Option<f64> {
        self.state().bank.arrival_rate()
    }

    /// The current service-rate estimate of one node, once warm.
    #[must_use]
    pub fn estimated_service_rate(&self, id: NodeId) -> Option<f64> {
        self.state().bank.service_rate(id)
    }

    // ---- solving & dispatching -----------------------------------------

    /// Runs a full solve now: snapshot the serving nodes, pick measured
    /// rates where warm (nominal otherwise), allocate — with the
    /// configured scheme in [`SolverMode::Coop`], by decentralized
    /// iteration in [`SolverMode::BestReply`] — and publish the
    /// resulting table at the next epoch.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] with nothing to solve over;
    /// [`RuntimeError::Core`] from the allocator (e.g. a nominal arrival
    /// rate at or above capacity, or invalid best-reply tunables).
    pub fn resolve_now(&self) -> Result<ResolveOutcome, RuntimeError> {
        let state = self.state();
        let State { ref registry, ref bank } = *state;
        let (ids, cluster) =
            registry.serving_cluster(|n| bank.service_rate(n.id()).unwrap_or(n.nominal_rate()))?;
        // Estimated Φ is clamped below capacity (transient overshoot must
        // not wedge the solver); the configured nominal rate is not — an
        // impossible design load should fail loudly.
        let phi_offered = bank.arrival_rate().unwrap_or(self.cfg.nominal_arrival_rate);
        let phi = match bank.arrival_rate() {
            Some(est) => resolver::clamp_phi(est, &cluster),
            None => self.cfg.nominal_arrival_rate,
        };
        // Admission sees the *unclamped* offered utilization: shedding
        // must react to the overload the solver is protected from.
        if let Some(control) = &self.admission {
            control.publish_offered_utilization(phi_offered / cluster.total_rate());
        }
        let epoch = self.next_epoch();
        let mode = self.solver_state().mode;
        let (table, outcome) = match mode.best_reply_config() {
            None => {
                let solved = resolver::solve_table(self.cfg.scheme, epoch, ids, &cluster, phi)?;
                self.telemetry.record_solve(None);
                solved
            }
            Some(br_cfg) => {
                // Warm start from the live table: each serving node's
                // current routing share (0 for nodes not yet in it).
                // `best_reply` rescales the shares to Φ and falls back
                // to proportional if the current rates make them
                // infeasible.
                let current = self.table.load();
                let warm: Vec<f64> =
                    ids.iter().map(|&id| current.prob_of(id).unwrap_or(0.0)).collect();
                let warm = (warm.iter().sum::<f64>() > 0.0).then_some(&warm[..]);
                let out = {
                    // Lock order: `state` (held) then `solver`.
                    let mut solver = self.solver_state();
                    dynamics::best_reply(&cluster, phi, warm, &br_cfg, &mut solver.rng)?
                };
                let stats = ConvergenceStats {
                    epoch,
                    rounds: out.rounds,
                    residual: out.residual,
                    converged: out.converged,
                };
                self.solver_state().last = Some(stats);
                self.telemetry.record_solve(Some(stats));
                let table = RoutingTable::from_allocation(
                    epoch,
                    ids.clone(),
                    &out.allocation,
                    cluster.rates(),
                )?;
                let predicted_mean_response = out.allocation.mean_response_time(&cluster);
                let outcome = ResolveOutcome {
                    epoch,
                    nodes: ids,
                    rates: cluster.rates().to_vec(),
                    phi,
                    allocation: out.allocation,
                    predicted_mean_response,
                };
                (table, outcome)
            }
        };
        self.publish_table(table);
        Ok(outcome)
    }

    /// Immediately republishes the live table with node `id`'s routing
    /// weight scaled by `factor` (e.g. a control-plane rate update): the
    /// live probabilities with that one entry scaled, renormalized and
    /// rebuilt by [`RoutingTable::new`]. This is a stopgap between
    /// solves: the next resolve replaces it with a proper allocation.
    ///
    /// Returns `Ok(None)` when the node is not in the live table
    /// (nothing to reweight — the next resolve picks the change up),
    /// `Ok(Some(epoch))` with the published epoch otherwise. A factor
    /// of exactly 1.0 still republishes (at a fresh epoch).
    ///
    /// # Errors
    /// [`RuntimeError::Core`] when `factor` is nonpositive or
    /// non-finite, or when the reweighted table would have no routable
    /// mass left.
    pub fn reweight_node(&self, id: NodeId, factor: f64) -> Result<Option<u64>, RuntimeError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(RuntimeError::Core(gtlb_core::error::CoreError::BadInput(format!(
                "reweight factor must be positive and finite, got {factor}"
            ))));
        }
        let current = self.table.load();
        let Some(idx) = current.nodes().iter().position(|&n| n == id) else {
            return Ok(None);
        };
        let epoch = self.next_epoch();
        let mut weights = current.probs().to_vec();
        weights[idx] *= factor;
        let table = RoutingTable::new(epoch, current.nodes().to_vec(), &weights)?;
        self.publish_table(table);
        Ok(Some(epoch))
    }

    /// Table publishes by construction path since this runtime was
    /// built, as `(repairs, rebuilds)`. Every publish is a full build,
    /// so `repairs` is always 0 and `rebuilds` counts the non-empty
    /// tables published.
    #[must_use]
    pub fn table_build_stats(&self) -> (u64, u64) {
        (0, self.tables_built.load(Ordering::Relaxed))
    }

    /// The solver mode currently in effect.
    #[must_use]
    pub fn solver_mode(&self) -> SolverMode {
        self.solver_state().mode
    }

    /// Switches the solver mode live; the next resolve uses it. Returns
    /// the previous mode, and records a
    /// [`RuntimeEvent::SolverSwitched`] ring event on actual change.
    pub fn set_solver_mode(&self, mode: SolverMode) -> SolverMode {
        let prev = {
            let mut solver = self.solver_state();
            std::mem::replace(&mut solver.mode, mode)
        };
        if prev != mode {
            self.telemetry.record_solver_switch(mode);
        }
        prev
    }

    /// Stats of the most recent best-reply solve (`None` until one ran).
    #[must_use]
    pub fn last_convergence(&self) -> Option<ConvergenceStats> {
        self.solver_state().last
    }

    /// Routes one job via the published table, on the next shard in
    /// round-robin order. With one shard (the default) this replays the
    /// single-dispatcher decision stream exactly.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] before the first resolve or after
    /// the last node went down.
    pub fn dispatch(&self) -> Result<Decision, RuntimeError> {
        self.sharded.dispatch()
    }

    /// Routes one job on shard `shard` — the per-core path: workers that
    /// pin a shard never contend with each other.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] as [`Runtime::dispatch`].
    ///
    /// # Panics
    /// If `shard >= shard_count()`.
    pub fn dispatch_on(&self, shard: usize) -> Result<Decision, RuntimeError> {
        self.sharded.dispatch_on(shard)
    }

    /// Offers one job: admission control first (when configured), then
    /// dispatch, all on the next round-robin shard. Without admission
    /// this is [`Runtime::dispatch`] wrapped in
    /// [`Submission::Dispatched`].
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] when an *admitted* job has
    /// nowhere to route (shed verdicts return `Ok`).
    pub fn submit(&self) -> Result<Submission, RuntimeError> {
        self.submit_on(self.sharded.next_shard())
    }

    /// Offers one job on shard `shard`: the pinned-worker variant of
    /// [`Runtime::submit`]. The admission draw comes from the shard's
    /// dedicated admission stream, so the routing decision sequence is
    /// the same whether or not admission is enabled.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] as [`Runtime::submit`].
    ///
    /// # Panics
    /// If `shard >= shard_count()`.
    pub fn submit_on(&self, shard: usize) -> Result<Submission, RuntimeError> {
        let mut guard = self.sharded.shard(shard);
        if let Some(control) = &self.admission {
            let u = guard.next_admission_draw();
            match control.decide(u) {
                AdmissionVerdict::Accept => {}
                verdict @ (AdmissionVerdict::Defer | AdmissionVerdict::Reject) => {
                    self.telemetry.record_admission_shed(shard, verdict);
                    return Ok(match verdict {
                        AdmissionVerdict::Defer => Submission::Deferred,
                        _ => Submission::Rejected,
                    });
                }
            }
        }
        guard.dispatch().map(Submission::Dispatched)
    }

    /// Offers `count` jobs as one batch on the next round-robin shard:
    /// the guard (and its pinned table snapshot) is acquired once and
    /// the jobs route in a tight loop. See
    /// [`Runtime::submit_batch_on`] for the exact semantics.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] as [`Runtime::submit`].
    pub fn submit_batch(&self, count: usize) -> Result<BatchSubmission, RuntimeError> {
        self.submit_batch_on(self.sharded.next_shard(), count)
    }

    /// Offers `count` jobs as one batch on shard `shard`.
    ///
    /// Draw-for-draw equivalent to `count` successive
    /// [`Runtime::submit_on`] calls on the same shard — per job, one
    /// admission draw (when admission is configured) and one routing
    /// draw for each admitted job, in the same order — so batching
    /// never perturbs the decision sequence; it only amortizes the
    /// shard lock, the table load, and the counter merges. Without
    /// admission the whole batch goes through
    /// [`ShardGuard::route_batch`]'s dense-counting loop.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] when an admitted job has
    /// nowhere to route (shed verdicts are counted, not errors).
    ///
    /// # Panics
    /// If `shard >= shard_count()`.
    pub fn submit_batch_on(
        &self,
        shard: usize,
        count: usize,
    ) -> Result<BatchSubmission, RuntimeError> {
        let mut batch =
            BatchSubmission { decisions: Vec::with_capacity(count), deferred: 0, rejected: 0 };
        self.submit_batch_into(shard, count, &mut batch)?;
        Ok(batch)
    }

    /// As [`Runtime::submit_batch_on`], writing into a caller-owned
    /// [`BatchSubmission`] instead of allocating one — the
    /// zero-allocation batch path. `out` is cleared first; a caller that
    /// reuses one `BatchSubmission` across batches amortizes the
    /// decisions buffer to nothing (the only remaining allocation is
    /// its one-time growth).
    ///
    /// # Errors
    /// As [`Runtime::submit_batch_on`]. On error `out` holds only what
    /// this call produced before failing (never stale decisions from a
    /// previous batch).
    ///
    /// # Panics
    /// If `shard >= shard_count()`.
    pub fn submit_batch_into(
        &self,
        shard: usize,
        count: usize,
        out: &mut BatchSubmission,
    ) -> Result<(), RuntimeError> {
        out.decisions.clear();
        out.deferred = 0;
        out.rejected = 0;
        let mut guard = self.sharded.shard(shard);
        match &self.admission {
            None => guard.route_batch(count, &mut out.decisions)?,
            Some(control) => {
                for _ in 0..count {
                    let u = guard.next_admission_draw();
                    let verdict = control.decide(u);
                    match verdict {
                        AdmissionVerdict::Accept => out.decisions.push(guard.dispatch()?),
                        AdmissionVerdict::Defer => {
                            out.deferred += 1;
                            self.telemetry.record_admission_shed(shard, verdict);
                        }
                        AdmissionVerdict::Reject => {
                            out.rejected += 1;
                            self.telemetry.record_admission_shed(shard, verdict);
                        }
                    }
                }
            }
        }
        drop(guard);
        self.telemetry.record_batch(count as u64);
        Ok(())
    }

    /// Number of dispatch shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.sharded.shard_count()
    }

    /// Jobs dispatched so far, merged over all shards.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.sharded.dispatched()
    }

    /// Per-node dispatch counts merged over all shards, sorted by id.
    #[must_use]
    pub fn hit_counts(&self) -> Vec<(NodeId, u64)> {
        self.sharded.hit_counts()
    }

    /// The sharded dispatcher itself (benchmarks, pinned-worker loops
    /// that batch via [`ShardedDispatcher::shard`]).
    #[must_use]
    pub fn sharded_dispatcher(&self) -> &ShardedDispatcher {
        &self.sharded
    }

    /// Admission counters, when admission control is configured.
    #[must_use]
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(AdmissionControl::stats)
    }

    /// The offered utilization the admission policy currently acts on
    /// (refreshed by every resolve), when admission is configured.
    #[must_use]
    pub fn offered_utilization(&self) -> Option<f64> {
        self.admission.as_ref().map(AdmissionControl::offered_utilization)
    }

    /// The telemetry facade (disabled unless [`RuntimeBuilder::telemetry`]
    /// turned it on). Drivers use it to publish the virtual clock and to
    /// record per-job observations.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The tracing facade (disabled unless [`RuntimeBuilder::tracing`]
    /// turned it on). Drivers use it to begin sampled per-job traces
    /// and land them in the flight recorder.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Scrapes every telemetry instrument into one snapshot, after
    /// syncing the derived totals (merged dispatch counter, epoch-swap
    /// publish stats, admission counters, offered ρ, ring drops) and the
    /// per-node suspicion gauges (live φ at the telemetry clock plus the
    /// effective detector thresholds). `None` when telemetry is
    /// disabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<gtlb_telemetry::Snapshot> {
        let inner = self.telemetry.inner()?;
        inner.sync(
            self.sharded.dispatched(),
            self.table.stats(),
            self.admission.as_ref().map(|c| (c.stats(), c.offered_utilization())),
        );
        let now = self.telemetry.clock();
        // Collect node ids before touching the detector lock (the
        // detector mutex is never held together with `state`).
        let ids = self.node_ids();
        let suspicion: Vec<(NodeId, f64, f64, f64)> = {
            let guard = self.detector_state();
            ids.into_iter()
                .map(|id| {
                    let (suspect, down) = guard.detector.effective_thresholds(id);
                    (id, guard.detector.phi(id, now), suspect, down)
                })
                .collect()
        };
        inner.sync_node_suspicion(&suspicion);
        Some(inner.snapshot())
    }

    /// A polling handle a dashboard thread can scrape mid-run while the
    /// driver keeps submitting through the same shared runtime.
    #[must_use]
    pub fn telemetry_handle(self: &Arc<Self>) -> TelemetryHandle {
        TelemetryHandle::new(Arc::clone(self))
    }

    /// Writer-side statistics of the routing-table epoch swap: publish
    /// count and how far lease drains escalated.
    #[must_use]
    pub fn swap_stats(&self) -> SwapStats {
        self.table.stats()
    }

    /// Snapshot of the currently published routing table.
    #[must_use]
    pub fn current_table(&self) -> Arc<RoutingTable> {
        self.table.load()
    }

    /// The epoch-swap slot itself (benchmarks, custom dispatch loops).
    #[must_use]
    pub fn table_handle(&self) -> Arc<EpochSwap<RoutingTable>> {
        Arc::clone(&self.table)
    }

    /// Spawns the background re-solve loop: every `interval`, run
    /// [`Runtime::resolve_now`] and publish. Solve errors (e.g. a
    /// transient empty serving set) are tolerated; the loop retries next
    /// tick. Returns a handle that stops the loop when dropped.
    #[must_use]
    pub fn spawn_resolver(self: &Arc<Self>, interval: Duration) -> ResolverHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let rt = Arc::clone(self);
        let join = std::thread::spawn(move || {
            let mut solves = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                if rt.resolve_now().is_ok() {
                    solves += 1;
                }
                // Sleep in short slices so stop() returns promptly.
                let mut remaining = interval;
                while !remaining.is_zero() && !stop_flag.load(Ordering::Relaxed) {
                    let slice = remaining.min(Duration::from_millis(5));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
            solves
        });
        ResolverHandle { stop, join: Some(join) }
    }

    // ---- internals ------------------------------------------------------

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn detector_state(&self) -> MutexGuard<'_, DetectorState> {
        self.detector.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn solver_state(&self) -> MutexGuard<'_, SolverRuntime> {
        self.solver.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Sets a node's health in the registry *and* forces the detector's
    /// view to match, so a manual mark and the detector never fight
    /// (without the sync, a manually-downed node would stay down forever:
    /// the detector, still believing it Up, would never emit the Up
    /// transition that readmits it).
    fn set_health_synced(&self, id: NodeId, health: Health) -> Result<Health, RuntimeError> {
        let prev = self.state().registry.set_health(id, health)?;
        self.detector_state().detector.set_view(id, health);
        if prev != health {
            // Manual marks are health transitions too; tag them with the
            // driver's published virtual clock (0 when no driver runs).
            self.telemetry.record_health(HealthTransition {
                node: id,
                from: prev,
                to: health,
                at: self.telemetry.clock(),
            });
        }
        Ok(prev)
    }

    /// Shared body of the `observe_*` pair: run the detector, log and
    /// apply whatever transition it decides on.
    fn observe(
        &self,
        node: NodeId,
        t: f64,
        success: bool,
    ) -> Result<Option<HealthTransition>, RuntimeError> {
        match self.node_health(node) {
            None | Some(Health::Draining) => return Ok(None),
            Some(_) => {}
        }
        let transition = {
            let mut det = self.detector_state();
            let tr = if success {
                det.detector.observe_success(node, t)
            } else {
                det.detector.observe_failure(node, t)
            };
            if let Some(tr) = tr {
                det.log.push(tr);
                self.telemetry.record_health(tr);
            }
            tr
        };
        if let Some(tr) = transition {
            self.apply_transition(tr)?;
        }
        Ok(transition)
    }

    /// Applies a detector-decided transition to the registry and the
    /// routing/admission layers.
    fn apply_transition(&self, tr: HealthTransition) -> Result<(), RuntimeError> {
        self.state().registry.set_health(tr.node, tr.to)?;
        match tr.to {
            Health::Down => {
                self.republish_without(tr.node);
                self.refresh_offered_utilization();
            }
            Health::Up => {
                // Rejoining needs a real allocation; a failed re-solve
                // (e.g. Φ transiently at capacity) is retried by the
                // resolver loop, so best-effort here.
                let _ = self.resolve_now();
                self.refresh_offered_utilization();
            }
            Health::Suspect | Health::Draining => {}
        }
        Ok(())
    }

    /// Re-publishes the offered utilization `ρ = Φ / Σμ(serving)` to the
    /// admission policy from the *current* serving set — the brownout
    /// coupling: when failures shrink surviving capacity below demand, ρ
    /// rises and Poisson thinning sheds the excess instead of letting
    /// queues diverge. No-op without admission control. With nothing
    /// serving and positive demand, ρ is published as `f64::MAX`
    /// (reject everything).
    fn refresh_offered_utilization(&self) {
        let Some(control) = &self.admission else { return };
        let (capacity, phi) = {
            let state = self.state();
            let State { ref registry, ref bank } = *state;
            let capacity: f64 = registry
                .serving()
                .map(|n| bank.service_rate(n.id()).unwrap_or(n.nominal_rate()))
                .sum();
            (capacity, bank.arrival_rate().unwrap_or(self.cfg.nominal_arrival_rate))
        };
        let rho = if capacity > 0.0 {
            phi / capacity
        } else if phi > 0.0 {
            f64::MAX
        } else {
            0.0
        };
        control.publish_offered_utilization(rho);
    }

    fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Publishes the current table minus `id` (failure/drain path). A
    /// no-op when the node is not in the table. When the survivors held
    /// zero probability (the departed node had all the mass — common
    /// under COOP at low load, which parks slow nodes at λ = 0), falls
    /// back to capacity-proportional routing over the serving nodes so
    /// the system stays routable until the next full solve; publishes the
    /// empty table only when nothing serves at all.
    fn republish_without(&self, id: NodeId) {
        let current = self.table.load();
        if !current.nodes().contains(&id) {
            return;
        }
        let epoch = self.next_epoch();
        let table = current.without_node(id, epoch).unwrap_or_else(|_| {
            let state = self.state();
            match state.registry.serving_cluster(|n| n.nominal_rate()) {
                Ok((ids, cluster)) => RoutingTable::new(epoch, ids, cluster.rates())
                    .unwrap_or_else(|_| RoutingTable::empty(epoch)),
                Err(_) => RoutingTable::empty(epoch),
            }
        });
        self.publish_table(table);
    }

    /// Publishes a table through the epoch swap, recording the publish
    /// (and its wall-clock lease-drain wait) when telemetry is enabled.
    /// The wait is measured only with telemetry on — the value feeds one
    /// histogram and nothing else, so enabling it cannot perturb any
    /// deterministic output.
    fn publish_table(&self, table: RoutingTable) {
        let epoch = table.epoch();
        if !table.is_empty() {
            self.tables_built.fetch_add(1, Ordering::Relaxed);
        }
        let timer = self.telemetry.is_enabled().then(std::time::Instant::now);
        self.table.publish(table);
        if let Some(start) = timer {
            self.telemetry.record_publish(epoch, start.elapsed().as_secs_f64());
        }
    }
}

/// Handle to the background re-solve loop; stops and joins on drop.
#[derive(Debug)]
pub struct ResolverHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<u64>>,
}

impl ResolverHandle {
    /// Stops the loop and returns how many successful solves it ran.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        match self.join.take() {
            Some(join) => join.join().unwrap_or(0),
            None => 0,
        }
    }
}

impl Drop for ResolverHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coop_runtime(phi: f64) -> Runtime {
        Runtime::builder().seed(5).scheme(SchemeKind::Coop).nominal_arrival_rate(phi).build()
    }

    #[test]
    fn dispatch_before_resolve_fails() {
        let rt = coop_runtime(0.5);
        assert_eq!(rt.dispatch(), Err(RuntimeError::NoServingNodes));
        rt.register_node(1.0).unwrap();
        assert_eq!(rt.dispatch(), Err(RuntimeError::NoServingNodes), "not resolved yet");
        rt.resolve_now().unwrap();
        assert!(rt.dispatch().is_ok());
    }

    #[test]
    fn resolve_publishes_monotone_epochs() {
        let rt = coop_runtime(0.5);
        rt.register_node(1.0).unwrap();
        rt.register_node(2.0).unwrap();
        let e1 = rt.resolve_now().unwrap().epoch;
        let e2 = rt.resolve_now().unwrap().epoch;
        assert!(e2 > e1);
        assert_eq!(rt.current_table().epoch(), e2);
    }

    #[test]
    fn mark_down_renormalizes_immediately() {
        let rt = coop_runtime(0.9);
        let a = rt.register_node(2.0).unwrap();
        let b = rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        let before = rt.current_table();
        assert!(before.prob_of(a).unwrap() > 0.0);

        rt.mark_down(a).unwrap();
        let after = rt.current_table();
        assert!(after.epoch() > before.epoch());
        assert_eq!(after.prob_of(a), None, "down node left the table without a solve");
        assert!((after.prob_of(b).unwrap() - 1.0).abs() < 1e-12);

        // The follow-up full solve sees only the survivor.
        let outcome = rt.resolve_now().unwrap();
        assert_eq!(outcome.nodes, vec![b]);
    }

    #[test]
    fn set_node_rate_publishes_the_rescaled_table() {
        // Φ = 5 over rates 4, 2, 1, 0.5: COOP parks the 0.5 node at
        // λ = 0, so the table carries a zero-probability bucket too.
        let rt = coop_runtime(5.0);
        let ids: Vec<NodeId> =
            [4.0, 2.0, 1.0, 0.5].iter().map(|&r| rt.register_node(r).unwrap()).collect();
        rt.resolve_now().unwrap();
        let before = rt.current_table();
        assert_eq!(before.prob_of(ids[3]), Some(0.0));

        rt.set_node_rate(ids[1], 3.0).unwrap();
        let after = rt.current_table();
        assert!(after.epoch() > before.epoch());
        let idx = before.nodes().iter().position(|&n| n == ids[1]).unwrap();
        let mut patched = before.probs().to_vec();
        patched[idx] *= 3.0 / 2.0;
        let expected = RoutingTable::new(after.epoch(), before.nodes().to_vec(), &patched).unwrap();
        assert_eq!(after.nodes(), expected.nodes());
        let bits = |t: &RoutingTable| t.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after), bits(&expected));
        for u in (0..4096).map(|k| f64::from(k) / 4096.0).chain([MAX_BELOW_ONE]) {
            assert_eq!(after.route_index(u), expected.route_index(u), "draw {u}");
        }
    }

    #[test]
    fn reweight_node_skips_absent_nodes_and_rejects_bad_factors() {
        let rt = coop_runtime(0.9);
        let a = rt.register_node(2.0).unwrap();
        rt.resolve_now().unwrap();
        // Registered after the solve: not in the live table yet.
        let late = rt.register_node(1.0).unwrap();
        let epoch = rt.current_table().epoch();
        assert_eq!(rt.reweight_node(late, 2.0), Ok(None));
        for factor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    rt.reweight_node(a, factor),
                    Err(RuntimeError::Core(gtlb_core::error::CoreError::BadInput(_)))
                ),
                "factor {factor}"
            );
        }
        assert_eq!(rt.current_table().epoch(), epoch, "nothing was published");
    }

    #[test]
    fn table_build_stats_count_non_empty_publishes() {
        let rt = coop_runtime(0.9);
        let a = rt.register_node(2.0).unwrap();
        let b = rt.register_node(1.0).unwrap();
        assert_eq!(rt.table_build_stats(), (0, 0));
        rt.resolve_now().unwrap();
        assert_eq!(rt.table_build_stats(), (0, 1));
        rt.reweight_node(b, 1.5).unwrap();
        assert_eq!(rt.table_build_stats(), (0, 2));
        rt.mark_down(a).unwrap();
        assert_eq!(rt.table_build_stats(), (0, 3));
        // The last node going down publishes the empty placeholder,
        // which is no build.
        rt.mark_down(b).unwrap();
        assert!(rt.current_table().is_empty());
        assert_eq!(rt.table_build_stats(), (0, 3));
    }

    #[test]
    fn last_node_down_empties_the_table() {
        let rt = coop_runtime(0.1);
        let a = rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        assert!(rt.dispatch().is_ok());
        rt.mark_down(a).unwrap();
        assert_eq!(rt.dispatch(), Err(RuntimeError::NoServingNodes));
        assert!(matches!(rt.resolve_now(), Err(RuntimeError::NoServingNodes)));
        // Recovery: back up, resolve, dispatch again.
        rt.mark_up(a).unwrap();
        rt.resolve_now().unwrap();
        assert!(rt.dispatch().is_ok());
    }

    #[test]
    fn drain_and_deregister_leave_the_table() {
        let rt = coop_runtime(1.0);
        let a = rt.register_node(2.0).unwrap();
        let b = rt.register_node(1.0).unwrap();
        let c = rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        rt.drain_node(a).unwrap();
        assert_eq!(rt.current_table().prob_of(a), None);
        assert_eq!(rt.node_health(a), Some(Health::Draining));
        rt.deregister_node(b).unwrap();
        assert_eq!(rt.current_table().prob_of(b), None);
        assert_eq!(rt.node_rate(b), None);
        assert!(rt.current_table().prob_of(c).is_some());
    }

    #[test]
    fn estimated_rates_feed_the_solve() {
        let rt = Runtime::builder()
            .scheme(SchemeKind::Coop)
            .nominal_arrival_rate(0.4)
            .min_observations(8, 4)
            .build();
        let a = rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
        // Feed arrivals at measured rate 2.0 and services showing node a
        // is really twice as fast as declared.
        for k in 0..32 {
            rt.record_arrival(k as f64 * 0.5);
            rt.record_service(a, 0.5);
        }
        assert!((rt.estimated_arrival_rate().unwrap() - 2.0).abs() < 1e-9);
        assert!((rt.estimated_service_rate(a).unwrap() - 2.0).abs() < 1e-9);
        let outcome = rt.resolve_now().unwrap();
        assert!((outcome.phi - 2.0).abs() < 1e-9, "solve used the measured Φ");
        assert!((outcome.rates[0] - 2.0).abs() < 1e-9, "solve used the measured μ");
        assert!((outcome.rates[1] - 1.0).abs() < 1e-9, "cold node keeps its nominal μ");
    }

    #[test]
    fn overloaded_estimate_is_clamped_not_fatal() {
        let rt = Runtime::builder().nominal_arrival_rate(0.5).min_observations(4, 1_000).build();
        rt.register_node(1.0).unwrap();
        // Estimated arrival rate 10 >> capacity 1.
        for k in 0..16 {
            rt.record_arrival(k as f64 * 0.1);
        }
        let outcome = rt.resolve_now().unwrap();
        assert!(outcome.phi < 1.0, "estimate clamped below capacity, got {}", outcome.phi);
    }

    #[test]
    fn single_shard_replays_the_unsharded_stream() {
        // shards = 1 (the default) must reproduce the decision sequence
        // of a bare Dispatcher on the same table and seed — the
        // backwards-compatibility half of the seed-derivation rule.
        let rt = coop_runtime(0.9);
        rt.register_node(2.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        assert_eq!(rt.shard_count(), 1);
        let mut reference = Dispatcher::new(rt.table_handle(), rt.config().seed);
        for _ in 0..256 {
            assert_eq!(rt.dispatch().unwrap(), reference.dispatch().unwrap());
        }
    }

    #[test]
    fn sharded_round_robin_spreads_and_counts() {
        let rt = Runtime::builder().seed(8).nominal_arrival_rate(1.5).shards(4).build();
        let a = rt.register_node(2.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        for _ in 0..4000 {
            rt.dispatch().unwrap();
        }
        assert_eq!(rt.dispatched(), 4000);
        let hits = rt.hit_counts();
        assert_eq!(hits.iter().map(|&(_, c)| c).sum::<u64>(), 4000);
        let p_a = rt.current_table().prob_of(a).unwrap();
        let f_a = hits.iter().find(|&&(id, _)| id == a).map_or(0, |&(_, c)| c) as f64 / 4000.0;
        assert!((f_a - p_a).abs() < 0.05, "merged freq {f_a} vs p {p_a}");
    }

    #[test]
    fn submit_without_admission_always_dispatches() {
        let rt = coop_runtime(0.5);
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        for _ in 0..64 {
            assert!(matches!(rt.submit().unwrap(), Submission::Dispatched(_)));
        }
        assert!(rt.admission_stats().is_none());
    }

    #[test]
    fn overloaded_runtime_sheds_and_conserves_counts() {
        // Capacity 1, design load 0.9 ⇒ ρ = 0.9 against a 0.5 target:
        // shed probability 1 − 0.5/0.9 ≈ 0.44, all rejected (no band).
        let rt = Runtime::builder()
            .seed(4)
            .nominal_arrival_rate(0.9)
            .admission(AdmissionConfig { target_utilization: 0.5, defer_band: 0.0 })
            .shards(2)
            .build();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        assert!((rt.offered_utilization().unwrap() - 0.9).abs() < 1e-12);
        let mut dispatched = 0u64;
        for _ in 0..5_000 {
            match rt.submit().unwrap() {
                Submission::Dispatched(_) => dispatched += 1,
                Submission::Deferred => panic!("defer band is zero"),
                Submission::Rejected => {}
            }
        }
        let stats = rt.admission_stats().unwrap();
        assert_eq!(stats.submitted, 5_000);
        assert_eq!(stats.accepted + stats.deferred + stats.rejected, stats.submitted);
        assert_eq!(stats.accepted, dispatched);
        let rate = stats.rejection_rate();
        assert!((rate - (1.0 - 0.5 / 0.9)).abs() < 0.05, "rejection rate {rate}");
    }

    #[test]
    fn defer_band_turns_rejects_into_defers() {
        let rt = Runtime::builder()
            .seed(4)
            .nominal_arrival_rate(0.9)
            .admission(AdmissionConfig { target_utilization: 0.5, defer_band: 0.5 })
            .build();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        for _ in 0..2_000 {
            assert_ne!(rt.submit().unwrap(), Submission::Rejected, "ρ is inside the band");
        }
        let stats = rt.admission_stats().unwrap();
        assert_eq!(stats.rejected, 0);
        assert!(stats.deferred > 0, "overload inside the band must defer");
    }

    #[test]
    fn below_target_admission_is_transparent() {
        let rt = Runtime::builder()
            .seed(6)
            .nominal_arrival_rate(0.3)
            .admission(AdmissionConfig::default())
            .build();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        for _ in 0..1_000 {
            assert!(matches!(rt.submit().unwrap(), Submission::Dispatched(_)));
        }
        let stats = rt.admission_stats().unwrap();
        assert_eq!(stats.accepted, 1_000);
        assert_eq!(stats.rejected + stats.deferred, 0);
    }

    #[test]
    fn admission_draws_leave_routing_stream_untouched() {
        // Same seed, admission on vs off: the *routing* decisions of
        // admitted jobs must be identical (admission draws come from a
        // disjoint stream).
        let run = |admit: bool| {
            let mut b = Runtime::builder().seed(12).nominal_arrival_rate(0.4);
            if admit {
                b = b.admission(AdmissionConfig { target_utilization: 0.99, defer_band: 0.0 });
            }
            let rt = b.build();
            rt.register_node(2.0).unwrap();
            rt.register_node(1.0).unwrap();
            rt.resolve_now().unwrap();
            (0..128).map(|_| rt.submit().unwrap().decision().unwrap().node).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn submit_batch_replays_per_job_submissions() {
        // Without admission: a batch on a pinned shard must equal the
        // per-job decision sequence on the same shard, draw for draw.
        let make = || {
            let rt = Runtime::builder().seed(17).nominal_arrival_rate(0.9).shards(2).build();
            rt.register_node(2.0).unwrap();
            rt.register_node(1.0).unwrap();
            rt.resolve_now().unwrap();
            rt
        };
        let batched = make();
        let batch = batched.submit_batch_on(1, 256).unwrap();
        assert_eq!(batch.dispatched(), 256);
        assert_eq!(batch.total(), 256);
        let reference = make();
        for d in &batch.decisions {
            assert_eq!(reference.submit_on(1).unwrap(), Submission::Dispatched(*d));
        }
        assert_eq!(batched.dispatched(), reference.dispatched());
        assert_eq!(batched.hit_counts(), reference.hit_counts());
    }

    #[test]
    fn submit_batch_with_admission_matches_per_job_and_conserves() {
        // ρ = 0.9 against a 0.5 target: band 0.0 rejects the sheds, band
        // 0.5 defers them — both modes must replay the per-job sequence.
        for band in [0.0, 0.5] {
            let make = || {
                let rt = Runtime::builder()
                    .seed(4)
                    .nominal_arrival_rate(0.9)
                    .admission(AdmissionConfig { target_utilization: 0.5, defer_band: band })
                    .build();
                rt.register_node(1.0).unwrap();
                rt.resolve_now().unwrap();
                rt
            };
            let batched = make();
            let batch = batched.submit_batch_on(0, 2_000).unwrap();
            assert_eq!(batch.total(), 2_000);
            assert!(batch.rejected + batch.deferred > 0, "overload must shed");
            let reference = make();
            let mut iter = batch.decisions.iter();
            let (mut deferred, mut rejected) = (0u64, 0u64);
            for _ in 0..2_000 {
                match reference.submit_on(0).unwrap() {
                    Submission::Dispatched(d) => assert_eq!(Some(&d), iter.next()),
                    Submission::Deferred => deferred += 1,
                    Submission::Rejected => rejected += 1,
                }
            }
            assert_eq!(iter.next(), None);
            assert_eq!((deferred, rejected), (batch.deferred, batch.rejected));
            let stats = batched.admission_stats().unwrap();
            assert_eq!(stats.submitted, 2_000);
            assert_eq!(stats.accepted, batch.dispatched());
        }
    }

    #[test]
    fn submit_batch_before_resolve_fails() {
        let rt = coop_runtime(0.5);
        rt.register_node(1.0).unwrap();
        assert_eq!(rt.submit_batch(8), Err(RuntimeError::NoServingNodes));
    }

    #[test]
    fn manual_marks_return_previous_health() {
        let rt = coop_runtime(0.5);
        let a = rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        assert_eq!(rt.mark_suspect(a).unwrap(), Health::Up);
        assert_eq!(rt.mark_down(a).unwrap(), Health::Suspect);
        assert_eq!(rt.mark_up(a).unwrap(), Health::Down);
        assert_eq!(rt.drain_node(a).unwrap(), Health::Up);
        let ghost = NodeId::from_raw(99);
        assert_eq!(rt.mark_down(ghost), Err(RuntimeError::UnknownNode(ghost)));
    }

    #[test]
    fn detector_drives_down_and_renormalizes() {
        let rt = coop_runtime(0.9);
        let a = rt.register_node(2.0).unwrap();
        let b = rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        // Warm the cadence, then drop three observations in a row.
        for k in 0..5 {
            assert_eq!(rt.observe_success(a, f64::from(k)).unwrap(), None);
        }
        let tr = rt.observe_failure(a, 5.0).unwrap().expect("Up→Suspect");
        assert_eq!((tr.from, tr.to), (Health::Up, Health::Suspect));
        assert_eq!(rt.node_health(a), Some(Health::Suspect));
        rt.observe_failure(a, 5.1).unwrap();
        let tr = rt.observe_failure(a, 5.2).unwrap().expect("Suspect→Down");
        assert_eq!(tr.to, Health::Down);
        assert_eq!(rt.node_health(a), Some(Health::Down));
        // Down applied the renormalization path: a left the table.
        let table = rt.current_table();
        assert_eq!(table.prob_of(a), None);
        assert!((table.prob_of(b).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(rt.health_transitions().len(), 2);
        // Probation: three clean successes readmit the node via a solve.
        for k in 0..3 {
            rt.observe_success(a, 6.0 + f64::from(k)).unwrap();
        }
        assert_eq!(rt.node_health(a), Some(Health::Up));
        assert!(rt.current_table().prob_of(a).is_some(), "re-solved back in");
        assert_eq!(rt.health_transitions().len(), 3, "Down→Up logged");
    }

    #[test]
    fn observations_on_unknown_or_draining_nodes_are_ignored() {
        let rt = coop_runtime(0.5);
        let a = rt.register_node(1.0).unwrap();
        rt.drain_node(a).unwrap();
        for k in 0..16 {
            assert_eq!(rt.observe_failure(a, f64::from(k)).unwrap(), None);
        }
        assert_eq!(rt.node_health(a), Some(Health::Draining));
        assert_eq!(rt.observe_success(NodeId::from_raw(42), 1.0).unwrap(), None);
        assert!(rt.health_transitions().is_empty());
    }

    #[test]
    fn node_loss_refreshes_offered_utilization() {
        // Two unit-rate nodes at design load 0.8: ρ = 0.4 with both up,
        // 0.8 after one dies — the brownout coupling admission acts on.
        let rt = Runtime::builder()
            .seed(3)
            .nominal_arrival_rate(0.8)
            .admission(AdmissionConfig { target_utilization: 0.9, defer_band: 0.0 })
            .build();
        let a = rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        assert!((rt.offered_utilization().unwrap() - 0.4).abs() < 1e-12);
        rt.mark_down(a).unwrap();
        assert!((rt.offered_utilization().unwrap() - 0.8).abs() < 1e-12);
        rt.mark_up(a).unwrap();
        assert!((rt.offered_utilization().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn node_ids_lists_registration_order() {
        let rt = coop_runtime(0.5);
        let a = rt.register_node(1.0).unwrap();
        let b = rt.register_node(2.0).unwrap();
        assert_eq!(rt.node_ids(), vec![a, b]);
        rt.mark_down(a).unwrap();
        assert_eq!(rt.node_ids(), vec![a, b], "health does not affect membership");
    }

    #[test]
    fn best_reply_mode_matches_the_coop_table() {
        let make = |mode| {
            let rt = Runtime::builder().seed(5).nominal_arrival_rate(1.8).solver_mode(mode).build();
            rt.register_node(2.0).unwrap();
            rt.register_node(1.0).unwrap();
            rt.resolve_now().unwrap();
            rt
        };
        let coop = make(SolverMode::Coop);
        let br = make(SolverMode::best_reply());
        let stats = br.last_convergence().expect("best-reply solve records stats");
        assert!(stats.converged, "residual {} after {} rounds", stats.residual, stats.rounds);
        assert!(stats.residual <= 1e-9);
        assert!(coop.last_convergence().is_none(), "coop solves record no convergence");
        for (a, b) in coop.current_table().probs().iter().zip(br.current_table().probs()) {
            assert!((a - b).abs() < 1e-6, "best-reply table {b} vs coop {a}");
        }
    }

    #[test]
    fn solver_mode_switches_live() {
        let rt = coop_runtime(0.9);
        rt.register_node(2.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        assert_eq!(rt.solver_mode(), SolverMode::Coop);
        assert_eq!(rt.set_solver_mode(SolverMode::best_reply()), SolverMode::Coop);
        rt.resolve_now().unwrap();
        let stats = rt.last_convergence().unwrap();
        assert!(stats.converged);
        assert_eq!(stats.epoch, rt.current_table().epoch());
        // Back to coop: the stats of the last best-reply solve remain.
        rt.set_solver_mode(SolverMode::Coop);
        rt.resolve_now().unwrap();
        assert_eq!(rt.last_convergence(), Some(stats));
    }

    #[test]
    fn solver_events_and_metrics_are_recorded() {
        let rt = Runtime::builder().seed(9).nominal_arrival_rate(0.8).telemetry(true).build();
        rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.set_solver_mode(SolverMode::best_reply());
        rt.set_solver_mode(SolverMode::best_reply()); // no-op: same mode
        rt.resolve_now().unwrap();
        let events = rt.telemetry().recent_events(16);
        let switches = events
            .iter()
            .filter(|e| matches!(e.event, RuntimeEvent::SolverSwitched { .. }))
            .count();
        assert_eq!(switches, 1, "only the actual change emits an event");
        assert!(events
            .iter()
            .any(|e| matches!(e.event, RuntimeEvent::SolverConverged { converged: true, .. })));
        let snap = rt.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter(telemetry::names::SOLVER_RESOLVES), Some(1));
    }

    #[test]
    fn background_resolver_publishes() {
        let rt = Arc::new(coop_runtime(0.8));
        rt.register_node(1.0).unwrap();
        rt.register_node(2.0).unwrap();
        let handle = rt.spawn_resolver(Duration::from_millis(1));
        // Wait for at least one publish.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rt.current_table().is_empty() {
            assert!(std::time::Instant::now() < deadline, "resolver never published");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(rt.dispatch().is_ok());
        let solves = handle.stop();
        assert!(solves >= 1);
    }
}
