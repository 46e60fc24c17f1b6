//! `gtlb-runtime` — an online dispatch runtime serving live job streams
//! from the game-theoretic allocators.
//!
//! The offline crates answer "given rates, what is the optimal split?".
//! This crate runs that answer as a service. Data flows in a loop:
//!
//! ```text
//!   state, one lock: registry rows (membership, health, nominal μ,
//!   service window → μ̂ᵢ, accrual track → φ), arrival EWMA Φ̂
//!       │ snapshot of serving nodes
//!       ▼
//!   re-solver (COOP/OPTIM/PROP)
//!       │ publish (epoch n+1)
//!       ▼
//!   dispatcher ◀── routing-table slot (Arc snapshot)
//!       │ jobs
//!       ▼
//!   nodes … whose arrivals, service times and heartbeats feed `state`
//! ```
//!
//! * [`registry`] — who is in the cluster, whether they serve, and each
//!   node's service-time window and detector track;
//! * [`estimator`] — the rate estimators behind `Φ̂` and `μ̂ᵢ`;
//! * [`detector`] — the accrual failure detector each registry row
//!   runs: suspicion φ, thresholds and the health transitions they
//!   drive;
//! * [`resolver`] — the scheme ([`SchemeKind`]) and the solve/publish
//!   step, plus the immediate renormalize-on-failure path;
//! * [`table`] / [`alias`] / [`swap`] — immutable routing tables (with a
//!   prebuilt Walker alias table for O(1) sampling) behind one slot that
//!   a publish replaces wholesale and that never makes a publish wait
//!   for a reader;
//! * [`shard`] — the dispatch path: the paper's central dispatcher over
//!   that slot, with the seed's own RNG stream, a cached table and hit
//!   counters; one job is one deterministic uniform draw and one O(1)
//!   alias lookup;
//! * [`admission`] — target-utilization admission control in front of
//!   the dispatcher: accept/defer/reject verdicts that keep the admitted
//!   load at the design point once `Φ̂` nears capacity;
//! * [`fault`] / [`retry`] — seeded fault plans (crashes, slow and
//!   flaky nodes, partitions, gray failures) and the retry budget with
//!   decorrelated-jitter backoff;
//! * [`driver`] — a closed-loop trace harness validating observed mean
//!   response times against the allocator's analytic prediction;
//! * [`control`] — the control-plane port ([`ControlPlaneHooks`]) an
//!   external transport drives, on a wall clock mapped to virtual time;
//! * [`telemetry`] / [`tracing`] — the counters, histograms and clock a
//!   scrape reads, and sampled per-job traces: every runtime records
//!   both, and both are observation-only.
//!
//! The [`Runtime`] ties these together behind one handle that is cheap
//! to share across threads; [`Runtime::spawn_resolver`] runs the
//! re-solve loop in the background.

#![forbid(unsafe_code)]

pub mod admission;
pub mod alias;
pub mod control;
pub mod detector;
pub mod driver;
pub mod error;
pub mod estimator;
pub mod fault;
pub mod registry;
pub mod resolver;
pub mod retry;
pub mod shard;
pub mod swap;
pub mod table;
pub mod telemetry;
pub mod tracing;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

use control::ClockAdapter;
use estimator::EwmaRate;
use gtlb_core::allocation::Allocation;
use gtlb_core::model::Cluster;

pub use admission::{
    AdmissionConfig, AdmissionControl, AdmissionPolicy, AdmissionStats, AdmissionVerdict,
};
pub use alias::{AliasTable, MAX_BELOW_ONE};
pub use control::{ControlPlaneHooks, NodeStatus};
pub use detector::{DetectorConfig, HealthTransition};
pub use driver::{TraceConfig, TraceDriver, TraceStats};
pub use error::RuntimeError;
pub use fault::{
    DropCause, FaultEvent, FaultInjector, FaultKind, FaultMarker, FaultMarkerKind, FaultPlan,
    PartitionDirection, ADVERSARIAL_STREAM, FAULT_STREAM,
};
pub use registry::{Health, Node, NodeId, Registry};
pub use resolver::{ResolveOutcome, SchemeKind};
pub use retry::{RetryConfig, RetryPolicy, RETRY_STREAM};
pub use shard::{Decision, DispatchGuard, Dispatcher};
pub use swap::{EpochSwap, SwapStats};
pub use table::RoutingTable;
pub use telemetry::Telemetry;
pub use tracing::Tracer;
// Trace primitives, re-exported so downstream crates name one source.
pub use gtlb_telemetry::trace::{
    to_chrome_json, AttemptOutcome, Span, SpanKind, Trace, TraceId, TracingConfig,
};

/// Tunables of a [`Runtime`]; built through [`RuntimeBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Seed of the dispatcher's RNG streams and of trace ids.
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
    /// Admission control in front of the dispatcher; `None` admits
    /// everything (the default).
    pub admission: Option<AdmissionConfig>,
    /// Tuning of the accrual failure detector behind
    /// [`Runtime::observe_success`] / [`Runtime::observe_failure`].
    pub detector: DetectorConfig,
    /// Per-job tracing: the sampling mask and the flight recorder's
    /// capacity (by default one job in 64 and 256 traces per lane).
    /// Tracing owns no RNG stream and no clock — trace ids hash from
    /// `seed` and the job sequence — so which jobs it samples leaves
    /// every decision sequence and fingerprint bit-identical.
    pub tracing: TracingConfig,
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
            admission: None,
            detector: DetectorConfig::default(),
            tracing: TracingConfig::default(),
        }
    }
}

/// Builder for [`Runtime`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeBuilder {
    /// Default configuration: COOP, seed 0, idle nominal rate, tracing
    /// one job in 64.
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

    /// Ignores its argument: every runtime records telemetry. Kept for
    /// the benchmark's callers until the benchmark next changes.
    #[must_use]
    pub fn telemetry(self, _enabled: bool) -> Self {
        self
    }

    /// Ignores its argument: every runtime traces, at the
    /// [`TracingConfig`] that [`RuntimeBuilder::tracing_config`] sets.
    /// Kept for the benchmark's callers until the benchmark next
    /// changes.
    #[must_use]
    pub fn tracing(self, _enabled: bool) -> Self {
        self
    }

    /// Sets the tracing configuration (sampling mask, recorder
    /// capacity); the default samples one job in 64.
    #[must_use]
    pub fn tracing_config(mut self, cfg: TracingConfig) -> Self {
        self.cfg.tracing = cfg;
        self
    }

    /// Builds the runtime (no nodes, empty routing table).
    ///
    /// # Panics
    /// If the admission configuration is invalid (target utilization
    /// outside `(0, 1)`, negative defer band), the detector
    /// configuration is inconsistent (see [`DetectorConfig`]), the
    /// service window is zero, or `ewma_alpha` lies outside `(0, 1]`.
    #[must_use]
    pub fn build(self) -> Runtime {
        let cfg = self.cfg;
        cfg.detector.validate();
        let table = Arc::new(EpochSwap::new(RoutingTable::empty(0)));
        let dispatcher = Dispatcher::new(Arc::clone(&table), cfg.seed);
        let admission = cfg.admission.map(|a| {
            AdmissionControl::new(
                AdmissionPolicy::new(a).unwrap_or_else(|e| panic!("invalid admission config: {e}")),
            )
        });
        Runtime {
            cfg,
            state: Mutex::new(State {
                registry: Registry::new(cfg.service_window),
                arrivals: EwmaRate::new(cfg.ewma_alpha),
                transitions: VecDeque::new(),
                order: resolver::KeptOrder::default(),
            }),
            state_waiters: AtomicU32::new(0),
            table,
            dispatcher,
            admission,
            epoch: AtomicU64::new(0),
            tables_built: AtomicU64::new(0),
            telemetry: Telemetry::default(),
            tracer: Tracer::new(cfg.seed, cfg.tracing),
            clock: ClockAdapter::new(),
        }
    }
}

/// Detector transitions [`Runtime::health_transitions`] keeps, at most
/// (24 bytes each): the oldest is dropped to make room. Well above the
/// longest run in this repository, a `chaos` benchmark pass, which
/// drives 2,209 transitions at seed 31 and 2,214 at seed 53.
const TRANSITIONS_KEPT: usize = 8_192;

/// Everything the runtime knows per node, plus the arrival estimator,
/// behind the one `state` lock: no method sees a node's health, rate,
/// service window or detector track half-updated by another.
struct State {
    registry: Registry,
    arrivals: EwmaRate,
    /// The newest [`TRANSITIONS_KEPT`] transitions the detector drove,
    /// oldest first.
    transitions: VecDeque<HealthTransition>,
    /// The serving nodes by decreasing rate, as the last solve sorted
    /// them: the next solve's sort starts here, near-sorted while
    /// measured rates drift (see [`Cluster::sort_by_rate_desc`]).
    order: resolver::KeptOrder,
}

impl State {
    /// Records a job arrival at `t` into `Φ̂`: the body of
    /// [`Runtime::record_arrival`].
    pub(crate) fn record_arrival(&mut self, t: f64) {
        self.arrivals.observe(t);
    }

    /// The body of [`Runtime::node_ids_into`].
    pub(crate) fn node_ids_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.registry.nodes().iter().map(Node::id));
    }
}

/// Locks `mutex`, first with `try_lock`. A caller that finds it held
/// counts itself in `waiters` until it holds the lock, so a thread that
/// holds the lock across many operations (the trace driver's batch) can
/// see that it should hand it over. Uncontended, this is one lock. The
/// count guards no data, only the holder's choice to yield, so its
/// updates are relaxed.
pub(crate) fn lock_counted<'a, T>(mutex: &'a Mutex<T>, waiters: &AtomicU32) -> MutexGuard<'a, T> {
    match mutex.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            waiters.fetch_add(1, Ordering::Relaxed);
            let guard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
            waiters.fetch_sub(1, Ordering::Relaxed);
            guard
        }
    }
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

/// The online dispatch runtime: registry + estimators + re-solver +
/// dispatcher behind one shareable handle.
pub struct Runtime {
    cfg: RuntimeConfig,
    // Lock order: the dispatcher's mutex, then `state`, then the table
    // slot; the flight recorder is a leaf. Nothing locks the dispatcher
    // while holding `state`. Each method takes `state` once (`Mutex` is
    // not re-entrant) and hands the guard to the helpers it calls. The
    // trace driver takes the dispatcher and then `state` once per batch
    // of jobs and runs each job's runtime work on the held guards,
    // through the same bodies the public methods lock and call. The
    // dispatcher keeps its own mutex so that `submit` never waits behind
    // a solve.
    state: Mutex<State>,
    // Threads blocked on `state` right now (see `Runtime::state`): the
    // trace driver ends its batch and hands the locks over while this,
    // or the dispatcher's count, is nonzero.
    state_waiters: AtomicU32,
    // Publish rule: both publishers (resolve and renormalize) hold
    // `state` from reading the live table or taking its epoch until
    // `publish_table` returns, so publishes land in epoch order and none
    // is built from a table an interleaved publish replaced.
    table: Arc<EpochSwap<RoutingTable>>,
    dispatcher: Dispatcher,
    admission: Option<AdmissionControl>,
    epoch: AtomicU64,
    // Non-empty tables published; each one was a full build.
    tables_built: AtomicU64,
    telemetry: Telemetry,
    tracer: Tracer,
    // The wall-clock origin every control-plane attachment stamps
    // observations from, pinned at build.
    clock: ClockAdapter,
}

impl Runtime {
    /// Starts building a runtime.
    #[must_use]
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
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

    /// Deregisters a node: removed from the registry (its service window
    /// and detector track with it), and — if it is in the live table —
    /// routed around immediately.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn deregister_node(&self, id: NodeId) -> Result<(), RuntimeError> {
        let mut state = self.state();
        state.registry.deregister(id)?;
        self.republish_without(&state, id);
        self.refresh_offered_utilization(&state);
        Ok(())
    }

    /// Starts draining a node: it finishes queued work but stops
    /// receiving new jobs, immediately and at every future resolve.
    /// Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn drain_node(&self, id: NodeId) -> Result<Health, RuntimeError> {
        let mut state = self.state();
        let prev = self.mark(&mut state, id, Health::Draining)?;
        self.republish_without(&state, id);
        self.refresh_offered_utilization(&state);
        Ok(prev)
    }

    /// Marks a node suspect (still serving, flagged for demotion).
    /// Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn mark_suspect(&self, id: NodeId) -> Result<Health, RuntimeError> {
        self.mark(&mut self.state(), id, Health::Suspect)
    }

    /// Marks a node up. It rejoins the routing table at the next resolve
    /// (rejoining needs a real allocation, not a renormalization).
    /// Returns the previous health.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] for unregistered ids.
    pub fn mark_up(&self, id: NodeId) -> Result<Health, RuntimeError> {
        let mut state = self.state();
        let prev = self.mark(&mut state, id, Health::Up)?;
        self.refresh_offered_utilization(&state);
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
        let mut state = self.state();
        let prev = self.mark(&mut state, id, Health::Down)?;
        self.republish_without(&state, id);
        self.refresh_offered_utilization(&state);
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
        self.state().node_ids_into(out);
    }

    // ---- failure detection ---------------------------------------------

    /// Feeds the failure detector one successful observation (heartbeat
    /// ack or completed response) of `node` at virtual time `t`, and
    /// applies any health transition it decides on: Suspect→Up past the
    /// hysteresis band, Down→Up after the probation window. Both
    /// recoveries trigger a best-effort re-solve: Down→Up so the node
    /// regains routing mass, Suspect→Up because a suspect node's
    /// measured rate reaches routing only through a solve, and a caller
    /// that solves nothing else while faults are live depends on it.
    /// Unknown or draining nodes are ignored (`Ok(None)`) —
    /// observations may race deregistration, and drains are
    /// administrative, not health. The health check, the detector's
    /// decision and its application run in one critical section, so a
    /// concurrent drain or deregistration lands wholly before or after.
    ///
    /// # Errors
    /// Never: an unknown node answers `Ok(None)`, and a transition is
    /// written to the row it was decided on.
    pub fn observe_success(
        &self,
        node: NodeId,
        t: f64,
    ) -> Result<Option<HealthTransition>, RuntimeError> {
        Ok(self.observe(&mut self.state(), node, t, true))
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
        Ok(self.observe(&mut self.state(), node, t, false))
    }

    /// The most recent health transitions the detector has driven,
    /// oldest first: the newest 8,192, where a longer run drops the
    /// oldest.
    #[must_use]
    pub fn health_transitions(&self) -> Vec<HealthTransition> {
        self.state().transitions.iter().copied().collect()
    }

    /// The detector's current suspicion level φ for `node` at time
    /// `now` (zero for unobserved or unregistered nodes).
    #[must_use]
    pub fn suspicion(&self, node: NodeId, now: f64) -> f64 {
        self.state().registry.node(node).map_or(0.0, |n| n.phi(&self.cfg.detector, now))
    }

    /// The detector thresholds in force for `node` right now:
    /// `(SUSPECT_PHI, DOWN_PHI)` in fixed mode, the variance-scaled
    /// effective values in self-tuning mode (see
    /// [`DetectorConfig::self_tuning`]; the fixed values for
    /// unregistered nodes).
    #[must_use]
    pub fn effective_thresholds(&self, node: NodeId) -> (f64, f64) {
        let cfg = &self.cfg.detector;
        let row = self.state().registry.node(node).map(|n| n.effective_thresholds(cfg));
        row.unwrap_or((detector::SUSPECT_PHI, detector::DOWN_PHI))
    }

    // ---- telemetry ------------------------------------------------------

    /// Records a job arrival at time `t` (drives `Φ̂`).
    pub fn record_arrival(&self, t: f64) {
        self.state().record_arrival(t);
    }

    /// Records a completed service at `node` (drives `μ̂ᵢ`). A completion
    /// for a node that is not registered is dropped — completions may
    /// race deregistration, and a removed node keeps no estimate.
    pub fn record_service(&self, node: NodeId, duration: f64) {
        let _ = self.state().registry.observe_service(node, duration);
    }

    /// A node agent's metrics update in one `state` critical section: a
    /// revised declared capacity `rate`, if any, as
    /// [`Runtime::set_node_rate`] sets it, then every duration in
    /// `service_seconds` as [`Runtime::record_service`] records it.
    ///
    /// # Errors
    /// With a `rate`, as [`Runtime::set_node_rate`], and then nothing is
    /// recorded. Without one, never: the samples of a node that is not
    /// registered are dropped.
    pub fn record_metrics(
        &self,
        node: NodeId,
        service_seconds: &[f64],
        rate: Option<f64>,
    ) -> Result<(), RuntimeError> {
        let mut state = self.state();
        if let Some(rate) = rate {
            state.registry.set_nominal_rate(node, rate)?;
        }
        if let Some(row) = state.registry.node_mut(node) {
            for &duration in service_seconds {
                row.observe_service(duration);
            }
        }
        Ok(())
    }

    /// A served attempt's runtime work on the held `state`, in the order
    /// of the separate calls: one lookup of `node`'s row, whose declared
    /// μ `serve` turns into the service time and the completion time;
    /// the service time into the node's window, as
    /// [`Runtime::record_service`] records it; and, when `detect`, the
    /// detector's success at the completion time, as
    /// [`Runtime::observe_success`] applies it. Returns the completion
    /// time.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] when `node` is not registered, in
    /// which case `serve` does not run.
    pub(crate) fn record_served(
        &self,
        state: &mut State,
        node: NodeId,
        detect: bool,
        serve: impl FnOnce(f64) -> (f64, f64),
    ) -> Result<f64, RuntimeError> {
        let row = state.registry.node_mut(node).ok_or(RuntimeError::UnknownNode(node))?;
        let (service, done) = serve(row.nominal_rate());
        row.observe_service(service);
        if detect {
            let transition = row.observe(&self.cfg.detector, done, true);
            self.apply_transition(state, transition);
        }
        Ok(done)
    }

    /// A dropped attempt's runtime work on the held `state`: the
    /// detector's failure of `node` at `t`, as
    /// [`Runtime::observe_failure`] applies it.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownNode`] when `node` is not registered.
    pub(crate) fn record_dropped(
        &self,
        state: &mut State,
        node: NodeId,
        t: f64,
    ) -> Result<(), RuntimeError> {
        let row = state.registry.node_mut(node).ok_or(RuntimeError::UnknownNode(node))?;
        let transition = row.observe(&self.cfg.detector, t, false);
        self.apply_transition(state, transition);
        Ok(())
    }

    /// The current arrival-rate estimate, once warm.
    #[must_use]
    pub fn estimated_arrival_rate(&self) -> Option<f64> {
        self.arrival_rate(&self.state())
    }

    // ---- solving & dispatching -----------------------------------------

    /// Runs a full solve now: snapshot the serving nodes, pick measured
    /// rates where warm (declared otherwise), allocate with the
    /// configured scheme, and publish the resulting table at the next
    /// epoch.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] with nothing to solve over;
    /// [`RuntimeError::Core`] from the allocator (e.g. a nominal arrival
    /// rate at or above capacity).
    pub fn resolve_now(&self) -> Result<ResolveOutcome, RuntimeError> {
        self.resolve(&mut self.state(), ResolveOutcome::new)
    }

    /// Table publishes by construction path since this runtime was
    /// built, as `(repairs, rebuilds)`. Every publish is a full build,
    /// so `repairs` is always 0 and `rebuilds` counts the non-empty
    /// tables published.
    #[must_use]
    pub fn table_build_stats(&self) -> (u64, u64) {
        (0, self.tables_built.load(Ordering::Relaxed))
    }

    /// Routes one job via the published table: the seed's dispatch
    /// stream, draw by draw.
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] before the first resolve or after
    /// the last node went down.
    pub fn dispatch(&self) -> Result<Decision, RuntimeError> {
        self.dispatcher.dispatch()
    }

    /// Offers one job: admission control first (when configured), then
    /// dispatch. The admission draw comes from its own stream, so the
    /// routing decision sequence is the same whether or not admission is
    /// enabled. Without admission this is [`Runtime::dispatch`] wrapped
    /// in [`Submission::Dispatched`].
    ///
    /// # Errors
    /// [`RuntimeError::NoServingNodes`] when an *admitted* job has
    /// nowhere to route (shed verdicts return `Ok`).
    pub fn submit(&self) -> Result<Submission, RuntimeError> {
        self.submit_with(&mut self.dispatcher.guard())
    }

    /// [`Runtime::submit`]; the argument is ignored. Kept for the
    /// benchmark's job loop, which passes [`Dispatcher::next_shard`],
    /// until that loop is retired.
    ///
    /// # Errors
    /// As [`Runtime::submit`].
    pub fn submit_on(&self, _shard: usize) -> Result<Submission, RuntimeError> {
        self.submit()
    }

    /// [`Runtime::submit`]'s body on a held dispatcher guard, which
    /// routes on its own table: the trace driver refreshes it before
    /// each call.
    pub(crate) fn submit_with(
        &self,
        guard: &mut DispatchGuard<'_>,
    ) -> Result<Submission, RuntimeError> {
        if let Some(control) = &self.admission {
            match control.decide(guard.next_admission_draw()) {
                AdmissionVerdict::Accept => {}
                AdmissionVerdict::Defer => return Ok(Submission::Deferred),
                AdmissionVerdict::Reject => return Ok(Submission::Rejected),
            }
        }
        guard.dispatch().map(Submission::Dispatched)
    }

    /// Jobs dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatcher.dispatched()
    }

    /// Per-node dispatch counts, sorted by id.
    #[must_use]
    pub fn hit_counts(&self) -> Vec<(NodeId, u64)> {
        self.dispatcher.hit_counts()
    }

    /// The dispatcher itself (benchmarks, loops that hold a
    /// [`Dispatcher::guard`]). Kept under this name for the benchmark's
    /// job loop until it is retired.
    #[must_use]
    pub fn sharded_dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
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

    /// The runtime's telemetry. Drivers use it to publish the virtual
    /// clock and to record per-job observations.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The runtime's tracer. Drivers use it to begin sampled per-job
    /// traces and land them in the flight recorder.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Scrapes telemetry into one snapshot, reading each source once:
    /// the recorded instruments and the telemetry clock, the
    /// dispatcher's count, the table publishes, admission's
    /// counters and offered ρ, and one status row per registered node
    /// (live φ at the telemetry clock plus the effective detector
    /// thresholds, the rows [`ControlPlaneHooks::nodes`] reads).
    /// Linear in the node count. Always `Some`: every runtime records
    /// telemetry, and the `Option` is kept for the benchmark's callers
    /// until the benchmark next changes.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<gtlb_telemetry::Snapshot> {
        let now = self.telemetry.clock();
        let nodes = self
            .node_rows(now, |n| (n.id.raw(), n.phi, n.effective_suspect_phi, n.effective_down_phi));
        // Read before the responses and drops it is set against, so
        // `gtlb_jobs_inflight` reads high by no more than the driver's
        // unflushed completions.
        let dispatched = self.dispatcher.dispatched();
        let admission = self.admission.as_ref().map(|c| (c.stats(), c.offered_utilization()));
        let publishes = self.table.stats().publishes;
        Some(self.telemetry.snapshot(now, dispatched, publishes, admission, &nodes))
    }

    /// Publish statistics of the routing-table slot.
    #[must_use]
    pub fn swap_stats(&self) -> SwapStats {
        self.table.stats()
    }

    /// Snapshot of the currently published routing table.
    #[must_use]
    pub fn current_table(&self) -> Arc<RoutingTable> {
        self.table.load()
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

    /// Locks `state`. A caller that finds it held counts as waiting
    /// until it gets it, so the trace driver hands over a batch's locks.
    fn state(&self) -> MutexGuard<'_, State> {
        lock_counted(&self.state, &self.state_waiters)
    }

    /// Whether a thread is blocked on `state` or on the dispatcher: two
    /// relaxed loads, which the trace driver makes after each job of a
    /// batch.
    pub(crate) fn has_waiters(&self) -> bool {
        self.state_waiters.load(Ordering::Relaxed) != 0 || self.dispatcher.has_waiters()
    }

    /// The rate `node` is solved with: the measured `μ̂` once its service
    /// window holds `min_service_obs` samples, the declared rate
    /// otherwise.
    fn solve_rate(&self, node: &Node) -> f64 {
        node.estimated_rate(self.cfg.min_service_obs).unwrap_or(node.nominal_rate())
    }

    /// The arrival-rate estimate `Φ̂`, once `min_arrival_obs` arrivals
    /// have been recorded.
    fn arrival_rate(&self, state: &State) -> Option<f64> {
        let arrivals = &state.arrivals;
        (arrivals.count() >= self.cfg.min_arrival_obs).then(|| arrivals.rate()).flatten()
    }

    /// The one solve path, [`Runtime::resolve_now`]'s body under the held
    /// `state` lock. The sort by rate starts from the last solve's order.
    /// `report` reads the solve before its table is published:
    /// `resolve_now` builds its [`ResolveOutcome`] there, and a
    /// transition takes only the capacity it publishes ρ from.
    fn resolve<R>(
        &self,
        state: &mut State,
        report: impl FnOnce(&RoutingTable, &Cluster, f64, Allocation) -> R,
    ) -> Result<R, RuntimeError> {
        let (ids, cluster) = state.registry.serving_cluster(|n| self.solve_rate(n))?;
        // Estimated Φ is clamped below capacity (transient overshoot must
        // not wedge the solver); the configured nominal rate is not — an
        // impossible design load should fail loudly.
        let estimate = self.arrival_rate(state);
        let phi_offered = estimate.unwrap_or(self.cfg.nominal_arrival_rate);
        let phi = match estimate {
            Some(est) => resolver::clamp_phi(est, &cluster),
            None => self.cfg.nominal_arrival_rate,
        };
        // Admission sees the *unclamped* offered utilization: shedding
        // must react to the overload the solver is protected from.
        if let Some(control) = &self.admission {
            control.publish_offered_utilization(phi_offered / cluster.total_rate());
        }
        let epoch = self.next_epoch();
        let order = state.order.rebase(&ids);
        let (table, allocation) =
            resolver::build_table(self.cfg.scheme, epoch, ids, &cluster, phi, order)?;
        self.telemetry.record_solve();
        let report = report(&table, &cluster, phi, allocation);
        self.publish_table(table);
        Ok(report)
    }

    /// A manual mark: one write of the node's row, which the detector
    /// reads its next transition from, so a mark and the detector never
    /// fight. The write also clears the probation streak.
    fn mark(&self, state: &mut State, id: NodeId, health: Health) -> Result<Health, RuntimeError> {
        let prev = state.registry.set_health(id, health)?;
        if prev != health {
            // Manual marks are health transitions too.
            self.telemetry.record_health();
        }
        Ok(prev)
    }

    /// Shared body of the `observe_*` pair on the held `state`: one row
    /// lookup and one detector step. An unknown node is ignored.
    pub(crate) fn observe(
        &self,
        state: &mut State,
        node: NodeId,
        t: f64,
        success: bool,
    ) -> Option<HealthTransition> {
        let row = state.registry.node_mut(node)?;
        let transition = row.observe(&self.cfg.detector, t, success);
        self.apply_transition(state, transition)
    }

    /// Logs a transition the detector wrote into a row, under the held
    /// `state` lock, and applies it to the routing/admission layers.
    fn apply_transition(
        &self,
        state: &mut State,
        transition: Option<HealthTransition>,
    ) -> Option<HealthTransition> {
        let tr = transition?;
        if state.transitions.len() == TRANSITIONS_KEPT {
            state.transitions.pop_front();
        }
        state.transitions.push_back(tr);
        self.telemetry.record_health();
        match tr.to {
            Health::Down => {
                self.republish_without(state, tr.node);
                self.refresh_offered_utilization(state);
            }
            Health::Up => {
                // Down→Up: rejoining needs a real allocation. Suspect→Up:
                // the node never left the table, but its measured rate
                // reaches routing only through a solve, and a caller may
                // solve nothing else while faults are live: without these
                // solves the gray node of `partition_experiment` flapped
                // Suspect↔Up 30+ times and was never demoted. A failed
                // re-solve (e.g. Φ transiently at capacity) is retried by
                // the resolver loop, so best-effort here. ρ comes from the
                // solve's own rates, the serving set's solve rates in row
                // order, so only a failed solve walks the rows for it.
                let capacity =
                    self.resolve(state, |_, cluster, _, _| cluster.rates().iter().sum::<f64>());
                match capacity {
                    Ok(capacity) => self.publish_offered_utilization(state, capacity),
                    Err(_) => self.refresh_offered_utilization(state),
                }
            }
            Health::Suspect | Health::Draining => {}
        }
        Some(tr)
    }

    /// Re-publishes the offered utilization `ρ = Φ / Σμ(serving)` to the
    /// admission policy from the *current* serving set — the brownout
    /// coupling: when failures shrink surviving capacity below demand, ρ
    /// rises and Poisson thinning sheds the excess instead of letting
    /// queues diverge. No-op without admission control. With nothing
    /// serving and positive demand, ρ is published as `f64::MAX`
    /// (reject everything).
    fn refresh_offered_utilization(&self, state: &State) {
        if self.admission.is_none() {
            return;
        }
        let capacity = state.registry.serving().map(|n| self.solve_rate(n)).sum();
        self.publish_offered_utilization(state, capacity);
    }

    /// Publishes `ρ = Φ / capacity` to the admission policy, as
    /// [`Runtime::refresh_offered_utilization`] does once it has summed
    /// the serving capacity. No-op without admission control.
    fn publish_offered_utilization(&self, state: &State, capacity: f64) {
        let Some(control) = &self.admission else { return };
        let phi = self.arrival_rate(state).unwrap_or(self.cfg.nominal_arrival_rate);
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
    fn republish_without(&self, state: &State, id: NodeId) {
        let current = self.table.load();
        if !current.nodes().contains(&id) {
            return;
        }
        let epoch = self.next_epoch();
        let table = current.without_node(id, epoch).unwrap_or_else(|_| {
            match state.registry.serving_cluster(|n| n.nominal_rate()) {
                Ok((ids, cluster)) => RoutingTable::new(epoch, ids, cluster.rates())
                    .unwrap_or_else(|_| RoutingTable::empty(epoch)),
                Err(_) => RoutingTable::empty(epoch),
            }
        });
        self.publish_table(table);
    }

    /// Publishes a table through the slot, counting it when it is
    /// non-empty.
    fn publish_table(&self, table: RoutingTable) {
        if !table.is_empty() {
            self.tables_built.fetch_add(1, Ordering::Relaxed);
        }
        self.table.publish(table);
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

    /// Node `id`'s service-rate estimate, once warm: what a solve reads.
    fn service_estimate(rt: &Runtime, id: NodeId) -> Option<f64> {
        rt.state().registry.node(id)?.estimated_rate(rt.cfg.min_service_obs)
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
    fn set_node_rate_is_a_registry_write() {
        let rt =
            Runtime::builder().seed(5).nominal_arrival_rate(5.0).min_observations(64, 4).build();
        let ids: Vec<NodeId> =
            [4.0, 2.0, 1.0, 0.5].iter().map(|&r| rt.register_node(r).unwrap()).collect();
        rt.resolve_now().unwrap();
        let before = rt.current_table();

        rt.set_node_rate(ids[1], 3.0).unwrap();
        assert_eq!(rt.node_rate(ids[1]), Some(3.0));
        let after = rt.current_table();
        assert_eq!(after.epoch(), before.epoch(), "a rate update publishes nothing");
        let bits = |t: &RoutingTable| t.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after), bits(&before));

        // Cold window: the next solve takes the declared rate.
        assert_eq!(rt.resolve_now().unwrap().rates, [4.0, 3.0, 1.0, 0.5]);
        // Warm window: μ̂ = 2 decides, and a later declared rate neither
        // overrides nor resets it.
        for _ in 0..4 {
            rt.record_service(ids[1], 0.5);
        }
        rt.set_node_rate(ids[1], 6.0).unwrap();
        assert_eq!(rt.resolve_now().unwrap().rates, [4.0, 2.0, 1.0, 0.5]);
    }

    #[test]
    fn table_build_stats_count_non_empty_publishes() {
        let rt = coop_runtime(0.9);
        let a = rt.register_node(2.0).unwrap();
        let b = rt.register_node(1.0).unwrap();
        assert_eq!(rt.table_build_stats(), (0, 0));
        rt.resolve_now().unwrap();
        assert_eq!(rt.table_build_stats(), (0, 1));
        rt.resolve_now().unwrap();
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
        assert!((service_estimate(&rt, a).unwrap() - 2.0).abs() < 1e-9);
        let outcome = rt.resolve_now().unwrap();
        assert!((outcome.phi - 2.0).abs() < 1e-9, "solve used the measured Φ");
        assert!((outcome.rates[0] - 2.0).abs() < 1e-9, "solve used the measured μ");
        assert!((outcome.rates[1] - 1.0).abs() < 1e-9, "cold node keeps its nominal μ");
    }

    #[test]
    fn runtime_withholds_cold_estimates() {
        let rt = Runtime::builder().min_observations(5, 3).build();
        let a = rt.register_node(1.0).unwrap();
        for k in 0..4 {
            rt.record_arrival(f64::from(k));
        }
        assert_eq!(rt.estimated_arrival_rate(), None, "4 arrivals < min 5");
        rt.record_arrival(4.0);
        assert!((rt.estimated_arrival_rate().unwrap() - 1.0).abs() < 1e-9);
        for _ in 0..2 {
            rt.record_service(a, 0.5);
        }
        assert_eq!(service_estimate(&rt, a), None, "2 services < min 3");
        rt.record_service(a, 0.5);
        assert_eq!(service_estimate(&rt, a), Some(2.0));
        rt.deregister_node(a).unwrap();
        assert_eq!(service_estimate(&rt, a), None);
    }

    #[test]
    fn late_completions_after_deregister_leave_no_estimate() {
        let rt = coop_runtime(0.5);
        let a = rt.register_node(1.0).unwrap();
        rt.deregister_node(a).unwrap();
        for _ in 0..16 {
            rt.record_service(a, 0.25);
        }
        assert_eq!(service_estimate(&rt, a), None);
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
    fn overflowing_rates_fail_the_solve_and_recover() {
        // Two rates that are finite alone but sum to ∞, on the idle
        // fallback path (Φ = 0) and on the solve path.
        for phi in [0.0, 1e307] {
            let rt = coop_runtime(phi);
            let a = rt.register_node(1e308).unwrap();
            rt.register_node(1e308).unwrap();
            let epoch = rt.current_table().epoch();
            assert!(
                matches!(
                    rt.resolve_now(),
                    Err(RuntimeError::Core(gtlb_core::error::CoreError::BadInput(_)))
                ),
                "Φ = {phi}"
            );
            assert_eq!(rt.current_table().epoch(), epoch, "nothing was published");
            rt.deregister_node(a).unwrap();
            let outcome = rt.resolve_now().unwrap();
            assert_eq!(rt.current_table().epoch(), outcome.epoch);
            assert!(rt.dispatch().is_ok());
        }
    }

    #[test]
    fn dispatch_replays_the_seeds_stream() {
        // The runtime's dispatcher is the paper's central dispatcher: the
        // seed's dispatch stream routed draw by draw through the
        // published table, every decision counted.
        let rt = coop_runtime(0.9);
        rt.register_node(2.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        let table = rt.current_table();
        let mut rng =
            gtlb_desim::rng::Xoshiro256PlusPlus::stream(rt.config().seed, shard::DISPATCH_STREAM);
        let mut hits = vec![0; table.nodes().len()];
        for _ in 0..256 {
            let expected = Decision { node: table.route(rng.next_open01()), epoch: table.epoch() };
            assert_eq!(rt.dispatch().unwrap(), expected);
            hits[expected.node.raw() as usize] += 1;
        }
        assert_eq!(rt.dispatched(), 256);
        let expected: Vec<(NodeId, u64)> = (0u64..)
            .zip(hits)
            .filter(|&(_, count)| count > 0)
            .map(|(raw, count)| (NodeId::from_raw(raw), count))
            .collect();
        assert_eq!(rt.hit_counts(), expected);
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
    fn transitions_publish_by_kind() {
        // One node of four, driven by observations alone through
        // Up→Suspect→Up→Suspect→Down→Up. A demotion to Suspect publishes
        // nothing; each recovery re-solves and publishes once (Suspect→Up
        // too: a suspect node's measured rate reaches routing only
        // through a solve); Down renormalizes once.
        let rt = coop_runtime(2.0);
        let a = rt.register_node(2.0).unwrap();
        for _ in 0..3 {
            rt.register_node(1.0).unwrap();
        }
        rt.resolve_now().unwrap();
        let mut t = 0.0;
        for _ in 0..5 {
            assert_eq!(rt.observe_success(a, t).unwrap(), None);
            t += 1.0;
        }
        // Feeds `outcomes` one observation per 0.1 s; only the last may
        // move the node. Returns its move and the publishes it cost.
        let mut drive = |outcomes: &[bool]| {
            let before = rt.swap_stats().publishes;
            let mut last = None;
            for (k, &success) in outcomes.iter().enumerate() {
                let tr = if success {
                    rt.observe_success(a, t).unwrap()
                } else {
                    rt.observe_failure(a, t).unwrap()
                };
                t += 0.1;
                assert!(tr.is_none() || k + 1 == outcomes.len(), "early move {tr:?}");
                last = tr.map(|tr| (tr.from, tr.to));
            }
            (last, rt.swap_stats().publishes - before)
        };
        use Health::{Down, Suspect, Up};
        assert_eq!(drive(&[false]), (Some((Up, Suspect)), 0));
        assert_eq!(drive(&[true, true]), (Some((Suspect, Up)), 1), "recovery re-solves");
        assert_eq!(drive(&[false]), (Some((Up, Suspect)), 0));
        assert_eq!(drive(&[false, false]), (Some((Suspect, Down)), 1), "renormalize");
        assert_eq!(rt.current_table().prob_of(a), None);
        assert_eq!(drive(&[true, true, true]), (Some((Down, Up)), 1), "rejoin solve");
        assert!(rt.current_table().prob_of(a).is_some());
        assert_eq!(rt.health_transitions().len(), 5);
    }

    #[test]
    fn a_recovery_publishes_rho_over_the_row_sum() {
        // A recovery re-solve publishes ρ over the plain left-to-right
        // sum of the serving rates, as the row walk adds them, where
        // `resolve_now` publishes it over the cluster's compensated
        // total: with these rates the two differ in the last place.
        let rt = Runtime::builder()
            .seed(3)
            .nominal_arrival_rate(0.5)
            .admission(AdmissionConfig { target_utilization: 0.9, defer_band: 0.0 })
            .build();
        let rates = [1.0, 1e-16, 1e-16, 1e-16];
        let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
        let plain: f64 = rates.iter().sum();
        let compensated = Cluster::new(rates.to_vec()).unwrap().total_rate();
        assert_ne!(plain, compensated);
        rt.resolve_now().unwrap();
        assert_eq!(rt.offered_utilization(), Some(0.5 / compensated));
        for k in 0..5 {
            rt.observe_success(ids[0], f64::from(k)).unwrap();
        }
        rt.observe_failure(ids[0], 5.0).unwrap();
        rt.observe_success(ids[0], 5.1).unwrap();
        let tr = rt.observe_success(ids[0], 5.2).unwrap();
        assert_eq!(tr.map(|tr| (tr.from, tr.to)), Some((Health::Suspect, Health::Up)));
        assert_eq!(rt.offered_utilization(), Some(0.5 / plain));
    }

    #[test]
    fn every_solve_publishes_a_fresh_solve_bit_for_bit() {
        // 256 nodes whose measured rates drift between solves, with ties,
        // so each solve's sort starts from a stale order, and whose
        // serving set shrinks and grows, so the kept order is rebased.
        // Every published solve — 200 `resolve_now`s, and the Suspect→Up
        // and Down→Up re-solves between them — equals a fresh
        // `solve_table` at the same inputs and epoch.
        let rt = Runtime::builder()
            .seed(11)
            .nominal_arrival_rate(300.0)
            .service_window(8)
            .min_observations(u64::MAX, 4)
            .build();
        let ids: Vec<NodeId> =
            (0..256).map(|k| rt.register_node(f64::from(1 + k % 4)).unwrap()).collect();
        let mut rng = gtlb_desim::rng::Xoshiro256PlusPlus::seed_from_u64(0x50_7E);
        let check = |rt: &Runtime| {
            let state = rt.state();
            let (ids, cluster) = state.registry.serving_cluster(|n| rt.solve_rate(n)).unwrap();
            let live = rt.current_table();
            let (fresh, _) =
                resolver::solve_table(rt.cfg.scheme, live.epoch(), ids, &cluster, 300.0).unwrap();
            assert_eq!(*live, fresh, "epoch {}", live.epoch());
        };
        let mut t = 0.0;
        // Feeds `node` five successes 1 s apart, then `outcomes` 0.1 s
        // apart, and returns the health of the last move among them.
        let mut drive = |node: NodeId, outcomes: &[bool]| {
            let mut last = None;
            let warm = [(true, 1.0); 5].into_iter();
            for (success, dt) in warm.chain(outcomes.iter().map(|&s| (s, 0.1))) {
                let tr = if success {
                    rt.observe_success(node, t).unwrap()
                } else {
                    rt.observe_failure(node, t).unwrap()
                };
                last = tr.map(|tr| tr.to).or(last);
                t += dt;
            }
            last
        };
        let mut recoveries = [0; 2];
        for round in 0..200 {
            for &id in &ids {
                if rt.node_health(id) == Some(Health::Down) {
                    continue;
                }
                // Quantized durations: many nodes measure the same rate.
                let draw = (rng.next_open01() * 8.0).floor();
                let mu = rt.node_rate(id).unwrap() * (0.9 + 0.025 * draw);
                rt.record_service(id, 1.0 / mu);
            }
            rt.resolve_now().unwrap();
            check(&rt);
            let node = ids[(7 * round) % ids.len()];
            match round % 10 {
                // A flap: Up→Suspect publishes nothing, Suspect→Up
                // re-solves over the same serving set.
                0 => {
                    assert_eq!(drive(node, &[false, true, true]), Some(Health::Up));
                    recoveries[0] += 1;
                    check(&rt);
                }
                // Down renormalizes; the next solves run without the
                // node, and its probation re-solves with it back.
                3 => assert_eq!(drive(ids[round], &[false, false, false]), Some(Health::Down)),
                7 => {
                    let back = ids[round - 4];
                    assert_eq!(drive(back, &[]), Some(Health::Up));
                    recoveries[1] += 1;
                    check(&rt);
                }
                _ => {}
            }
        }
        assert_eq!(recoveries, [20, 20]);
    }

    #[test]
    fn the_transition_log_keeps_the_newest_in_order() {
        // One node of two flaps Up→Suspect→Up, observation by observation,
        // until the detector has driven more transitions than the log
        // keeps; the log then holds exactly the newest, oldest first.
        let rt = coop_runtime(0.5);
        let a = rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        let mut t = 0.0;
        for _ in 0..5 {
            rt.observe_success(a, t).unwrap();
            t += 1.0;
        }
        let mut driven = Vec::new();
        while driven.len() < TRANSITIONS_KEPT + 100 {
            for success in [false, true, true] {
                let tr = if success {
                    rt.observe_success(a, t).unwrap()
                } else {
                    rt.observe_failure(a, t).unwrap()
                };
                driven.extend(tr);
                t += 0.1;
            }
        }
        assert_eq!(rt.health_transitions(), driven[driven.len() - TRANSITIONS_KEPT..]);
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
    fn drain_wins_against_a_racing_probation() {
        // The probation's last success and an operator drain race. The
        // detector check, decision and registry write share one critical
        // section with the drain, so the drain is never overwritten.
        let rt = coop_runtime(0.5);
        let a = rt.register_node(1.0).unwrap();
        rt.register_node(1.0).unwrap();
        rt.resolve_now().unwrap();
        let probation = rt.config().detector.probation_successes;
        let mut t = 0.0;
        let mut overwritten = 0u32;
        for _ in 0..50_000 {
            rt.mark_up(a).unwrap();
            rt.mark_down(a).unwrap();
            for _ in 1..probation {
                t += 1.0;
                rt.observe_success(a, t).unwrap();
            }
            t += 1.0;
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    rt.observe_success(a, t).unwrap();
                });
                start.wait();
                rt.drain_node(a).unwrap();
            });
            overwritten += u32::from(rt.node_health(a) != Some(Health::Draining));
        }
        assert_eq!(overwritten, 0, "a probation overwrote the drain {overwritten} times");
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
    fn solver_events_and_metrics_are_recorded() {
        let rt = Runtime::builder().seed(9).nominal_arrival_rate(0.8).build();
        let resolves = |rt: &Runtime| {
            rt.telemetry_snapshot().unwrap().counter(telemetry::names::SOLVER_RESOLVES)
        };
        let a = rt.register_node(1.0).unwrap();
        let b = rt.register_node(1.0).unwrap();
        let epoch = rt.resolve_now().unwrap().epoch;
        assert_eq!(resolves(&rt), Some(1));
        assert_eq!(rt.current_table().epoch(), epoch);
        // A failed resolve (nothing serves) counts nothing.
        rt.mark_down(a).unwrap();
        rt.mark_down(b).unwrap();
        assert_eq!(rt.resolve_now().map(|o| o.epoch), Err(RuntimeError::NoServingNodes));
        assert_eq!(resolves(&rt), Some(1));
    }

    #[test]
    fn concurrent_publishes_land_in_epoch_order() {
        // Resolves and renormalizations race on their own threads next
        // to rate writers while a reader polls the live epoch. Every
        // publisher holds `state` from reading the live table until it
        // publishes, so the live epoch never steps backwards.
        let rt = coop_runtime(20.0);
        let ids: Vec<NodeId> =
            (0..64).map(|k| rt.register_node(f64::from(1 + k % 4)).unwrap()).collect();
        rt.resolve_now().unwrap();
        let stop = AtomicBool::new(false);
        let (rt, stop, ids) = (&rt, &stop, &ids);
        let backwards = std::thread::scope(|s| {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    rt.resolve_now().unwrap();
                }
            });
            for &id in &ids[..2] {
                s.spawn(move || {
                    let mut k = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        rt.set_node_rate(id, f64::from(1 + k % 4)).unwrap();
                        k = k.wrapping_add(1);
                    }
                });
            }
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    rt.mark_down(ids[63]).unwrap();
                    rt.mark_up(ids[63]).unwrap();
                }
            });
            let deadline = std::time::Instant::now() + Duration::from_millis(300);
            let (mut last, mut backwards) = (0, 0u64);
            while std::time::Instant::now() < deadline {
                let epoch = rt.current_table().epoch();
                backwards += u64::from(epoch < last);
                last = epoch;
            }
            stop.store(true, Ordering::Relaxed);
            backwards
        });
        assert_eq!(backwards, 0, "the live epoch stepped backwards {backwards} times");
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
