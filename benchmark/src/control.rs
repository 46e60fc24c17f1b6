//! The `control` workload: node agents talking to the control plane,
//! driven in process.
//!
//! `n` agents register over `POST /v1/register` (auto-approved). Each
//! round every agent sends a heartbeat; every third heartbeat of an
//! agent is followed by a `/v1/metrics` POST with three service samples
//! around its declared rate, and 1 in 64 of those POSTs revises the
//! rate; then one `resolve_now` runs as the resolver tick. Every 8
//! rounds an operator scrapes `GET /metrics` and `GET /nodes` — a 15 s
//! scrape over a 2 s heartbeat. A *window* is those 8 rounds and their
//! scrape.
//!
//! No `ControlPlane` is started: its monitor thread would turn wall time
//! into detector misses. Requests go bytes → parser → router → writer
//! through [`Endpoint`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gtlb_desim::rng::Xoshiro256PlusPlus;
use gtlb_runtime::{ControlPlaneHooks, NodeId, ResolveOutcome, Runtime, SchemeKind};

use crate::endpoint::{post, Endpoint, Route};
use crate::jobs::{isolate_scrape, JobSpec};
use crate::ledger::{Layer, Ledger};

/// Stream id of the agents' rate revisions.
const AGENT_STREAM: u64 = 0x0C10;

/// Shape and size of the control workload.
#[derive(Debug, Clone, Copy)]
pub struct ControlSpec {
    /// Copies of the Table 3.1 cluster (16 nodes each).
    pub copies: usize,
    /// Rounds per window; one scrape per window.
    pub rounds_per_window: u32,
    /// One `/v1/metrics` POST in this many revises the rate.
    pub rate_update_one_in: u64,
}

impl ControlSpec {
    /// 2048 agents.
    #[must_use]
    pub fn standard() -> Self {
        Self { copies: 128, rounds_per_window: 8, rate_update_one_in: 64 }
    }

    fn job_shape(&self) -> JobSpec {
        JobSpec { copies: self.copies, ..JobSpec::farm() }
    }
}

#[derive(Debug)]
struct Agent {
    id: NodeId,
    index: usize,
    base_rate: f64,
    rate: f64,
    beats: u64,
    heartbeat: Vec<u8>,
    metrics: Vec<u8>,
}

impl Agent {
    fn samples(&self) -> [f64; 3] {
        let s = 1.0 / self.rate;
        [0.8 * s, s, 1.2 * s]
    }

    fn metrics_body(&self, with_rate: bool) -> Vec<u8> {
        let [a, b, c] = self.samples();
        let rate = if with_rate { format!(r#","rate":{}"#, self.rate) } else { String::new() };
        let body = format!(r#"{{"name":"n{}","service_seconds":[{a},{b},{c}]{rate}}}"#, self.index);
        post("/v1/metrics", &body)
    }
}

/// What the measured windows saw.
#[derive(Debug, Clone, Default)]
pub struct ControlSample {
    /// Each round as (operations, wall seconds): every agent's requests
    /// and the resolver tick.
    pub rounds: Vec<(f64, f64)>,
    /// Wall seconds of each operator scrape, `GET /metrics` and
    /// `GET /nodes` together.
    pub scrape_s: Vec<f64>,
    /// Windows run.
    pub windows: usize,
    /// Operations.
    pub ops: u64,
    /// Wall time of the windows (s), isolated spans left out.
    pub wall_s: f64,
    /// Latencies of the first [`REQ_SAMPLES`] agent requests (µs). The
    /// cap keeps the benchmark's own memory the same in every run, so
    /// that peak RSS measures the program.
    pub req_us: Vec<f64>,
    /// Latencies of the `/v1/metrics` POSTs that revised a rate (µs).
    pub rate_update_us: Vec<f64>,
    /// `GET /metrics` latencies (ms).
    pub scrape_ms: Vec<f64>,
    /// `GET /nodes` latencies (ms).
    pub nodes_ms: Vec<f64>,
    /// `resolve_now` latencies (ms).
    pub solve_ms: Vec<f64>,
    /// Jain index of predicted per-node response under the live table
    /// just before a resolver tick, one value per window.
    pub fairness: Vec<f64>,
    /// Heartbeats sent.
    pub heartbeats: u64,
}

/// Agent request latencies a run keeps.
pub const REQ_SAMPLES: usize = 1 << 18;

impl ControlSample {
    fn record_req(&mut self, us: f64) {
        if self.req_us.len() < REQ_SAMPLES {
            self.req_us.push(us);
        }
    }
}

/// A registered fleet of agents and the runtime they report to.
pub struct Control {
    spec: ControlSpec,
    runtime: Arc<Runtime>,
    endpoint: Endpoint,
    hooks: ControlPlaneHooks,
    agents: Vec<Agent>,
    rng: Xoshiro256PlusPlus,
    last_solve: ResolveOutcome,
}

impl Control {
    /// Builds the runtime, registers every agent over HTTP and resolves.
    ///
    /// # Errors
    /// When a registration or the first resolve fails.
    pub fn setup(spec: ControlSpec, seed: u64) -> Result<Self, String> {
        let shape = spec.job_shape();
        let runtime = Arc::new(
            Runtime::builder()
                .seed(seed)
                .scheme(SchemeKind::Coop)
                .nominal_arrival_rate(shape.phi())
                .telemetry(true)
                .tracing(true)
                .build(),
        );
        let mut endpoint = Endpoint::new(&runtime);
        let rates = shape.rates();
        let ids = endpoint.register_all(&rates, &mut Ledger::off())?;
        // Each agent backfills a full estimator window in one metrics
        // POST, so the run starts in the steady state rather than with
        // windows — and solve times — that grow over its first minutes.
        let window = runtime.config().service_window;
        for (index, &rate) in rates.iter().enumerate() {
            let s = 1.0 / rate;
            let samples: Vec<String> =
                (0..window).map(|k| [0.8 * s, s, 1.2 * s][k % 3].to_string()).collect();
            let body =
                format!(r#"{{"name":"n{index}","service_seconds":[{}]}}"#, samples.join(","));
            let status =
                endpoint.serve(&post("/v1/metrics", &body), Route::Metrics, &mut Ledger::off());
            if status != 200 {
                return Err(format!("backfill from n{index} answered {status}"));
            }
        }
        let last_solve = runtime.resolve_now().map_err(|e| format!("first resolve: {e}"))?;
        let agents = ids
            .iter()
            .zip(&rates)
            .enumerate()
            .map(|(index, (&id, &rate))| {
                let mut agent = Agent {
                    id,
                    index,
                    base_rate: rate,
                    rate,
                    // Stagger the metrics POSTs: a third of the agents
                    // report in each round.
                    beats: index as u64 % 3,
                    heartbeat: post("/v1/heartbeat", &format!(r#"{{"name":"n{index}"}}"#)),
                    metrics: Vec::new(),
                };
                agent.metrics = agent.metrics_body(false);
                agent
            })
            .collect();
        let rng = Xoshiro256PlusPlus::stream(seed, AGENT_STREAM);
        let hooks = endpoint.state().hooks().clone();
        Ok(Self { spec, runtime, endpoint, hooks, agents, rng, last_solve })
    }

    /// The runtime.
    #[must_use]
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// The in-process endpoint.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Runs one window, adding what it measured to `out`. With the
    /// ledger on, each hooks call behind a request is repeated on its
    /// own in an isolated span.
    ///
    /// # Errors
    /// When a request is not answered 2xx, a resolve fails or a scrape
    /// check fails.
    pub fn window(&mut self, led: &mut Ledger, out: &mut ControlSample) -> Result<(), String> {
        let started = Instant::now();
        let isolated_before = led.isolated_wall_ns();
        let mut excluded = 0.0;
        let mut ops = 0u64;
        for round in 0..self.spec.rounds_per_window {
            let round_started = Instant::now();
            let mut round_ops = 0;
            for a in 0..self.agents.len() {
                round_ops += self.agent_turn(a, led, out)?;
            }
            let mut fairness_s = 0.0;
            if round + 1 == self.spec.rounds_per_window {
                let t = Instant::now();
                out.fairness.push(self.table_fairness());
                fairness_s = t.elapsed().as_secs_f64();
            }
            let t0 = Instant::now();
            led.open(Layer::Resolver);
            let solved = self.runtime.resolve_now();
            led.close();
            out.solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.last_solve = solved.map_err(|e| format!("resolve: {e}"))?;
            round_ops += 1;
            let round_s = round_started.elapsed().as_secs_f64() - fairness_s;
            out.rounds.push((round_ops as f64, round_s));
            excluded += fairness_s;
            ops += round_ops;
        }
        let t0 = Instant::now();
        let (scrape, nodes, checks) = self.endpoint.scrape(self.agents.len(), led)?;
        out.scrape_s.push(t0.elapsed().as_secs_f64() - checks);
        excluded += checks;
        out.scrape_ms.push(scrape);
        out.nodes_ms.push(nodes);
        ops += 2;
        if led.is_on() {
            isolate_scrape(&self.runtime, &self.endpoint, led);
        }
        let isolated = (led.isolated_wall_ns() - isolated_before) as f64 / 1e9;
        out.windows += 1;
        out.ops += ops;
        out.wall_s += (started.elapsed().as_secs_f64() - excluded - isolated).max(1e-9);
        Ok(())
    }

    /// One agent's heartbeat and, every third beat, its metrics POST.
    /// Returns the requests sent.
    fn agent_turn(
        &mut self,
        a: usize,
        led: &mut Ledger,
        out: &mut ControlSample,
    ) -> Result<u64, String> {
        let hooks = &self.hooks;
        let agent = &mut self.agents[a];
        led.set_job(self.endpoint.requests);
        led.open(Layer::Op);
        led.empty();
        let t0 = Instant::now();
        let status = self.endpoint.serve(&agent.heartbeat, Route::Heartbeat, led);
        out.record_req(t0.elapsed().as_secs_f64() * 1e6);
        led.close();
        if status != 200 {
            return Err(format!("heartbeat from n{} answered {status}", agent.index));
        }
        out.heartbeats += 1;
        if led.is_on() {
            let id = agent.id;
            led.span(Layer::HooksHeartbeat, || hooks.heartbeat(id))
                .map_err(|e| format!("heartbeat hook: {e}"))?;
        }
        agent.beats += 1;
        if !agent.beats.is_multiple_of(3) {
            return Ok(1);
        }
        let revise = self.rng.next_u64().is_multiple_of(self.spec.rate_update_one_in);
        let update;
        let request = if revise {
            agent.rate = agent.base_rate * (0.9 + 0.2 * self.rng.next_open01());
            agent.metrics = agent.metrics_body(false);
            update = agent.metrics_body(true);
            &update
        } else {
            &agent.metrics
        };
        led.set_job(self.endpoint.requests);
        led.open(Layer::Op);
        led.empty();
        let t0 = Instant::now();
        let status = self.endpoint.serve(request, Route::Metrics, led);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        led.close();
        out.record_req(us);
        if revise {
            out.rate_update_us.push(us);
        }
        if status != 200 {
            return Err(format!("metrics from n{} answered {status}", agent.index));
        }
        if led.is_on() {
            let id = agent.id;
            for s in agent.samples() {
                led.span(Layer::HooksService, || hooks.record_service(id, s));
            }
            if revise {
                // An unchanged rate republishes with factor 1: the same
                // reweight path at no change to the table.
                let rate = agent.rate;
                led.span(Layer::HooksReweight, || hooks.set_node_rate(id, rate))
                    .map_err(|e| format!("rate hook: {e}"))?;
            }
        }
        Ok(2)
    }

    /// Jain's index of the predicted slack `μ_i − p_i Φ` (the inverse of
    /// the M/M/1 response, floored at 0) over the nodes the live table
    /// routes to, at the rates and `Φ` of the last solve: 1 for the
    /// solved COOP table, lower as rate revisions reweight it between
    /// resolver ticks.
    fn table_fairness(&self) -> f64 {
        let table = self.runtime.current_table();
        let solve = &self.last_solve;
        let rates: HashMap<NodeId, f64> =
            solve.nodes.iter().copied().zip(solve.rates.iter().copied()).collect();
        let slacks: Vec<f64> = table
            .nodes()
            .iter()
            .zip(table.probs())
            .filter(|&(_, &p)| p > 0.0)
            .filter_map(|(id, &p)| Some((rates.get(id)? - p * solve.phi).max(0.0)))
            .collect();
        crate::stats::jain(&slacks)
    }

    /// End-of-run checks: every response 2xx and the live table's
    /// probabilities summing to 1.
    ///
    /// # Errors
    /// With the failed check.
    pub fn check(&self) -> Result<(), String> {
        if self.endpoint.non_2xx != 0 {
            return Err(format!("{} responses outside 2xx", self.endpoint.non_2xx));
        }
        let sum: f64 = self.runtime.current_table().probs().iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("live table probabilities sum to {sum}"));
        }
        Ok(())
    }
}
