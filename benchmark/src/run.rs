//! One benchmark run: a workload, a seed, a time budget, traced or not;
//! the result as the one-line JSON report.

use std::path::Path;
use std::time::{Duration, Instant};

use gtlb_runtime::Runtime;

use crate::control::{Control, ControlSample, ControlSpec};
use crate::jobs::{self, JobSpec, Pass};
use crate::ledger::{Layer, Ledger};
use crate::stats::{self, median, peak_rss_mb, quantile};

/// End-to-end metrics, printed by an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 4] =
    [("ops_per_s", "1/s"), ("fairness", "ratio"), ("rss_peak_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics, printed by a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("driver.ns_per_job", "ns"),
    ("admission.ns_per_call", "ns"),
    ("admission.shed_share", "ratio"),
    ("shard.ns_per_call", "ns"),
    ("shard.calls_per_job", "count"),
    ("fault.ns_per_job", "ns"),
    ("fault.lookups_per_job", "count"),
    ("fault.plan_events", "count"),
    ("retry.attempts_per_job", "count"),
    ("retry.useful_share", "ratio"),
    ("retry.fail_share", "ratio"),
    ("detector.ns_per_call", "ns"),
    ("detector.calls_per_job", "count"),
    ("detector.transitions", "count"),
    ("estimator.ns_per_call", "ns"),
    ("resolver.solve_us", "us"),
    ("resolver.solve_p50_ms", "ms"),
    ("resolver.solve_p90_ms", "ms"),
    ("resolver.publishes", "count"),
    ("table.reweight_us", "us"),
    ("table.repairs", "count"),
    ("table.rebuilds", "count"),
    ("telemetry.record_ns_per_job", "ns"),
    ("telemetry.snapshot_ms", "ms"),
    ("telemetry.render_ms", "ms"),
    ("telemetry.series", "count"),
    ("telemetry.scrape_bytes", "bytes"),
    ("tracing.ns_per_job", "ns"),
    ("tracing.sampled_share", "ratio"),
    ("tracing.dropped", "count"),
    ("net.http.parse_ns", "ns"),
    ("net.http.write_ns", "ns"),
    ("net.http.bytes_per_req", "bytes"),
    ("net.router.heartbeat_ns", "ns"),
    ("net.router.metrics_ns", "ns"),
    ("net.router.metrics_text_ms", "ms"),
    ("net.router.nodes_ms", "ms"),
    ("control.heartbeat_ns", "ns"),
    ("control.nodes_ms", "ms"),
    ("agent.req_p50_us", "us"),
    ("agent.req_p99_us", "us"),
    ("agent.rate_update_p50_us", "us"),
    ("operator.scrape_p50_ms", "ms"),
    ("operator.scrape_p90_ms", "ms"),
    ("operator.nodes_p50_ms", "ms"),
    ("residual.ns_per_op", "ns"),
    ("residual.share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["farm", "chaos", "control"];

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted: jobs or requests.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// `(name, value)` in the order they were measured.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The report as one JSON line, metrics in catalogue order with
    /// their units.
    ///
    /// # Errors
    /// When a catalogued metric is missing or not finite.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        Ok(format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

/// Runs `workload` with `seed` for about `seconds`. A traced run gives
/// half the time to an untraced baseline and half to the traced pass,
/// and writes its kept spans to `spans` when given.
///
/// # Errors
/// For an unknown workload or a failed operation or check.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<&Path>,
) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let trace = traced.then_some(spans);
    match workload {
        "farm" => run_jobs(&JobSpec::farm(), seed, budget, trace),
        "chaos" => run_jobs(&JobSpec::chaos(), seed, budget, trace),
        "control" => run_control(ControlSpec::standard(), seed, budget, trace),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// Untraced `TraceDriver` passes for `budget` (at least three), each
/// checked.
///
/// # Errors
/// When a pass fails or a check does.
pub fn driver_passes(spec: &JobSpec, seed: u64, budget: Duration) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed() < budget {
        let pass = jobs::driver_pass(spec, seed)?;
        jobs::check_pass(spec, &pass)?;
        passes.push(pass);
    }
    Ok(passes)
}

/// Jobs per second of `passes` in the slow mode (see
/// [`stats::SLOW_MODE`]). Every pass runs the same
/// chunks, but they differ in work (a chaos chunk may hold more faults),
/// so each chunk's time is taken relative to its median over the
/// passes; a pass in the slow mode is the sum of those medians times
/// the slow-mode quantile of all the relative times.
fn job_rate(passes: &[Pass]) -> f64 {
    let typical: Vec<f64> = (0..passes[0].chunk_s.len())
        .map(|i| median(&passes.iter().map(|p| p.chunk_s[i]).collect::<Vec<_>>()))
        .collect();
    let relative: Vec<f64> =
        passes.iter().flat_map(|p| p.chunk_s.iter().zip(&typical).map(|(t, m)| t / m)).collect();
    let slow_s = typical.iter().sum::<f64>() * stats::slow_mode_time(&relative);
    passes[0].jobs as f64 / slow_s
}

/// `None` for an untraced run; for a traced one, where to write the
/// spans, if anywhere.
pub type Trace<'a> = Option<Option<&'a Path>>;

/// A `farm` or `chaos` run of `spec`: untraced `TraceDriver` passes for
/// `budget`, checked and held against the replica; with `trace`, as
/// long again of traced replica passes.
///
/// # Errors
/// When a pass, a check or the replica's fidelity fails.
pub fn run_jobs(
    spec: &JobSpec,
    seed: u64,
    budget: Duration,
    trace: Trace,
) -> Result<Report, String> {
    // A traced run gives half its untraced time to replica passes: the
    // span cost is fitted to, and the residual taken against, the
    // replica's own untraced time — the same code less the spans.
    let driver_budget = if trace.is_some() { budget / 2 } else { budget };
    let passes = driver_passes(spec, seed, driver_budget)?;
    let stats = passes[0].stats.clone().ok_or("pass has no stats")?;
    // The replica on the same seed: fidelity on every run, and the
    // per-node response means the driver does not expose.
    let (replica_run, replica, _) = jobs::replica_pass(spec, seed, &mut Ledger::off())?;
    jobs::fidelity(&stats, replica_run.stats.as_ref().ok_or("replica pass has no stats")?)?;
    let mut report = Report {
        correct: true,
        attempted: passes.iter().map(|p| p.jobs).sum(),
        failed: 0,
        metrics: Vec::new(),
    };
    let Some(spans) = trace else {
        report.set("ops_per_s", job_rate(&passes));
        report.set("fairness", replica.fairness());
        report.set("rss_peak_mb", peak_rss_mb());
        let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
        report.set("setup_s", stats::slow_mode_time(&setups));
        return Ok(report);
    };
    let solve: Vec<f64> = passes.iter().flat_map(|p| p.solve_ms.iter().copied()).collect();
    report.set("resolver.solve_p50_ms", median(&solve));
    report.set("resolver.solve_p90_ms", quantile(&solve, 0.9));
    let shed = stats.rejected + stats.deferred + stats.failed;
    report.set("retry.fail_share", shed as f64 / stats.submitted as f64);
    let mut untraced = vec![replica_run];
    let started = Instant::now();
    while untraced.len() < 3 || started.elapsed() < budget / 2 {
        let (pass, _, _) = jobs::replica_pass(spec, seed, &mut Ledger::off())?;
        jobs::fidelity(&stats, pass.stats.as_ref().ok_or("replica pass has no stats")?)?;
        untraced.push(pass);
    }
    let untraced_ns = median(&untraced.iter().map(ns_per_job).collect::<Vec<_>>());
    let led = traced_jobs(spec, seed, budget, untraced_ns, &stats, &mut report)?;
    write_spans(&led, spans)?;
    Ok(report)
}

/// Wall ns per measured job of `pass`.
fn ns_per_job(pass: &Pass) -> f64 {
    pass.job_s * 1e9 / pass.jobs as f64
}

/// Traced replica passes for `budget` (at least one), each checked
/// against the driver's books; fills the per-layer metrics, held
/// against `untraced_ns`, the untraced replica's median ns per job.
fn traced_jobs(
    spec: &JobSpec,
    seed: u64,
    budget: Duration,
    untraced_ns: f64,
    driver_stats: &gtlb_runtime::TraceStats,
    report: &mut Report,
) -> Result<Ledger, String> {
    let mut led = Ledger::on();
    let started = Instant::now();
    let (mut jobs, mut passes) = (0u64, 0u64);
    let mut traced_ns = Vec::new();
    let mut counts = jobs::Counts::default();
    let mut accepted = 0u64;
    let (mut scrape, mut nodes) = (Vec::new(), Vec::new());
    let mut last = None;
    while passes == 0 || started.elapsed() < budget {
        let (pass, replica, setup) = jobs::replica_pass(spec, seed, &mut led)?;
        let stats = pass.stats.as_ref().ok_or("replica pass has no stats")?;
        jobs::fidelity(driver_stats, stats)?;
        jobs += pass.jobs;
        traced_ns.push(ns_per_job(&pass));
        accepted += stats.accepted;
        counts.add(&replica.counts);
        scrape.extend_from_slice(&pass.scrape_ms);
        nodes.extend_from_slice(&pass.nodes_ms);
        passes += 1;
        last = Some((pass, setup));
    }
    report.attempted += jobs;
    let (pass, setup) = last.expect("at least one traced pass ran");
    let rt = &setup.runtime;
    let n = jobs as f64;
    let layers = [
        Layer::Driver,
        Layer::Shard,
        Layer::Fault,
        Layer::Retry,
        Layer::Detector,
        Layer::Estimator,
        Layer::Resolver,
        Layer::Telemetry,
        Layer::Tracing,
    ];
    let timed_spans = led.spans(&layers) + led.spans(&[Layer::Op, Layer::Empty]);
    let traced_ns = median(&traced_ns);
    led.fit_overhead(timed_spans, n * traced_ns, n * untraced_ns);
    let per_job = |layer: Layer| led.self_ns(layer) / n;
    let admission_ns = if spec.kind == jobs::Kind::Chaos {
        jobs::admission_replay_ns(rt, counts.submit_calls / passes)
    } else {
        0.0
    };
    let per_call = |total: f64, calls: u64| if calls == 0 { 0.0 } else { total / calls as f64 };
    report.set("driver.ns_per_job", per_job(Layer::Driver));
    report.set("admission.ns_per_call", admission_ns);
    let shed = rt
        .admission_stats()
        .map_or(0.0, |a| (a.deferred + a.rejected) as f64 / (a.submitted.max(1)) as f64);
    report.set("admission.shed_share", shed);
    report.set(
        "shard.ns_per_call",
        per_call(led.self_ns(Layer::Shard), counts.submit_calls) - admission_ns,
    );
    report.set("shard.calls_per_job", counts.submit_calls as f64 / n);
    report.set("fault.ns_per_job", per_job(Layer::Fault));
    report.set("fault.lookups_per_job", counts.fault_lookups as f64 / n);
    report.set("fault.plan_events", pass.plan_events as f64);
    report.set("retry.attempts_per_job", counts.attempts as f64 / n);
    report.set("retry.useful_share", accepted as f64 / counts.attempts as f64);
    report
        .set("detector.ns_per_call", per_call(led.self_ns(Layer::Detector), counts.detector_calls));
    report.set("detector.calls_per_job", counts.detector_calls as f64 / n);
    report.set("detector.transitions", counts.transitions as f64 / passes as f64);
    report.set("estimator.ns_per_call", led.mean_ns(Layer::Estimator));
    report.set("telemetry.record_ns_per_job", per_job(Layer::Telemetry));
    report.set("tracing.ns_per_job", per_job(Layer::Tracing));
    report.set("tracing.sampled_share", counts.sampled as f64 / n);
    report.set("operator.scrape_p50_ms", median(&scrape));
    report.set("operator.scrape_p90_ms", quantile(&scrape, 0.9));
    report.set("operator.nodes_p50_ms", median(&nodes));
    // The control plane's agent path is idle in the job workloads.
    for name in [
        "table.reweight_us",
        "net.router.heartbeat_ns",
        "net.router.metrics_ns",
        "control.heartbeat_ns",
        "agent.req_p50_us",
        "agent.req_p99_us",
        "agent.rate_update_p50_us",
    ] {
        report.set(name, 0.0);
    }
    shared_layers(report, &led, rt, &setup.endpoint);
    residual(report, &led, &layers, n, 1e9 / untraced_ns, 1e9 / traced_ns);
    Ok(led)
}

fn write_spans(led: &Ledger, path: Option<&Path>) -> Result<(), String> {
    match path {
        Some(path) => led.write_spans(path).map_err(|e| format!("writing {}: {e}", path.display())),
        None => Ok(()),
    }
}

/// Layers every workload reports the same way: resolver, table,
/// telemetry scrape, tracer, HTTP, router and the node table.
fn shared_layers(
    report: &mut Report,
    led: &Ledger,
    rt: &Runtime,
    endpoint: &crate::endpoint::Endpoint,
) {
    let ms = |ns: f64| ns / 1e6;
    let (repairs, rebuilds) = rt.table_build_stats();
    let snapshot = rt.telemetry_snapshot();
    let (series, bytes) = snapshot.map_or((0, 0), |s| {
        (s.counters().len() + s.gauges().len() + s.histograms().len(), s.to_prometheus().len())
    });
    report.set("resolver.solve_us", led.mean_ns(Layer::Resolver) / 1e3);
    report.set("resolver.publishes", rt.swap_stats().publishes as f64);
    report.set("table.repairs", repairs as f64);
    report.set("table.rebuilds", rebuilds as f64);
    report.set("telemetry.snapshot_ms", ms(led.mean_ns(Layer::Snapshot)));
    report.set("telemetry.render_ms", ms(led.mean_ns(Layer::Render)));
    report.set("telemetry.series", series as f64);
    report.set("telemetry.scrape_bytes", bytes as f64);
    report.set("tracing.dropped", rt.tracer().dropped() as f64);
    report.set("net.http.parse_ns", led.mean_ns(Layer::HttpParse));
    report.set("net.http.write_ns", led.mean_ns(Layer::HttpWrite));
    report.set("net.http.bytes_per_req", endpoint.bytes as f64 / endpoint.requests.max(1) as f64);
    report.set(
        "net.router.metrics_text_ms",
        ms(led.mean_ns(Layer::RouteMetricsText)
            - led.mean_ns(Layer::Snapshot)
            - led.mean_ns(Layer::Render)),
    );
    report.set(
        "net.router.nodes_ms",
        ms(led.mean_ns(Layer::RouteNodes) - led.mean_ns(Layer::HooksNodes)),
    );
    report.set("control.nodes_ms", ms(led.mean_ns(Layer::HooksNodes)));
}

/// `residual.*` and `trace.overhead`: the untraced time per operation
/// minus the traced self times of `layers`, and traced over untraced
/// throughput.
fn residual(
    report: &mut Report,
    led: &Ledger,
    layers: &[Layer],
    ops: f64,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
) {
    let end_to_end = 1e9 / untraced_ops_per_s;
    let attributed: f64 = layers.iter().map(|&l| led.self_ns(l)).sum::<f64>() / ops;
    report.set("residual.ns_per_op", end_to_end - attributed);
    report.set("residual.share", (end_to_end - attributed) / end_to_end);
    report.set("trace.overhead", traced_ops_per_s / untraced_ops_per_s);
}

/// Fresh set-ups per control run; their slow-mode time is `setup_s`,
/// and each is measured for an equal share of the budget. Forty, so
/// that four set-ups lie above the slow-mode quantile, not one.
const CONTROL_SETUPS: u32 = 40;
/// Windows an untraced control run measures at least: 100 scrapes.
const CONTROL_MIN_WINDOWS: usize = 100;

/// Requests per second of the control workload in the slow mode (see
/// [`stats::SLOW_MODE`]): a window of `rounds` rounds and one scrape,
/// each part timed at its slow-mode quantile.
fn control_rate(sample: &ControlSample, rounds: u32) -> f64 {
    let round_ops = sample.rounds.iter().map(|r| r.0).sum::<f64>() / sample.rounds.len() as f64;
    let round_s = round_ops / stats::slow_mode_rate(&sample.rounds);
    let scrape_s = stats::slow_mode_time(&sample.scrape_s);
    let r = f64::from(rounds);
    (r * round_ops + 2.0) / (r * round_s + scrape_s)
}

/// End-of-fleet checks and its request counts.
fn finish_control(control: &Control, report: &mut Report) -> Result<(), String> {
    control.check()?;
    report.attempted += control.endpoint().requests;
    report.failed += control.endpoint().non_2xx;
    Ok(())
}

/// A `control` run of `spec`: fresh fleets measured in turn for
/// `budget`; with `trace`, as long again of traced windows on the last.
///
/// # Errors
/// When a request is not answered 2xx or a check fails.
pub fn run_control(
    spec: ControlSpec,
    seed: u64,
    budget: Duration,
    trace: Trace,
) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut sample = ControlSample::default();
    let mut report = Report { correct: true, ..Report::default() };
    let mut control: Option<Control> = None;
    // The scrape percentiles are per-layer metrics: a traced run's
    // untraced part takes enough windows for their p90.
    let min_windows = if trace.is_some() { CONTROL_MIN_WINDOWS } else { 0 };
    let started = Instant::now();
    for k in 1..=CONTROL_SETUPS {
        // Free the last fleet before building the next, so peak memory
        // is one fleet's.
        if let Some(c) = control.take() {
            finish_control(&c, &mut report)?;
        }
        let t0 = Instant::now();
        let mut c = Control::setup(spec, seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        // Each set-up measures an equal share of the budget.
        let until = budget * k / CONTROL_SETUPS;
        let windows = min_windows * k as usize / CONTROL_SETUPS as usize;
        loop {
            c.window(&mut Ledger::off(), &mut sample)?;
            if started.elapsed() >= until && sample.windows >= windows {
                break;
            }
        }
        control = Some(c);
    }
    let mut control = control.expect("at least one set-up ran");
    finish_control(&control, &mut report)?;
    let ops_per_s = control_rate(&sample, spec.rounds_per_window);
    let Some(spans) = trace else {
        report.set("ops_per_s", ops_per_s);
        report.set("fairness", median(&sample.fairness));
        report.set("rss_peak_mb", peak_rss_mb());
        report.set("setup_s", stats::slow_mode_time(&setups));
        return Ok(report);
    };
    let mut led = Ledger::on();
    let untraced_requests = control.endpoint().requests;
    let untraced_non_2xx = control.endpoint().non_2xx;
    let mut traced = ControlSample::default();
    let started = Instant::now();
    while traced.windows == 0 || started.elapsed() < budget {
        control.window(&mut led, &mut traced)?;
    }
    control.check()?;
    report.attempted += control.endpoint().requests - untraced_requests;
    report.failed += control.endpoint().non_2xx - untraced_non_2xx;
    let rt = control.runtime();
    let ops = traced.ops as f64;
    let layers = [
        Layer::HttpParse,
        Layer::HttpWrite,
        Layer::RouteHeartbeat,
        Layer::RouteMetrics,
        Layer::RouteMetricsText,
        Layer::RouteNodes,
        Layer::Resolver,
    ];
    let untraced_ns = ops * sample.wall_s * 1e9 / sample.ops as f64;
    let timed_spans = led.spans(&layers) + led.spans(&[Layer::Op, Layer::Empty]);
    led.fit_overhead(timed_spans, traced.wall_s * 1e9, untraced_ns);
    let mean = |l: Layer| led.mean_ns(l);
    // The job path is idle in the control workload.
    for name in [
        "admission.ns_per_call",
        "admission.shed_share",
        "shard.ns_per_call",
        "shard.calls_per_job",
        "fault.ns_per_job",
        "fault.lookups_per_job",
        "fault.plan_events",
        "retry.attempts_per_job",
        "retry.useful_share",
        "retry.fail_share",
        "driver.ns_per_job",
        "telemetry.record_ns_per_job",
        "tracing.ns_per_job",
        "tracing.sampled_share",
    ] {
        report.set(name, 0.0);
    }
    report.set("detector.ns_per_call", mean(Layer::HooksHeartbeat));
    report.set("detector.calls_per_job", traced.heartbeats as f64 / ops);
    report.set("detector.transitions", rt.health_transitions().len() as f64);
    report.set("estimator.ns_per_call", mean(Layer::HooksService));
    report.set("table.reweight_us", mean(Layer::HooksReweight) / 1e3);
    report
        .set("net.router.heartbeat_ns", mean(Layer::RouteHeartbeat) - mean(Layer::HooksHeartbeat));
    let hooks_in_metrics = led.self_ns(Layer::HooksService) + led.self_ns(Layer::HooksReweight);
    let metrics_posts = led.count(Layer::RouteMetrics).max(1) as f64;
    report.set(
        "net.router.metrics_ns",
        (led.self_ns(Layer::RouteMetrics) - hooks_in_metrics) / metrics_posts,
    );
    report.set("control.heartbeat_ns", mean(Layer::HooksHeartbeat));
    report.set("agent.req_p50_us", median(&sample.req_us));
    report.set("agent.req_p99_us", quantile(&sample.req_us, 0.99));
    report.set("agent.rate_update_p50_us", median(&sample.rate_update_us));
    report.set("operator.scrape_p50_ms", median(&sample.scrape_ms));
    report.set("operator.scrape_p90_ms", quantile(&sample.scrape_ms, 0.9));
    report.set("operator.nodes_p50_ms", median(&sample.nodes_ms));
    report.set("resolver.solve_p50_ms", median(&sample.solve_ms));
    report.set("resolver.solve_p90_ms", quantile(&sample.solve_ms, 0.9));
    shared_layers(&mut report, &led, rt, control.endpoint());
    let untraced_ops_per_s = sample.ops as f64 / sample.wall_s;
    let traced_ops_per_s = traced.ops as f64 / traced.wall_s;
    residual(&mut report, &led, &layers, ops, untraced_ops_per_s, traced_ops_per_s);
    write_spans(&led, spans)?;
    Ok(report)
}
