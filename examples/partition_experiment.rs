//! Adversarial network sweeps: COOP under asymmetric link partitions
//! (both directions), gray failures, and two nodes partitioned at once,
//! all driven through the closed-loop trace driver with the self-tuning
//! accrual detector.
//!
//! For every scenario the experiment reports the
//! healthy baseline response, the response while the fault is live
//! ("post-partition" in the detection-literature sense: after the fault
//! opens), the detection latency (first Down transition after the fault
//! opens — `null` when the detector correctly refuses to demote), the
//! mis-routing rate (dispatch attempts sent to an unreachable node per
//! submitted job), and whether the victims were readmitted after heal.
//!
//! ```text
//! cargo run --release --example partition_experiment
//! ```
//!
//! Honors the bench harness's environment: `GTLB_BENCH_QUICK=1` shrinks
//! the horizons and `GTLB_BENCH_JSON=<path>` writes the
//! machine-readable report (`meta` provenance block + `results` rows) —
//! CI uploads it as `BENCH_partitions.json`. `tests/partition_experiment.rs`
//! runs the quick-mode sweep and checks its rows against
//! `tests/expected_partitions.txt`.

use gtlb::prelude::*;
use gtlb::runtime::DetectorConfig;

/// One scenario of the report.
pub struct Row {
    scenario: String,
    fields: Vec<(&'static str, String)>,
}

impl Row {
    /// The row as one JSON object on one line.
    pub fn json(&self) -> String {
        let mut out = format!("{{\"scenario\": \"{}\"", self.scenario);
        for (k, v) in &self.fields {
            out.push_str(&format!(", \"{k}\": {v}"));
        }
        out.push('}');
        out
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The fault scripts the experiment sweeps. Victims are always node 0
/// (the fast node) except the rack scenario, which cuts nodes 1 + 2 at
/// the same time.
#[derive(Clone, Copy)]
enum Scenario {
    /// Heartbeats flow, dispatch drops — the detector must demote on
    /// dispatch evidence alone.
    AsymmetricDispatch,
    /// Dispatch flows, heartbeats drop — the mirror case; demotion here
    /// is *mis*-detection while traffic proves the node alive.
    AsymmetricHeartbeat,
    /// 3× service inflation + 40% loss, below the crash threshold.
    Gray,
    /// A dispatch partition striking two nodes at once, as a rack's
    /// switch would.
    DomainPartition,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::AsymmetricDispatch => "asymmetric_dispatch",
            Scenario::AsymmetricHeartbeat => "asymmetric_heartbeat",
            Scenario::Gray => "gray",
            Scenario::DomainPartition => "domain_partition",
        }
    }

    fn victims(self, ids: &[NodeId]) -> Vec<NodeId> {
        match self {
            Scenario::DomainPartition => vec![ids[1], ids[2]],
            _ => vec![ids[0]],
        }
    }

    fn plan(self, ids: &[NodeId], open: f64, lasts: f64) -> FaultPlan {
        let seed = 0x0B00 + self.name().len() as u64;
        match self {
            Scenario::AsymmetricDispatch => FaultPlan::new(seed).partition(
                ids[0],
                open,
                lasts,
                PartitionDirection::DropDispatch,
            ),
            Scenario::AsymmetricHeartbeat => FaultPlan::new(seed).partition(
                ids[0],
                open,
                lasts,
                PartitionDirection::DropHeartbeats,
            ),
            Scenario::Gray => FaultPlan::new(seed).gray(ids[0], open, lasts, 3.0, 0.4),
            Scenario::DomainPartition => FaultPlan::new(seed)
                .partition(ids[1], open, lasts, PartitionDirection::DropDispatch)
                .partition(ids[2], open, lasts, PartitionDirection::DropDispatch),
        }
    }
}

struct CellOutcome {
    healthy_response: f64,
    fault_response: f64,
    post_heal_response: f64,
    detection_latency: f64,
    misrouting_rate: f64,
    failure_rate: f64,
    dropped: u64,
    retried: u64,
    readmitted: bool,
}

/// Runs one scenario through the closed loop: healthy baseline → fault
/// window → heal + tail, and digests the phases.
fn run_cell(scenario: Scenario, quick: bool) -> CellOutcome {
    let rates = [6.0, 4.0, 4.0, 4.0];
    let phi = 0.5 * rates.iter().sum::<f64>();
    let (open, lasts, tail) = if quick { (150.0, 100.0, 80.0) } else { (600.0, 300.0, 200.0) };

    let rt = Runtime::builder()
        .seed(0xAD7E)
        .scheme(SchemeKind::Coop)
        .nominal_arrival_rate(phi)
        .detector(DetectorConfig { probation_successes: 20, ..DetectorConfig::self_tuning(8) })
        .build();
    let ids: Vec<NodeId> = rates.iter().map(|&r| rt.register_node(r).unwrap()).collect();
    rt.resolve_now().unwrap();
    let victims = scenario.victims(&ids);

    let plan = scenario.plan(&ids, open, lasts);
    let retry = RetryConfig { timeout: 0.3, ..RetryConfig::default() };
    let mut driver = TraceDriver::new(phi, TraceConfig { seed: 0x7EA, batch_size: 500 })
        .with_faults(plan)
        .with_retry(RetryPolicy::new(retry).unwrap())
        .with_heartbeats(1.0);

    // Healthy baseline, then the fault window, then heal + tail; each
    // phase is measured in isolation.
    while driver.clock() < open {
        driver.run_jobs(&rt, 500).unwrap();
    }
    let healthy = driver.stats();
    assert!(healthy.is_conserved(), "{}: healthy conservation", scenario.name());

    driver.reset_measurements();
    while driver.clock() < open + lasts {
        driver.run_jobs(&rt, 500).unwrap();
    }
    let fault = driver.stats();
    assert!(fault.is_conserved(), "{}: fault-window conservation", scenario.name());

    driver.reset_measurements();
    rt.resolve_now().unwrap();
    while driver.clock() < open + lasts + tail {
        driver.run_jobs(&rt, 500).unwrap();
    }
    let healed = driver.stats();
    assert!(healed.is_conserved(), "{}: post-heal conservation", scenario.name());

    // First Down per victim, worst case across the victims — the time
    // to quarantine all of them.
    let timeline = rt.health_transitions();
    let detection_latency = victims
        .iter()
        .map(|&v| {
            timeline
                .iter()
                .find(|tr| tr.node == v && tr.to == Health::Down && tr.at >= open)
                .map_or(f64::NAN, |tr| tr.at - open)
        })
        .fold(f64::NAN, |acc, lat| if acc.is_nan() { lat } else { acc.max(lat) });
    let readmitted = victims.iter().all(|&v| rt.node_health(v) == Some(Health::Up));

    CellOutcome {
        healthy_response: healthy.mean_response,
        fault_response: fault.mean_response,
        post_heal_response: healed.mean_response,
        detection_latency,
        misrouting_rate: fault.dropped as f64 / fault.submitted as f64,
        failure_rate: fault.failure_rate(),
        dropped: fault.dropped,
        retried: fault.retried,
        readmitted,
    }
}

/// The acceptance gates of one scenario.
fn check_gates(scenario: Scenario, out: &CellOutcome) {
    let name = scenario.name();
    match scenario {
        Scenario::AsymmetricDispatch | Scenario::DomainPartition => {
            assert!(
                out.detection_latency.is_finite() && out.detection_latency < 10.0,
                "{name}: detection latency {}",
                out.detection_latency
            );
            assert!(out.dropped > 0, "{name}: no mis-routing seen");
            assert!(out.readmitted, "{name}: heal not readmitted");
        }
        Scenario::AsymmetricHeartbeat => {
            // Dispatch works: live traffic keeps proving the node
            // up, so nothing may drop and the fault-window response
            // stays at the healthy baseline.
            assert_eq!(out.dropped, 0, "{name}: dispatch direction must be clean");
            assert!(
                out.fault_response < 2.0 * out.healthy_response,
                "{name}: heartbeat-only partition wrecked the response ({} vs {})",
                out.fault_response,
                out.healthy_response
            );
        }
        Scenario::Gray => {
            assert!(
                out.detection_latency.is_finite(),
                "{name}: gray loss must demote without a crash"
            );
            assert!(out.readmitted, "{name}: gray heal not readmitted");
        }
    }
    assert!(
        out.failure_rate < 0.02,
        "{name}: retries must absorb the faults ({})",
        out.failure_rate
    );
}

/// Runs every scenario in report order (short horizons when `quick`)
/// and checks its gates.
fn sweep(quick: bool) -> Vec<(Scenario, CellOutcome)> {
    [
        Scenario::AsymmetricDispatch,
        Scenario::AsymmetricHeartbeat,
        Scenario::Gray,
        Scenario::DomainPartition,
    ]
    .into_iter()
    .map(|scenario| {
        let out = run_cell(scenario, quick);
        check_gates(scenario, &out);
        (scenario, out)
    })
    .collect()
}

/// The report rows of a sweep, in scenario order; each scenario's gates
/// hold or this panics.
pub fn report_rows(quick: bool) -> Vec<Row> {
    sweep(quick).iter().map(|(scenario, out)| row(*scenario, out)).collect()
}

fn row(scenario: Scenario, out: &CellOutcome) -> Row {
    Row {
        scenario: scenario.name().to_string(),
        fields: vec![
            ("healthy_response", num(out.healthy_response)),
            ("fault_response", num(out.fault_response)),
            ("post_heal_response", num(out.post_heal_response)),
            ("detection_latency", num(out.detection_latency)),
            ("misrouting_rate", num(out.misrouting_rate)),
            ("failure_rate", num(out.failure_rate)),
            ("dropped", out.dropped.to_string()),
            ("retried", out.retried.to_string()),
            ("readmitted", out.readmitted.to_string()),
        ],
    }
}

fn main() {
    let quick = criterion::quick_mode();
    println!("adversarial sweep — 4 nodes, ρ = 0.5, self-tuning detector");
    println!(
        "{:>22}  {:>9} {:>9} {:>9}  {:>9} {:>10} {:>9}",
        "scenario", "T_healthy", "T_fault", "T_healed", "latency", "misroute", "readmit"
    );
    let cells = sweep(quick);
    for (scenario, out) in &cells {
        println!(
            "{:>22}  {:>9.4} {:>9.4} {:>9.4}  {:>9} {:>10.5} {:>9}",
            scenario.name(),
            out.healthy_response,
            out.fault_response,
            out.post_heal_response,
            if out.detection_latency.is_finite() {
                format!("{:.2}s", out.detection_latency)
            } else {
                "—".to_string()
            },
            out.misrouting_rate,
            out.readmitted
        );
    }

    if let Ok(path) = std::env::var("GTLB_BENCH_JSON") {
        if !path.is_empty() {
            let body: Vec<String> = cells
                .iter()
                .map(|(scenario, out)| format!("  {}", row(*scenario, out).json()))
                .collect();
            let report = format!(
                "{{\n\"meta\": {},\n\"results\": [\n{}\n]\n}}\n",
                criterion::meta_json(),
                body.join(",\n")
            );
            std::fs::write(&path, report).expect("write GTLB_BENCH_JSON");
            println!("\nwrote {} result rows to {path}", body.len());
        }
    }
}
