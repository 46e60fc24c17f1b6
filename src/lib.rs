//! # gtlb — Game-Theoretic Load Balancing
//!
//! A production-grade Rust implementation of *"Load Balancing in
//! Distributed Systems: An Approach Using Cooperative Games"* (Grosu,
//! Chronopoulos, Leung — IPPS 2002) and the surrounding dissertation
//! systems: the Nash-Bargaining (COOP) allocator, the classical baselines
//! (OPTIM, PROP, WARDROP), the noncooperative multi-user Nash game, two
//! truthful mechanisms for selfish computers, and the discrete-event
//! simulation substrate used to evaluate all of them.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`balancing`] — models, the COOP/OPTIM/PROP/WARDROP schemes, and the
//!   noncooperative game (crate `gtlb-core`);
//! * [`queueing`] — M/M/1 / M/G/1 formulas and renewal distributions;
//! * [`desim`] — the deterministic discrete-event simulation engine;
//! * [`mechanism`] — the truthful mechanisms of Chapters 5–6;
//! * [`dynamic`] — the survey chapter's dynamic policies
//!   (sender-/receiver-initiated, JSQ) on the simulation engine;
//! * [`sim`] — paper scenarios and the analytic/DES experiment pipelines;
//! * [`numerics`] — the numerical kernels;
//! * [`runtime`] — the online dispatch runtime: node registry, rate
//!   estimators, background re-solver, and an epoch-swapped routing table
//!   serving live job streams from the allocators above, dispatched
//!   through the paper's central dispatcher behind admission control,
//!   with deterministic fault injection, an accrual
//!   failure detector, and retry/timeout dispatch hardening the loop
//!   against node churn;
//! * [`telemetry`] — lock-free counters, log-linear latency
//!   histograms, a bounded structured event ring and the scrape
//!   snapshot; the runtime records into them behind an
//!   observation-only facade that consumes no RNG and never perturbs a
//!   deterministic trace;
//! * [`net`] — the networked control plane: a dependency-free blocking
//!   HTTP/1.1 listener through which external node agents register,
//!   heartbeat, and report metrics into the runtime's detector and
//!   service-time windows, and operators scrape `/metrics` and `/nodes`.
//!
//! ## Quickstart
//!
//! ```
//! use gtlb::prelude::*;
//!
//! // A heterogeneous cluster: two fast computers and four slow ones.
//! let cluster = Cluster::from_groups(&[(2, 10.0), (4, 1.0)]).unwrap();
//! let phi = cluster.arrival_rate_for_utilization(0.6); // 60% busy
//!
//! // The paper's contribution: the Nash Bargaining Solution.
//! let nbs = Coop.allocate(&cluster, phi).unwrap();
//! assert!((nbs.fairness_index(&cluster) - 1.0).abs() < 1e-9); // Thm 3.8
//!
//! // The social optimum is a bit faster on average, but unfair:
//! let opt = Optim.allocate(&cluster, phi).unwrap();
//! assert!(opt.mean_response_time(&cluster) <= nbs.mean_response_time(&cluster));
//! assert!(opt.fairness_index(&cluster) <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gtlb_core as balancing;
pub use gtlb_desim as desim;
pub use gtlb_dynamic as dynamic;
pub use gtlb_mechanism as mechanism;
pub use gtlb_net as net;
pub use gtlb_numerics as numerics;
pub use gtlb_queueing as queueing;
pub use gtlb_runtime as runtime;
pub use gtlb_sim as sim;
pub use gtlb_telemetry as telemetry;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use gtlb_core::allocation::{jain_index, Allocation};
    pub use gtlb_core::model::Cluster;
    pub use gtlb_core::noncoop::{
        GlobalOptimalScheme, IndividualOptimalScheme, MultiUserScheme, NashInit, NashOptions,
        NashScheme, ProportionalScheme, StrategyProfile, UserSystem,
    };
    pub use gtlb_core::schemes::{Coop, Optim, Prop, SingleClassScheme, Wardrop};
    pub use gtlb_core::CoreError;
    pub use gtlb_mechanism::payment::TruthfulMechanism;
    pub use gtlb_mechanism::verification::VerifiedMechanism;
    pub use gtlb_queueing::Mm1;
    pub use gtlb_runtime::{
        AdmissionConfig, AdmissionStats, AdmissionVerdict, AttemptOutcome, DetectorConfig,
        Dispatcher, FaultPlan, Health, HealthTransition, NodeId, PartitionDirection, RetryConfig,
        RetryPolicy, Runtime, RuntimeBuilder, RuntimeError, RuntimeEvent, SchemeKind, SpanKind,
        Submission, Telemetry, Trace, TraceConfig, TraceDriver, TraceId, Tracer, TracingConfig,
    };
    pub use gtlb_telemetry::{Histogram, HistogramSnapshot, Snapshot, TaggedEvent};
}
