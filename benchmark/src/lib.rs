//! `gtlb-ledger`: the end-to-end benchmark of the gtlb dispatch runtime
//! and its control plane, with a per-layer cost ledger.
//!
//! Three single-threaded, in-process workloads run against the public
//! API of `gtlb-runtime` and `gtlb-net`:
//!
//! * `farm` — the paper's Table 3.1 cluster under `TraceDriver`;
//! * `chaos` — the same shape ×16 with faults, retries, heartbeats and
//!   admission;
//! * `control` — 2048 node agents heartbeating and reporting metrics
//!   through the HTTP parser, router and writer.
//!
//! An untraced run prints the end-to-end metrics; a traced run replays
//! the same work with a span around every layer call and prints the
//! per-layer ledger. See `README.md` beside this crate.

pub mod control;
pub mod endpoint;
pub mod jobs;
pub mod ledger;
pub mod run;
pub mod stats;
