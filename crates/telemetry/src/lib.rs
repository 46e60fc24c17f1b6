//! Dependency-free observability core for the gtlb runtime.
//!
//! The crate provides four building blocks, all safe Rust over `std`
//! atomics with no external dependencies:
//!
//! * [`Counter`] — a metric cell of one relaxed atomic: an add is
//!   one `fetch_add`.
//! * [`Histogram`] — a log-linear HDR-style latency histogram with a
//!   fixed bucket layout (16 sub-buckets per power of two across
//!   2⁻³² … 2³², ~6.25 % relative error). Snapshots answer
//!   p50/p90/p99/max queries; a single owner can also record into a
//!   plain snapshot and add it in with [`Histogram::absorb`].
//! * [`Snapshot`] — an immutable scrape built from values its caller
//!   has already read (counters, gauges, histogram snapshots and
//!   [`FamilySnapshot`]s, the labelled gauge families: one cell per
//!   integer label value, a node id say), rendered as Prometheus text or
//!   JSON exposition. Every exposition writer in the workspace prints
//!   its numbers through [`Number`] and its strings through
//!   [`json_escape_into`].
//! * [`trace`] — deterministic per-job tracing: [`Trace`]s of
//!   causally-ordered [`Span`]s with hash-derived [`TraceId`]s and a
//!   bounded, drop-oldest [`FlightRecorder`], plus Chrome `trace_event`
//!   export. Identity and sampling are pure functions of the seed and
//!   job sequence, so tracing draws no randomness and no clock.
//!
//! The crate is deliberately free of clocks and randomness: every
//! timestamp is supplied by the caller (the runtime stamps spans with
//! its deterministic virtual clock) and no code path draws from any
//! RNG, so instrumenting a deterministic simulation cannot perturb it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod escape;
mod histogram;
mod metrics;
mod registry;
pub mod trace;

pub use escape::{json_escape, json_escape_into, Number};
pub use histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot,
    BUCKET_COUNT, MAX_TRACKED, MIN_TRACKED, OVERFLOW_BUCKET, SUB_BUCKET_BITS, UNDERFLOW_BUCKET,
};
pub use metrics::Counter;
pub use registry::{FamilySnapshot, Snapshot};
pub use trace::{
    to_chrome_json, trace_id, AttemptOutcome, FlightRecorder, Span, SpanKind, Trace, TraceId,
    TracingConfig,
};
