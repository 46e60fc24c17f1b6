//! Dependency-free observability core for the gtlb runtime.
//!
//! The crate provides five building blocks, all safe Rust over `std`
//! atomics with no external dependencies:
//!
//! * [`Counter`] / [`Gauge`] — metric cells of one relaxed atomic
//!   each: a write is one `fetch_add` or one store.
//! * [`Histogram`] — a log-linear HDR-style latency histogram with a
//!   fixed bucket layout (16 sub-buckets per power of two across
//!   2⁻³² … 2³², ~6.25 % relative error). Snapshots answer
//!   p50/p90/p99/max queries; a single owner can also record into a
//!   plain snapshot and add it in with [`Histogram::absorb`].
//! * [`EventRing`] — a bounded, structured, drop-oldest event buffer
//!   with an exact dropped counter, for recording discrete happenings (routing decisions, health
//!   transitions, faults) tagged with virtual time and provenance.
//! * [`Registry`] + [`Snapshot`] — a scrape surface that reads every
//!   registered instrument into an immutable snapshot and renders
//!   Prometheus text or JSON exposition.
//!   A [`GaugeFamily`] is the labelled member of that set: one gauge
//!   cell per integer label value (a node id), rewritten whole at
//!   scrape time and rendered as one metric with one sample per cell.
//! * [`trace`] — deterministic per-job tracing: [`Trace`]s of
//!   causally-ordered [`Span`]s with hash-derived [`TraceId`]s and a
//!   bounded [`FlightRecorder`] ring, plus Chrome `trace_event`
//!   export. Identity and sampling are pure functions of the seed and
//!   job sequence, so tracing draws no randomness and no clock.
//!
//! The crate is deliberately free of clocks and randomness: every
//! timestamp is supplied by the caller (the runtime tags events with
//! its deterministic virtual clock) and no code path draws from any
//! RNG, so instrumenting a deterministic simulation cannot perturb it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod escape;
mod histogram;
mod metrics;
mod registry;
mod ring;
pub mod trace;

pub use escape::{json_escape, json_escape_into};
pub use histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot,
    BUCKET_COUNT, MAX_TRACKED, MIN_TRACKED, OVERFLOW_BUCKET, SUB_BUCKET_BITS, UNDERFLOW_BUCKET,
};
pub use metrics::{Counter, Gauge};
pub use registry::{FamilySnapshot, GaugeFamily, Registry, Snapshot};
pub use ring::{EventRing, TaggedEvent};
pub use trace::{
    to_chrome_json, trace_id, AttemptOutcome, FlightRecorder, Span, SpanKind, Trace, TraceId,
    TracingConfig,
};
