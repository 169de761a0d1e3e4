//! Dependency-free observability primitives for the stochsynth workspace.
//!
//! The service promises byte-identical result bodies for a fixed request —
//! across thread counts, cluster shapes and retry patterns — so its
//! telemetry has to be strictly *read-only* with respect to results: no
//! RNG draws, no reordering of merges, no bytes appended to cached bodies.
//! This crate provides the four primitives the stack instruments itself
//! with under that constraint:
//!
//! * [`log`] — structured JSON-lines logging behind a global [`Logger`]
//!   with per-target level filtering and writer injection for tests;
//! * [`hist`] — lock-free log₂-bucketed latency [`Histogram`]s with
//!   mergeable snapshots and quantile estimates (p50/p90/p99/max);
//! * [`metrics`] — a typed [`MetricsRegistry`] of named counters, gauges
//!   and histograms with a deterministic Prometheus-style text exposition;
//! * [`trace`] — bounded in-memory trace-span recording ([`TraceSink`],
//!   spans opened as scoped [`SpanGuard`]s)
//!   with **deterministic span ids** (FNV-1a over trace id + span name +
//!   index, never the RNG) and the `X-Stochsynth-Trace` header codec
//!   ([`TraceContext`]) that carries a span tree coordinator → worker.
//!
//! Everything here is plain `std`: the workspace builds without crates.io
//! access, and observability must not drag dependencies into the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod log;
pub mod metrics;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use log::{logger, Level, Logger, Value};
pub use metrics::{Counter, Gauge, MetricsRegistry};
pub use trace::{span_id, Span, SpanGuard, TraceContext, TraceSink};
