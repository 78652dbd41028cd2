//! Zero-dependency observability for the randsync workspace.
//!
//! The build environment is offline, so this crate fills the role
//! `metrics`/`tracing`/`serde_json` would normally play, with three
//! pillars (DESIGN.md §12):
//!
//! - [`metrics`] — a process-global [`metrics::MetricsRegistry`] of
//!   lock-free counters, gauges, and power-of-two histograms. Hot
//!   paths guard on [`metrics::metrics_enabled`] (one relaxed atomic
//!   load) so instrumentation costs nothing when off.
//! - [`trace`] — structured events and spans through a pluggable
//!   [`trace::TraceSink`]: a JSONL file writer for post-mortem
//!   analysis and a bounded ring buffer for always-on capture.
//! - [`flight`] — the flight recorder artifact
//!   [`flight::ExecutionTrace`]: the full schedule + coin stream of
//!   one execution as JSONL, which `randsync replay` re-executes
//!   deterministically.
//!
//! [`json`] is the shared hand-rolled JSON value/parser/writer that
//! keeps all of the above dependency-free. This crate is a leaf: it
//! depends on nothing in the workspace, so every other crate may
//! depend on it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod spantree;
pub mod trace;

/// Serializes this crate's unit tests that install or emit into the
/// process-global trace sink. The tests of one binary run on parallel
/// threads, so the lock must be one for the whole crate: a lock per
/// module would let a `trace` test write into a sink a `spantree` test
/// had just installed.
#[cfg(test)]
pub(crate) fn trace_sink_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use flight::{ExecutionTrace, TraceError, TRACE_SCHEMA_VERSION};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{
    global as global_metrics, metrics_enabled, quantile_from_buckets, set_metrics_enabled,
    Counter, Gauge, Histogram, MetricValue, MetricsRegistry, Snapshot,
};
pub use spantree::{merge as merge_spans, SpanForest, SpanRec, TraceTree};
pub use trace::{
    clear_trace_sink, current_context, emit, flush_trace_sink, fresh_id, install_trace_sink,
    now_micros,
    push_context, span, tracing_active, wall_micros, ContextGuard, FanoutSink, Field, JsonlSink,
    RingSink, Span, TraceContext, TraceSink,
};
