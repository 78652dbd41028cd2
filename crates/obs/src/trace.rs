//! Structured tracing: timestamped events and spans fanned out to a
//! pluggable [`TraceSink`].
//!
//! Emission is guarded the same way as metrics: [`tracing_active`] is
//! one relaxed atomic load, so call sites can skip field construction
//! entirely when no sink is installed. Timestamps are microseconds
//! since a process-wide monotonic base (`Instant`), never wall-clock,
//! so traces are immune to clock steps and cheap to subtract.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime};

use crate::json::{write_escaped, Json};

/// One typed field value attached to an event.
#[derive(Clone, PartialEq, Debug)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Field {
    fn to_json(&self) -> Json {
        match self {
            Field::U64(v) => Json::Int(i128::from(*v)),
            Field::I64(v) => Json::Int(i128::from(*v)),
            Field::F64(v) => Json::Float(*v),
            Field::Str(v) => Json::Str(v.clone()),
            Field::Bool(v) => Json::Bool(*v),
        }
    }
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

/// Microseconds elapsed since the process-wide monotonic base.
pub fn now_micros() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    Instant::now().duration_since(base).as_micros() as u64
}

/// Wall-clock microseconds since the Unix epoch — *informational
/// only*. Durations and orderings must come from the monotonic
/// [`now_micros`] / `Instant`; this exists so humans can line traces
/// up with external logs despite NTP steps.
pub fn wall_micros() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// SplitMix64 finalizer: the id generator's mixing function.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh nonzero trace/span id: SplitMix64 over the process id and
/// a process-global counter. No wall-clock input, so id generation is
/// immune to clock steps; distinct processes diverge through the pid.
pub fn fresh_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(splitmix64(u64::from(std::process::id())) ^ n);
    if id == 0 {
        1
    } else {
        id
    }
}

/// The causal identity a span-producing computation carries: which
/// trace it belongs to, which span is currently open, and that span's
/// parent. Propagated across threads and processes explicitly (wire
/// frames carry `trace`/`span`); within a thread it lives in a
/// thread-local that [`emit`] consults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceContext {
    /// Identifies the whole causal tree; constant across processes.
    pub trace_id: u64,
    /// The currently open span (0 = none yet: the next span opened
    /// under this context becomes a root of the tree).
    pub span_id: u64,
    /// The open span's parent (0 = root / unknown).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Start a brand-new trace. No span is open yet — the first span
    /// opened under this context becomes a root of the causal tree.
    pub fn root() -> Self {
        Self { trace_id: fresh_id(), span_id: 0, parent_span_id: 0 }
    }

    /// A child context: same trace, fresh span id, parented on the
    /// current span.
    pub fn child(&self) -> Self {
        Self { trace_id: self.trace_id, span_id: fresh_id(), parent_span_id: self.span_id }
    }

    /// Rehydrate a context received over the wire: the caller's trace
    /// id and open span id. The parent is unknown on this side (it
    /// lives in the caller's process), hence 0.
    pub fn remote(trace_id: u64, span_id: u64) -> Self {
        Self { trace_id, span_id, parent_span_id: 0 }
    }
}

thread_local! {
    static CURRENT_CONTEXT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The calling thread's current trace context, if any.
pub fn current_context() -> Option<TraceContext> {
    CURRENT_CONTEXT.with(Cell::get)
}

/// Install `ctx` as the calling thread's current context; the guard
/// restores the previous context when dropped (drop it on the same
/// thread).
#[must_use = "dropping the guard immediately restores the previous context"]
pub fn push_context(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT_CONTEXT.with(|c| c.replace(Some(ctx)));
    ContextGuard { prev }
}

/// RAII restorer returned by [`push_context`].
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT_CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Receives trace events. Implementations must tolerate concurrent
/// calls from many threads.
pub trait TraceSink: Send + Sync {
    /// Handle one event: a name, a timestamp from [`now_micros`], and
    /// typed fields.
    fn event(&self, name: &str, timestamp_micros: u64, fields: &[(&str, Field)]);

    /// Flush any buffering (default: nothing).
    fn flush(&self) {}
}

static TRACING_ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static Mutex<Option<Arc<dyn TraceSink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Whether a sink is installed (one relaxed load — guard on this
/// before building fields).
#[inline]
pub fn tracing_active() -> bool {
    TRACING_ACTIVE.load(Ordering::Relaxed)
}

/// Install `sink` as the process-wide trace sink, replacing any
/// previous one (the previous sink is flushed first).
pub fn install_trace_sink(sink: Arc<dyn TraceSink>) {
    let mut slot = sink_slot().lock().expect("trace sink slot poisoned");
    if let Some(old) = slot.take() {
        old.flush();
    }
    *slot = Some(sink);
    TRACING_ACTIVE.store(true, Ordering::Relaxed);
}

/// Flush the installed sink, if any, without removing it. For
/// long-lived processes whose sink buffers to a file: the global slot
/// is never dropped, so nothing flushes it implicitly at exit.
pub fn flush_trace_sink() {
    let slot = sink_slot().lock().expect("trace sink slot poisoned");
    if let Some(sink) = &*slot {
        sink.flush();
    }
}

/// Remove and flush the installed sink, if any, and return it.
pub fn clear_trace_sink() -> Option<Arc<dyn TraceSink>> {
    let mut slot = sink_slot().lock().expect("trace sink slot poisoned");
    TRACING_ACTIVE.store(false, Ordering::Relaxed);
    let old = slot.take();
    if let Some(sink) = &old {
        sink.flush();
    }
    old
}

/// Emit one event to the installed sink (no-op when none is
/// installed). When the calling thread has a current [`TraceContext`],
/// `trace`/`span` (and `parent`, when known) id fields are appended so
/// sinks and the span-tree merger can stitch events causally.
pub fn emit(name: &str, fields: &[(&str, Field)]) {
    if !tracing_active() {
        return;
    }
    let sink = sink_slot().lock().expect("trace sink slot poisoned").clone();
    let Some(sink) = sink else { return };
    match current_context() {
        Some(ctx) => {
            let mut all: Vec<(&str, Field)> = Vec::with_capacity(fields.len() + 3);
            all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
            all.push(("trace", Field::U64(ctx.trace_id)));
            if ctx.span_id != 0 {
                all.push(("span", Field::U64(ctx.span_id)));
            }
            if ctx.parent_span_id != 0 {
                all.push(("parent", Field::U64(ctx.parent_span_id)));
            }
            sink.event(name, now_micros(), &all);
        }
        None => sink.event(name, now_micros(), fields),
    }
}

/// RAII span: emits `<name>.start` on creation and `<name>.end` (with
/// an `elapsed_micros` field appended) on drop.
///
/// If the creating thread has a current [`TraceContext`], the span
/// derives a child context (fresh span id, parented on the enclosing
/// span), installs it for its lifetime, and restores the previous
/// context on drop — so nested spans and plain [`emit`]s stitch into a
/// tree without any explicit threading of ids. Create and drop a span
/// on the same thread.
///
/// Timestamps (`ts`) and `elapsed_micros` come from the monotonic
/// clock; the `.start` event additionally carries an informational
/// [`wall_micros`] `wall` field for lining up with external logs.
#[derive(Debug)]
pub struct Span {
    name: String,
    started: Instant,
    fields: Vec<(String, Field)>,
    prev_ctx: Option<TraceContext>,
    installed_ctx: bool,
}

/// Open a span. Cheap when tracing is inactive (fields are still
/// cloned; guard on [`tracing_active`] in hot loops).
pub fn span(name: &str, fields: &[(&str, Field)]) -> Span {
    let prev_ctx = current_context();
    let installed_ctx = prev_ctx.is_some();
    if let Some(parent) = prev_ctx {
        CURRENT_CONTEXT.with(|c| c.set(Some(parent.child())));
    }
    let span = Span {
        name: name.to_string(),
        started: Instant::now(),
        fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        prev_ctx,
        installed_ctx,
    };
    if tracing_active() {
        let mut start_fields: Vec<(&str, Field)> = Vec::with_capacity(fields.len() + 1);
        start_fields.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        start_fields.push(("wall", Field::U64(wall_micros())));
        emit(&format!("{name}.start"), &start_fields);
    }
    span
}

impl Drop for Span {
    fn drop(&mut self) {
        if tracing_active() {
            let elapsed = self.started.elapsed().as_micros() as u64;
            let mut fields: Vec<(&str, Field)> =
                self.fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            fields.push(("elapsed_micros", Field::U64(elapsed)));
            emit(&format!("{}.end", self.name), &fields);
        }
        if self.installed_ctx {
            CURRENT_CONTEXT.with(|c| c.set(self.prev_ctx));
        }
    }
}

/// Render one event as a single-line JSON object:
/// `{"ts":<micros>,"event":<name>,<field>...}`.
pub fn render_event_json(name: &str, timestamp_micros: u64, fields: &[(&str, Field)]) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"ts\":");
    let _ = fmt::Write::write_fmt(&mut out, format_args!("{timestamp_micros}"));
    out.push_str(",\"event\":");
    write_escaped(name, &mut out);
    for (key, value) in fields {
        out.push(',');
        write_escaped(key, &mut out);
        out.push(':');
        out.push_str(&value.to_json().render());
    }
    out.push('}');
    out
}

/// A sink that appends one JSON object per line to a file.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) `path` and return a sink writing to it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self { writer: Mutex::new(BufWriter::new(File::create(path)?)) })
    }
}

impl TraceSink for JsonlSink {
    fn event(&self, name: &str, timestamp_micros: u64, fields: &[(&str, Field)]) {
        let line = render_event_json(name, timestamp_micros, fields);
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// A bounded in-memory sink keeping the most recent `capacity` rendered
/// event lines — always-on capture with O(capacity) memory.
#[derive(Debug)]
pub struct RingSink {
    lines: Mutex<VecDeque<String>>,
    capacity: usize,
}

impl RingSink {
    /// A ring buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self { lines: Mutex::new(VecDeque::new()), capacity: capacity.max(1) }
    }

    /// The buffered event lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("ring sink poisoned").iter().cloned().collect()
    }
}

impl TraceSink for RingSink {
    fn event(&self, name: &str, timestamp_micros: u64, fields: &[(&str, Field)]) {
        let line = render_event_json(name, timestamp_micros, fields);
        let mut lines = self.lines.lock().expect("ring sink poisoned");
        if lines.len() == self.capacity {
            lines.pop_front();
        }
        lines.push_back(line);
    }
}

/// Replicates every event to several sinks. The global sink slot holds
/// exactly one sink, so a process that needs both (say) the svc
/// progress router *and* a JSONL file installs a fanout over them.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutSink").field("sinks", &self.sinks.len()).finish()
    }
}

impl FanoutSink {
    /// A sink fanning out to `sinks` in order.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn event(&self, name: &str, timestamp_micros: u64, fields: &[(&str, Field)]) {
        for sink in &self.sinks {
            sink.event(name, timestamp_micros, fields);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink slot is process-global; tests that install one are
    // serialized behind the crate-wide lock so they do not observe
    // each other (nor the `spantree` tests).
    use crate::trace_sink_test_lock as test_guard;

    #[test]
    fn event_renders_as_one_json_line() {
        let line = render_event_json(
            "explore.level",
            42,
            &[
                ("depth", Field::U64(3)),
                ("frontier", Field::U64(128)),
                ("note", Field::Str("a\"b".to_string())),
                ("done", Field::Bool(false)),
            ],
        );
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).expect("event line parses");
        assert_eq!(v.get("ts").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("event").and_then(Json::as_str), Some("explore.level"));
        assert_eq!(v.get("depth").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("note").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let _g = test_guard();
        let ring = Arc::new(RingSink::new(2));
        install_trace_sink(ring.clone());
        assert!(tracing_active());
        emit("one", &[]);
        emit("two", &[]);
        emit("three", &[("k", Field::U64(9))]);
        clear_trace_sink();
        assert!(!tracing_active());
        let lines = ring.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"two\""), "{lines:?}");
        assert!(lines[1].contains("\"three\""), "{lines:?}");
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        let _g = test_guard();
        clear_trace_sink();
        emit("ignored", &[("x", Field::U64(1))]);
    }

    #[test]
    fn spans_emit_start_and_end_with_elapsed() {
        let _g = test_guard();
        let ring = Arc::new(RingSink::new(8));
        install_trace_sink(ring.clone());
        {
            let _span = span("phase", &[("depth", Field::U64(1))]);
            emit("inner", &[]);
        }
        clear_trace_sink();
        let lines = ring.lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("phase.start"));
        assert!(lines[1].contains("\"inner\""));
        assert!(lines[2].contains("phase.end"));
        assert!(lines[2].contains("elapsed_micros"));
        let end = crate::json::parse(&lines[2]).unwrap();
        assert_eq!(end.get("depth").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let _g = test_guard();
        let path = std::env::temp_dir().join("randsync_obs_trace_test.jsonl");
        let sink = Arc::new(JsonlSink::create(&path).expect("create sink"));
        install_trace_sink(sink);
        emit("a", &[("n", Field::U64(1))]);
        emit("b", &[("f", Field::F64(0.5))]);
        clear_trace_sink();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::parse(line).expect("line parses");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
    }

    #[test]
    fn fresh_ids_are_nonzero_and_distinct() {
        let a = fresh_id();
        let b = fresh_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn context_guard_nests_and_restores() {
        assert_eq!(current_context(), None);
        let root = TraceContext::root();
        assert_eq!(root.span_id, 0, "no span open yet on a fresh trace");
        {
            let _g = push_context(root);
            assert_eq!(current_context(), Some(root));
            let child = root.child();
            assert_eq!(child.trace_id, root.trace_id);
            assert_eq!(child.parent_span_id, 0, "first span under a root context is a root");
            assert_ne!(child.span_id, 0);
            {
                let _g2 = push_context(child);
                assert_eq!(current_context(), Some(child));
            }
            assert_eq!(current_context(), Some(root));
        }
        assert_eq!(current_context(), None);
    }

    #[test]
    fn spans_inside_a_context_stitch_into_a_tree() {
        let _g = test_guard();
        let ring = Arc::new(RingSink::new(16));
        install_trace_sink(ring.clone());
        let root = TraceContext::root();
        {
            let _ctx = push_context(root);
            let _outer = span("outer", &[]);
            let outer_ctx = current_context().expect("outer span installed a context");
            assert_eq!(outer_ctx.trace_id, root.trace_id);
            assert_eq!(outer_ctx.parent_span_id, 0, "outer is a tree root");
            {
                let _inner = span("inner", &[]);
                emit("leaf", &[]);
            }
        }
        clear_trace_sink();
        let lines = ring.lines();
        assert_eq!(lines.len(), 5, "{lines:?}");
        let parsed: Vec<Json> =
            lines.iter().map(|l| crate::json::parse(l).expect("parses")).collect();
        // Every event belongs to the same trace.
        for v in &parsed {
            assert_eq!(v.get("trace").and_then(Json::as_u64), Some(root.trace_id));
        }
        let outer_span = parsed[0].get("span").and_then(Json::as_u64).expect("outer span id");
        assert!(parsed[0].get("parent").is_none(), "outer is a tree root");
        // inner.start is parented on outer; the leaf emit carries
        // inner's span id; inner.end matches inner.start.
        let inner_span = parsed[1].get("span").and_then(Json::as_u64).expect("inner span id");
        assert_eq!(parsed[1].get("parent").and_then(Json::as_u64), Some(outer_span));
        assert_eq!(parsed[2].get("span").and_then(Json::as_u64), Some(inner_span));
        assert_eq!(parsed[3].get("span").and_then(Json::as_u64), Some(inner_span));
        assert_eq!(parsed[4].get("span").and_then(Json::as_u64), Some(outer_span));
        // Start events carry the informational wall-clock field.
        assert!(parsed[0].get("wall").is_some());
        assert!(parsed[4].get("wall").is_none(), "end events carry no wall field");
    }

    #[test]
    fn spans_without_a_context_carry_no_ids() {
        let _g = test_guard();
        let ring = Arc::new(RingSink::new(4));
        install_trace_sink(ring.clone());
        {
            let _span = span("plain", &[]);
        }
        clear_trace_sink();
        for line in ring.lines() {
            let v = crate::json::parse(&line).unwrap();
            assert!(v.get("trace").is_none(), "{line}");
            assert!(v.get("span").is_none(), "{line}");
        }
    }

    #[test]
    fn fanout_replicates_to_all_sinks() {
        let _g = test_guard();
        let a = Arc::new(RingSink::new(4));
        let b = Arc::new(RingSink::new(4));
        install_trace_sink(Arc::new(FanoutSink::new(vec![a.clone(), b.clone()])));
        emit("both", &[("k", Field::U64(1))]);
        clear_trace_sink();
        assert_eq!(a.lines().len(), 1);
        assert_eq!(a.lines(), b.lines());
    }
}
