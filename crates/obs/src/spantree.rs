//! Merging per-process JSONL trace sinks into causal span trees.
//!
//! Each process in a distributed run writes its own [`crate::trace::JsonlSink`]
//! file; span events carry `trace`/`span`/`parent` ids from the
//! propagated [`crate::trace::TraceContext`], so the union of files
//! contains one causal tree per trace id. [`merge`] stitches them:
//! `X.start`/`X.end` pairs (matched by span id) become [`SpanRec`]s,
//! plain emits attach to their enclosing span as event counts, and
//! spans whose parent id appears in *no* input are flagged as orphans
//! (an unstitchable tree — usually a missing file).
//!
//! Timestamps are per-process monotonic micros and are **never
//! compared across processes**; durations come from each span's own
//! `elapsed_micros`, and sibling ordering falls back to source order
//! when siblings come from different processes. The critical path of
//! a root is the chain found by descending into the longest-elapsed
//! child at every step.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::Json;

/// One reconstructed span: a matched `.start`/`.end` pair (or an
/// unfinished `.start` when the process died before closing it).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// The span's own id.
    pub span_id: u64,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name with the `.start`/`.end` suffix stripped.
    pub name: String,
    /// Monotonic start timestamp — meaningful only within `source`.
    pub start_ts: u64,
    /// Informational wall-clock micros from the `.start` event.
    pub wall: u64,
    /// Duration from the `.end` event; `None` if no end was seen.
    pub elapsed_micros: Option<u64>,
    /// Rendered payload fields from the `.start` event (ids and
    /// timestamps excluded).
    pub fields: Vec<(String, String)>,
    /// Index into [`SpanForest::labels`]: which input file held it.
    pub source: usize,
    /// Plain (non-span) emits that carried this span's id.
    pub events: u64,
    /// Child span ids, in input order.
    pub children: Vec<u64>,
}

/// All spans of one trace id, linked into a tree.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The shared trace id.
    pub trace_id: u64,
    /// Spans with no known parent in this trace (parent id 0).
    pub roots: Vec<u64>,
    /// Spans whose parent id was *not* found in any input — the tree
    /// is unstitchable (a contributing process's file is missing).
    pub orphans: Vec<u64>,
    /// Every span, keyed by span id.
    pub spans: BTreeMap<u64, SpanRec>,
    /// Which input files contributed spans to this trace.
    pub processes: BTreeSet<usize>,
}

impl TraceTree {
    /// Total plain events attached to this trace's spans.
    pub fn event_count(&self) -> u64 {
        self.spans.values().map(|s| s.events).sum()
    }
}

/// The merged result: one [`TraceTree`] per trace id seen.
#[derive(Clone, Debug)]
pub struct SpanForest {
    /// One label per input, in the order given to [`merge`].
    pub labels: Vec<String>,
    /// Trees sorted by trace id.
    pub traces: Vec<TraceTree>,
    /// Input lines that were not parseable JSON objects.
    pub skipped_lines: usize,
}

/// Metadata keys that are structure, not payload.
const RESERVED: [&str; 7] = ["ts", "event", "trace", "span", "parent", "wall", "elapsed_micros"];

fn render_field(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.render(),
    }
}

/// Merge `(label, jsonl-content)` inputs into span trees.
pub fn merge(inputs: &[(String, String)]) -> SpanForest {
    struct Pending {
        rec: SpanRec,
        seen_start: bool,
    }
    let mut spans: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut plain_events: BTreeMap<u64, u64> = BTreeMap::new();
    let mut skipped = 0usize;

    for (source, (_, content)) in inputs.iter().enumerate() {
        for line in content.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(v) = crate::json::parse(line) else {
                skipped += 1;
                continue;
            };
            let Some(event) = v.get("event").and_then(Json::as_str) else {
                skipped += 1;
                continue;
            };
            let (Some(trace_id), Some(span_id)) = (
                v.get("trace").and_then(Json::as_u64),
                v.get("span").and_then(Json::as_u64),
            ) else {
                continue; // contextless event: not part of any tree
            };
            if let Some(name) = event.strip_suffix(".start") {
                let entry = spans.entry(span_id).or_insert_with(|| {
                    order.push(span_id);
                    Pending {
                        rec: SpanRec {
                            span_id,
                            trace_id,
                            parent: 0,
                            name: String::new(),
                            start_ts: 0,
                            wall: 0,
                            elapsed_micros: None,
                            fields: Vec::new(),
                            source,
                            events: 0,
                            children: Vec::new(),
                        },
                        seen_start: false,
                    }
                });
                if entry.seen_start {
                    continue; // duplicate id: keep the first start
                }
                entry.seen_start = true;
                entry.rec.name = name.to_string();
                entry.rec.trace_id = trace_id;
                entry.rec.parent = v.get("parent").and_then(Json::as_u64).unwrap_or(0);
                entry.rec.start_ts = v.get("ts").and_then(Json::as_u64).unwrap_or(0);
                entry.rec.wall = v.get("wall").and_then(Json::as_u64).unwrap_or(0);
                entry.rec.source = source;
                if let Json::Obj(fields) = &v {
                    for (k, fv) in fields {
                        if !RESERVED.contains(&k.as_str()) {
                            entry.rec.fields.push((k.clone(), render_field(fv)));
                        }
                    }
                }
            } else if event.strip_suffix(".end").is_some() {
                if let Some(entry) = spans.get_mut(&span_id) {
                    if entry.rec.elapsed_micros.is_none() {
                        entry.rec.elapsed_micros = v.get("elapsed_micros").and_then(Json::as_u64);
                    }
                }
                // An .end whose .start lives in an unread file is
                // indistinguishable from noise; ignore it.
            } else {
                *plain_events.entry(span_id).or_insert(0) += 1;
            }
        }
    }

    let mut recs: BTreeMap<u64, SpanRec> = spans
        .into_iter()
        .filter(|(_, p)| p.seen_start)
        .map(|(id, p)| (id, p.rec))
        .collect();
    for (span_id, n) in plain_events {
        if let Some(rec) = recs.get_mut(&span_id) {
            rec.events += n;
        }
        // Plain events on spans we never saw started (e.g. a remote
        // process emitting under the caller's span id when the
        // caller's file is absent) are dropped, not errors: the
        // orphan check below covers genuine unstitchability.
    }

    // Link children in input order, then split per trace.
    let known: BTreeSet<u64> = recs.keys().copied().collect();
    let mut trees: BTreeMap<u64, TraceTree> = BTreeMap::new();
    for span_id in &order {
        let Some(rec) = recs.get(span_id) else { continue };
        let tree = trees.entry(rec.trace_id).or_insert_with(|| TraceTree {
            trace_id: rec.trace_id,
            roots: Vec::new(),
            orphans: Vec::new(),
            spans: BTreeMap::new(),
            processes: BTreeSet::new(),
        });
        tree.processes.insert(rec.source);
        if rec.parent == 0 {
            tree.roots.push(*span_id);
        } else if known.contains(&rec.parent) {
            // parent linked below once all spans are placed
        } else {
            tree.orphans.push(*span_id);
        }
    }
    for span_id in &order {
        let Some(rec) = recs.get(span_id) else { continue };
        let (parent, id) = (rec.parent, rec.span_id);
        if parent != 0 && known.contains(&parent) {
            if let Some(parent_rec) = recs.get_mut(&parent) {
                parent_rec.children.push(id);
            }
        }
    }
    for (id, rec) in recs {
        if let Some(tree) = trees.get_mut(&rec.trace_id) {
            tree.spans.insert(id, rec);
        }
    }

    SpanForest {
        labels: inputs.iter().map(|(l, _)| l.clone()).collect(),
        traces: trees.into_values().collect(),
        skipped_lines: skipped,
    }
}

/// Human-readable duration.
fn human_micros(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

impl SpanForest {
    /// Total spans across all traces whose parent id was never seen.
    pub fn orphan_count(&self) -> usize {
        self.traces.iter().map(|t| t.orphans.len()).sum()
    }

    /// The tree for `trace_id`, if present.
    pub fn trace(&self, trace_id: u64) -> Option<&TraceTree> {
        self.traces.iter().find(|t| t.trace_id == trace_id)
    }

    /// Render every trace as an indented tree with per-span durations
    /// and `*` marking the critical path (the longest-elapsed child at
    /// each step from the root down).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for tree in &self.traces {
            let _ = writeln!(
                out,
                "trace {:016x} — {} process{}, {} span{}, {} event{}",
                tree.trace_id,
                tree.processes.len(),
                if tree.processes.len() == 1 { "" } else { "es" },
                tree.spans.len(),
                if tree.spans.len() == 1 { "" } else { "s" },
                tree.event_count(),
                if tree.event_count() == 1 { "" } else { "s" },
            );
            let mut critical: BTreeSet<u64> = BTreeSet::new();
            for root in &tree.roots {
                let mut cursor = *root;
                loop {
                    critical.insert(cursor);
                    let Some(rec) = tree.spans.get(&cursor) else { break };
                    let next = rec
                        .children
                        .iter()
                        .filter_map(|c| tree.spans.get(c))
                        .max_by_key(|c| c.elapsed_micros.unwrap_or(0));
                    match next {
                        Some(child) => cursor = child.span_id,
                        None => break,
                    }
                }
            }
            for root in &tree.roots {
                self.render_span(tree, *root, 1, &critical, &mut out);
            }
            for orphan in &tree.orphans {
                if let Some(rec) = tree.spans.get(orphan) {
                    let _ = writeln!(
                        out,
                        "  ORPHAN (parent {:016x} not in any input):",
                        rec.parent
                    );
                    self.render_span(tree, *orphan, 2, &critical, &mut out);
                }
            }
        }
        if self.skipped_lines > 0 {
            let _ = writeln!(out, "({} unparseable line(s) skipped)", self.skipped_lines);
        }
        out
    }

    fn render_span(
        &self,
        tree: &TraceTree,
        span_id: u64,
        depth: usize,
        critical: &BTreeSet<u64>,
        out: &mut String,
    ) {
        let Some(rec) = tree.spans.get(&span_id) else { return };
        let indent = "  ".repeat(depth);
        let label = self.labels.get(rec.source).map(String::as_str).unwrap_or("?");
        let mut line = format!("{indent}[{label}] {}", rec.name);
        for (k, v) in &rec.fields {
            let _ = write!(line, " {k}={v}");
        }
        if rec.events > 0 {
            let _ = write!(line, " ({} events)", rec.events);
        }
        let dur = match rec.elapsed_micros {
            Some(us) => human_micros(us),
            None => "unfinished".to_string(),
        };
        let marker = if critical.contains(&span_id) { "  *" } else { "" };
        let _ = writeln!(out, "{line}  {dur}{marker}");
        for child in &rec.children {
            self.render_span(tree, *child, depth + 1, critical, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{
        clear_trace_sink, install_trace_sink, push_context, span, RingSink, TraceContext,
    };
    use std::sync::Arc;

    use crate::trace_sink_test_lock as test_guard;

    /// Emit a little two-level trace through the real span machinery
    /// and return (trace_id, jsonl).
    fn recorded_trace() -> (u64, String) {
        let ring = Arc::new(RingSink::new(64));
        install_trace_sink(ring.clone());
        let root = TraceContext::root();
        {
            let _ctx = push_context(root);
            let _outer = span("job", &[("kind", "explore".into())]);
            {
                let _inner = span("probe", &[("shard", 0u64.into())]);
                crate::trace::emit("tick", &[]);
            }
            let _inner2 = span("merge", &[]);
        }
        clear_trace_sink();
        (root.trace_id, ring.lines().join("\n"))
    }

    #[test]
    fn stitches_one_process_into_a_tree() {
        let _g = test_guard();
        let (trace_id, jsonl) = recorded_trace();
        let forest = merge(&[("p0".to_string(), jsonl)]);
        assert_eq!(forest.traces.len(), 1);
        assert_eq!(forest.orphan_count(), 0);
        let tree = forest.trace(trace_id).expect("trace present");
        assert_eq!(tree.spans.len(), 3);
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.spans[&tree.roots[0]];
        assert_eq!(root.name, "job");
        assert_eq!(root.children.len(), 2, "probe and merge under job");
        assert_eq!(tree.event_count(), 1, "the tick emit attached to probe");
        let rendered = forest.render();
        assert!(rendered.contains("1 process"), "{rendered}");
        assert!(rendered.contains("[p0] job kind=explore"), "{rendered}");
        assert!(rendered.contains("  *"), "critical path is marked: {rendered}");
    }

    #[test]
    fn spans_split_across_files_still_stitch() {
        let _g = test_guard();
        let (trace_id, jsonl) = recorded_trace();
        let lines: Vec<&str> = jsonl.lines().collect();
        let (a, b) = lines.split_at(lines.len() / 2);
        let forest =
            merge(&[("a".to_string(), a.join("\n")), ("b".to_string(), b.join("\n"))]);
        assert_eq!(forest.orphan_count(), 0);
        assert_eq!(forest.trace(trace_id).expect("trace").spans.len(), 3);
    }

    #[test]
    fn missing_parent_is_an_orphan() {
        let _g = test_guard();
        let (trace_id, jsonl) = recorded_trace();
        // Drop the root span's start: its children become orphans.
        let pruned: Vec<&str> =
            jsonl.lines().filter(|l| !l.contains("job.start")).collect();
        let forest = merge(&[("p0".to_string(), pruned.join("\n"))]);
        assert!(forest.orphan_count() >= 1, "children of the dropped span are orphans");
        let rendered = forest.render();
        assert!(rendered.contains("ORPHAN"), "{rendered}");
        let _ = trace_id;
    }

    #[test]
    fn garbage_lines_are_counted_not_fatal() {
        let forest = merge(&[(
            "x".to_string(),
            "not json\n{\"no_event\":1}\n".to_string(),
        )]);
        assert_eq!(forest.traces.len(), 0);
        assert_eq!(forest.skipped_lines, 2);
        assert!(forest.render().contains("2 unparseable"));
    }
}
