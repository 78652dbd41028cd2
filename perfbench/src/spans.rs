//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSONL when the traced run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use randsync_obs::Json;

/// One timed interval: a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the log.
    pub id: u64,
    /// The span whose work caused this one.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `explore.call` or `svc.exec`.
    pub name: &'static str,
    /// Request (or call) this span belongs to; shared by a request's
    /// spans.
    pub req: u64,
    /// Start time.
    pub start: Instant,
    /// End time.
    pub end: Instant,
    /// Counts recorded at the same boundary.
    pub fields: Vec<(&'static str, f64)>,
}

/// An append-only span store.
#[derive(Debug, Default)]
pub struct SpanLog {
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog { next_id: 0, spans: Vec::new() }
    }

    /// Record a span; returns its id.
    pub fn add(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span { id, parent, name, req, start, end, fields: Vec::new() });
        id
    }

    /// Attach a count to the span `id`.
    pub fn field(&mut self, id: u64, name: &'static str, value: f64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.fields.push((name, value));
        }
    }

    /// The span's duration minus the part of it its children cover.
    pub fn self_time(&self, id: u64) -> Duration {
        let Some(span) = self.spans.iter().find(|s| s.id == id) else {
            return Duration::ZERO;
        };
        let mut children: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(s, e)| s < e)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = span.start;
        for (s, e) in children {
            let from = s.max(reach);
            if e > from {
                covered += e - from;
                reach = e;
            }
        }
        (span.end - span.start).saturating_sub(covered)
    }

    /// Write the spans as JSONL, times in microseconds since `epoch`,
    /// after a header line carrying `header`.
    pub fn write_jsonl(&self, path: &Path, epoch: Instant, header: Json) -> std::io::Result<()> {
        let micros = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header.render())?;
        for s in &self.spans {
            let mut fields = vec![
                ("id".to_string(), Json::Int(i128::from(s.id))),
                ("parent".to_string(), s.parent.map_or(Json::Null, |p| Json::Int(i128::from(p)))),
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("req".to_string(), Json::Int(i128::from(s.req))),
                ("start_us".to_string(), Json::Float(micros(s.start))),
                ("end_us".to_string(), Json::Float(micros(s.end))),
            ];
            fields.extend(s.fields.iter().map(|(k, v)| ((*k).to_string(), Json::Float(*v))));
            writeln!(out, "{}", Json::Obj(fields).render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new();
        let root = log.add(None, "explore.call", 1, at(0), at(100));
        log.add(Some(root), "dist.probe", 1, at(10), at(30));
        log.add(Some(root), "dist.probe", 1, at(20), at(40)); // overlaps the first
        log.add(Some(root), "dist.insert", 1, at(90), at(120)); // runs past the parent
        let other = log.add(None, "explore.call", 2, at(200), at(210));
        assert_eq!(log.self_time(root), Duration::from_millis(100 - 30 - 10));
        assert_eq!(log.self_time(other), Duration::from_millis(10));
    }
}
