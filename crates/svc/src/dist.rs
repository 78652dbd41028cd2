//! Distributed frontier sharding over the wire protocol
//! (DESIGN.md §16).
//!
//! The explore engine's level merge talks to its seen-set through the
//! [`FrontierTransport`] seam: one sorted probe batch and one sorted
//! insert batch per BFS level. This module stretches that seam across
//! processes:
//!
//! * **Shard side** — `FrontierSessions` lives inside every server
//!   and answers the frontier frames *inline on the event loop* (never
//!   through the worker pool, so a busy pool can never deadlock a
//!   coordinator). Each open session is a [`LocalFrontier`] — the
//!   reference implementation of the seam — keyed by a server-issued
//!   session id, so any number of coordinators can search through one
//!   shard concurrently.
//! * **Coordinator side** — [`DistributedFrontier`] implements
//!   [`FrontierTransport`] over N shard connections. Shard `k` of `N`
//!   owns the fingerprint range `[k·2⁶⁴/N, (k+1)·2⁶⁴/N)`; because the
//!   engine's batches arrive sorted by hash, the split is a run of
//!   `partition_point` cuts and the per-shard replies concatenate back
//!   in the original order. Each batch fans out: every shard's frames
//!   are written before any reply is read, so the shards work on one
//!   batch at the same time. The coordinator keeps the arena and the
//!   in-order merge, so *interning order — and therefore every verdict,
//!   valency class, and config count — is bit-identical to a
//!   single-node run*; only membership queries are remote.
//!
//! Frames. Session setup and teardown are ordinary JSON requests; the
//! bulk exchange is the binary frame of [`crate::wire`] (layout and
//! the argument that it cannot collide with JSONL are in the `wire`
//! module docs):
//!
//! ```text
//! frontier_open    JSON {stride, version}              -> {session, version}
//! probe            binary hashes + words               -> probe reply: index or ABSENT per key
//! insert           binary hashes + indices + words     -> insert reply
//! frontier_close   JSON {session}                      -> {}
//! ```
//!
//! `frontier_open` carries the wire version both ways: a shard that
//! speaks another version is refused at open with a [`TransportError`]
//! naming both versions, before any binary frame is sent. A malformed
//! binary frame, an unknown session or a stride that is not the
//! session's is answered with a JSON `bad_request` error frame and
//! leaves every session unchanged.
//!
//! Transport failures surface as [`TransportError`]; the engine stops
//! at the level boundary and reports a truncated outcome — never a
//! wrong one.

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::sync::Mutex;
use std::time::Instant;

use randsync_model::{FrontierTransport, LocalFrontier, TransportError};
use randsync_obs::Json;

use crate::client::Client;
use crate::wire::{
    code, encode_bin, error_frame, ok_frame, push_json_frame, BinFrame, BinHeader, BinKind,
    Frame, Request, ABSENT, MAX_FRAME_BYTES, WIRE_SCHEMA_VERSION,
};

/// Payload bytes per binary frame the coordinator aims for: large
/// enough to amortise the header and the shard's per-frame work, far
/// below the wire's 64 MiB frame cap. A walk-default level (about
/// 4,000 keys) fits in one frame per shard.
const FRAME_PAYLOAD_BUDGET: usize = 1 << 20;
const _: () = assert!(FRAME_PAYLOAD_BUDGET * 16 <= MAX_FRAME_BYTES);

/// Keys per binary frame at `stride` words per key (insert frames, the
/// larger kind, carry 12 bytes of hash and index per key besides the
/// words).
fn keys_per_frame(stride: usize) -> usize {
    (FRAME_PAYLOAD_BUDGET / (12 + 4 * stride)).max(1)
}

/// The fingerprint shard that owns hash `h` among `n` shards: the
/// multiply-shift range split (monotone in `h`, so sorted batches
/// split into contiguous per-shard runs).
fn shard_of(h: u64, n: usize) -> usize {
    ((u128::from(h) * n as u128) >> 64) as usize
}

// ---------------------------------------------------------------------
// Shard side: sessions hosted by the server's event loop.
// ---------------------------------------------------------------------

/// The frontier shard sessions a server hosts: session id → store.
#[derive(Debug, Default)]
pub(crate) struct FrontierSessions {
    inner: Mutex<Sessions>,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct Sessions {
    next: u64,
    open: HashMap<u64, LocalFrontier>,
}

/// Run `work` under a span named `name` in the caller's causal tree,
/// when the frame carried a trace context and a sink is installed —
/// this is how a stalled shard becomes visible from outside.
fn traced<T>(name: &str, trace: Option<(u64, u64)>, work: impl FnOnce() -> T) -> T {
    let _ctx =
        trace.map(|(t, s)| randsync_obs::push_context(randsync_obs::TraceContext::remote(t, s)));
    let _span = if randsync_obs::tracing_active() {
        Some(randsync_obs::span(name, &[]))
    } else {
        None
    };
    work()
}

impl FrontierSessions {
    /// Answer one JSON `frontier_*` request (`frontier_open`,
    /// `frontier_close`) with a complete response frame.
    pub(crate) fn handle(&self, req: &Request) -> String {
        traced(&req.job, req.trace, || match self.dispatch(req) {
            Ok(result) => ok_frame(&req.id, &req.job, result),
            Err(message) => error_frame(&req.id, code::BAD_REQUEST, &message),
        })
    }

    /// Answer one decoded binary frame, appending the binary reply (or
    /// a JSON `bad_request` error frame) to `out`. A rejected frame
    /// leaves every session unchanged.
    pub(crate) fn handle_bin(&self, frame: &BinFrame, out: &mut Vec<u8>) {
        let h = &frame.header;
        traced(h.kind.name(), h.trace, || {
            if let Err(message) = self.apply_bin(frame, out) {
                let id = Json::Int(i128::from(h.id));
                push_json_frame(out, &error_frame(&id, code::BAD_REQUEST, &message));
            }
        });
    }

    fn apply_bin(&self, frame: &BinFrame, out: &mut Vec<u8>) -> Result<(), String> {
        let h = &frame.header;
        let reply_kind = match h.kind {
            BinKind::Probe => BinKind::ProbeReply,
            BinKind::Insert => BinKind::InsertReply,
            other => return Err(format!("{} is a reply, not a request", other.name())),
        };
        let mut sessions = self.inner.lock().expect("frontier sessions poisoned");
        let store = sessions
            .open
            .get_mut(&h.session)
            .ok_or_else(|| format!("unknown frontier session {}", h.session))?;
        if h.stride as usize != store.stride() {
            return Err(format!(
                "{} frame has stride {}, but session {} has stride {}",
                h.kind.name(),
                h.stride,
                h.session,
                store.stride()
            ));
        }
        let reply = BinHeader { kind: reply_kind, trace: None, stride: 0, ..*h };
        let m = randsync_obs::global_metrics();
        if h.kind == BinKind::Probe {
            let found =
                store.probe_sorted(&frame.hashes, &frame.words).map_err(|e| e.to_string())?;
            let slots: Vec<u32> = found.iter().map(|slot| slot.unwrap_or(ABSENT)).collect();
            encode_bin(out, &reply, &[], &slots, &[]);
            m.counter("svc.frontier.probes").inc();
        } else {
            store
                .insert_sorted(&frame.hashes, &frame.indices, &frame.words)
                .map_err(|e| e.to_string())?;
            encode_bin(out, &reply, &[], &[], &[]);
            m.counter("svc.frontier.inserts").inc();
        }
        Ok(())
    }

    fn dispatch(&self, req: &Request) -> Result<Json, String> {
        let m = randsync_obs::global_metrics();
        let mut sessions = self.inner.lock().expect("frontier sessions poisoned");
        match req.job.as_str() {
            "frontier_open" => {
                match req.params.get("version").and_then(Json::as_u64) {
                    Some(v) if v == u64::from(WIRE_SCHEMA_VERSION) => {}
                    v => {
                        return Err(format!(
                            "wire version mismatch: the coordinator speaks version {}, this \
                             worker speaks version {WIRE_SCHEMA_VERSION}",
                            v.map_or_else(|| "1 (no version given)".to_string(), |v| v.to_string())
                        ))
                    }
                }
                let stride = get_usize(&req.params, "stride")?;
                let mut store = LocalFrontier::new();
                store.open(stride).map_err(|e| e.to_string())?;
                sessions.next += 1;
                let id = sessions.next;
                sessions.open.insert(id, store);
                m.gauge("svc.frontier.sessions").set(sessions.open.len() as i64);
                Ok(Json::Obj(vec![
                    ("session".to_string(), Json::Int(i128::from(id))),
                    ("version".to_string(), Json::Int(i128::from(WIRE_SCHEMA_VERSION))),
                ]))
            }
            "frontier_close" => {
                let id = get_u64(&req.params, "session")?;
                sessions
                    .open
                    .remove(&id)
                    .ok_or_else(|| format!("unknown frontier session {id}"))?;
                m.gauge("svc.frontier.sessions").set(sessions.open.len() as i64);
                Ok(Json::Obj(vec![]))
            }
            "frontier_probe" | "frontier_insert" => Err(format!(
                "{} travels as a binary frame (wire version {WIRE_SCHEMA_VERSION}), not JSON",
                req.job
            )),
            other => Err(format!(
                "unknown frontier frame {other:?} (frontier_open, frontier_close)"
            )),
        }
    }
}

fn get_usize(params: &Json, key: &str) -> Result<usize, String> {
    params
        .get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("parameter {key:?} must be a non-negative integer"))
}

fn get_u64(params: &Json, key: &str) -> Result<u64, String> {
    params
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("parameter {key:?} must be a non-negative integer"))
}

// ---------------------------------------------------------------------
// Coordinator side: the remote transport.
// ---------------------------------------------------------------------

/// One shard connection with its open session.
#[derive(Debug)]
struct Shard {
    addr: String,
    client: Client,
    session: Option<u64>,
}

impl Shard {
    fn err(&self, e: impl std::fmt::Display) -> TransportError {
        TransportError::new(format!("frontier shard {}: {e}", self.addr))
    }

    fn request(&mut self, job: &str, params: Json) -> Result<Json, TransportError> {
        let reply = self.client.request(job, &params).map_err(|e| self.err(e))?;
        if !reply.ok {
            return Err(self.err(reply.body.render()));
        }
        Ok(reply.body)
    }

    fn session(&self) -> Result<u64, TransportError> {
        self.session.ok_or_else(|| self.err("no open session"))
    }

    /// Read the binary reply to request `id`, which must be of `kind`
    /// and cover `keys` keys. A JSON frame here is the shard refusing
    /// the request.
    fn read_reply(
        &mut self,
        id: u64,
        kind: BinKind,
        keys: usize,
    ) -> Result<BinFrame, TransportError> {
        let bytes = match self.client.next_raw().map_err(|e| self.err(e))? {
            Frame::Binary(bytes) => bytes,
            Frame::Json(line) => {
                let body = randsync_obs::parse_json(&line)
                    .ok()
                    .and_then(|v| v.get("error").map(Json::render))
                    .unwrap_or(line);
                return Err(self.err(format!("{} refused: {body}", kind.name())));
            }
        };
        let frame = crate::wire::decode_bin(&bytes).map_err(|e| self.err(e))?;
        let h = &frame.header;
        if h.kind != kind || h.id != id || h.count as usize != keys {
            return Err(self.err(format!(
                "expected {} #{id} for {keys} keys, got {} #{} for {} keys",
                kind.name(),
                h.kind.name(),
                h.id,
                h.count
            )));
        }
        Ok(frame)
    }
}

/// Hoisted metric handles for the coordinator side. Every update
/// guards on [`randsync_obs::metrics_enabled`], so disabled cost on
/// the RPC path is one relaxed load + branch.
#[derive(Debug)]
struct DistMetrics {
    /// Per-shard probe latency, from the shard's send to its last reply.
    probe_us: randsync_obs::Histogram,
    /// Per-shard insert latency, from the shard's send to its last reply.
    insert_us: randsync_obs::Histogram,
    /// Keys per wire frame (chunking granularity actually seen).
    chunk_keys: randsync_obs::Histogram,
    /// Exchange rounds measured for slowest-shard attribution.
    rounds: randsync_obs::Counter,
    /// `svc.dist.slowest.shard<k>`: rounds in which shard `k` was the
    /// slowest — per-BFS-level stall attribution.
    slowest: Vec<randsync_obs::Counter>,
}

impl DistMetrics {
    fn new(shard_count: usize) -> DistMetrics {
        let m = randsync_obs::global_metrics();
        DistMetrics {
            probe_us: m.histogram("svc.dist.probe_us"),
            insert_us: m.histogram("svc.dist.insert_us"),
            chunk_keys: m.histogram("svc.dist.chunk_keys"),
            rounds: m.counter("svc.dist.rounds"),
            slowest: (0..shard_count)
                .map(|k| m.counter(&format!("svc.dist.slowest.shard{k}")))
                .collect(),
        }
    }

    /// Credit the slowest shard of one exchange round.
    fn attribute_round(&self, per_shard_us: &[u64]) {
        let Some((k, total)) =
            per_shard_us.iter().enumerate().max_by_key(|&(_, &us)| us)
        else {
            return;
        };
        if *total == 0 {
            return;
        }
        self.rounds.inc();
        if let Some(c) = self.slowest.get(k) {
            c.inc();
        }
    }
}

/// One shard's share of a fanned-out batch: when its frames went out
/// (when timed), and each frame's request id and key count.
struct Sent {
    started: Option<Instant>,
    frames: Vec<(u64, usize)>,
}

/// A [`FrontierTransport`] that shards the seen-set across N server
/// processes by fingerprint range — see the module docs for the
/// protocol and the bit-identity argument.
#[derive(Debug)]
pub struct DistributedFrontier {
    shards: Vec<Shard>,
    stride: usize,
    metrics: DistMetrics,
    /// Reused encode buffer for one shard's outgoing frames.
    out: Vec<u8>,
}

impl DistributedFrontier {
    /// Connect to the shard servers, in ownership order: `addrs[k]`
    /// owns the `k`-th fingerprint range.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; rejects an empty address list.
    pub fn connect<A: ToSocketAddrs + std::fmt::Display>(
        addrs: &[A],
    ) -> std::io::Result<DistributedFrontier> {
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "distributed frontier needs at least one shard address",
            ));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        for addr in addrs {
            shards.push(Shard {
                addr: addr.to_string(),
                client: Client::connect(addr)?,
                session: None,
            });
        }
        let metrics = DistMetrics::new(shards.len());
        Ok(DistributedFrontier { shards, stride: 0, metrics, out: Vec::new() })
    }

    /// Number of shard connections.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous per-shard runs of a hash-sorted batch: for each
    /// shard in order, the half-open index range it owns.
    fn split_ranges(&self, hashes: &[u64]) -> Vec<std::ops::Range<usize>> {
        let n = self.shards.len();
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0usize;
        for k in 0..n {
            let end = if k + 1 == n {
                hashes.len()
            } else {
                start + hashes[start..].partition_point(|&h| shard_of(h, n) <= k)
            };
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// One fanned-out exchange of a sorted batch: write every shard its
    /// frames of `kind`, then read the replies shard by shard, handing
    /// each to `on_reply` in batch order. `indices` is empty for a
    /// probe. Returns each shard's time from its send until its last
    /// reply has been read (0 for a shard with no keys, or with metrics
    /// off); since replies are read shard by shard, a later shard's time
    /// also covers reading the earlier shards' replies.
    fn fan_out(
        &mut self,
        kind: BinKind,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
        mut on_reply: impl FnMut(&BinFrame),
    ) -> Result<Vec<u64>, TransportError> {
        let stride = self.stride;
        let per_frame = keys_per_frame(stride);
        let trace = randsync_obs::current_context().map(|ctx| (ctx.trace_id, ctx.span_id));
        let instrumented = randsync_obs::metrics_enabled();
        let ranges = self.split_ranges(hashes);
        let mut sent = Vec::with_capacity(ranges.len());
        for (shard, range) in self.shards.iter_mut().zip(&ranges) {
            let mut batch = Sent { started: None, frames: Vec::new() };
            if !range.is_empty() {
                let session = shard.session()?;
                self.out.clear();
                for lo in range.clone().step_by(per_frame) {
                    let hi = (lo + per_frame).min(range.end);
                    let id = shard.client.fresh_id();
                    let header = BinHeader {
                        kind,
                        id,
                        session,
                        trace,
                        count: (hi - lo) as u32,
                        stride: stride as u32,
                    };
                    let idx = if indices.is_empty() { &[][..] } else { &indices[lo..hi] };
                    encode_bin(
                        &mut self.out,
                        &header,
                        &hashes[lo..hi],
                        idx,
                        &words[lo * stride..hi * stride],
                    );
                    batch.frames.push((id, hi - lo));
                }
                batch.started = instrumented.then(Instant::now);
                shard.client.send_raw(&self.out).map_err(|e| shard.err(e))?;
            }
            sent.push(batch);
        }
        let reply_kind =
            if kind == BinKind::Probe { BinKind::ProbeReply } else { BinKind::InsertReply };
        let mut per_shard_us = vec![0u64; self.shards.len()];
        for (k, Sent { started, frames }) in sent.into_iter().enumerate() {
            for (id, keys) in frames {
                let reply = self.shards[k].read_reply(id, reply_kind, keys)?;
                on_reply(&reply);
                if instrumented {
                    self.metrics.chunk_keys.observe(keys as u64);
                }
            }
            if let Some(started) = started {
                per_shard_us[k] = started.elapsed().as_micros() as u64;
            }
        }
        Ok(per_shard_us)
    }

    fn close_sessions(&mut self) -> Result<(), TransportError> {
        let mut first_err = None;
        for shard in &mut self.shards {
            if let Some(session) = shard.session.take() {
                let params =
                    Json::Obj(vec![("session".to_string(), Json::Int(i128::from(session)))]);
                if let Err(e) = shard.request("frontier_close", params) {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Engine error paths can skip `close()`; sessions must not leak on
/// the shards, so dropping the transport closes them best-effort.
impl Drop for DistributedFrontier {
    fn drop(&mut self) {
        let _ = self.close_sessions();
    }
}

impl FrontierTransport for DistributedFrontier {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        // A re-open (resume, or a retried search on one transport)
        // discards any prior sessions first.
        self.close_sessions()?;
        self.stride = stride;
        for shard in &mut self.shards {
            let params = Json::Obj(vec![
                ("stride".to_string(), Json::Int(stride as i128)),
                ("version".to_string(), Json::Int(i128::from(WIRE_SCHEMA_VERSION))),
            ]);
            let body = shard.request("frontier_open", params)?;
            let session = body
                .get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| shard.err("malformed open reply"))?;
            shard.session = Some(session);
            // A worker that reports no version predates versioned opens.
            let version = body.get("version").and_then(Json::as_u64).unwrap_or(1);
            if version != u64::from(WIRE_SCHEMA_VERSION) {
                return Err(shard.err(format!(
                    "wire version mismatch: this worker speaks version {version}, the \
                     coordinator speaks version {WIRE_SCHEMA_VERSION}"
                )));
            }
        }
        Ok(())
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        let stride = self.stride;
        if stride == 0 || words.len() != hashes.len() * stride {
            return Err(TransportError::new("malformed probe batch"));
        }
        let mut found = Vec::with_capacity(hashes.len());
        let per_shard_us = self.fan_out(BinKind::Probe, hashes, &[], words, |reply| {
            found.extend(reply.indices.iter().map(|&i| (i != ABSENT).then_some(i)));
        })?;
        if randsync_obs::metrics_enabled() {
            for &us in per_shard_us.iter().filter(|&&us| us > 0) {
                self.metrics.probe_us.observe(us);
            }
            self.metrics.attribute_round(&per_shard_us);
        }
        Ok(found)
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        let stride = self.stride;
        if stride == 0 || indices.len() != hashes.len() || words.len() != hashes.len() * stride
        {
            return Err(TransportError::new("malformed insert batch"));
        }
        if indices.contains(&ABSENT) {
            return Err(TransportError::new(format!(
                "arena index {ABSENT} is reserved on the wire"
            )));
        }
        let per_shard_us = self.fan_out(BinKind::Insert, hashes, indices, words, |_| {})?;
        if randsync_obs::metrics_enabled() {
            for &us in per_shard_us.iter().filter(|&&us| us > 0) {
                self.metrics.insert_us.observe(us);
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), TransportError> {
        self.close_sessions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_bin, peek_bin_id, BinError, FrameBuffer};
    use proptest::prelude::*;

    fn parse(s: &str) -> Json {
        randsync_obs::parse_json(s).unwrap()
    }

    fn json_request(job: &str, params: &str) -> Request {
        Request { id: Json::Int(1), job: job.to_string(), params: parse(params), trace: None }
    }

    /// Open a session of `stride` and return its id.
    fn open(sessions: &FrontierSessions, stride: usize) -> u64 {
        let params = format!("{{\"stride\": {stride}, \"version\": {WIRE_SCHEMA_VERSION}}}");
        let reply = parse(&sessions.handle(&json_request("frontier_open", &params)));
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"), "{}", reply.render());
        reply.get("result").unwrap().get("session").and_then(Json::as_u64).unwrap()
    }

    fn frame_bytes(
        kind: BinKind,
        session: u64,
        stride: u32,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Vec<u8> {
        let header = BinHeader {
            kind,
            id: 77,
            session,
            trace: None,
            // Replies carry no hashes; their count is the index count.
            count: hashes.len().max(indices.len()) as u32,
            stride,
        };
        let mut out = Vec::new();
        encode_bin(&mut out, &header, hashes, indices, words);
        out
    }

    /// What the server does with one binary frame off the wire: decode,
    /// answer, or reject with a JSON `bad_request`. Returns the reply
    /// bytes split into frames.
    fn serve_bin(sessions: &FrontierSessions, bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        match decode_bin(bytes) {
            Ok(frame) => sessions.handle_bin(&frame, &mut out),
            Err(e) => {
                let id = peek_bin_id(bytes).map_or(Json::Null, |id| Json::Int(i128::from(id)));
                push_json_frame(&mut out, &error_frame(&id, code::BAD_REQUEST, &e.to_string()));
            }
        }
        FrameBuffer::new().push_bytes(&out).expect("reply frames split")
    }

    fn is_bad_request(frames: &[Frame]) -> bool {
        match frames {
            [Frame::Json(line)] => {
                let v = parse(line);
                v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str)
                    == Some(code::BAD_REQUEST)
            }
            _ => false,
        }
    }

    fn snapshot(sessions: &FrontierSessions) -> Sessions {
        sessions.inner.lock().unwrap().clone()
    }

    #[test]
    fn shard_ownership_is_monotone_and_covers_all_shards() {
        for n in 1..=5 {
            assert_eq!(shard_of(0, n), 0);
            assert_eq!(shard_of(u64::MAX, n), n - 1);
            let mut prev = 0;
            for h in (0..=u64::MAX).step_by(1 << 58) {
                let k = shard_of(h, n);
                assert!(k >= prev && k < n, "h={h} n={n} k={k}");
                prev = k;
            }
        }
    }

    #[test]
    fn frames_stay_far_below_the_frame_cap() {
        for stride in [1, 8, 64, 4096, 1 << 20] {
            let keys = keys_per_frame(stride);
            assert!(keys >= 1);
            assert!(keys == 1 || keys * (12 + 4 * stride) <= FRAME_PAYLOAD_BUDGET);
        }
    }

    #[test]
    fn frontier_sessions_answer_the_wire_protocol() {
        let sessions = FrontierSessions::default();
        let sid = open(&sessions, 2);

        let insert = frame_bytes(BinKind::Insert, sid, 2, &[9], &[4], &[1, 2]);
        let Frame::Binary(reply) = &serve_bin(&sessions, &insert)[0] else {
            panic!("insert answered with a JSON frame")
        };
        let reply = decode_bin(reply).unwrap();
        let h = reply.header;
        assert_eq!((h.kind, h.id, h.count), (BinKind::InsertReply, 77, 1));

        let probe = frame_bytes(BinKind::Probe, sid, 2, &[9, 9], &[], &[1, 2, 3, 4]);
        let Frame::Binary(reply) = &serve_bin(&sessions, &probe)[0] else {
            panic!("probe answered with a JSON frame")
        };
        let reply = decode_bin(reply).unwrap();
        assert_eq!(reply.header.kind, BinKind::ProbeReply);
        assert_eq!(reply.indices, vec![4, ABSENT]);

        let close = parse(&sessions.handle(&json_request(
            "frontier_close",
            &format!("{{\"session\": {sid}}}"),
        )));
        assert_eq!(close.get("status").and_then(Json::as_str), Some("ok"));

        // A closed (or never-opened) session is a clean client error.
        let probe = frame_bytes(BinKind::Probe, sid, 2, &[], &[], &[]);
        assert!(is_bad_request(&serve_bin(&sessions, &probe)));
    }

    #[test]
    fn malformed_frontier_frames_are_rejected() {
        let sessions = FrontierSessions::default();
        for (job, params) in [
            ("frontier_open", "{\"version\": 2}"),
            ("frontier_open", "{\"stride\": 0, \"version\": 2}"),
            ("frontier_open", "{\"stride\": 2}"),
            ("frontier_probe", "{\"session\": 1, \"hashes\": [], \"words\": []}"),
            ("frontier_insert", "{\"session\": 1}"),
            ("frontier_bogus", "{}"),
        ] {
            let reply = parse(&sessions.handle(&json_request(job, params)));
            assert_eq!(
                reply.get("status").and_then(Json::as_str),
                Some("error"),
                "{job} {params}"
            );
        }
        assert_eq!(snapshot(&sessions), Sessions::default());
    }

    #[test]
    fn an_open_with_another_wire_version_names_both_versions() {
        let sessions = FrontierSessions::default();
        for params in ["{\"stride\": 2, \"version\": 1}", "{\"stride\": 2}"] {
            let reply = parse(&sessions.handle(&json_request("frontier_open", params)));
            let msg = reply.get("error").unwrap().get("message").and_then(Json::as_str).unwrap();
            assert!(msg.contains("version 1") && msg.contains("version 2"), "{msg}");
        }
    }

    #[test]
    fn a_worker_speaking_another_version_fails_the_open() {
        // A stand-in for a version-1 worker: it answers `frontier_open`
        // the way that version did (no `version` in the reply) and
        // acknowledges the close that follows.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = std::thread::spawn(move || {
            use std::io::{BufRead, Write};
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                let req = Request::parse(line.trim()).unwrap();
                let result = if req.job == "frontier_open" {
                    parse("{\"session\": 1}")
                } else {
                    Json::Obj(vec![])
                };
                let frame = ok_frame(&req.id, &req.job, result);
                writer.write_all(format!("{frame}\n").as_bytes()).unwrap();
                line.clear();
            }
        });
        let mut frontier = DistributedFrontier::connect(&[addr]).unwrap();
        let err = frontier.open(3).expect_err("a version-1 worker must be refused");
        assert!(
            err.0.contains("version 1") && err.0.contains("version 2"),
            "the error names both versions: {err}"
        );
        drop(frontier);
        worker.join().unwrap();
    }

    /// A session of stride 2 holding three keys, plus a valid insert
    /// frame of three new keys for it.
    fn seeded() -> (FrontierSessions, Vec<u8>) {
        let sessions = FrontierSessions::default();
        let sid = open(&sessions, 2);
        let seed =
            frame_bytes(BinKind::Insert, sid, 2, &[1, 2, 3], &[0, 1, 2], &[1, 1, 2, 2, 3, 3]);
        assert!(matches!(serve_bin(&sessions, &seed)[0], Frame::Binary(_)));
        let fresh =
            frame_bytes(BinKind::Insert, sid, 2, &[4, 5, 6], &[3, 4, 5], &[4, 4, 5, 5, 6, 6]);
        (sessions, fresh)
    }

    /// Feed `bytes` to a session as one frame. A rejection must be a
    /// typed `bad_request` that leaves the sessions unchanged; a
    /// decoded frame's sections never hold more bytes than arrived.
    fn assert_fails_closed(sessions: &FrontierSessions, bytes: &[u8]) -> bool {
        if let Ok(frame) = decode_bin(bytes) {
            let held = frame.hashes.capacity() * 8
                + (frame.indices.capacity() + frame.words.capacity()) * 4;
            assert!(held <= bytes.len(), "decoded {held} bytes from {}", bytes.len());
        }
        let before = snapshot(sessions);
        let reply = serve_bin(sessions, bytes);
        let rejected = is_bad_request(&reply);
        if rejected {
            assert_eq!(snapshot(sessions), before, "a rejected frame changed a session");
        } else {
            assert!(matches!(reply[..], [Frame::Binary(_)]), "{reply:?}");
        }
        rejected
    }

    #[test]
    fn truncation_at_every_byte_is_rejected_without_a_state_change() {
        let (sessions, frame) = seeded();
        for cut in 0..frame.len() {
            let bytes = &frame[..cut];
            let err = decode_bin(bytes).expect_err("a truncated frame must not decode");
            assert!(
                matches!(err, BinError::Truncated { .. } | BinError::Length { .. }),
                "cut {cut}: {err}"
            );
            assert!(assert_fails_closed(&sessions, bytes), "cut {cut}");
            // The stream splitter waits for the rest instead.
            let mut fb = FrameBuffer::new();
            assert_eq!(fb.push_bytes(bytes).unwrap(), Vec::<Frame>::new(), "cut {cut}");
            assert_eq!(fb.pending_bytes(), cut);
        }
    }

    #[test]
    fn stride_mismatch_and_unknown_sessions_are_rejected() {
        let (sessions, _) = seeded();
        let wide = frame_bytes(BinKind::Insert, 1, 3, &[7], &[6], &[7, 7, 7]);
        assert!(assert_fails_closed(&sessions, &wide));
        let stray = frame_bytes(BinKind::Probe, 99, 2, &[7], &[], &[7, 7]);
        assert!(assert_fails_closed(&sessions, &stray));
        let reply = frame_bytes(BinKind::ProbeReply, 1, 0, &[], &[ABSENT], &[]);
        assert!(assert_fails_closed(&sessions, &reply));
        let mut reserved = frame_bytes(BinKind::Insert, 1, 2, &[7], &[0], &[7, 7]);
        let at = crate::wire::BIN_HEADER_BYTES + 8;
        reserved[at..at + 4].copy_from_slice(&ABSENT.to_le_bytes());
        assert_eq!(decode_bin(&reserved), Err(BinError::ReservedIndex));
        assert!(assert_fails_closed(&sessions, &reserved));
    }

    #[test]
    fn a_declared_length_over_the_cap_is_refused_unread() {
        let (sessions, mut frame) = seeded();
        let huge = (MAX_FRAME_BYTES - crate::wire::BIN_HEADER_BYTES + 1) as u32;
        frame[4..8].copy_from_slice(&huge.to_le_bytes());
        assert!(matches!(decode_bin(&frame), Err(BinError::TooLarge { .. })));
        assert!(assert_fails_closed(&sessions, &frame));
        let mut fb = FrameBuffer::new();
        assert!(fb.push_bytes(&frame).is_err(), "the splitter drops the connection");
        assert_eq!(fb.pending_bytes(), 0);
    }

    proptest! {
        #[test]
        fn byte_flips_fail_closed(at in any::<usize>(), flip in 1u8..=255) {
            let (sessions, mut frame) = seeded();
            let at = at % frame.len();
            frame[at] ^= flip;
            let rejected = assert_fails_closed(&sessions, &frame);
            // Every header byte except the id and the trace context is
            // checked, so a flip there must be refused.
            if at < 8 || (16..24).contains(&at) || (40..48).contains(&at) {
                prop_assert!(rejected, "flip 0x{:02x} at {} was accepted", flip, at);
            }
        }

        #[test]
        fn boosted_length_and_count_fields_fail_closed(
            boost in 1u32..=u32::MAX,
            field in 0usize..2,
        ) {
            let (sessions, mut frame) = seeded();
            let at = [4, 40][field];
            let old = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
            frame[at..at + 4].copy_from_slice(&old.wrapping_add(boost).to_le_bytes());
            prop_assert!(decode_bin(&frame).is_err());
            prop_assert!(assert_fails_closed(&sessions, &frame));
        }

        #[test]
        fn random_payloads_behind_a_valid_prefix_never_panic(
            tail in prop::collection::vec(any::<u8>(), 0..96),
            keep in 0usize..48,
        ) {
            let (sessions, frame) = seeded();
            let mut bytes = frame[..keep].to_vec();
            bytes.extend_from_slice(&tail);
            assert_fails_closed(&sessions, &bytes);
        }
    }
}
