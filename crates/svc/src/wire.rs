//! The wire protocol (DESIGN.md §13, §16): JSONL frames for every
//! request and reply, plus one length-prefixed binary frame for the
//! frontier probe/insert exchange, interleaved on the same connection.
//!
//! Every JSON frame is one JSON object on one line, in both
//! directions, encoded and decoded with [`randsync_obs::json`] — the
//! same hand-rolled parser the flight recorder uses, so the server adds
//! no second encoding. Requests carry an `id` the server echoes
//! verbatim on every frame it emits for that request, which is what
//! makes pipelining many requests over one connection safe.
//!
//! ```text
//! request   {"id": <any>, "job": "<kind>", "params": {...}, "trace": {"t": <u64>, "s": <u64>}}
//! ok        {"id": <any>, "status": "ok", "job": "<kind>", "result": {...}}
//! error     {"id": <any>, "status": "error", "error": {"code": "...", "message": "..."}}
//! progress  {"id": <any>, "status": "progress", "stage": "...", ...}
//! ```
//!
//! The optional `trace` field propagates the caller's
//! [`randsync_obs::TraceContext`] (trace id `t`, open span id `s`, as
//! decimal u64s) so spans opened while serving the request — on this
//! server and on any worker it fans out to — stitch into the caller's
//! causal tree (DESIGN.md §17). Requests without it trace locally.
//!
//! # Binary frontier frames
//!
//! Frontier probe and insert batches are bulk integer arrays; as JSON
//! they cost more to render and parse than the shard spends answering
//! them. They travel as binary frames instead ([`BinFrame`]): a fixed
//! 48-byte little-endian header, then the payload.
//!
//! ```text
//! offset size  field
//!      0    1  magic 0xFF
//!      1    1  version (= WIRE_SCHEMA_VERSION)
//!      2    1  kind: 1 probe, 2 insert, 3 probe reply, 4 insert reply
//!      3    1  reserved, 0
//!      4    4  payload length in bytes (after the header)
//!      8    8  request id, echoed by the reply
//!     16    8  shard session
//!     24    8  trace id t   (0 = no trace context)
//!     32    8  span id s
//!     40    4  key count
//!     44    4  stride in u32 words (requests; 0 in replies)
//!     48       payload
//!
//! probe         hashes: count × u64, words: count·stride × u32
//! insert        hashes: count × u64, indices: count × u32, words: count·stride × u32
//! probe reply   count × u32 arena index, ABSENT (u32::MAX) for "never inserted"
//! insert reply  empty (count = keys stored)
//! ```
//!
//! **Why the two grammars cannot collide.** A frame boundary is the
//! start of the connection, a newline, or the end of a binary frame.
//! JSON frames are UTF-8 text, and the byte `0xFF` never occurs in
//! UTF-8, so a frame whose first byte is `0xFF` is binary and any other
//! is a JSON line. A binary frame's extent comes from its length field,
//! never from scanning for a newline, so payload bytes that happen to
//! equal `\n` are harmless. A malformed binary frame is answered with a
//! JSON `bad_request` error frame carrying its request id; one whose
//! length field exceeds [`MAX_FRAME_BYTES`] is a [`FrameOverflow`] and
//! ends the connection, like an overlong JSON line.

use randsync_obs::Json;

/// Wire schema version, reported by the `metrics` control frame,
/// carried in every binary frame and in `frontier_open`, and mixed
/// into every cache key; bump on incompatible change.
pub const WIRE_SCHEMA_VERSION: u32 = 2;

/// Machine-readable error codes carried in `error.code`.
pub mod code {
    /// The frame was not a valid request object.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The `job` field named no known job kind.
    pub const UNKNOWN_JOB: &str = "unknown_job";
    /// The `protocol` parameter named no registry entry.
    pub const UNKNOWN_PROTOCOL: &str = "unknown_protocol";
    /// The bounded job queue was full; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining and accepts no new jobs.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The job exceeded its wall-clock budget and was cancelled.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The job ran but failed (bridge error, replay divergence, ...).
    pub const JOB_FAILED: &str = "job_failed";
}

/// One parsed request frame.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// Caller-chosen correlation id, echoed verbatim on every response
    /// and progress frame (`Null` when absent).
    pub id: Json,
    /// The job kind (or control frame name).
    pub job: String,
    /// The job parameters (`Null` when absent).
    pub params: Json,
    /// The caller's trace context `(trace_id, span_id)`, when the
    /// frame carried one.
    pub trace: Option<(u64, u64)>,
}

impl Request {
    /// Parse one request line. The fields are moved out of the parsed
    /// object, not cloned; as with [`Json::get`], the first occurrence
    /// of a repeated key wins.
    ///
    /// # Errors
    ///
    /// A human-readable message when the line is not JSON, not an
    /// object, or lacks a string `job` field.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = randsync_obs::parse_json(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let Json::Obj(fields) = v else {
            return Err("request must be a JSON object".to_string());
        };
        let (mut id, mut job, mut params, mut trace) = (None, None, None, None);
        for (key, value) in fields {
            let slot = match key.as_str() {
                "id" => &mut id,
                "job" => &mut job,
                "params" => &mut params,
                "trace" => &mut trace,
                _ => continue,
            };
            if slot.is_none() {
                *slot = Some(value);
            }
        }
        let job = match job {
            Some(Json::Str(job)) => job,
            _ => return Err("request missing string \"job\" field".to_string()),
        };
        let trace = trace.and_then(|t| {
            Some((t.get("t").and_then(Json::as_u64)?, t.get("s").and_then(Json::as_u64)?))
        });
        Ok(Request {
            id: id.unwrap_or(Json::Null),
            job,
            params: params.unwrap_or(Json::Null),
            trace,
        })
    }

    /// Render a request frame (the client side of [`Request::parse`]).
    pub fn render(id: &Json, job: &str, params: &Json) -> String {
        Request::render_traced(id, job, params, None)
    }

    /// Render a request frame carrying the caller's trace context. The
    /// header fields are written straight into the line; `params` is
    /// rendered in place, never cloned.
    pub fn render_traced(
        id: &Json,
        job: &str,
        params: &Json,
        trace: Option<(u64, u64)>,
    ) -> String {
        let mut out = String::from("{\"id\":");
        id.render_into(&mut out);
        out.push_str(",\"job\":");
        randsync_obs::json::write_escaped(job, &mut out);
        out.push_str(",\"params\":");
        params.render_into(&mut out);
        if let Some((t, s)) = trace {
            out.push_str(&format!(",\"trace\":{{\"t\":{t},\"s\":{s}}}"));
        }
        out.push('}');
        out
    }
}

/// Render an `ok` response frame.
pub fn ok_frame(id: &Json, job: &str, result: Json) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("status".to_string(), Json::Str("ok".to_string())),
        ("job".to_string(), Json::Str(job.to_string())),
        ("result".to_string(), result),
    ])
    .render()
}

/// Render an `error` response frame.
pub fn error_frame(id: &Json, code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("status".to_string(), Json::Str("error".to_string())),
        (
            "error".to_string(),
            Json::Obj(vec![
                ("code".to_string(), Json::Str(code.to_string())),
                ("message".to_string(), Json::Str(message.to_string())),
            ]),
        ),
    ])
    .render()
}

/// Render a `progress` frame: a stage name plus extra fields.
pub fn progress_frame(id: &Json, stage: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("id".to_string(), id.clone()),
        ("status".to_string(), Json::Str("progress".to_string())),
        ("stage".to_string(), Json::Str(stage.to_string())),
    ];
    for (k, v) in extra {
        fields.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(fields).render()
}

/// Append one JSON frame line (the frame plus its newline) to an
/// outgoing byte buffer.
pub fn push_json_frame(out: &mut Vec<u8>, frame: &str) {
    out.extend_from_slice(frame.as_bytes());
    out.push(b'\n');
}

// ---------------------------------------------------------------------
// Binary frontier frames.
// ---------------------------------------------------------------------

/// First byte of every binary frame; it never occurs in UTF-8 text, so
/// no JSON frame can start with it (see the module docs).
pub const BINARY_MAGIC: u8 = 0xFF;

/// Size of the fixed binary frame header.
pub const BIN_HEADER_BYTES: usize = 48;

/// The probe-reply slot for a key that was never inserted. Arena index
/// `u32::MAX` is reserved for it: an insert frame carrying that index
/// is rejected.
pub const ABSENT: u32 = u32::MAX;

/// What a binary frame carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinKind {
    /// Coordinator → shard: which of these keys are known?
    Probe = 1,
    /// Coordinator → shard: store these keys under these indices.
    Insert = 2,
    /// Shard → coordinator: one index (or [`ABSENT`]) per probed key.
    ProbeReply = 3,
    /// Shard → coordinator: the insert was applied.
    InsertReply = 4,
}

impl BinKind {
    fn from_byte(b: u8) -> Option<BinKind> {
        match b {
            1 => Some(BinKind::Probe),
            2 => Some(BinKind::Insert),
            3 => Some(BinKind::ProbeReply),
            4 => Some(BinKind::InsertReply),
            _ => None,
        }
    }

    /// The frame's name, used for spans and diagnostics: the shard
    /// spans keep the names the JSON frames had (`frontier_probe`,
    /// `frontier_insert`).
    pub fn name(self) -> &'static str {
        match self {
            BinKind::Probe => "frontier_probe",
            BinKind::Insert => "frontier_insert",
            BinKind::ProbeReply => "frontier_probe_reply",
            BinKind::InsertReply => "frontier_insert_reply",
        }
    }

    fn is_request(self) -> bool {
        matches!(self, BinKind::Probe | BinKind::Insert)
    }

    /// Payload bytes a frame of this kind must carry for `count` keys
    /// of `stride` words (`None` when that overflows).
    fn payload_len(self, count: usize, stride: usize) -> Option<usize> {
        let words = count.checked_mul(stride)?.checked_mul(4)?;
        match self {
            BinKind::Probe => count.checked_mul(8)?.checked_add(words),
            BinKind::Insert => count.checked_mul(12)?.checked_add(words),
            BinKind::ProbeReply => count.checked_mul(4),
            BinKind::InsertReply => Some(0),
        }
    }
}

/// The fixed header of a binary frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BinHeader {
    /// What the frame carries.
    pub kind: BinKind,
    /// Request id; a reply echoes its request's.
    pub id: u64,
    /// The shard session the frame belongs to.
    pub session: u64,
    /// The sender's trace context `(trace_id, span_id)`.
    pub trace: Option<(u64, u64)>,
    /// Keys in the frame.
    pub count: u32,
    /// Words per key (requests); 0 in replies.
    pub stride: u32,
}

/// A decoded binary frame: its header plus the sections its kind
/// carries (the others are empty).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BinFrame {
    /// The header.
    pub header: BinHeader,
    /// Key hashes (probe, insert).
    pub hashes: Vec<u64>,
    /// Arena indices (insert), or probe answers with [`ABSENT`] for
    /// "never inserted" (probe reply).
    pub indices: Vec<u32>,
    /// Packed key words, `stride` per key (probe, insert).
    pub words: Vec<u32>,
}

/// Why a binary frame was rejected. Every rejection happens before any
/// section is allocated or any session touched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinError {
    /// Fewer bytes than the fixed header.
    Truncated {
        /// Bytes received.
        have: usize,
    },
    /// The first byte is not [`BINARY_MAGIC`].
    Magic(u8),
    /// The frame speaks another wire version.
    Version(u8),
    /// Unknown kind byte.
    Kind(u8),
    /// The reserved header byte is not zero.
    Reserved(u8),
    /// The length field exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The declared payload length.
        declared: u64,
    },
    /// The length field disagrees with the bytes received.
    Length {
        /// The declared payload length.
        declared: usize,
        /// Payload bytes actually received.
        actual: usize,
    },
    /// Key count and stride do not describe the declared payload (or a
    /// request has stride 0, or a reply a nonzero stride).
    Shape {
        /// The frame's kind.
        kind: BinKind,
        /// The declared key count.
        count: u32,
        /// The declared stride.
        stride: u32,
        /// The declared payload length.
        declared: usize,
    },
    /// An insert frame used the reserved index [`ABSENT`].
    ReservedIndex,
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Truncated { have } => {
                write!(f, "binary frame truncated: {have} bytes, header needs {BIN_HEADER_BYTES}")
            }
            BinError::Magic(b) => write!(f, "binary frame starts with 0x{b:02x}, not 0xff"),
            BinError::Version(v) => write!(
                f,
                "binary frame speaks wire version {v}; this peer speaks {WIRE_SCHEMA_VERSION}"
            ),
            BinError::Kind(k) => write!(f, "unknown binary frame kind {k}"),
            BinError::Reserved(b) => write!(f, "binary frame reserved byte is {b}, not 0"),
            BinError::TooLarge { declared } => {
                write!(f, "binary frame declares {declared} payload bytes, over {MAX_FRAME_BYTES}")
            }
            BinError::Length { declared, actual } => write!(
                f,
                "binary frame declares {declared} payload bytes but carries {actual}"
            ),
            BinError::Shape { kind, count, stride, declared } => write!(
                f,
                "{} frame of {count} keys at stride {stride} cannot fill {declared} payload bytes",
                kind.name()
            ),
            BinError::ReservedIndex => {
                write!(f, "insert frame uses the reserved index {ABSENT}")
            }
        }
    }
}

impl std::error::Error for BinError {}

/// The request id of a (possibly malformed) binary frame, when enough
/// bytes arrived to hold it — so a rejection can still be correlated.
pub fn peek_bin_id(bytes: &[u8]) -> Option<u64> {
    bytes.get(8..16).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn read_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
}

fn read_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect()
}

/// Decode one complete binary frame. Every count is checked against
/// the bytes actually received before anything is allocated, so the
/// sections never hold more bytes than `bytes` does.
///
/// # Errors
///
/// A [`BinError`] naming the first check that failed.
pub fn decode_bin(bytes: &[u8]) -> Result<BinFrame, BinError> {
    if bytes.len() < BIN_HEADER_BYTES {
        return Err(BinError::Truncated { have: bytes.len() });
    }
    if bytes[0] != BINARY_MAGIC {
        return Err(BinError::Magic(bytes[0]));
    }
    if u32::from(bytes[1]) != WIRE_SCHEMA_VERSION {
        return Err(BinError::Version(bytes[1]));
    }
    let kind = BinKind::from_byte(bytes[2]).ok_or(BinError::Kind(bytes[2]))?;
    if bytes[3] != 0 {
        return Err(BinError::Reserved(bytes[3]));
    }
    let declared = le_u32(bytes, 4);
    if declared as usize > MAX_FRAME_BYTES - BIN_HEADER_BYTES {
        return Err(BinError::TooLarge { declared: u64::from(declared) });
    }
    let declared = declared as usize;
    let payload = &bytes[BIN_HEADER_BYTES..];
    if payload.len() != declared {
        return Err(BinError::Length { declared, actual: payload.len() });
    }
    let (t, s) = (le_u64(bytes, 24), le_u64(bytes, 32));
    let header = BinHeader {
        kind,
        id: le_u64(bytes, 8),
        session: le_u64(bytes, 16),
        trace: if t == 0 { None } else { Some((t, s)) },
        count: le_u32(bytes, 40),
        stride: le_u32(bytes, 44),
    };
    let (count, stride) = (header.count as usize, header.stride as usize);
    let stride_ok = if kind.is_request() { stride > 0 } else { stride == 0 };
    if !stride_ok || kind.payload_len(count, stride) != Some(declared) {
        return Err(BinError::Shape {
            kind,
            count: header.count,
            stride: header.stride,
            declared,
        });
    }
    let mut frame =
        BinFrame { header, hashes: Vec::new(), indices: Vec::new(), words: Vec::new() };
    match kind {
        BinKind::Probe => {
            let (hashes, words) = payload.split_at(count * 8);
            frame.hashes = read_u64s(hashes);
            frame.words = read_u32s(words);
        }
        BinKind::Insert => {
            let (hashes, rest) = payload.split_at(count * 8);
            let (indices, words) = rest.split_at(count * 4);
            if indices.chunks_exact(4).any(|c| c == ABSENT.to_le_bytes()) {
                return Err(BinError::ReservedIndex);
            }
            frame.hashes = read_u64s(hashes);
            frame.indices = read_u32s(indices);
            frame.words = read_u32s(words);
        }
        BinKind::ProbeReply => frame.indices = read_u32s(payload),
        BinKind::InsertReply => {}
    }
    Ok(frame)
}

/// Append a binary frame to `out`: `header` (whose `count` must match
/// the sections), then `hashes`, `indices` and `words` — pass empty
/// slices for the sections the kind does not carry.
///
/// # Panics
///
/// If the payload does not fit the `u32` length field; callers chunk
/// batches far below that (and below [`MAX_FRAME_BYTES`]).
pub fn encode_bin(
    out: &mut Vec<u8>,
    header: &BinHeader,
    hashes: &[u64],
    indices: &[u32],
    words: &[u32],
) {
    let payload = hashes.len() * 8 + (indices.len() + words.len()) * 4;
    debug_assert_eq!(
        header.kind.payload_len(header.count as usize, header.stride as usize),
        Some(payload),
        "binary frame sections disagree with the header"
    );
    let declared = u32::try_from(payload).expect("binary frame payload fits the length field");
    let (t, s) = header.trace.unwrap_or((0, 0));
    out.reserve(BIN_HEADER_BYTES + payload);
    out.extend_from_slice(&[BINARY_MAGIC, WIRE_SCHEMA_VERSION as u8, header.kind as u8, 0]);
    out.extend_from_slice(&declared.to_le_bytes());
    for field in [header.id, header.session, t, s] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&header.count.to_le_bytes());
    out.extend_from_slice(&header.stride.to_le_bytes());
    for h in hashes {
        out.extend_from_slice(&h.to_le_bytes());
    }
    for v in indices.iter().chain(words) {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// Frame reassembly.
// ---------------------------------------------------------------------

/// Upper bound on one frame's size on the wire. A peer that streams an
/// unterminated line past this, or declares a binary frame larger than
/// this, is protocol-broken (or hostile); the reader reports
/// [`FrameOverflow`] instead of buffering unboundedly. Generous because
/// `replay`/`verify_witness` params carry whole flight traces inline.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// A peer exceeded [`MAX_FRAME_BYTES`] on a single frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameOverflow {
    /// Bytes accumulated for the unterminated line, or the size a
    /// binary frame's header declared, when the cap hit.
    pub buffered: usize,
}

impl std::fmt::Display for FrameOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes ({} buffered)", self.buffered)
    }
}

impl std::error::Error for FrameOverflow {}

/// One complete frame split off the byte stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// A JSON line, without its newline (decoded lossily: the JSON
    /// layer rejects garbage with a `bad_request`, which is richer than
    /// a UTF-8 error here).
    Json(String),
    /// A binary frame, header included; decode with [`decode_bin`].
    Binary(Vec<u8>),
}

/// Incremental frame splitter for stream reads: feed whatever bytes the
/// socket produced, get back every frame completed so far, keep the
/// partial tail buffered for the next read. The event-loop server uses
/// it for partial frames split across any number of TCP segments, and
/// the blocking [`crate::Client`] uses it for replies. Each byte of a
/// JSON line is scanned for its newline once, however many reads the
/// line arrives in; a binary frame is cut by its length field.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline without finding
    /// one (only meaningful while a JSON line is pending).
    scanned: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Bytes buffered for the (not yet complete) current frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Append raw bytes and split off every completed frame, in order.
    ///
    /// # Errors
    ///
    /// [`FrameOverflow`] once an unterminated line exceeds
    /// [`MAX_FRAME_BYTES`], or a binary header declares a larger frame;
    /// the connection should be dropped — the buffer is left cleared.
    pub fn push_bytes(&mut self, data: &[u8]) -> Result<Vec<Frame>, FrameOverflow> {
        self.buf.extend_from_slice(data);
        let mut frames = Vec::new();
        let mut start = 0usize;
        loop {
            let rest = &self.buf[start..];
            if rest.first() == Some(&BINARY_MAGIC) {
                if rest.len() < 8 {
                    break;
                }
                let total = BIN_HEADER_BYTES + le_u32(rest, 4) as usize;
                if total > MAX_FRAME_BYTES {
                    return Err(self.overflow(total));
                }
                if rest.len() < total {
                    break;
                }
                frames.push(Frame::Binary(rest[..total].to_vec()));
                start += total;
                self.scanned = start;
                continue;
            }
            let from = self.scanned.max(start);
            let Some(at) = self.buf[from..].iter().position(|&b| b == b'\n') else {
                self.scanned = self.buf.len();
                break;
            };
            let line = &self.buf[start..from + at];
            if line.len() > MAX_FRAME_BYTES {
                return Err(self.overflow(line.len()));
            }
            frames.push(Frame::Json(String::from_utf8_lossy(line).into_owned()));
            start = from + at + 1;
            self.scanned = start;
        }
        self.buf.drain(..start);
        self.scanned -= start;
        if self.buf.len() > MAX_FRAME_BYTES {
            return Err(self.overflow(self.buf.len()));
        }
        Ok(frames)
    }

    fn overflow(&mut self, buffered: usize) -> FrameOverflow {
        self.buf.clear();
        self.scanned = 0;
        FrameOverflow { buffered }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_frames(frames: Vec<Frame>) -> Vec<String> {
        frames
            .into_iter()
            .map(|f| match f {
                Frame::Json(s) => s,
                Frame::Binary(b) => panic!("unexpected binary frame {b:?}"),
            })
            .collect()
    }

    #[test]
    fn request_round_trips_with_arbitrary_ids() {
        for id in [Json::Int(7), Json::Str("abc".to_string()), Json::Null] {
            let line = Request::render(&id, "valency", &Json::Obj(vec![]));
            let req = Request::parse(&line).expect("parses");
            assert_eq!(req.id, id);
            assert_eq!(req.job, "valency");
            assert_eq!(req.params, Json::Obj(vec![]));
            assert_eq!(req.trace, None);
        }
    }

    #[test]
    fn rendered_requests_match_the_object_rendering() {
        let params = randsync_obs::parse_json("{\"protocol\":\"cas\",\"n\":[1,2]}").unwrap();
        for (id, trace) in [(Json::Int(3), None), (Json::Str("a\"b".into()), Some((9, 1)))] {
            let mut fields = vec![
                ("id".to_string(), id.clone()),
                ("job".to_string(), Json::Str("va\nlency".to_string())),
                ("params".to_string(), params.clone()),
            ];
            if let Some((t, s)) = trace {
                fields.push((
                    "trace".to_string(),
                    Json::Obj(vec![
                        ("t".to_string(), Json::Int(i128::from(t))),
                        ("s".to_string(), Json::Int(i128::from(s))),
                    ]),
                ));
            }
            assert_eq!(
                Request::render_traced(&id, "va\nlency", &params, trace),
                Json::Obj(fields).render()
            );
        }
    }

    #[test]
    fn parse_takes_the_first_of_repeated_keys() {
        let req = Request::parse("{\"job\":\"a\",\"id\":1,\"job\":\"b\",\"id\":2}").unwrap();
        assert_eq!((req.job.as_str(), req.id), ("a", Json::Int(1)));
        assert!(Request::parse("{\"job\":1,\"job\":\"b\"}").is_err());
    }

    #[test]
    fn trace_context_round_trips_on_the_wire() {
        let line =
            Request::render_traced(&Json::Int(1), "explore", &Json::Null, Some((u64::MAX, 42)));
        let req = Request::parse(&line).expect("parses");
        assert_eq!(req.trace, Some((u64::MAX, 42)));
        // A malformed trace field degrades to "no context", never an error.
        let req = Request::parse("{\"job\":\"x\",\"trace\":{\"t\":1}}").expect("parses");
        assert_eq!(req.trace, None);
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        assert!(Request::parse("not json").unwrap_err().contains("invalid JSON"));
        assert!(Request::parse("[1,2]").unwrap_err().contains("object"));
        assert!(Request::parse("{\"id\":1}").unwrap_err().contains("job"));
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.push_bytes(b"{\"id\":1,").unwrap(), Vec::<Frame>::new());
        assert_eq!(fb.pending_bytes(), 8);
        let frames = json_frames(fb.push_bytes(b"\"job\":\"metrics\"}\nnext").unwrap());
        assert_eq!(frames, vec!["{\"id\":1,\"job\":\"metrics\"}".to_string()]);
        assert_eq!(fb.pending_bytes(), 4);
        let frames = json_frames(fb.push_bytes(b"\n\n").unwrap());
        assert_eq!(frames, vec!["next".to_string(), String::new()]);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buffer_yields_many_frames_from_one_read() {
        let mut fb = FrameBuffer::new();
        let frames = json_frames(fb.push_bytes(b"a\nb\nc\n").unwrap());
        assert_eq!(frames, vec!["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn frame_buffer_caps_unterminated_frames() {
        let mut fb = FrameBuffer::new();
        let chunk = vec![b'x'; MAX_FRAME_BYTES / 2 + 1];
        assert!(fb.push_bytes(&chunk).is_ok());
        let err = fb.push_bytes(&chunk).expect_err("cap must trip");
        assert!(err.buffered > MAX_FRAME_BYTES);
        // The buffer resets so the connection teardown path is clean.
        assert_eq!(fb.pending_bytes(), 0);
    }

    fn probe_frame(id: u64, keys: u32) -> Vec<u8> {
        let header = BinHeader {
            kind: BinKind::Probe,
            id,
            session: 1,
            trace: Some((5, 6)),
            count: keys,
            stride: 2,
        };
        let hashes: Vec<u64> = (0..u64::from(keys)).map(|k| k * 0x0a0a).collect();
        let words: Vec<u32> = (0..keys * 2).map(|w| w.wrapping_mul(0x0a0a_0a0a)).collect();
        let mut out = Vec::new();
        encode_bin(&mut out, &header, &hashes, &[], &words);
        out
    }

    #[test]
    fn binary_frames_interleave_with_json_lines_at_any_split() {
        // Payload bytes equal to '\n' (0x0a) must not cut the frame.
        let bin = probe_frame(7, 40);
        assert!(bin.contains(&b'\n'));
        let mut stream = b"{\"job\":\"metrics\"}\n".to_vec();
        stream.extend_from_slice(&bin);
        stream.extend_from_slice(b"{\"job\":\"x\"}\n");
        stream.extend_from_slice(&bin);
        let expected = vec![
            Frame::Json("{\"job\":\"metrics\"}".to_string()),
            Frame::Binary(bin.clone()),
            Frame::Json("{\"job\":\"x\"}".to_string()),
            Frame::Binary(bin.clone()),
        ];
        for step in [1, 3, 7, 48, 1000, stream.len()] {
            let mut fb = FrameBuffer::new();
            let mut frames = Vec::new();
            for chunk in stream.chunks(step) {
                frames.extend(fb.push_bytes(chunk).unwrap());
            }
            assert_eq!(frames, expected, "split every {step} bytes");
            assert_eq!(fb.pending_bytes(), 0);
        }
    }

    #[test]
    fn binary_frames_round_trip_every_kind() {
        let h = |kind, count, stride| BinHeader {
            kind,
            id: u64::MAX - 1,
            session: 42,
            trace: None,
            count,
            stride,
        };
        type Case<'a> = (BinHeader, &'a [u64], &'a [u32], &'a [u32]);
        let cases: [Case<'_>; 4] = [
            (h(BinKind::Probe, 2, 1), &[1, u64::MAX], &[], &[7, 8]),
            (h(BinKind::Insert, 1, 3), &[9], &[0], &[1, 2, 3]),
            (h(BinKind::ProbeReply, 3, 0), &[], &[4, ABSENT, 0], &[]),
            (h(BinKind::InsertReply, 5, 0), &[], &[], &[]),
        ];
        for (header, hashes, indices, words) in cases {
            let mut out = Vec::new();
            encode_bin(&mut out, &header, hashes, indices, words);
            assert_eq!(peek_bin_id(&out), Some(header.id));
            let frame = decode_bin(&out).expect("decodes");
            assert_eq!(frame.header, header);
            assert_eq!(frame.hashes, hashes);
            assert_eq!(frame.indices, indices);
            assert_eq!(frame.words, words);
        }
    }

    #[test]
    fn an_oversized_binary_declaration_is_an_overflow_before_any_buffering() {
        let mut bytes = probe_frame(1, 1);
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fb = FrameBuffer::new();
        let err = fb.push_bytes(&bytes[..8]).expect_err("declared size over the cap");
        assert!(err.buffered > MAX_FRAME_BYTES);
        assert_eq!(fb.pending_bytes(), 0);
        assert_eq!(decode_bin(&bytes), Err(BinError::TooLarge { declared: u64::from(u32::MAX) }));
    }

    #[test]
    fn frames_are_single_line_and_echo_the_id() {
        let id = Json::Str("x\ny".to_string());
        for frame in [
            ok_frame(&id, "run", Json::Null),
            error_frame(&id, code::OVERLOADED, "queue full"),
            progress_frame(&id, "started", &[("depth", Json::Int(3))]),
        ] {
            assert!(!frame.contains('\n'), "{frame}");
            let v = randsync_obs::parse_json(&frame).expect("frame parses");
            assert_eq!(v.get("id").and_then(Json::as_str), Some("x\ny"));
        }
    }
}
