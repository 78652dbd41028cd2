//! A minimal blocking client for the job server, used by the CLI's
//! `submit`/`shutdown` subcommands and the loopback integration tests.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use randsync_obs::Json;

use crate::wire::{Frame, FrameBuffer, Request};

/// A completed request: the final `ok`/`error` frame plus any
/// `progress` frames that preceded it.
#[derive(Clone, PartialEq, Debug)]
pub struct Reply {
    /// Whether the final frame's status was `ok`.
    pub ok: bool,
    /// `result` on success, the `error` object (`code`, `message`) on
    /// failure.
    pub body: Json,
    /// The `progress` frames seen for this request, in order.
    pub progress: Vec<Json>,
}

impl Reply {
    /// The error code, when this reply is an error.
    pub fn error_code(&self) -> Option<&str> {
        if self.ok {
            None
        } else {
            self.body.get("code").and_then(Json::as_str)
        }
    }
}

/// One connection to a job server. Requests are correlated by `id`, so
/// several may be pipelined before reading replies.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Splits the reply stream into frames.
    frames: FrameBuffer,
    /// Frames split off but not yet returned.
    ready: VecDeque<Frame>,
    next_id: i128,
}

impl Client {
    /// The default idle deadline: generous, so a wedged server
    /// surfaces as an error rather than a hang, while long jobs that
    /// stream progress frames stay alive indefinitely.
    pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

    /// Connect to a server with the default idle deadline
    /// ([`Client::DEFAULT_IDLE_TIMEOUT`]).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Some(Client::DEFAULT_IDLE_TIMEOUT))
    }

    /// Connect with an explicit idle deadline: the longest silence
    /// tolerated between frames (`None` = wait forever). It is an
    /// *idle* deadline, not a total one — every frame the server sends
    /// (including `queued`/`started`/`explore.level` progress) resets
    /// it, so a slow job survives as long as it keeps reporting.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        idle: Option<Duration>,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(idle)?;
        // Frames are small and latency-bound (frontier probe/insert
        // round trips especially); never trade latency for batching.
        stream.set_nodelay(true)?;
        Ok(Client { stream, frames: FrameBuffer::new(), ready: VecDeque::new(), next_id: 0 })
    }

    /// Change the idle deadline of an established connection.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_idle_timeout(&mut self, idle: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(idle)
    }

    /// Send one request frame without waiting for its reply; returns
    /// the auto-assigned id to correlate the response with.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, job: &str, params: &Json) -> std::io::Result<Json> {
        let id = Json::Int(i128::from(self.fresh_id()));
        self.send_with_id(&id, job, params)?;
        Ok(id)
    }

    /// A request id not yet used on this connection, for JSON requests
    /// and binary frames alike.
    pub fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id as u64
    }

    /// Send one request frame with a caller-chosen id. If the calling
    /// thread has a current [`randsync_obs::TraceContext`] (an open
    /// span or an installed root), it rides along on the frame so the
    /// server's spans join the caller's causal tree.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_with_id(&mut self, id: &Json, job: &str, params: &Json) -> std::io::Result<()> {
        let trace = randsync_obs::current_context().map(|ctx| (ctx.trace_id, ctx.span_id));
        let mut line = Request::render_traced(id, job, params, trace);
        line.push('\n');
        self.send_raw(line.as_bytes())
    }

    /// Write raw frame bytes — one or more complete frames, such as the
    /// binary frontier frames of [`crate::wire::encode_bin`].
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read the next frame from the server, JSON or binary, whatever
    /// request it belongs to.
    ///
    /// # Errors
    ///
    /// I/O failure, closed connection, or a frame over
    /// [`crate::wire::MAX_FRAME_BYTES`].
    pub fn next_raw(&mut self) -> std::io::Result<Frame> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.ready.pop_front() {
                return Ok(frame);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let frames = self.frames.push_bytes(&buf[..n]).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            })?;
            self.ready.extend(frames);
        }
    }

    /// Read the next JSON frame from the server, whatever request it
    /// belongs to. Binary frames answer binary requests, which read
    /// their replies with [`Client::next_raw`]; here they are skipped,
    /// like frames for other request ids in [`Client::wait`].
    ///
    /// # Errors
    ///
    /// I/O failure, closed connection, or an unparseable frame.
    pub fn next_frame(&mut self) -> std::io::Result<Json> {
        loop {
            let Frame::Json(line) = self.next_raw()? else { continue };
            if line.trim().is_empty() {
                continue;
            }
            return randsync_obs::parse_json(line.trim()).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unparseable frame from server: {e}"),
                )
            });
        }
    }

    /// Read frames until the final `ok`/`error` frame for `id`,
    /// invoking `on_progress` for each `progress` frame on the way.
    /// Frames for other (pipelined) request ids are skipped.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::next_frame`] failures.
    pub fn wait(
        &mut self,
        id: &Json,
        mut on_progress: impl FnMut(&Json),
    ) -> std::io::Result<Reply> {
        let mut progress = Vec::new();
        loop {
            let frame = self.next_frame()?;
            if frame.get("id") != Some(id) {
                continue;
            }
            match frame.get("status").and_then(Json::as_str) {
                Some("progress") => {
                    on_progress(&frame);
                    progress.push(frame);
                }
                Some("ok") => {
                    let body = frame.get("result").cloned().unwrap_or(Json::Null);
                    return Ok(Reply { ok: true, body, progress });
                }
                Some("error") => {
                    let body = frame.get("error").cloned().unwrap_or(Json::Null);
                    return Ok(Reply { ok: false, body, progress });
                }
                _ => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("frame without a known status: {}", frame.render()),
                    ));
                }
            }
        }
    }

    /// Send one request and block for its reply.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::wait`] failures.
    pub fn request(&mut self, job: &str, params: &Json) -> std::io::Result<Reply> {
        let id = self.send(job, params)?;
        self.wait(&id, |_| {})
    }

    /// Fetch the server's metrics snapshot (the `metrics` control
    /// frame).
    ///
    /// # Errors
    ///
    /// I/O failure, or the server answered with an error frame.
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        let reply = self.request("metrics", &Json::Null)?;
        if !reply.ok {
            return Err(std::io::Error::other(format!(
                "metrics request failed: {}",
                reply.body.render()
            )));
        }
        Ok(reply.body.get("metrics").cloned().unwrap_or(Json::Null))
    }

    /// Ask the server to drain and exit (the `shutdown` control
    /// frame); returns the number of jobs still queued at that moment.
    ///
    /// # Errors
    ///
    /// I/O failure, or the server answered with an error frame.
    pub fn shutdown(&mut self) -> std::io::Result<u64> {
        let reply = self.request("shutdown", &Json::Null)?;
        if !reply.ok {
            return Err(std::io::Error::other(format!(
                "shutdown request failed: {}",
                reply.body.render()
            )));
        }
        Ok(reply.body.get("draining").and_then(Json::as_u64).unwrap_or(0))
    }
}
