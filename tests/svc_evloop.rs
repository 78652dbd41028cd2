//! Event-loop integration tests: connection scalability without
//! thread-per-connection, the `max_conns` admission cap, and partial
//! frame reassembly over raw sockets. These pin the properties the
//! readiness-loop refactor exists for — a blocking-I/O server passes
//! none of them.
//!
//! The metrics registry is process-global, so metric assertions are
//! before/after *deltas*, never absolutes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use randsync::obs::Json;
use randsync::svc::wire::{
    decode_bin, encode_bin, BinHeader, BinKind, Frame, FrameBuffer, ABSENT, WIRE_SCHEMA_VERSION,
};
use randsync::svc::{Client, Server, ServerConfig};

/// Start an in-process server on an ephemeral loopback port.
fn start_server(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Threads in this process, from `/proc/self/status` (linux only).
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn hundreds_of_connections_share_a_handful_of_threads() {
    // Two worker threads, far more live connections: a
    // thread-per-connection server would need 300 threads (or refuse
    // service); the readiness loop multiplexes them all.
    const CONNS: usize = 300;
    let (addr, server) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let mut clients = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        clients.push(Client::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")));
    }
    // Every connection is open simultaneously and every one of them
    // gets served (control frames answer inline on the loop).
    for (i, client) in clients.iter_mut().enumerate() {
        let snapshot = client.metrics().unwrap_or_else(|e| panic!("metrics on #{i}: {e}"));
        assert!(snapshot.get("svc.connections").is_some(), "conn #{i} got a real snapshot");
    }

    // The whole test process — harness, server loop, 2 workers, and
    // all 300 held connections — stays far below one-thread-per-conn.
    #[cfg(target_os = "linux")]
    {
        let threads = process_threads();
        assert!(
            threads < CONNS / 4,
            "{CONNS} open connections must not cost {threads} threads"
        );
    }

    // The loop also survives all of them disconnecting at once.
    drop(clients);
    let mut last = Client::connect(addr).expect("connect after mass close");
    last.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn connections_over_the_cap_get_an_immediate_overloaded_frame() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        max_conns: 3,
        ..ServerConfig::default()
    });

    // Fill the cap, with a round trip on each so the server has
    // registered all three before the over-cap connection arrives.
    let mut in_cap = Vec::new();
    for _ in 0..3 {
        let mut c = Client::connect(addr).expect("connect");
        c.metrics().expect("metrics");
        in_cap.push(c);
    }
    let before = in_cap[0].metrics().expect("metrics");

    // The fourth connection is accepted just long enough to be told
    // why it cannot stay: an `overloaded` error frame, then EOF — not
    // a silent hang in some accept backlog.
    let mut rejected = Client::connect(addr).expect("tcp connect succeeds");
    let frame = rejected.next_frame().expect("rejection frame");
    assert_eq!(frame.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        frame.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("overloaded")
    );
    let eof = rejected.next_frame();
    assert!(eof.is_err(), "the server must close the over-cap connection");

    let after = in_cap[0].metrics().expect("metrics");
    let bounced = after.get("svc.conns.rejected").and_then(Json::as_u64).unwrap_or(0)
        - before.get("svc.conns.rejected").and_then(Json::as_u64).unwrap_or(0);
    assert!(bounced >= 1, "the rejection is observable (saw {bounced})");

    // Capacity is reclaimed: once one in-cap connection leaves, a new
    // one gets in (the loop notices the close on its next wakeup).
    drop(in_cap.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut reclaimed = loop {
        let mut c = Client::connect(addr).expect("connect");
        if c.metrics().is_ok() {
            break c;
        }
        assert!(Instant::now() < deadline, "freed capacity was never reclaimed");
        thread::sleep(Duration::from_millis(20));
    };

    // Shut down through the already-admitted connection — a fresh one
    // could race the loop reaping the two just-dropped sockets and be
    // bounced over-cap itself.
    drop(in_cap);
    reclaimed.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn partial_and_batched_frames_are_reassembled() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // One request dribbled in byte-sized writes: the loop must buffer
    // the partial line across poll wakeups and fire only on newline.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let request = b"{\"id\": 7, \"job\": \"metrics\", \"params\": null}\n";
    let (head, tail) = request.split_at(request.len() / 2);
    stream.write_all(head).expect("first half");
    stream.flush().expect("flush");
    thread::sleep(Duration::from_millis(100)); // let the loop see a frameless read
    for b in tail {
        stream.write_all(&[*b]).expect("dribble");
    }
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line");
    let reply = randsync::obs::parse_json(line.trim()).expect("reply parses");
    assert_eq!(reply.get("id"), Some(&Json::Int(7)));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));

    // Two requests in a single write: both must be answered, in order.
    let batch = b"{\"id\": 8, \"job\": \"metrics\", \"params\": null}\n{\"id\": 9, \"job\": \"metrics\", \"params\": null}\n";
    stream.write_all(batch).expect("batched write");
    stream.flush().expect("flush");
    for expect_id in [8i128, 9] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let reply = randsync::obs::parse_json(line.trim()).expect("reply parses");
        assert_eq!(reply.get("id"), Some(&Json::Int(expect_id)));
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    }

    // A peer that half-closes after sending still gets its answer:
    // EOF with a pending reply must flush, not drop the connection.
    let mut half = TcpStream::connect(addr).expect("connect");
    half.write_all(b"{\"id\": 10, \"job\": \"metrics\", \"params\": null}\n").expect("write");
    half.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut buf = String::new();
    half.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    BufReader::new(&half).read_to_string(&mut buf).expect("drain to EOF");
    let reply = randsync::obs::parse_json(buf.trim()).expect("reply parses");
    assert_eq!(reply.get("id"), Some(&Json::Int(10)));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));

    drop(stream);
    let mut last = Client::connect(addr).expect("connect");
    last.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

/// Read frames off a raw socket until `n` have arrived.
fn read_frames(stream: &mut TcpStream, fb: &mut FrameBuffer, n: usize) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    while frames.len() < n {
        let got = stream.read(&mut buf).expect("reply bytes");
        assert!(got > 0, "server closed with {} of {n} frames read", frames.len());
        frames.extend(fb.push_bytes(&buf[..got]).expect("reply frames"));
    }
    frames
}

fn json_of(frame: &Frame) -> Json {
    match frame {
        Frame::Json(line) => randsync::obs::parse_json(line).expect("reply parses"),
        Frame::Binary(bytes) => panic!("expected a JSON frame, got {} binary bytes", bytes.len()),
    }
}

#[test]
fn dribbled_binary_frames_interleave_with_json_frames() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut fb = FrameBuffer::new();

    let open = format!(
        "{{\"id\": 1, \"job\": \"frontier_open\", \
         \"params\": {{\"stride\": 2, \"version\": {WIRE_SCHEMA_VERSION}}}}}\n"
    );
    stream.write_all(open.as_bytes()).expect("open");
    let reply = json_of(&read_frames(&mut stream, &mut fb, 1)[0]);
    let session = reply
        .get("result")
        .and_then(|r| r.get("session"))
        .and_then(Json::as_u64)
        .expect("session id");

    // insert (binary) · metrics (JSON) · probe (binary) · close (JSON),
    // one connection, written a byte at a time. Hash and word bytes
    // include 0x0a, which must not be read as a line end.
    let header = |kind, id, count| BinHeader { kind, id, session, trace: None, count, stride: 2 };
    let mut wire = Vec::new();
    encode_bin(
        &mut wire,
        &header(BinKind::Insert, 2, 3),
        &[0x0a, 0x0a0a, 0x0a0a0a],
        &[10, 11, 12],
        &[0x0a, 1, 0x0a, 2, 0x0a, 3],
    );
    wire.extend_from_slice(b"{\"id\": 3, \"job\": \"metrics\", \"params\": null}\n");
    encode_bin(
        &mut wire,
        &header(BinKind::Probe, 4, 4),
        &[0x0a, 0x0a0a, 0x0a0a0a, 0x0a0a0a0a],
        &[],
        &[0x0a, 1, 0x0a, 2, 0x0a, 3, 0x0a, 4],
    );
    let close = format!(
        "{{\"id\": 5, \"job\": \"frontier_close\", \"params\": {{\"session\": {session}}}}}\n"
    );
    wire.extend_from_slice(close.as_bytes());
    for (i, b) in wire.iter().enumerate() {
        stream.write_all(&[*b]).expect("dribble");
        if i == 20 {
            thread::sleep(Duration::from_millis(50)); // a read inside the first header
        }
    }

    let frames = read_frames(&mut stream, &mut fb, 4);
    let Frame::Binary(insert) = &frames[0] else { panic!("insert reply: {:?}", frames[0]) };
    let insert = decode_bin(insert).expect("insert reply decodes");
    let h = insert.header;
    assert_eq!((h.kind, h.id, h.count), (BinKind::InsertReply, 2, 3));
    let metrics = json_of(&frames[1]);
    assert_eq!(metrics.get("id"), Some(&Json::Int(3)));
    assert_eq!(metrics.get("status").and_then(Json::as_str), Some("ok"));
    let Frame::Binary(probe) = &frames[2] else { panic!("probe reply: {:?}", frames[2]) };
    let probe = decode_bin(probe).expect("probe reply decodes");
    assert_eq!((probe.header.kind, probe.header.id), (BinKind::ProbeReply, 4));
    assert_eq!(probe.indices, vec![10, 11, 12, ABSENT]);
    let closed = json_of(&frames[3]);
    assert_eq!(closed.get("id"), Some(&Json::Int(5)));
    assert_eq!(closed.get("status").and_then(Json::as_str), Some("ok"));

    drop(stream);
    let mut last = Client::connect(addr).expect("connect");
    last.shutdown().expect("shutdown");
    server.join().expect("server drains");
}
