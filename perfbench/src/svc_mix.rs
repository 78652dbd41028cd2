//! The `svc-mix` workload: a closed loop of clients, one thread and
//! one connection each, against an in-process job server.
//!
//! Each client cycles through five job kinds: a cacheable valency
//! question (answered from the cache after the first request), a small
//! uncached exploration, a seeded Monte Carlo batch, a seeded threaded
//! run, and the replay of a flight trace recorded at set-up. Every
//! search is tiny, so the wire, the event loop, the queue, dispatch and
//! the cache do most of the work.

use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use randsync_consensus::registry;
use randsync_model::{Protocol, Runtime, SplitMix64};
use randsync_objects::bridge;
use randsync_obs::{ExecutionTrace, Json, TRACE_SCHEMA_VERSION};
use randsync_svc::{Client, Job, Reply};

use crate::cluster::{MetricsDelta, ServerHandle};
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::{measure_setup, process_cpu_s, Opts, Report, RunDir};

/// The job kinds, in each client's cycle order.
const KINDS: [&str; 5] = ["valency", "explore", "monte_carlo", "run", "replay"];

/// Kinds whose replies the server may answer from its cache.
const CACHEABLE: [&str; 2] = ["valency", "monte_carlo"];

/// Reply fields that report memory residency or timing, which differ
/// between two executions of the same job.
const UNCOMPARED_FIELDS: [&str; 2] = ["resident_arena_bytes", "wall_micros"];

/// Untraced and traced phases alternate at this period in the traced
/// run (shorter when the window holds fewer than two such phases).
const TRACE_PHASE: Duration = Duration::from_millis(1000);

/// The parameters of one job. Only the seeded kinds vary; the others
/// repeat the same request.
fn params(kind: usize, seed: u64, trace: &str) -> Json {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let s = |v: &str| Json::Str(v.to_string());
    let int = |v: u64| Json::Int(i128::from(v));
    match KINDS[kind] {
        "valency" => obj(vec![("protocol", s("cas"))]),
        "explore" => obj(vec![("protocol", s("optimistic")), ("n", int(3)), ("r", int(2))]),
        "monte_carlo" => {
            obj(vec![("protocol", s("walk-counter")), ("trials", int(256)), ("seed", int(seed))])
        }
        "run" => obj(vec![("protocol", s("cas")), ("n", int(2)), ("seed", int(seed))]),
        _ => obj(vec![("trace", s(trace))]),
    }
}

/// Record one threaded `cas` run as a flight trace (JSONL).
fn record_trace(seed: u64) -> Result<String, String> {
    let entry = registry::find("cas").expect("registered protocol");
    let protocol = (entry.build)(entry.default_n, entry.default_r);
    let inputs = entry.default_inputs.to_vec();
    let objects = bridge::instantiate_all(&protocol).map_err(|e| format!("bridge cas: {e}"))?;
    let (report, execution) = Runtime::new(seed).run_traced(&protocol, &inputs, &objects);
    Ok(ExecutionTrace {
        schema_version: TRACE_SCHEMA_VERSION,
        protocol: entry.name.to_string(),
        n: protocol.num_processes(),
        r: entry.default_r,
        seed,
        interpreter: "runtime".to_string(),
        inputs,
        steps: execution.steps().iter().map(|s| (s.pid.index() as u32, s.coin)).collect(),
        decisions: report.decisions,
    }
    .to_jsonl())
}

struct Setup {
    server: ServerHandle,
    clients: Vec<Client>,
    trace: String,
}

impl Setup {
    fn teardown(self) -> Result<(), String> {
        drop(self.clients);
        self.server.stop()
    }
}

fn setup(opts: &Opts, ckpt: &Path, nproc: usize) -> Result<Setup, String> {
    let server = ServerHandle::start(nproc, ckpt)?;
    let clients: Result<Vec<Client>, String> = (0..nproc)
        .map(|_| Client::connect(server.addr).map_err(|e| format!("connect: {e}")))
        .collect();
    match clients.and_then(|clients| Ok((clients, record_trace(opts.seed)?))) {
        Ok((clients, trace)) => Ok(Setup { server, clients, trace }),
        Err(e) => {
            let _ = server.stop();
            Err(e)
        }
    }
}

/// One request as a client saw it.
struct Sample {
    kind: usize,
    /// Which client sent it, and its sequence number there.
    req: u64,
    send: Instant,
    queued: Option<Instant>,
    started: Option<Instant>,
    done: Instant,
    /// Configs visited, for `explore` replies.
    configs: Option<u64>,
    /// Whether the reply arrived, was `ok`, and agreed with the earlier
    /// replies to the same request.
    check: Result<(), String>,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        match self.check {
            Ok(()) => (self.done - self.send).as_secs_f64(),
            Err(_) => f64::INFINITY,
        }
    }
}

/// The distinct deterministic replies a client received, by (kind,
/// seed), with how many requests each answered. Replies are checked
/// against each other as they arrive and against in-process execution
/// after the window, so memory stays bounded by the distinct requests.
type Replies = HashMap<(usize, u64), (Json, u64)>;

/// A client's job stream: the cycle of kinds, starting at a different
/// kind per client, with seeds drawn from the workload seed.
struct JobStream {
    rng: SplitMix64,
    next: usize,
    client: u64,
    sent: u64,
}

impl JobStream {
    fn new(workload_seed: u64, client: usize) -> JobStream {
        let mut rng = SplitMix64::new(workload_seed);
        for _ in 0..=client {
            rng = rng.fork();
        }
        JobStream { rng, next: client % KINDS.len(), client: client as u64, sent: 0 }
    }

    /// The next (kind, seed, request id).
    fn next(&mut self) -> (usize, u64, u64) {
        let kind = self.next;
        self.next = (self.next + 1) % KINDS.len();
        self.sent += 1;
        // 40-bit seeds keep `seed + trials` far from overflow.
        (kind, self.rng.next_u64() >> 24, (self.client << 32) | self.sent)
    }
}

/// The reference key of a request: only the seeded kinds vary.
fn reply_key(kind: usize, seed: u64) -> (usize, u64) {
    (kind, if KINDS[kind] == "monte_carlo" { seed } else { 0 })
}

/// Check one reply as it arrives: it is `ok`, a run's verdict holds,
/// and a deterministic reply equals every earlier reply to the same
/// request.
fn check_reply(
    kind: usize,
    seed: u64,
    reply: std::io::Result<Reply>,
    replies: &mut Replies,
) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("{} request failed: {e}", KINDS[kind]))?;
    if !reply.ok {
        return Err(format!("{} error reply: {}", KINDS[kind], reply.body.render()));
    }
    if KINDS[kind] == "run" {
        let holds = |k: &str| reply.body.get(k) == Some(&Json::Bool(true));
        return if holds("all_decided") && holds("consistent") && holds("valid") {
            Ok(())
        } else {
            Err(format!("run verdict wrong: {}", reply.body.render()))
        };
    }
    if KINDS[kind] == "replay" && reply.body.get("matches_recording") != Some(&Json::Bool(true)) {
        return Err("replay does not match the recorded run".to_string());
    }
    let body = comparable(&reply.body);
    match replies.entry(reply_key(kind, seed)) {
        Entry::Vacant(slot) => {
            slot.insert((body, 1));
            Ok(())
        }
        Entry::Occupied(mut slot) if slot.get().0 == body => {
            slot.get_mut().1 += 1;
            Ok(())
        }
        Entry::Occupied(slot) => Err(format!(
            "{} reply {} differs from an earlier one {}",
            KINDS[kind],
            body.render(),
            slot.get().0.render()
        )),
    }
}

/// Send jobs in a closed loop until `more` says stop.
fn client_loop(
    client: &mut Client,
    jobs: &mut JobStream,
    trace: &str,
    replies: &mut Replies,
    mut more: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    while more(samples.len()) {
        let (kind, seed, req) = jobs.next();
        let body = params(kind, seed, trace);
        let send = Instant::now();
        let (mut queued, mut started) = (None, None);
        let reply = client.send(KINDS[kind], &body).and_then(|id| {
            client.wait(&id, |frame| match frame.get("stage").and_then(Json::as_str) {
                Some("queued") => queued = Some(Instant::now()),
                Some("started") => started = Some(Instant::now()),
                _ => {}
            })
        });
        let done = Instant::now();
        let broken = reply.is_err();
        let configs = reply.as_ref().ok().and_then(|r| r.body.get("configs")?.as_u64());
        let check = check_reply(kind, seed, reply, replies);
        samples.push(Sample { kind, req, send, queued, started, done, configs, check });
        if broken {
            break;
        }
    }
    samples
}

/// Drop the fields two executions of one job may legitimately differ
/// in.
fn comparable(body: &Json) -> Json {
    match body {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !UNCOMPARED_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Count every sample's own check, then compare each distinct
/// deterministic reply with `Job::execute` of the same parameters in
/// this process; a mismatch fails every request it answered.
fn check_all(report: &mut Report, samples: Vec<Sample>, replies: &[Replies], trace: &str) {
    for s in samples {
        report.check(s.check);
    }
    for (&(kind, seed), (body, count)) in replies.iter().flatten() {
        let want = Job::parse(KINDS[kind], &params(kind, seed, trace))
            .and_then(|job| job.execute(Instant::now() + Duration::from_secs(600)))
            .map(|want| comparable(&want));
        let problem = match want {
            Err(e) => format!("{} reference failed: {}", KINDS[kind], e.message),
            Ok(want) if want == *body => continue,
            Ok(want) => format!(
                "{} reply {} differs from in-process {}",
                KINDS[kind],
                body.render(),
                want.render()
            ),
        };
        // The requests were counted as passing above; move them.
        report.failed += count;
        report.problems.push(problem);
    }
}

/// Run `svc-mix`.
pub(crate) fn run(opts: &Opts, dir: &RunDir, provenance: &Json) -> Result<Report, String> {
    let epoch = Instant::now();
    let nproc = crate::nproc();
    // Each set-up binds a server, starts its workers and connects the
    // clients; many repetitions give a steady median. The checkpoint
    // directory is the benchmark's own and is made once, outside them.
    let ckpt = dir.scratch("ckpt").map_err(|e| format!("checkpoint dir: {e}"))?;
    let (setup_s, mut env) = measure_setup(101, 1, || setup(opts, &ckpt, nproc), Setup::teardown)?;
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    let mut streams: Vec<JobStream> = (0..nproc).map(|c| JobStream::new(opts.seed, c)).collect();
    let mut replies: Vec<Replies> = (0..nproc).map(|_| Replies::new()).collect();
    let trace = env.trace.clone();

    // Warm-up: one full cycle per client, which also fills the cache.
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .clients
            .iter_mut()
            .zip(streams.iter_mut().zip(&mut replies))
            .map(|(c, (j, r))| scope.spawn(|| client_loop(c, j, &trace, r, |n| n < KINDS.len())))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let warm = samples.len();

    // Timed window. In the traced run a monitor snapshots the server's
    // metrics registry at each phase boundary.
    let registry = randsync_obs::global_metrics();
    let start = Instant::now();
    let window_len = Duration::from_secs(opts.seconds);
    let until = start + window_len;
    let phase = TRACE_PHASE.min(window_len / 2);
    let mut boundaries = vec![registry.snapshot()];
    let cpu_start = process_cpu_s();
    let timed: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .clients
            .iter_mut()
            .zip(streams.iter_mut().zip(&mut replies))
            .map(|(c, (j, r))| {
                scope.spawn(|| client_loop(c, j, &trace, r, |_| Instant::now() < until))
            })
            .collect();
        if opts.trace {
            let mut at = start;
            while at < until {
                at = (at + phase).min(until);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                boundaries.push(registry.snapshot());
            }
        }
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let cpu_s = process_cpu_s() - cpu_start;
    let end = timed.iter().map(|s| s.done).max().unwrap_or(until);
    samples.extend(timed);
    let window = &samples[warm..];

    if opts.trace {
        traced_metrics(&mut report, window, start, until, phase, &boundaries);
        let mut spans = SpanLog::new();
        for s in window.iter().filter(|s| phase_traced(s.send, start, phase)) {
            let root = spans.add(None, "svc.request", s.req, s.send, s.done);
            if let Some(q) = s.queued {
                spans.add(Some(root), "svc.admit", s.req, s.send, q);
                if let Some(st) = s.started {
                    spans.add(Some(root), "svc.queue_wait", s.req, q, st);
                }
            }
            if let Some(st) = s.started {
                let exec = spans.add(Some(root), "svc.exec", s.req, st, s.done);
                spans.field(exec, KINDS[s.kind], 1.0);
            }
        }
        let path = dir.root.join(format!("spans-svc-mix-seed{}.jsonl", opts.seed));
        spans
            .write_jsonl(&path, epoch, provenance.clone())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.notes.push(format!("spans in {}", path.display()));
    } else {
        // Client threads, event loop and workers all count: what one
        // job costs the process from request to checked reply.
        report.set("cpu_ms_per_op", cpu_s / window.len().max(1) as f64 * 1e3);
        wall_metrics(&mut report, &window.iter().collect::<Vec<_>>(), (end - start).as_secs_f64());
        let latencies: Vec<f64> = window.iter().map(Sample::latency_s).collect();
        let tail = crate::stats::tail_percentile(latencies.len());
        report.notes.push(format!(
            "{} clients, {} workers; {} jobs in {:.3} s and {cpu_s:.3} CPU s; tail percentile \
             with 10 samples beyond it: p{} = {:.3} ms",
            nproc,
            nproc,
            window.len(),
            (end - start).as_secs_f64(),
            tail.unwrap_or(50.0),
            percentile(&latencies, tail.unwrap_or(50.0)).unwrap_or(f64::INFINITY) * 1e3,
        ));
    }
    report.set("peak_rss_mb", crate::peak_rss_mb()?);
    env.clients.clear();
    env.server.stop()?;

    // After the window: every reply against its reference.
    check_all(&mut report, samples, &replies, &trace);
    Ok(report)
}

/// The wall-clock figures of `samples`, requests sent over `secs`
/// seconds: throughput, latency from send to the final frame (a failed
/// request counts as infinitely slow), and the configs per second of
/// the `explore` jobs from `started` to the final frame.
fn wall_metrics(report: &mut Report, samples: &[&Sample], secs: f64) {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s()).collect();
    report.set("wall.jobs_per_s", samples.len() as f64 / secs.max(1e-9));
    report.set("wall.latency_p50_ms", median(&latencies).unwrap_or(f64::INFINITY) * 1e3);
    report.set("wall.latency_p90_ms", percentile(&latencies, 90.0).unwrap_or(f64::INFINITY) * 1e3);
    let explore_rates: Vec<f64> = samples
        .iter()
        .filter(|s| KINDS[s.kind] == "explore")
        .filter_map(|s| Some(s.configs? as f64 / (s.done - s.started?).as_secs_f64()))
        .collect();
    report.set("wall.configs_per_s", median(&explore_rates).unwrap_or(0.0));
}

/// Whether a request sent at `send` fell in a traced phase (the odd
/// ones).
fn phase_traced(send: Instant, start: Instant, phase: Duration) -> bool {
    (send.saturating_duration_since(start).as_nanos() / phase.as_nanos()) % 2 == 1
}

fn traced_metrics(
    report: &mut Report,
    window: &[Sample],
    start: Instant,
    until: Instant,
    phase: Duration,
    boundaries: &[randsync_obs::Snapshot],
) {
    let (traced, plain): (Vec<&Sample>, Vec<&Sample>) =
        window.iter().partition(|s| phase_traced(s.send, start, phase));
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    let mut delta = MetricsDelta::default();
    let mut at = start;
    for (k, pair) in boundaries.windows(2).enumerate() {
        let next = (at + phase).min(until);
        let len = (next - at).as_secs_f64();
        if k % 2 == 1 {
            traced_s += len;
            delta.absorb(&pair[0], &pair[1]);
        } else {
            plain_s += len;
        }
        at = next;
    }
    let micros = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    let admit: Vec<f64> = traced.iter().filter_map(|s| Some(micros(s.send, s.queued?))).collect();
    let wait: Vec<f64> =
        traced.iter().filter_map(|s| Some(micros(s.queued?, s.started?))).collect();
    report.set("svc.admit_us", p(&admit, 50.0));
    report.set("svc.queue_wait_us.p50", p(&wait, 50.0));
    report.set("svc.queue_wait_us.p90", p(&wait, 90.0));
    for (kind, name) in KINDS.iter().zip([
        "svc.exec_ms.valency",
        "svc.exec_ms.explore",
        "svc.exec_ms.monte_carlo",
        "svc.exec_ms.run",
        "svc.exec_ms.replay",
    ]) {
        let exec: Vec<f64> = traced
            .iter()
            .filter(|s| KINDS[s.kind] == *kind)
            .filter_map(|s| Some(micros(s.started?, s.done) / 1e3))
            .collect();
        report.set(name, p(&exec, 50.0));
    }
    let cacheable: Vec<&&Sample> =
        traced.iter().filter(|s| CACHEABLE.contains(&KINDS[s.kind])).collect();
    let hits = cacheable.iter().filter(|s| s.queued.is_none()).count();
    report.set("svc.cache_hit_ratio", hits as f64 / cacheable.len().max(1) as f64);
    let latencies: Vec<f64> = traced.iter().map(|s| s.latency_s() * 1e3).collect();
    report.set("svc.latency_p99_ms", p(&latencies, 99.0));
    report.set("svc.loop.decode_us", delta.quantile("svc.loop.decode_us", 0.5));
    report.set("svc.loop.flush_us", delta.quantile("svc.loop.flush_us", 0.5));
    report.set(
        "svc.loop.wakeups_per_job",
        delta.counter("svc.loop.wakeups") as f64 / traced.len().max(1) as f64,
    );
    wall_metrics(report, &plain, plain_s);
    let traced_rate = traced.len() as f64 / traced_s.max(1e-9);
    let plain_rate = plain.len() as f64 / plain_s.max(1e-9);
    report.set("trace.overhead_pct", (plain_rate / traced_rate.max(1e-9) - 1.0) * 100.0);
    report.notes.push(format!(
        "{} plain jobs in {plain_s:.3} s, {} traced jobs in {traced_s:.3} s",
        plain.len(),
        traced.len()
    ));
}
