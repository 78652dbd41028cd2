//! The explorer workloads: `valency-walk`, `explore-phase-spill` and
//! `dist-valency`.
//!
//! Each times repeated calls of one `Explorer` question on one input
//! vector, checking every answer. The traced variant alternates plain
//! calls with traced ones (metrics on, the step and transport
//! wrappers, spans) so that drift hits both alike.

use std::path::Path;
use std::time::{Duration, Instant};

use randsync_consensus::registry::{self, AnyProtocol};
use randsync_model::{ExploreLimits, ExploreOutcome, Explorer, Protocol, SharedFrontier};
use randsync_obs::Json;
use randsync_svc::DistributedFrontier;

use crate::cluster::{MetricsDelta, ServerHandle};
use crate::expect::{self, Expected, ExploreExpect, ValencyExpect};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, quartiles};
use crate::wrap::{SeamOp, StepStats, TimedProtocol, TimedTransport, TransportLog};
use crate::{measure_setup, process_cpu_s, Opts, Report, RunDir, Workload};

/// Resident-memory budget of `explore-phase-spill`: small enough that
/// both the arena and the dedup seen-set go to disk.
const SPILL_BUDGET_BYTES: usize = 4 << 20;

/// Frontier shard servers behind `dist-valency`.
const DIST_SHARDS: usize = 2;

/// Budgets far above every workload's space, so a search is never cut.
const LIMITS: ExploreLimits = ExploreLimits { max_configs: 2_000_000, max_depth: usize::MAX };

/// The question a workload asks, with its reference answer.
#[derive(Clone, Copy, Debug)]
enum Question {
    Valency(ValencyExpect),
    Explore(ExploreExpect),
}

/// One checked answer.
struct Answer {
    configs: usize,
    outcome: Option<ExploreOutcome>,
    check: Result<(), String>,
}

fn ask<P>(explorer: &Explorer, protocol: &P, inputs: &[u8], question: Question) -> Answer
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    match question {
        Question::Valency(want) => {
            let analysis = explorer.valency(protocol, inputs);
            Answer {
                configs: analysis.map_or(0, |a| a.configs),
                outcome: None,
                check: expect::check_valency(analysis.as_ref(), &want),
            }
        }
        Question::Explore(want) => {
            let outcome = explorer.explore(protocol, inputs);
            Answer {
                configs: outcome.configs_visited,
                check: expect::check_explore(&outcome, &want),
                outcome: Some(outcome),
            }
        }
    }
}

/// A set-up workload: the protocol, inputs and explorers, plus the
/// shard servers `dist-valency` runs against.
struct Case {
    protocol: AnyProtocol,
    inputs: Vec<u8>,
    question: Question,
    explorer: Explorer,
    /// The explorer traced calls use, and the log of its timed
    /// transport when it has one.
    traced: Explorer,
    transport_log: Option<TransportLog>,
    shards: Vec<ServerHandle>,
}

impl Case {
    fn teardown(self) -> Result<(), String> {
        // The explorers hold the shard connections; close them first.
        drop((self.explorer, self.traced));
        self.shards.into_iter().try_for_each(ServerHandle::stop)
    }
}

fn build(name: &str, n: usize, r: usize) -> AnyProtocol {
    let entry = registry::find(name).expect("registered protocol");
    (entry.build)(n, r)
}

fn setup(opts: &Opts, scratch: &Path, expected: &Expected) -> Result<Case, String> {
    let inputs = expect::inputs_for_seed(opts.seed).to_vec();
    let plain = Explorer::new(LIMITS).threads(0);
    match opts.workload {
        Workload::ValencyWalk => Ok(Case {
            protocol: build("walk-default", 3, 1),
            question: Question::Valency(expected.walk_for(&inputs)),
            inputs,
            traced: plain.clone(),
            explorer: plain,
            transport_log: None,
            shards: Vec::new(),
        }),
        Workload::ExplorePhaseSpill => {
            let explorer = plain
                .canonical(true)
                .mem_budget(SPILL_BUDGET_BYTES)
                .spill_dir(scratch.to_path_buf());
            Ok(Case {
                protocol: build("phase", 3, 3),
                question: Question::Explore(expected.phase_for(&inputs)),
                inputs,
                traced: explorer.clone(),
                explorer,
                transport_log: None,
                shards: Vec::new(),
            })
        }
        Workload::DistValency => {
            let mut shards = Vec::with_capacity(DIST_SHARDS);
            for _ in 0..DIST_SHARDS {
                match ServerHandle::start(1, scratch) {
                    Ok(s) => shards.push(s),
                    Err(e) => {
                        let _ = shards.into_iter().try_for_each(ServerHandle::stop);
                        return Err(e);
                    }
                }
            }
            let addrs: Vec<_> = shards.iter().map(|s| s.addr).collect();
            let connect =
                || DistributedFrontier::connect(&addrs).map_err(|e| format!("connect shards: {e}"));
            let explorer = plain.clone().frontier_transport(SharedFrontier::new(connect()?));
            let (traced, transport_log) = if opts.trace {
                let (timed, log) = TimedTransport::new(connect()?);
                (plain.frontier_transport(SharedFrontier::new(timed)), Some(log))
            } else {
                (explorer.clone(), None)
            };
            Ok(Case {
                protocol: build("walk-default", 3, 1),
                question: Question::Valency(expected.walk_for(&inputs)),
                inputs,
                explorer,
                traced,
                transport_log,
                shards,
            })
        }
        Workload::SvcMix => unreachable!("svc-mix is not an explorer workload"),
    }
}

/// What one traced call measured.
#[derive(Debug, Default)]
struct TracedCall {
    call_s: f64,
    self_s: f64,
    steps: f64,
    step_s: f64,
    candidates: f64,
    dedup_hits: f64,
    levels: f64,
    probe_s: f64,
    insert_s: f64,
    probes: f64,
    inserts: f64,
    probe_keys: f64,
}

/// The largest share of exchange rounds in which one shard was the
/// slowest (the server's `svc.dist.slowest.shard<k>` ÷ `svc.dist.rounds`).
fn slowest_shard_share(delta: &MetricsDelta) -> f64 {
    let rounds = delta.counter("svc.dist.rounds");
    let worst = (0..DIST_SHARDS)
        .map(|k| delta.counter(&format!("svc.dist.slowest.shard{k}")))
        .max()
        .unwrap_or(0);
    if rounds == 0 {
        0.0
    } else {
        worst as f64 / rounds as f64
    }
}

fn traced_call(
    case: &Case,
    steps: &StepStats,
    spans: &mut SpanLog,
    delta: &mut MetricsDelta,
    req: u64,
) -> (Answer, TracedCall) {
    let was_enabled = randsync_obs::metrics_enabled();
    randsync_obs::set_metrics_enabled(true);
    let registry = randsync_obs::global_metrics();
    let before = registry.snapshot();
    let (calls0, time0) = steps.totals();
    if let Some(log) = &case.transport_log {
        log.lock().expect("transport log").clear();
    }
    let protocol = TimedProtocol::new(&case.protocol, steps);
    let start = Instant::now();
    let answer = ask(&case.traced, &protocol, &case.inputs, case.question);
    let end = Instant::now();
    let after = registry.snapshot();
    randsync_obs::set_metrics_enabled(was_enabled);
    delta.absorb(&before, &after);

    let (calls1, time1) = steps.totals();
    let counter = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    let mut m = TracedCall {
        call_s: (end - start).as_secs_f64(),
        steps: (calls1 - calls0) as f64,
        step_s: (time1 - time0).as_secs_f64(),
        candidates: counter("explore.candidates"),
        dedup_hits: counter("explore.dedup_hits"),
        levels: counter("explore.levels"),
        ..TracedCall::default()
    };
    let root = spans.add(None, "explore.call", req, start, end);
    spans.field(root, "consensus.steps", m.steps);
    spans.field(root, "consensus.step_s", m.step_s);
    if let Some(log) = &case.transport_log {
        for call in log.lock().expect("transport log").iter() {
            let (name, secs) = match call.op {
                SeamOp::Probe => {
                    m.probes += 1.0;
                    m.probe_keys += call.keys as f64;
                    ("dist.probe", &mut m.probe_s)
                }
                SeamOp::Insert => {
                    m.inserts += 1.0;
                    ("dist.insert", &mut m.insert_s)
                }
            };
            *secs += (call.end - call.start).as_secs_f64();
            let id = spans.add(Some(root), name, req, call.start, call.end);
            spans.field(id, "keys", call.keys as f64);
        }
    }
    // Step spans are too many to keep one by one; they run on the
    // expansion workers in parallel, so their summed time is spread
    // over the worker count to estimate the wall time they cover.
    let workers = case.traced.config().effective_threads() as f64;
    m.self_s = (spans.self_time(root).as_secs_f64() - m.step_s / workers).max(0.0);
    (answer, m)
}

/// Run one explorer workload.
pub(crate) fn run(
    opts: &Opts,
    dir: &RunDir,
    expected: &Expected,
    provenance: &Json,
) -> Result<Report, String> {
    let epoch = Instant::now();
    // In-RAM set-ups take about a microsecond or less, so they are
    // timed in batches; shard set-ups bind sockets and start threads,
    // so they are timed one by one, many times for a steady median.
    let (samples, batch) =
        if opts.workload == Workload::DistValency { (101, 1) } else { (51, 200) };
    // The scratch directory (spill files, shard checkpoints) is the
    // benchmark's own and is made once, outside the timed set-ups.
    let scratch = dir.scratch("scratch").map_err(|e| format!("scratch dir: {e}"))?;
    let (setup_s, case) =
        measure_setup(samples, batch, || setup(opts, &scratch, expected), Case::teardown)?;
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    report.notes.push(format!(
        "inputs {:?}; set-up median of {samples} samples of {batch}; threads {}",
        case.inputs,
        case.explorer.config().effective_threads()
    ));

    // Warm-up: caches, allocator and page faults, not measured.
    report.check(ask(&case.explorer, &case.protocol, &case.inputs, case.question).check);

    let steps = StepStats::default();
    let mut spans = SpanLog::new();
    let mut delta = MetricsDelta::default();
    let mut plain_s = Vec::new();
    let mut plain_cpu_s = Vec::new();
    let mut traced = Vec::new();
    let mut configs = 0;
    let mut outcome = None;
    let window = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < window || plain_s.is_empty() || (opts.trace && traced.is_empty()) {
        let answer = if opts.trace && i % 2 == 1 {
            let (answer, m) = traced_call(&case, &steps, &mut spans, &mut delta, i);
            traced.push(m);
            answer
        } else {
            let (t, cpu) = (Instant::now(), process_cpu_s());
            let answer = ask(&case.explorer, &case.protocol, &case.inputs, case.question);
            plain_cpu_s.push(process_cpu_s() - cpu);
            plain_s.push(t.elapsed().as_secs_f64());
            answer
        };
        configs = answer.configs;
        outcome = answer.outcome.or(outcome);
        report.check(answer.check);
        i += 1;
    }

    if opts.trace {
        if outcome.is_none() {
            // `valency` returns no ExploreOutcome; the pack figures come
            // from one exploration of the same space.
            let Question::Valency(want) = case.question else { unreachable!() };
            let o = case.explorer.explore(&case.protocol, &case.inputs);
            let want = ExploreExpect { configs: want.configs, raw_configs: want.configs };
            report.check(expect::check_explore(&o, &want));
            outcome = Some(o);
        }
        layer_metrics(&mut report, &plain_s, &traced, &delta, outcome.as_ref());
        let path = dir.root.join(format!("spans-{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        spans
            .write_jsonl(&path, epoch, provenance.clone())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.notes.push(format!(
            "{} plain and {} traced calls; spans in {}",
            plain_s.len(),
            traced.len(),
            path.display()
        ));
    } else {
        report.set("cpu_ms_per_op", median(&plain_cpu_s).expect("one call at least") * 1e3);
        report.notes.push(format!(
            "{} timed calls of {configs} configs; call seconds quartiles {:?}, CPU seconds \
             quartiles {:?}",
            plain_s.len(),
            quartiles(&plain_s),
            quartiles(&plain_cpu_s)
        ));
    }
    let mid = median(&plain_s).expect("one call at least");
    report.set("wall.configs_per_s", configs as f64 / mid);
    report.set("wall.jobs_per_s", plain_s.len() as f64 / plain_s.iter().sum::<f64>());
    report.set("wall.latency_p50_ms", mid * 1e3);
    report.set("wall.latency_p90_ms", percentile(&plain_s, 90.0).expect("samples") * 1e3);
    report.set("peak_rss_mb", crate::peak_rss_mb()?);
    case.teardown()?;
    Ok(report)
}

fn layer_metrics(
    report: &mut Report,
    plain_s: &[f64],
    traced: &[TracedCall],
    delta: &MetricsDelta,
    outcome: Option<&ExploreOutcome>,
) {
    let med = |f: fn(&TracedCall) -> f64| {
        median(&traced.iter().map(f).collect::<Vec<_>>()).expect("one traced call at least")
    };
    let call_s = med(|m| m.call_s);
    report.set("consensus.steps", med(|m| m.steps));
    report.set("consensus.step_s", med(|m| m.step_s));
    report.set("explore.call_s", call_s);
    report.set("explore.self_s", med(|m| m.self_s));
    report.set("explore.candidates", med(|m| m.candidates));
    report.set(
        "explore.dedup_hit_ratio",
        med(|m| if m.candidates > 0.0 { m.dedup_hits / m.candidates } else { 0.0 }),
    );
    report.set("explore.levels", med(|m| m.levels));
    if let Some(o) = outcome {
        const MIB: f64 = (1u64 << 20) as f64;
        report.set("explore.bytes_per_config", o.bytes_per_config);
        report.set("explore.arena_mb", o.arena_bytes as f64 / MIB);
        report.set("explore.spilled_mb", o.spilled_bytes as f64 / MIB);
        report.set("explore.merge_passes", o.dedup_merge_passes as f64);
        report.set("explore.resident_mb", o.resident_arena_bytes as f64 / MIB);
    }
    if traced.iter().any(|m| m.probes > 0.0) {
        report.set("dist.probe_s", med(|m| m.probe_s));
        report.set("dist.insert_s", med(|m| m.insert_s));
        report.set("dist.rounds", med(|m| m.probes));
        report.set("dist.keys_per_round", med(|m| m.probe_keys / m.probes.max(1.0)));
        report.set("dist.coord_s", med(|m| m.call_s - m.probe_s - m.insert_s));
        report.set("svc.dist.slowest_shard_share", slowest_shard_share(delta));
        // A request to the shards is one probe or insert batch.
        let requests: f64 = traced.iter().map(|m| m.probes + m.inserts).sum();
        report.set("svc.loop.decode_us", delta.quantile("svc.loop.decode_us", 0.5));
        report.set("svc.loop.flush_us", delta.quantile("svc.loop.flush_us", 0.5));
        report.set(
            "svc.loop.wakeups_per_job",
            delta.counter("svc.loop.wakeups") as f64 / requests.max(1.0),
        );
    }
    let plain = median(plain_s).expect("one plain call at least");
    report.set("trace.overhead_pct", (call_s / plain - 1.0) * 100.0);
}
