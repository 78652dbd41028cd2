//! Performance harness for the distributed frontier (DESIGN.md §16).
//!
//! Each workload is an `explore` job submitted over loopback TCP to a
//! coordinator server, once against a plain single-node server and
//! once per ensemble size against a coordinator whose frontier dedup
//! is sharded across N in-process worker servers (real sockets, the
//! production wire protocol: JSON session frames and binary
//! probe/insert frames — only process isolation is elided). The harness asserts every distributed answer identical to
//! the single-node answer — modulo `resident_arena_bytes`, which
//! truthfully reports *local* residency and therefore shrinks when the
//! seen-set lives on the workers — and writes per-ensemble wall time,
//! aggregate configs/sec, frame-handling latency quantiles (p50/p99
//! of the event loop's `svc.loop.dispatch_us` over the run), and the
//! slowest-shard share (what fraction of probe rounds one shard was
//! the straggler) to `BENCH_distributed.json` (schema 2: versioned,
//! stamped with the git revision). Any divergence exits nonzero. No
//! external dependencies: timing is `std::time::Instant` and the JSON
//! is written by hand.
//!
//! On a single-core host the distributed rows are strictly overhead
//! (every probe/insert batch is a frame over a socket instead of a
//! local hash-map pass); the point of the numbers is the *cost* of the wire
//! seam and the invariance of the results, not a speedup. The JSON
//! records `host_parallelism` so readers can tell.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin dist_perf            # full workloads
//! cargo run --release --bin dist_perf -- --smoke # seconds, for verify.sh
//! cargo run --release --bin dist_perf -- --out my.json
//! ```

use std::thread;
use std::time::Instant;

use randsync::obs::Json;
use randsync::svc::{Client, Server, ServerConfig};

/// Ensemble sizes measured against the single-node baseline.
const NODE_COUNTS: [usize; 3] = [1, 2, 3];

/// One running in-process server and the handle to join it.
struct Node {
    addr: std::net::SocketAddr,
    handle: thread::JoinHandle<()>,
}

/// Start an in-process server on an ephemeral loopback port.
fn start_server(config: ServerConfig) -> Node {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    Node { addr, handle }
}

/// Ask a server to drain and wait for it to exit.
fn stop(node: Node) {
    Client::connect(node.addr).expect("connect").shutdown().expect("shutdown");
    node.handle.join().expect("server drains");
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
}

/// Render a job result with the one backing-dependent diagnostic
/// removed (see the module docs).
fn normalized(result: &Json) -> String {
    match result {
        Json::Obj(fields) => Json::Obj(
            fields.iter().filter(|(k, _)| k != "resident_arena_bytes").cloned().collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// Submit one explore job and time it, returning `(normalized render,
/// configs, secs)`.
fn timed_explore(client: &mut Client, protocol: &str) -> (String, usize, f64) {
    let params = obj(&[("protocol", Json::Str(protocol.to_string()))]);
    let t0 = Instant::now();
    let reply = client.request("explore", &params).expect("request");
    let secs = t0.elapsed().as_secs_f64();
    assert!(reply.ok, "explore {protocol} failed: {}", reply.body.render());
    let configs = reply.body.get("configs").and_then(Json::as_u64).expect("configs") as usize;
    (normalized(&reply.body), configs, secs)
}

/// One measured ensemble size for one workload.
struct Row {
    nodes: usize,
    secs: f64,
    configs_per_sec: f64,
    identical: bool,
    /// p50/p99 of `svc.loop.dispatch_us` over this run — every node is
    /// in-process, so this is the ensemble's frame-handling latency.
    dispatch_p50_us: u64,
    dispatch_p99_us: u64,
    /// Fraction of attributed probe rounds in which one shard was the
    /// slowest (1/nodes = perfectly balanced; 1.0 = one straggler).
    slowest_shard_share: f64,
}

/// Frame-handling latency quantiles and the slowest-shard share over a
/// metrics window (`after - before`), from the instrumentation the
/// event loop and `DistributedFrontier` feed.
fn window_stats(
    before: &randsync::obs::Snapshot,
    after: &randsync::obs::Snapshot,
    nodes: usize,
) -> (u64, u64, f64) {
    let delta = after.delta(before);
    let (p50, p99) = match delta.value("svc.loop.dispatch_us") {
        Some(v) => (v.quantile(0.50).unwrap_or(0), v.quantile(0.99).unwrap_or(0)),
        None => (0, 0),
    };
    let rounds = delta.counter("svc.dist.rounds").unwrap_or(0);
    let max_slowest = (0..nodes)
        .map(|k| delta.counter(&format!("svc.dist.slowest.shard{k}")).unwrap_or(0))
        .max()
        .unwrap_or(0);
    let share = if rounds == 0 { 0.0 } else { max_slowest as f64 / rounds as f64 };
    (p50, p99, share)
}

/// One workload: the single-node baseline plus every ensemble size.
struct Workload {
    name: String,
    configs: usize,
    single_node_secs: f64,
    rows: Vec<Row>,
}

/// Run one protocol through the baseline and every ensemble size.
fn measure(protocol: &str) -> Workload {
    // Single-node baseline: same server, same wire, no frontier seam.
    let base = start_server(ServerConfig::default());
    let mut client = Client::connect(base.addr).expect("connect");
    let (base_render, configs, base_secs) = timed_explore(&mut client, protocol);
    drop(client);
    stop(base);

    let mut rows = Vec::new();
    for nodes in NODE_COUNTS {
        let workers: Vec<Node> = (0..nodes).map(|_| start_server(ServerConfig::default())).collect();
        let coord = start_server(ServerConfig {
            frontier_workers: workers.iter().map(|w| w.addr.to_string()).collect(),
            ..ServerConfig::default()
        });
        let mut client = Client::connect(coord.addr).expect("connect");
        // Every node shares this process's metrics registry, so a
        // before/after window isolates this run's instrumentation.
        let before = randsync::obs::global_metrics().snapshot();
        let (render, dist_configs, secs) = timed_explore(&mut client, protocol);
        let after = randsync::obs::global_metrics().snapshot();
        drop(client);
        stop(coord);
        workers.into_iter().for_each(stop);

        let (dispatch_p50_us, dispatch_p99_us, slowest_shard_share) =
            window_stats(&before, &after, nodes);
        let identical = render == base_render && dist_configs == configs;
        println!(
            "{protocol:>16}  nodes={nodes}  {:>10.4}s  {:>12.1} configs/s  \
             dispatch p50/p99 {dispatch_p50_us}/{dispatch_p99_us}us  \
             slowest-shard {slowest_shard_share:.2}  identical={identical}",
            secs,
            configs as f64 / secs
        );
        rows.push(Row {
            nodes,
            secs,
            configs_per_sec: configs as f64 / secs,
            identical,
            dispatch_p50_us,
            dispatch_p99_us,
            slowest_shard_share,
        });
    }
    Workload {
        name: protocol.to_string(),
        configs,
        single_node_secs: base_secs,
        rows,
    }
}

/// The checkout's short `git` revision, or `"unknown"` when git (or
/// the repository) is unavailable.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_distributed.json".to_string());

    // Smoke: a search small enough that verify.sh pays seconds for the
    // gate. Full: up to the registry's largest default space
    // (walk-default, ~154k configurations), whose widest BFS levels
    // send multi-thousand-key probe frames per shard.
    let protocols: &[&str] =
        if smoke { &["naive"] } else { &["naive", "phase", "walk-default"] };

    println!(
        "dist_perf ({}) — ensembles of {:?} frontier workers, host_parallelism={}",
        if smoke { "smoke" } else { "full" },
        NODE_COUNTS,
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    let workloads: Vec<Workload> = protocols.iter().map(|p| measure(p)).collect();

    let all_identical =
        workloads.iter().all(|w| w.rows.iter().all(|r| r.identical));

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"dist_perf\",\n");
    json.push_str("  \"schema_version\": 2,\n");
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    json.push_str("  \"workloads\": [\n");
    for (wi, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"configs\": {}, \"single_node_secs\": {:.6}, \"rows\": [\n",
            w.name, w.configs, w.single_node_secs
        ));
        for (ri, r) in w.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"nodes\": {}, \"secs\": {:.6}, \"configs_per_sec\": {:.1}, \
                 \"dispatch_p50_us\": {}, \"dispatch_p99_us\": {}, \
                 \"slowest_shard_share\": {:.4}, \"identical\": {}}}{}\n",
                r.nodes,
                r.secs,
                r.configs_per_sec,
                r.dispatch_p50_us,
                r.dispatch_p99_us,
                r.slowest_shard_share,
                r.identical,
                if ri + 1 < w.rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if wi + 1 < workloads.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"identical_to_single_node\": {all_identical}\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");

    if !all_identical {
        eprintln!("FAIL: a distributed run diverged from the single-node answer");
        std::process::exit(1);
    }
}
