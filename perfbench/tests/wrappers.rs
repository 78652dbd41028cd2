//! The pass-through wrappers change nothing the explorer computes.

use randsync_consensus::registry;
use randsync_consensus::registry::AnyState;
use randsync_model::{
    ExploreLimits, Explorer, FrontierTransport, LocalFrontier, Protocol, SharedFrontier,
};
use randsync_perfbench::wrap::{StepStats, TimedProtocol, TimedTransport};
use randsync_svc::{Client, DistributedFrontier, Server, ServerConfig};

const PROTOCOLS: [&str; 2] = ["naive", "walk-counter"];

fn explorer() -> Explorer {
    Explorer::new(ExploreLimits { max_configs: 1_000_000, max_depth: usize::MAX }).threads(2)
}

/// Every verdict, count and witness of both questions, as text.
fn answers<P>(explorer: &Explorer, protocol: &P, inputs: &[u8]) -> String
where
    P: Protocol<State = AnyState> + Sync,
{
    let outcome = explorer.explore(protocol, inputs);
    let valency = explorer.valency(protocol, inputs);
    format!("{outcome:?}\n{valency:?}")
}

#[test]
fn timed_protocol_gives_identical_results() {
    for name in PROTOCOLS {
        let entry = registry::find(name).expect("registered");
        let protocol = entry.build_default();
        let stats = StepStats::default();
        let timed = TimedProtocol::new(&protocol, &stats);
        for canonical in [false, true] {
            let e = explorer().canonical(canonical);
            assert_eq!(
                answers(&e, &protocol, entry.default_inputs),
                answers(&e, &timed, entry.default_inputs),
                "{name}, canonical {canonical}"
            );
        }
        assert!(stats.totals().0 > 0, "{name}: the wrapper saw the step calls");
    }
}

fn through(transport: impl FrontierTransport + 'static, name: &str) -> String {
    let entry = registry::find(name).expect("registered");
    let e = explorer().frontier_transport(SharedFrontier::new(transport));
    answers(&e, &entry.build_default(), entry.default_inputs)
}

#[test]
fn timed_transport_gives_identical_results() {
    for name in PROTOCOLS {
        let (timed, log) = TimedTransport::new(LocalFrontier::new());
        assert_eq!(through(LocalFrontier::new(), name), through(timed, name), "{name}");
        assert!(!log.lock().unwrap().is_empty(), "{name}: the wrapper saw the batches");
    }
}

#[test]
fn timed_transport_over_shard_servers_gives_identical_results() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrappers-ckpt");
    let mut addrs = Vec::new();
    let mut threads = Vec::new();
    for _ in 0..2 {
        let config = ServerConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        addrs.push(server.local_addr().expect("addr"));
        threads.push(std::thread::spawn(move || server.run()));
    }
    for name in PROTOCOLS {
        let plain = DistributedFrontier::connect(&addrs).expect("connect");
        let (timed, log) =
            TimedTransport::new(DistributedFrontier::connect(&addrs).expect("connect"));
        assert_eq!(through(plain, name), through(timed, name), "{name}");
        assert!(!log.lock().unwrap().is_empty(), "{name}: the wrapper saw the batches");
    }
    for (addr, thread) in addrs.into_iter().zip(threads) {
        Client::connect(addr).and_then(|mut c| c.shutdown()).expect("shutdown");
        thread.join().expect("server thread").expect("server run");
    }
}
