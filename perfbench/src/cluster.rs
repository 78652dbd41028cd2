//! In-process job servers on loopback, started and stopped by the
//! benchmark, and deltas of the metrics registry they report into.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;

use randsync_obs::{MetricValue, Snapshot};
use randsync_svc::{Client, Server, ServerConfig};

/// A server running its event loop on a thread of this process.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound loopback address.
    pub addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Bind an ephemeral loopback port with `workers` workers and
    /// checkpoints under `checkpoint_dir`, start the loop, and wait
    /// for it to answer one request.
    pub fn start(workers: usize, checkpoint_dir: &Path) -> Result<ServerHandle, String> {
        let config = ServerConfig {
            workers,
            checkpoint_dir: Some(checkpoint_dir.to_path_buf()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let handle = ServerHandle { addr, thread };
        // The loop enables the obs metrics when it starts; one round
        // trip guarantees that happened before anything is timed.
        if let Err(e) = Client::connect(addr).and_then(|mut c| c.metrics()) {
            let _ = handle.stop();
            return Err(format!("server at {addr} did not answer: {e}"));
        }
        Ok(handle)
    }

    /// Ask the server to drain and exit, and join its thread.
    pub fn stop(self) -> Result<(), String> {
        // Without an acknowledged shutdown the loop never returns, so
        // only then is the thread joined.
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown {}: {e}", self.addr))?;
        let joined = self.thread.join().map_err(|_| "server thread panicked".to_string())?;
        joined.map_err(|e| format!("server {}: {e}", self.addr))
    }
}

/// Counter and histogram deltas summed over several windows.
#[derive(Debug, Default)]
pub struct MetricsDelta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, BTreeMap<u64, u64>>,
    max: BTreeMap<String, u64>,
}

impl MetricsDelta {
    /// Add what happened between `before` and `after`.
    pub fn absorb(&mut self, before: &Snapshot, after: &Snapshot) {
        for (name, value) in after.delta(before).entries {
            match value {
                MetricValue::Counter(c) => *self.counters.entry(name).or_default() += c,
                MetricValue::Histogram { buckets, max, .. } => {
                    let hist = self.hists.entry(name.clone()).or_default();
                    for (le, n) in buckets {
                        *hist.entry(le).or_default() += n;
                    }
                    let m = self.max.entry(name).or_default();
                    *m = (*m).max(max);
                }
                MetricValue::Gauge(_) => {}
            }
        }
    }

    /// A counter's summed delta.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The `p`-quantile of a histogram's summed delta (0 if empty).
    pub fn quantile(&self, name: &str, p: f64) -> f64 {
        let Some(hist) = self.hists.get(name) else { return 0.0 };
        let buckets: Vec<(u64, u64)> = hist.iter().map(|(le, n)| (*le, *n)).collect();
        let max = self.max.get(name).copied().unwrap_or(0);
        randsync_obs::quantile_from_buckets(&buckets, max, p) as f64
    }
}
