//! End-to-end benchmark of `randsync`: four workloads through the
//! library's public API, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload valency-walk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` it
//! carries the end-to-end metrics ([`END_TO_END`]); with `--trace 1`
//! the per-layer metrics ([`PER_LAYER`]) of a traced run, which also
//! writes its spans to `.perfbench-run/`. The lines before it print
//! every metric by name and the provenance of the run. The exit status
//! is 0 only when every output matched its reference. `NOTES.md`
//! explains the workloads and metrics.

pub mod expect;
pub mod wrap;

mod cluster;
mod explore;
mod spans;
mod stats;
mod svc_mix;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use randsync_obs::Json;

use crate::expect::Expected;

/// End-to-end metrics, printed by every untraced run: (name, unit).
/// Their times are CPU times ([`process_cpu_s`]); the wall-clock
/// figures are the `wall.*` metrics, which an untraced run prints as
/// notes.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer the workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("consensus.steps", "count"),
    ("consensus.step_s", "s"),
    ("explore.call_s", "s"),
    ("explore.self_s", "s"),
    ("explore.candidates", "count"),
    ("explore.dedup_hit_ratio", "ratio"),
    ("explore.levels", "count"),
    ("explore.bytes_per_config", "B"),
    ("explore.arena_mb", "MiB"),
    ("explore.spilled_mb", "MiB"),
    ("explore.merge_passes", "count"),
    ("explore.resident_mb", "MiB"),
    ("svc.admit_us", "us"),
    ("svc.queue_wait_us.p50", "us"),
    ("svc.queue_wait_us.p90", "us"),
    ("svc.exec_ms.valency", "ms"),
    ("svc.exec_ms.explore", "ms"),
    ("svc.exec_ms.monte_carlo", "ms"),
    ("svc.exec_ms.run", "ms"),
    ("svc.exec_ms.replay", "ms"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.latency_p99_ms", "ms"),
    ("svc.loop.decode_us", "us"),
    ("svc.loop.flush_us", "us"),
    ("svc.loop.wakeups_per_job", "count"),
    ("dist.probe_s", "s"),
    ("dist.insert_s", "s"),
    ("dist.rounds", "count"),
    ("dist.keys_per_round", "count"),
    ("dist.coord_s", "s"),
    ("svc.dist.slowest_shard_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("wall.configs_per_s", "configs/s"),
    ("wall.jobs_per_s", "jobs/s"),
    ("wall.latency_p50_ms", "ms"),
    ("wall.latency_p90_ms", "ms"),
];

/// The workloads, by their command-line names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Workload {
    /// `Explorer::valency` on `walk-default`, n = 3, in RAM.
    ValencyWalk,
    /// `Explorer::explore` on `phase`, n = 3, r = 3, canonical, 4 MiB
    /// memory budget (spill tier).
    ExplorePhaseSpill,
    /// A closed loop of clients against an in-process job server.
    SvcMix,
    /// `valency-walk` with dedup through a 2-shard distributed frontier.
    DistValency,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("valency-walk", Workload::ValencyWalk),
        ("explore-phase-spill", Workload::ExplorePhaseSpill),
        ("svc-mix", Workload::SvcMix),
        ("dist-valency", Workload::DistValency),
    ];

    /// The command-line name.
    pub(crate) fn name(self) -> &'static str {
        Self::ALL.iter().find(|(_, w)| *w == self).map(|(n, _)| *n).expect("listed")
    }

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub(crate) struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Picks every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Run the traced variant (per-layer metrics).
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <valency-walk|explore-phase-spill|svc-mix|\
                     dist-valency> [--seed N] [--seconds N] [--trace 0|1]";

impl Opts {
    /// Parse `--workload`, `--seed`, `--seconds` and `--trace`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub(crate) fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|_| format!("bad {flag}: {value}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace: {value} (0 or 1)")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Opts { workload, seed, seconds, trace })
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub(crate) struct Report {
    /// Operations attempted (explorer calls or jobs), warm-up included.
    pub attempted: u64,
    /// Operations whose output did not match its reference.
    pub failed: u64,
    /// The first few mismatches, for the log.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable details (sample counts, inputs).
    pub notes: Vec<String>,
}

impl Report {
    /// Count one operation and its check result.
    pub(crate) fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(problem);
            }
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Where a run keeps its scratch files and its span output: a
/// directory under the working directory, never the system temp dir.
#[derive(Debug)]
pub(crate) struct RunDir {
    root: PathBuf,
    tmp: PathBuf,
}

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let root = PathBuf::from(".perfbench-run");
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let tmp = root.join(format!("tmp-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&tmp)?;
        Ok(RunDir { root, tmp })
    }

    /// A fresh subdirectory of this run's scratch space.
    pub(crate) fn scratch(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.tmp.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// CPU time this process has used so far, all its threads together,
/// in seconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The benchmark gates on this clock rather than the wall clock. On a
/// shared virtual machine the hypervisor may take a CPU away for a
/// quarter of a run, and other processes may hold it; both stretch
/// wall time far more than this clock, since a kernel with paravirtual
/// time accounting leaves stolen time out of a task's run time. Time
/// spent blocked (on a socket, a lock, a sleep) is not CPU time either,
/// so the wall-clock figures are printed beside it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` in the layout
    // of the 64-bit Linux ABI.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time through 64-bit Linux clock_gettime");

/// Time `samples` batches of `batch` set-ups each, tearing down all
/// but the last set-up; returns the median per-set-up CPU time in
/// seconds ([`process_cpu_s`]) and the kept set-up. Batching set-ups
/// that take well under a microsecond keeps the clock reads out of the
/// figure.
pub(crate) fn measure_setup<T>(
    samples: usize,
    batch: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let batch = batch.max(1);
    let mut times = Vec::with_capacity(samples);
    let mut built = Vec::with_capacity(batch);
    for _ in 0..samples.max(1) {
        built.drain(..).try_for_each(&mut teardown)?;
        let started = process_cpu_s();
        for _ in 0..batch {
            built.push(setup()?);
        }
        times.push((process_cpu_s() - started) / batch as f64);
    }
    let kept = built.pop().expect("at least one set-up");
    built.into_iter().try_for_each(teardown)?;
    Ok((stats::median(&times).expect("at least one sample"), kept))
}

/// `VmHWM` of this process in MiB.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the sources the benchmark builds (`crates/`,
/// `perfbench/`, the root manifests), so results from a checkout
/// without git history still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && !name.to_string_lossy().starts_with('.') {
                    walk(&path, out);
                }
            } else if matches!(path.extension().and_then(|e| e.to_str()), Some("rs" | "toml")) {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// CPU time the hypervisor gave to other guests so far (the `steal`
/// column of `/proc/stat`, all CPUs, assuming 100 ticks per second).
/// A run taken while this grows fast was slowed by the host, not the
/// program.
fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The provenance every result carries.
fn provenance(opts: &Opts) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(opts.workload.name().into())),
        ("seed".into(), Json::Int(i128::from(opts.seed))),
        ("seconds".into(), Json::Int(i128::from(opts.seconds))),
        ("traced".into(), Json::Bool(opts.trace)),
        ("nproc".into(), Json::Int(nproc() as i128)),
        ("git_rev".into(), Json::Str(git_rev())),
        ("source_digest".into(), Json::Str(source_digest())),
    ])
}

/// A JSON number for a metric value; the failure sentinel (infinity)
/// becomes the largest finite number, which exceeds any limit.
fn number(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { f64::MAX })
}

/// Run the benchmark as the command line asks, checking against
/// `expected`; returns the process exit status.
pub fn run(args: &[String], expected: &Expected) -> i32 {
    let opts = match Opts::parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let dir = match RunDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create .perfbench-run: {e}");
            return 2;
        }
    };
    let provenance = provenance(&opts);
    let (started, steal_before) = (Instant::now(), host_steal_s());
    let outcome = match opts.workload {
        Workload::ValencyWalk | Workload::ExplorePhaseSpill | Workload::DistValency => {
            explore::run(&opts, &dir, expected, &provenance)
        }
        Workload::SvcMix => svc_mix::run(&opts, &dir, &provenance),
    };
    let report = match outcome {
        Ok(mut report) => {
            if let (Some(before), Some(after)) = (steal_before, host_steal_s()) {
                let cpu_s = started.elapsed().as_secs_f64() * nproc() as f64;
                report.notes.push(format!(
                    "host steal during the run: {:.1}% of CPU time",
                    (after - before) / cpu_s * 100.0
                ));
            }
            report
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return 2;
        }
    };
    print_report(&opts, &provenance, &report);
    if report.failed == 0 {
        0
    } else {
        1
    }
}

fn print_report(opts: &Opts, provenance: &Json, report: &Report) {
    println!("# perfbench {}", provenance.render());
    for note in &report.notes {
        println!("#   {note}");
    }
    for problem in &report.problems {
        println!("# MISMATCH {problem}");
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if opts.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("{name:<30} {value:>16.6} {unit}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), number(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    if !opts.trace {
        for (name, value) in &report.metrics {
            if !table.iter().any(|(n, _)| n == name) {
                let unit = PER_LAYER.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
                println!("# {name:<28} {value:>16.6} {unit} (not gated)");
            }
        }
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<30} {error_rate:>16.6} ratio ({} of {})",
        "error_rate", report.failed, report.attempted
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(report.failed == 0)),
        ("attempted".into(), Json::Int(i128::from(report.attempted.max(1)))),
        ("failed".into(), Json::Int(i128::from(report.failed))),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
