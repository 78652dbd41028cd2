//! Bounded exhaustive exploration of a protocol's reachable
//! configuration space.
//!
//! Exploration serves two roles in this reproduction:
//!
//! 1. **Model checking**: for small protocols, enumerate every
//!    interleaving and coin outcome (up to a budget) and check the
//!    consensus conditions — *consistency* (all decided values equal)
//!    and *validity* (every decided value is some process's input) — and
//!    whether termination remains reachable from every configuration.
//! 2. **Witness search**: the paper's *nondeterministic solo
//!    termination* property promises, from every configuration, a
//!    finite solo execution in which a given process finishes.
//!    [`Explorer::solo_terminating`] finds such a witness by exhausting
//!    the process's coin nondeterminism.
//!
//! # Architecture: packed arena + sharded dedup + level-parallel BFS
//!
//! All exhaustive searches run on one engine (see [`engine`] — the
//! module is private; this summary is the contract). Configurations are
//! *interned and packed*: each distinct configuration is stored once,
//! as a fixed-stride run of `u32` words (small-int encoded process
//! states and object values against a per-protocol codec — see
//! [`pack`]) in one append-only flat buffer, and referred to by `u32`
//! index everywhere else, so the search graph carries indices, not
//! clones, and hashing/equality run over flat words. Deduplication uses
//! a precomputed 64-bit hash of the packed words routed to one of
//! [`ExploreConfig::shards`] lock-protected maps from hash to arena
//! indices, collision-checked by word equality against the arena.
//!
//! When [`ExploreConfig::canonical`] is set *and* the protocol declares
//! [`Symmetry::Symmetric`](crate::protocol::Symmetry), the search runs
//! on the **symmetry quotient**: every configuration is mapped to the
//! canonical representative of its process-permutation class (sorted
//! process vector) before dedup, shrinking the space by up to `n!`
//! while preserving every verdict (see [`canonical`] for the soundness
//! argument). [`ExploreOutcome::raw_configs`] still reports the raw
//! count via per-class multinomials.
//!
//! The BFS is **depth-synchronous**: each level is expanded as a whole,
//! in parallel chunks across [`ExploreConfig::threads`] scoped threads
//! when the frontier is large enough, against a frozen arena. New
//! configurations are then interned by a sequential merge at the level
//! barrier, in frontier order.
//!
//! ## Determinism guarantee
//!
//! For a fixed protocol, inputs, and [`ExploreLimits`], every result in
//! this module — visit counts, witnesses, valencies, truncation flags —
//! is **identical for every `threads` and `shards` setting**, including
//! repeated runs. Parallel workers only *propose* successors; interning
//! order is fixed by the sequential merge, and the hash function
//! (std's `DefaultHasher`, SipHash with fixed keys) is deterministic.
//! `threads = 1` is not a separate code path so much as the degenerate
//! schedule of the same engine: the merge is what defines the
//! semantics.
//!
//! ## Picking `threads` and `shards`
//!
//! The defaults (`threads = 0` → [`std::thread::available_parallelism`];
//! `shards = 0` → 64) are right for almost everyone. Parallelism pays
//! off once BFS levels hold a few hundred configurations — small spaces
//! are expanded inline regardless, so oversubscribing `threads` on tiny
//! protocols costs nothing. `shards` bounds lock contention on the
//! dedup maps during expansion; it is rounded up to a power of two, and
//! more than `4 × threads` shards buys little.

mod canonical;
mod checkpoint;
mod engine;
mod pack;
mod por;
mod spill;
mod transport;

pub use canonical::Canonicalizer;
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_SCHEMA_VERSION};
pub use transport::{FrontierTransport, LocalFrontier, SharedFrontier, TransportError};

use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;

use crate::config::Configuration;
use crate::execution::{Execution, Step};
use crate::process::ProcessId;
use crate::protocol::{Action, Decision, Protocol};
use crate::value::Value;

/// Budgets bounding an exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Maximum number of distinct configurations to expand.
    pub max_configs: usize,
    /// Maximum execution depth (steps from the start configuration).
    pub max_depth: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits { max_configs: 200_000, max_depth: 10_000 }
    }
}

/// Full configuration of an [`Explorer`]: budgets plus the parallel
/// execution shape.
///
/// The execution shape never affects results (see the module-level
/// determinism guarantee) — only wall-clock time and lock contention.
#[derive(Clone, Debug, Default)]
pub struct ExploreConfig {
    /// Budgets bounding the exploration.
    pub limits: ExploreLimits,
    /// Worker threads for frontier expansion; `0` (the default) means
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Shard count for the dedup maps, rounded up to a power of two;
    /// `0` (the default) means 64.
    pub shards: usize,
    /// Explore the process-symmetry quotient instead of the raw space.
    ///
    /// Takes effect only for protocols declaring
    /// [`Symmetry::Symmetric`](crate::protocol::Symmetry) — asymmetric
    /// protocols are explored raw regardless. Verdicts (safety,
    /// valency, violation existence, termination/cycle facts) are
    /// unchanged by this setting; visit counts and witness step
    /// sequences may differ (witnesses become quotient-level; see
    /// [`canonical`]).
    pub canonical: bool,
    /// Cooperative wall-clock cancellation: stop expanding at the first
    /// BFS **level boundary** at or after this instant, returning a
    /// truncated-but-valid [`ExploreOutcome`] (every configuration
    /// interned so far is retained; [`ExploreOutcome::truncated`] and
    /// [`ExploreOutcome::deadline_hit`] are set).
    ///
    /// Unlike every other knob, a deadline makes results depend on
    /// wall-clock speed, so it is an *operational* control — job
    /// budgets, interactive cancellation — not an analysis one. A
    /// search that finishes before the deadline is bit-identical to one
    /// run without it.
    pub deadline: Option<std::time::Instant>,
    /// Resident-memory budget, in bytes, for the arena and the dedup
    /// structure. `0` (the default) keeps everything in RAM. A nonzero
    /// budget switches the engine to the **out-of-core tier**: arena
    /// rows live in file segments with a small pinned window, and
    /// dedup runs against an on-disk sorted seen-set with sequential
    /// I/O only (see the `spill` module). Results are bit-identical to
    /// the in-RAM tier — the budget trades wall-clock time for bounded
    /// steady-state resident memory (per-level working buffers are
    /// additional; see `DESIGN.md` §14).
    pub mem_budget_bytes: usize,
    /// Directory for spill files; `None` (the default) uses
    /// [`std::env::temp_dir`]. Each search creates (and removes on
    /// completion) its own uniquely named subdirectory.
    pub spill_dir: Option<PathBuf>,
    /// Request a checkpoint when the search stops resumably — at a
    /// deadline or depth-budget level boundary with no mid-level
    /// config-cap drop. See [`Explorer::resume`] and the `checkpoint`
    /// module for the format and soundness argument.
    pub checkpoint: Option<CheckpointRequest>,
    /// Explore with **partial-order reduction**: at configurations
    /// where one process's next step is independent — in the paper's
    /// algebra, lifted to [`ObjectKind::independent`](crate::kind::ObjectKind::independent)
    /// — of everything every other process can still do, expand only
    /// that process (a singleton *ample set*). Pruned interleavings are
    /// Mazurkiewicz-equivalent to retained ones, so all consensus
    /// verdicts, the valency envelope, and the termination/cycle facts
    /// are unchanged; visit counts shrink (see the `por` module and
    /// `DESIGN.md` §15 for the soundness argument, including the cycle
    /// proviso). Composes with [`canonical`](ExploreConfig::canonical)
    /// — the reductions multiply. Forces the in-RAM tier: a nonzero
    /// [`mem_budget_bytes`](ExploreConfig::mem_budget_bytes) is ignored
    /// while `por` is set, and resumed checkpoints always continue
    /// unreduced.
    pub por: bool,
    /// Run the seen-set behind a pluggable [`FrontierTransport`] —
    /// the **distributed tier**. The arena (and therefore interning
    /// order, witnesses, and every verdict) stays local; only the
    /// dedup probe/insert batches cross the seam, so results are
    /// bit-identical to the local tiers. Takes precedence over
    /// [`mem_budget_bytes`](ExploreConfig::mem_budget_bytes); ignored
    /// while [`por`](ExploreConfig::por) is set (the cycle proviso
    /// needs the probeable in-RAM maps). A transport failure stops the
    /// search at the level boundary with
    /// [`TruncationReason::Transport`].
    pub transport: Option<SharedFrontier>,
    /// Frontier discipline for [`Explorer::find_violation`]:
    /// exhaustive breadth-first (the default; shortest witnesses,
    /// complete up to the budgets) or best-first guided search (a
    /// binary-heap frontier scored by the valency-split heuristic —
    /// reaches violations deep beyond what exhaustive search can
    /// afford, but makes no completeness or shortest-witness claim).
    /// Full explorations and valency analysis always run
    /// breadth-first regardless of this setting.
    pub search: SearchMode,
}

/// Which frontier discipline [`Explorer::find_violation`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchMode {
    /// Depth-synchronous exhaustive BFS (shortest witness, complete up
    /// to budgets).
    #[default]
    Bfs,
    /// Best-first guided search: a binary-heap frontier ordered by
    /// [`straddle_score`], preferring configurations whose pending
    /// decisions straddle both values. Finds deep violations within a
    /// budget exhaustive search exhausts; incomplete by design.
    BestFirst,
}

/// Where — and under what identity — to write a checkpoint if the
/// search stops resumably.
///
/// The identity fields (`protocol`, `n`, `r`, `inputs`) are embedded in
/// the checkpoint so a resuming party can reconstruct the protocol and
/// start configuration; the engine itself only replays them back.
#[derive(Clone, Debug)]
pub struct CheckpointRequest {
    /// File to write the checkpoint to (atomically, via a temp file).
    pub path: PathBuf,
    /// Registry name of the protocol (e.g. `"walk_tight"`).
    pub protocol: String,
    /// Process-count parameter the protocol was built with.
    pub n: u32,
    /// Round/size parameter the protocol was built with (0 if unused).
    pub r: u64,
    /// The input vector the search started from.
    pub inputs: Vec<Decision>,
}

/// Why an exploration stopped before exhausting the space, in
/// precedence order: a config-cap drop poisons completeness claims
/// outright, a depth cap is a structural budget, a deadline is merely
/// operational.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TruncationReason {
    /// The arena reached [`ExploreLimits::max_configs`] and at least
    /// one successor was dropped mid-level.
    ConfigCap,
    /// The depth budget cut off nodes that still had active processes.
    DepthCap,
    /// [`ExploreConfig::deadline`] passed at a level boundary.
    Deadline,
    /// The [`ExploreConfig::transport`] failed mid-search; see
    /// [`ExploreOutcome::transport_error`] for the diagnostic.
    Transport,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TruncationReason::ConfigCap => "config-cap",
            TruncationReason::DepthCap => "depth-cap",
            TruncationReason::Deadline => "deadline",
            TruncationReason::Transport => "transport",
        })
    }
}

impl ExploreConfig {
    /// The actual worker-thread count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// The actual shard count this configuration resolves to (a power
    /// of two).
    pub fn shard_count(&self) -> usize {
        let shards = if self.shards == 0 { 64 } else { self.shards };
        shards.next_power_of_two()
    }
}

/// The result of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// A shortest execution reaching a configuration in which two
    /// processes have decided different values, if one was found.
    pub consistency_violation: Option<Execution>,
    /// A shortest execution reaching a decision on a value that is not
    /// any process's input, if one was found.
    pub validity_violation: Option<Execution>,
    /// Number of distinct configurations visited.
    pub configs_visited: usize,
    /// Whether the search was cut off by [`ExploreConfig::deadline`]
    /// (implies [`truncated`](ExploreOutcome::truncated)).
    pub deadline_hit: bool,
    /// Number of visited configurations in which every process has
    /// decided.
    pub terminal_configs: usize,
    /// Whether the exploration hit a budget before exhausting the space.
    pub truncated: bool,
    /// If the space was exhausted: whether from *every* reachable
    /// configuration some continuation terminates (all processes
    /// decide). `None` when truncated. For a randomized protocol with
    /// uniformly random coins, `Some(true)` over a finite space means
    /// termination has probability 1 under every fair adversary.
    pub can_always_reach_termination: Option<bool>,
    /// If the space was exhausted: whether some reachable cycle exists
    /// among non-terminal configurations — i.e. whether **infinite,
    /// never-deciding executions exist**. `None` when truncated.
    ///
    /// The paper (Section 2) observes that any randomized wait-free
    /// consensus implementation from objects too weak for deterministic
    /// consensus *must* have non-terminating executions, occurring with
    /// correspondingly small probability; this field witnesses exactly
    /// that for model-checked protocols.
    pub infinite_execution_possible: Option<bool>,
    /// Estimated resident size, in bytes, of the packed configuration
    /// arena (words plus codec tables) and dedup maps at the end of the
    /// exploration. The arena is append-only, so this is also its peak.
    pub arena_bytes: usize,
    /// Whether this exploration ran on the process-symmetry quotient
    /// (requested via [`ExploreConfig::canonical`] *and* granted by the
    /// protocol's symmetry declaration).
    pub canonicalized: bool,
    /// Number of canonical representatives interned — equals
    /// [`configs_visited`](ExploreOutcome::configs_visited).
    pub canonical_configs: usize,
    /// Why the search stopped early, if it did (`None` iff not
    /// [`truncated`](ExploreOutcome::truncated)). When several budgets
    /// bit at once, the most completeness-damaging one is reported:
    /// config-cap over depth-cap over deadline.
    pub truncation_reason: Option<TruncationReason>,
    /// The [`raw_configs`](ExploreOutcome::raw_configs) accumulation
    /// saturated `usize` — the reported value is a floor, not a count.
    pub raw_configs_overflow: bool,
    /// Whether the search ran on the out-of-core tier (a nonzero
    /// [`ExploreConfig::mem_budget_bytes`]).
    pub spill_mode: bool,
    /// Total bytes written to spill files (arena segments plus dedup
    /// runs); `0` on the in-RAM tier.
    pub spilled_bytes: u64,
    /// On-disk dedup runs actually read: by a level's probe, only runs
    /// where at least one key passed the run's Bloom filter; plus every
    /// run read by a compaction. `0` on the in-RAM tier.
    pub dedup_merge_passes: u64,
    /// Estimated bytes actually resident at the end of the search —
    /// under a memory budget this stays bounded while
    /// [`arena_bytes`](ExploreOutcome::arena_bytes) keeps reporting the
    /// total (resident + spilled) footprint. On the out-of-core tier it
    /// counts the arena's resident window, the dedup RAM buffer and the
    /// dedup run indexes (about 1.4 B per interned configuration).
    pub resident_arena_bytes: usize,
    /// Path the engine wrote a checkpoint to, if one was requested via
    /// [`ExploreConfig::checkpoint`] and the search stopped resumably.
    pub checkpoint: Option<PathBuf>,
    /// Why a requested checkpoint was not written, if writing failed.
    pub checkpoint_error: Option<String>,
    /// Diagnostic from a failed [`ExploreConfig::transport`], if the
    /// distributed seen-set died mid-search (implies
    /// [`truncated`](ExploreOutcome::truncated)).
    pub transport_error: Option<String>,
    /// Number of **raw** configurations the visited set represents: in
    /// canonical mode, the sum of permutation-class sizes over visited
    /// representatives — the size of the full permutation closure of
    /// the raw reachable set. When the initial configuration is itself
    /// permutation-symmetric (uniform inputs) and the search was not
    /// truncated, this is exactly the raw reachable count; with mixed
    /// inputs the raw set is closed only under permutations fixing the
    /// start, so this is an upper bound. In raw mode, equal to
    /// `configs_visited`. Saturates at `usize::MAX`.
    pub raw_configs: usize,
    /// Average arena bytes per visited configuration
    /// (`arena_bytes / configs_visited`).
    pub bytes_per_config: f64,
    /// Whether this exploration ran with partial-order reduction
    /// ([`ExploreConfig::por`]).
    pub por_enabled: bool,
    /// Enabled process moves skipped by ample-set reduction — each a
    /// whole process's turn at some node, however many coin outcomes
    /// it would have fanned into. `0` when reduction was off (or never
    /// fired).
    pub por_pruned: usize,
    /// Reduced nodes the cycle proviso re-expanded in full (an edge
    /// back to the same or an earlier BFS level was discovered).
    pub por_fallbacks: usize,
}

impl ExploreOutcome {
    /// Whether no consensus violation of either kind was found.
    pub fn is_safe(&self) -> bool {
        self.consistency_violation.is_none() && self.validity_violation.is_none()
    }

    /// Stable machine-readable verdict label: `"safe"`,
    /// `"consistency-violation"`, or `"validity-violation"` (the first
    /// violation kind wins when both were found). Truncation is
    /// orthogonal — check [`truncated`](ExploreOutcome::truncated)
    /// before treating `"safe"` as exhaustive.
    pub fn verdict_label(&self) -> &'static str {
        match (&self.consistency_violation, &self.validity_violation) {
            (None, None) => "safe",
            (Some(_), _) => "consistency-violation",
            (None, Some(_)) => "validity-violation",
        }
    }

    /// How many raw configurations each visited node stands for on
    /// average — the symmetry-reduction factor
    /// (`raw_configs / canonical_configs`; `1.0` in raw mode).
    pub fn reduction_factor(&self) -> f64 {
        if self.canonical_configs == 0 {
            return 1.0;
        }
        self.raw_configs as f64 / self.canonical_configs as f64
    }
}

/// The decision values still reachable from a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Valency {
    /// Only 0 is reachable.
    Zero,
    /// Only 1 is reachable.
    One,
    /// Both values are reachable — the configuration is *bivalent*.
    Bivalent,
    /// No decision is reachable (a deadlocked subtree).
    Stuck,
}

impl Valency {
    fn from_mask(m: u8) -> Valency {
        match m {
            1 => Valency::Zero,
            2 => Valency::One,
            3 => Valency::Bivalent,
            _ => Valency::Stuck,
        }
    }
}

/// The result of [`Explorer::valency`].
#[derive(Clone, Copy, Debug)]
pub struct ValencyAnalysis {
    /// The initial configuration's valency.
    pub initial: Valency,
    /// Counts per class over the reachable space.
    pub zero_valent: usize,
    /// Configurations from which only 1 is reachable.
    pub one_valent: usize,
    /// Configurations from which both values are reachable.
    pub bivalent: usize,
    /// Configurations from which no decision is reachable.
    pub stuck: usize,
    /// Total reachable configurations.
    pub configs: usize,
    /// Whether a cycle exists entirely inside the bivalent subgraph —
    /// i.e. an adversary can keep the execution undecided forever.
    pub bivalent_cycle: bool,
    /// Bivalent configurations all of whose successors are univalent —
    /// the *critical configurations* of the FLP argument.
    pub critical_configs: usize,
}

impl ValencyAnalysis {
    /// Configurations assigned a valency class
    /// (`zero_valent + one_valent + bivalent + stuck`).
    pub fn classified(&self) -> usize {
        self.zero_valent + self.one_valent + self.bivalent + self.stuck
    }

    /// Whether the valency envelope is internally consistent: every
    /// reachable configuration got a class, and the initial
    /// configuration's class has a nonzero count. A violation here
    /// means the analysis itself (not the protocol) is broken, which
    /// is exactly what a fail-closed gate must distinguish from a
    /// passing check.
    pub fn envelope_consistent(&self) -> bool {
        self.classified() == self.configs
            && match self.initial {
                Valency::Zero => self.zero_valent > 0,
                Valency::One => self.one_valent > 0,
                Valency::Bivalent => self.bivalent > 0,
                Valency::Stuck => self.stuck > 0,
            }
    }
}

/// Exhaustive explorer with budgets.
#[derive(Clone, Debug, Default)]
pub struct Explorer {
    config: ExploreConfig,
}

impl Explorer {
    /// An explorer with the given budgets and default parallelism.
    pub fn new(limits: ExploreLimits) -> Self {
        Explorer { config: ExploreConfig { limits, ..ExploreConfig::default() } }
    }

    /// An explorer with an explicit full configuration.
    pub fn with_config(config: ExploreConfig) -> Self {
        Explorer { config }
    }

    /// Set the worker-thread count (`0` = auto). Results do not depend
    /// on this setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Set the dedup shard count (`0` = default). Results do not depend
    /// on this setting.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Request symmetry-quotient exploration (see
    /// [`ExploreConfig::canonical`]). Only protocols declaring
    /// [`Symmetry::Symmetric`](crate::protocol::Symmetry) are actually
    /// reduced; verdicts are unchanged either way.
    pub fn canonical(mut self, canonical: bool) -> Self {
        self.config.canonical = canonical;
        self
    }

    /// Set a cooperative cancellation deadline (see
    /// [`ExploreConfig::deadline`]). The search stops at the first BFS
    /// level boundary past the deadline and reports a truncated
    /// outcome.
    pub fn deadline(mut self, deadline: std::time::Instant) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Bound steady-state resident memory (see
    /// [`ExploreConfig::mem_budget_bytes`]); `0` keeps everything in
    /// RAM. Results do not depend on this setting.
    pub fn mem_budget(mut self, bytes: usize) -> Self {
        self.config.mem_budget_bytes = bytes;
        self
    }

    /// Set the parent directory for spill files (see
    /// [`ExploreConfig::spill_dir`]).
    pub fn spill_dir(mut self, dir: PathBuf) -> Self {
        self.config.spill_dir = Some(dir);
        self
    }

    /// Request a checkpoint at a resumable stop (see
    /// [`ExploreConfig::checkpoint`] and [`Explorer::resume`]).
    pub fn checkpoint_to(mut self, request: CheckpointRequest) -> Self {
        self.config.checkpoint = Some(request);
        self
    }

    /// Explore with partial-order reduction (see
    /// [`ExploreConfig::por`]). Verdicts and the valency envelope are
    /// unchanged; visit counts shrink.
    pub fn por(mut self, por: bool) -> Self {
        self.config.por = por;
        self
    }

    /// Run the seen-set behind a pluggable frontier transport — the
    /// distributed tier (see [`ExploreConfig::transport`]). Results do
    /// not depend on this setting.
    pub fn frontier_transport(mut self, transport: SharedFrontier) -> Self {
        self.config.transport = Some(transport);
        self
    }

    /// Pick the violation-search frontier discipline (see
    /// [`ExploreConfig::search`]).
    pub fn search(mut self, search: SearchMode) -> Self {
        self.config.search = search;
        self
    }

    /// This explorer's full configuration.
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// Explore every interleaving and coin outcome of `protocol` from
    /// its initial configuration with the given inputs.
    pub fn explore<P>(&self, protocol: &P, inputs: &[Decision]) -> ExploreOutcome
    where
        P: Protocol + Sync,
        P::State: Send + Sync,
    {
        let start = Configuration::initial(protocol, inputs);
        self.explore_from(protocol, start, inputs)
    }

    /// Explore from an arbitrary start configuration. `inputs` is the
    /// set of values against which validity is checked.
    pub fn explore_from<P>(
        &self,
        protocol: &P,
        start: Configuration<P::State>,
        inputs: &[Decision],
    ) -> ExploreOutcome
    where
        P: Protocol + Sync,
        P::State: Send + Sync,
    {
        let g = engine::bfs(protocol, start, &self.config, true, None);
        outcome_from_graph(&g, inputs)
    }

    /// Continue a checkpointed exploration to completion (or to this
    /// explorer's own budgets, which may re-checkpoint).
    ///
    /// The caller supplies the same protocol instance the checkpoint
    /// identifies (the checkpoint's embedded `protocol`/`n`/`r` fields
    /// say which; mismatches are detected during replay). The resumed
    /// search inherits the checkpoint's symmetry mode and input vector
    /// — this explorer's `canonical` setting is ignored — and runs on
    /// whatever storage tier this explorer's `mem_budget_bytes`
    /// selects. An uninterrupted run, a resumed run, and a
    /// twice-resumed run of the same space produce identical outcomes
    /// (see the `checkpoint` module for the argument).
    pub fn resume<P>(
        &self,
        protocol: &P,
        ckpt: &Checkpoint,
    ) -> Result<ExploreOutcome, CheckpointError>
    where
        P: Protocol + Sync,
        P::State: Send + Sync,
    {
        if !ckpt.record_edges {
            return Err(CheckpointError::Mismatch(
                "checkpoint was taken without successor edges; only full \
                 explorations (which record edges) are resumable"
                    .into(),
            ));
        }
        let g = engine::bfs_resume(protocol, ckpt, &self.config)?;
        Ok(outcome_from_graph(&g, &ckpt.inputs))
    }

    /// FLP-style **valency analysis**: classify every reachable
    /// configuration by the set of decision values still reachable from
    /// it. Returns `None` if the exploration hit the configuration
    /// budget (valencies would be unsound on a truncated graph).
    ///
    /// A configuration is *bivalent* if both 0 and 1 remain reachable,
    /// *v-valent* if only `v` does, and *stuck* if no decision is
    /// reachable at all (a deadlock). The classic impossibility
    /// arguments — Fischer–Lynch–Paterson and Herlihy's hierarchy, which
    /// this paper's randomized separation plays against — revolve
    /// around bivalent configurations that can be kept bivalent forever;
    /// [`ValencyAnalysis::bivalent_cycle`] reports whether such a
    /// forever-undecided loop exists.
    pub fn valency<P>(&self, protocol: &P, inputs: &[Decision]) -> Option<ValencyAnalysis>
    where
        P: Protocol + Sync,
        P::State: Send + Sync,
    {
        // Valency classifies the entire reachable space; the depth
        // budget does not apply (and never did).
        let mut config = self.config.clone();
        config.limits.max_depth = usize::MAX;
        let start = Configuration::initial(protocol, inputs);
        let g = engine::bfs(protocol, start, &config, true, None);
        if g.config_capped || g.deadline_hit || g.transport_error.is_some() {
            return None;
        }

        // Fixpoint: propagate reachable decision values backwards.
        // mask bit 0 = "0 reachable", bit 1 = "1 reachable".
        let n = g.arena.len();
        let mut mask = vec![0u8; n];
        for (i, m) in mask.iter_mut().enumerate() {
            for d in g.arena.decided_values(i as u32) {
                *m |= 1 << d.min(1);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut m = mask[i];
                for &j in &g.succ[i] {
                    m |= mask[j as usize];
                }
                if m != mask[i] {
                    mask[i] = m;
                    changed = true;
                }
            }
        }

        let mut analysis = ValencyAnalysis {
            initial: Valency::from_mask(mask[0]),
            zero_valent: 0,
            one_valent: 0,
            bivalent: 0,
            stuck: 0,
            configs: n,
            bivalent_cycle: false,
            critical_configs: 0,
        };
        for &m in &mask {
            match Valency::from_mask(m) {
                Valency::Zero => analysis.zero_valent += 1,
                Valency::One => analysis.one_valent += 1,
                Valency::Bivalent => analysis.bivalent += 1,
                Valency::Stuck => analysis.stuck += 1,
            }
        }
        // A bivalent cycle: a cycle within the bivalent subgraph.
        let bivalent_succ: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                if mask[i] == 3 {
                    g.succ[i].iter().copied().filter(|&j| mask[j as usize] == 3).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        analysis.bivalent_cycle = has_cycle(&bivalent_succ);
        // Critical configurations: bivalent, every successor univalent.
        for i in 0..n {
            if mask[i] == 3
                && !g.succ[i].is_empty()
                && g.succ[i].iter().all(|&j| mask[j as usize] != 3)
            {
                analysis.critical_configs += 1;
            }
        }
        Some(analysis)
    }

    /// Exhaustively search for a reachable configuration satisfying
    /// `bad`, returning a shortest execution reaching one (or `None` if
    /// the property holds everywhere visited; check the second return
    /// for truncation).
    ///
    /// This generalizes consensus checking to arbitrary safety
    /// properties — e.g. mutual exclusion ("two processes in the
    /// critical section") for the Burns–Lynch-style protocols the
    /// paper's proof technique descends from.
    pub fn find_violation<P, F>(
        &self,
        protocol: &P,
        inputs: &[Decision],
        bad: F,
    ) -> (Option<Execution>, bool)
    where
        P: Protocol + Sync,
        P::State: Send + Sync,
        F: Fn(&Configuration<P::State>) -> bool + Sync,
    {
        let start = Configuration::initial(protocol, inputs);
        if self.config.search == SearchMode::BestFirst {
            return self.best_first_violation(protocol, start, &bad);
        }
        let g = engine::bfs(protocol, start, &self.config, false, Some(&bad));
        let truncated = g.config_capped || g.depth_capped_any || g.deadline_hit;
        (g.hit.map(|i| path_to(&g.parent, i)), truncated)
    }

    /// Best-first guided violation search: a binary-heap frontier
    /// ordered by [`straddle_score`] (ties broken by insertion order,
    /// so the search is deterministic), deduplicated against a visited
    /// set, bounded by [`ExploreLimits`]. Where exhaustive BFS spends
    /// its whole budget enumerating shallow interleavings, the
    /// heuristic walks promising configurations — many processes
    /// decided or poised to decide, pending decisions straddling both
    /// values — toward a violation first. The returned witness is
    /// replayable but not necessarily shortest; `truncated` reports
    /// whether the budget stopped an unfinished hunt.
    fn best_first_violation<P, F>(
        &self,
        protocol: &P,
        start: Configuration<P::State>,
        bad: &F,
    ) -> (Option<Execution>, bool)
    where
        P: Protocol,
        F: Fn(&Configuration<P::State>) -> bool,
    {
        use std::collections::BinaryHeap;

        let canon = Canonicalizer::for_protocol(protocol, self.config.canonical);
        let mut start = start;
        canon.canonicalize(&mut start);
        if bad(&start) {
            return (Some(Execution::new()), false);
        }

        // Node store: configurations plus the parent forest. The hunt
        // is budget-bounded, so plain clones are affordable here — the
        // packed-arena machinery stays with the exhaustive engine.
        let mut configs: Vec<Configuration<P::State>> = vec![start.clone()];
        let mut parent: Vec<Option<(u32, Step)>> = vec![None];
        let mut depth: Vec<u32> = vec![0];
        let mut seen: HashSet<Configuration<P::State>> = HashSet::from([start]);
        // Max-heap on (score, Reverse(insertion seq)): highest score
        // first, FIFO among equals.
        let mut heap: BinaryHeap<(i64, std::cmp::Reverse<u32>, u32)> = BinaryHeap::new();
        heap.push((straddle_score(protocol, &configs[0]), std::cmp::Reverse(0), 0));

        let mut expanded = 0usize;
        let mut truncated = false;
        while let Some((_, _, idx)) = heap.pop() {
            if expanded >= self.config.limits.max_configs {
                truncated = true;
                break;
            }
            expanded += 1;
            let config = configs[idx as usize].clone();
            let d = depth[idx as usize];
            if d as usize >= self.config.limits.max_depth {
                truncated = true;
                continue;
            }
            for pid in config.active_processes() {
                for (step, mut next) in successors(protocol, &config, pid) {
                    canon.canonicalize(&mut next);
                    if !seen.insert(next.clone()) {
                        continue;
                    }
                    let j = configs.len() as u32;
                    configs.push(next);
                    parent.push(Some((idx, step)));
                    depth.push(d + 1);
                    if bad(&configs[j as usize]) {
                        return (Some(path_to(&parent, j)), false);
                    }
                    heap.push((
                        straddle_score(protocol, &configs[j as usize]),
                        std::cmp::Reverse(j),
                        j,
                    ));
                }
            }
        }
        (None, truncated || !heap.is_empty())
    }

    /// Search for a finite **solo execution** of `pid` from `config`
    /// in which `pid` finishes (decides), exhausting `pid`'s coin
    /// nondeterminism breadth-first. Returns a shortest witness.
    ///
    /// This realizes the paper's *nondeterministic solo termination*
    /// property as a decision procedure (complete up to the explorer's
    /// budgets).
    pub fn solo_terminating<P>(
        &self,
        protocol: &P,
        config: &Configuration<P::State>,
        pid: ProcessId,
    ) -> Option<Execution>
    where
        P: Protocol,
    {
        self.solo_deciding(protocol, config, pid).map(|(e, _)| e)
    }

    /// Like [`Explorer::solo_terminating`], but also returns the value
    /// `pid` decides at the end of the witness.
    ///
    /// Solo searches stay sequential: their state space is keyed on a
    /// single process's state plus the object values and is tiny in
    /// practice.
    pub fn solo_deciding<P>(
        &self,
        protocol: &P,
        config: &Configuration<P::State>,
        pid: ProcessId,
    ) -> Option<(Execution, Decision)>
    where
        P: Protocol,
    {
        if !config.is_active(pid) {
            return None;
        }
        // Only `pid`'s state and the object values evolve in a solo
        // execution; key visited states on that pair.
        let mut queue: VecDeque<(Configuration<P::State>, Execution)> =
            VecDeque::from([(config.clone(), Execution::new())]);
        let mut seen: HashSet<(P::State, Vec<Value>)> = HashSet::new();
        if let Some(s) = config.procs[pid.0].state() {
            seen.insert((s.clone(), config.values.clone()));
        }
        let mut expanded = 0usize;
        while let Some((c, path)) = queue.pop_front() {
            if path.len() >= self.config.limits.max_depth {
                continue;
            }
            expanded += 1;
            if expanded > self.config.limits.max_configs {
                return None;
            }
            for (step, next) in successors(protocol, &c, pid) {
                let mut p = path.clone();
                p.push(step);
                if let Some(d) = next.procs[pid.0].decision() {
                    return Some((p, d));
                }
                if let Some(s) = next.procs[pid.0].state() {
                    let key = (s.clone(), next.values.clone());
                    if seen.insert(key) {
                        queue.push_back((next, p));
                    }
                }
            }
        }
        None
    }
}

/// The valency-split heuristic driving [`SearchMode::BestFirst`]:
/// prefer configurations whose settled and imminent decisions straddle
/// both values (a consistency violation is then one or two decide
/// steps away), then configurations with more processes decided or
/// poised to decide (closer to any decision at all).
///
/// The score is a pure function of the configuration, so guided search
/// stays deterministic.
pub fn straddle_score<P>(protocol: &P, config: &Configuration<P::State>) -> i64
where
    P: Protocol,
{
    let mut have = [false; 2];
    let mut decided = 0i64;
    let mut poised = 0i64;
    for p in &config.procs {
        match p {
            crate::config::ProcState::Decided(d) => {
                decided += 1;
                have[(*d).min(1) as usize] = true;
            }
            crate::config::ProcState::Active(s) => {
                if let Action::Decide(d) = protocol.action(s) {
                    poised += 1;
                    have[d.min(1) as usize] = true;
                }
            }
            _ => {}
        }
    }
    let straddle = if have[0] && have[1] { 10_000 } else { 0 };
    straddle + decided * 100 + poised * 25
}

/// All one-step successors of `config` by process `pid`: one per coin
/// outcome (decides have a single successor).
///
/// This is the reference single-node expansion; the exploration engine
/// enumerates successors in exactly this `(pid, coin)` order, but uses
/// an in-place scratch configuration so it only clones for
/// configurations that turn out to be new.
pub fn successors<P>(
    protocol: &P,
    config: &Configuration<P::State>,
    pid: ProcessId,
) -> Vec<(Step, Configuration<P::State>)>
where
    P: Protocol,
{
    let Some(state) = config.procs.get(pid.0).and_then(|p| p.state()) else {
        return Vec::new();
    };
    match protocol.action(state) {
        Action::Decide(_) => {
            let mut next = config.clone();
            next.step(protocol, pid, 0).expect("decide steps cannot fail");
            vec![(Step::of(pid), next)]
        }
        Action::Invoke { object, op } => {
            // Determine the response (and hence the coin domain) by
            // applying the operation to the current value.
            let specs = protocol.objects();
            let Some(spec) = specs.get(object.0) else { return Vec::new() };
            let Some(value) = config.values.get(object.0) else { return Vec::new() };
            let Ok((_, resp)) = spec.kind.apply(value, &op) else { return Vec::new() };
            let domain = protocol.coin_domain(state, &resp).max(1);
            (0..domain)
                .map(|coin| {
                    let mut next = config.clone();
                    next.step(protocol, pid, coin)
                        .expect("enumerated coin outcomes are in range");
                    (Step::with_coin(pid, coin), next)
                })
                .collect()
        }
    }
}

/// Derive the public [`ExploreOutcome`] from a finished BFS graph.
/// Shared by [`Explorer::explore_from`] and [`Explorer::resume`], so a
/// resumed search reports through exactly the same lens as a fresh one.
fn outcome_from_graph<S: Clone + Eq + std::hash::Hash>(
    g: &engine::BfsGraph<S>,
    inputs: &[Decision],
) -> ExploreOutcome {
    let n = g.arena.len();

    // Scan the arena in BFS order — directly over the packed words,
    // no decoding: the first violating node found is the one a
    // sequential BFS would have reported, and its parent chain is a
    // shortest witness. (In canonical mode, a quotient-level one;
    // violations are permutation-invariant, so existence agrees with
    // the raw space.)
    let mut consistency_violation = None;
    let mut validity_violation = None;
    let mut terminal = vec![false; n];
    let mut terminal_configs = 0usize;
    for i in 0..n {
        let i = i as u32;
        if consistency_violation.is_none() && g.arena.is_inconsistent(i) {
            consistency_violation = Some(path_to(&g.parent, i));
        }
        if validity_violation.is_none()
            && g.arena.decided_values(i).iter().any(|d| !inputs.contains(d))
        {
            validity_violation = Some(path_to(&g.parent, i));
        }
        if !g.arena.has_active(i) {
            terminal[i as usize] = true;
            terminal_configs += 1;
        }
    }

    let truncated =
        g.config_capped || g.depth_capped_active || g.deadline_hit || g.transport_error.is_some();
    let truncation_reason = if g.config_capped {
        Some(TruncationReason::ConfigCap)
    } else if g.transport_error.is_some() {
        Some(TruncationReason::Transport)
    } else if g.depth_capped_active {
        Some(TruncationReason::DepthCap)
    } else if g.deadline_hit {
        Some(TruncationReason::Deadline)
    } else {
        None
    };
    let (can_always_reach_termination, infinite_execution_possible) = if truncated {
        (None, None)
    } else {
        (Some(all_can_terminate(&terminal, &g.succ)), Some(has_cycle(&g.succ)))
    };

    let arena_bytes = arena_bytes(&g.arena);
    ExploreOutcome {
        consistency_violation,
        validity_violation,
        configs_visited: n,
        deadline_hit: g.deadline_hit,
        terminal_configs,
        truncated,
        truncation_reason,
        can_always_reach_termination,
        infinite_execution_possible,
        arena_bytes,
        canonicalized: g.canonical,
        canonical_configs: n,
        raw_configs: g.raw_represented,
        raw_configs_overflow: g.raw_overflow,
        spill_mode: g.spill_mode,
        spilled_bytes: g.spilled_bytes,
        dedup_merge_passes: g.dedup_merge_passes,
        resident_arena_bytes: g.resident_bytes,
        checkpoint: g.checkpoint_written.clone(),
        checkpoint_error: g.checkpoint_error.clone(),
        transport_error: g.transport_error.clone(),
        bytes_per_config: if n == 0 { 0.0 } else { arena_bytes as f64 / n as f64 },
        por_enabled: g.por_enabled,
        por_pruned: g.por_pruned,
        por_fallbacks: g.por_fallbacks,
    }
}

/// Reconstruct the execution reaching node `i` from the BFS forest.
fn path_to(parent: &[Option<(u32, Step)>], mut i: u32) -> Execution {
    let mut steps = Vec::new();
    while let Some((p, step)) = parent[i as usize] {
        steps.push(step);
        i = p;
    }
    steps.reverse();
    Execution::from_steps(steps)
}

/// Estimated bytes held by the packed arena plus the dedup maps, for
/// reporting. Per interned node the dedup maps hold roughly a key, an
/// index, and bucket overhead on top of the arena's own words + codec.
fn arena_bytes<S: Clone + Eq + std::hash::Hash>(arena: &pack::PackedArena<S>) -> usize {
    const SEEN_ENTRY_BYTES: usize = 24;
    arena.bytes() + arena.len() * SEEN_ENTRY_BYTES
}

/// Does the reachable graph contain a cycle? (Terminal nodes have no
/// successors, so any cycle is among non-terminal configurations and
/// witnesses an infinite execution.) Iterative three-color DFS.
fn has_cycle(succ: &[Vec<u32>]) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = succ.len();
    let mut color = vec![Color::White; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < succ[node].len() {
                let child = succ[node][*next] as usize;
                *next += 1;
                match color[child] {
                    Color::Gray => return true,
                    Color::White => {
                        color[child] = Color::Gray;
                        stack.push((child, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }
    false
}

/// Backward reachability: can every node reach a terminal node (no
/// active processes)? `terminal[i]` flags the terminal nodes.
fn all_can_terminate(terminal: &[bool], succ: &[Vec<u32>]) -> bool {
    let n = terminal.len();
    let mut pred: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, outs) in succ.iter().enumerate() {
        for &j in outs {
            pred[j as usize].push(i as u32);
        }
    }
    let mut can = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, &t) in terminal.iter().enumerate() {
        if t {
            can[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(j) = queue.pop_front() {
        for &i in &pred[j] {
            if !can[i as usize] {
                can[i as usize] = true;
                queue.push_back(i as usize);
            }
        }
    }
    can.iter().all(|c| *c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::ObjectKind;
    use crate::op::{Operation, Response};
    use crate::process::ObjectId;
    use crate::protocol::ObjectSpec;
    use crate::value::Value;

    /// The naive, incorrect "consensus": write your input, read, decide
    /// what you read. Exploration must find a consistency violation.
    #[derive(Debug)]
    struct Naive {
        n: usize,
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum St {
        Write(Decision),
        Read,
        Done(Decision),
    }

    impl Protocol for Naive {
        type State = St;

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![ObjectSpec::new(ObjectKind::Register, "r")]
        }

        fn num_processes(&self) -> usize {
            self.n
        }

        fn initial_state(&self, _pid: ProcessId, input: Decision) -> St {
            St::Write(input)
        }

        fn action(&self, s: &St) -> Action {
            match s {
                St::Write(d) => Action::Invoke {
                    object: ObjectId(0),
                    op: Operation::Write(Value::Int(*d as i64)),
                },
                St::Read => Action::Invoke { object: ObjectId(0), op: Operation::Read },
                St::Done(d) => Action::Decide(*d),
            }
        }

        fn transition(&self, s: &St, resp: &Response, _coin: u32) -> St {
            match s {
                St::Write(_) => St::Read,
                St::Read => St::Done(resp.as_int().unwrap_or(0) as Decision),
                St::Done(d) => St::Done(*d),
            }
        }

        fn is_symmetric(&self) -> bool {
            true
        }

        fn symmetry(&self) -> crate::protocol::Symmetry {
            crate::protocol::Symmetry::Symmetric
        }
    }

    /// Correct single-CAS consensus; exploration must find it safe.
    /// Deliberately left with the default (asymmetric) symmetry
    /// declaration, so canonical requests against it must be inert.
    #[derive(Debug)]
    struct Cas {
        n: usize,
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum CasSt {
        Try(Decision),
        Done(Decision),
    }

    impl Protocol for Cas {
        type State = CasSt;

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![ObjectSpec::new(ObjectKind::CompareSwap, "c")]
        }

        fn num_processes(&self) -> usize {
            self.n
        }

        fn initial_state(&self, _pid: ProcessId, input: Decision) -> CasSt {
            CasSt::Try(input)
        }

        fn action(&self, s: &CasSt) -> Action {
            match s {
                CasSt::Try(d) => Action::Invoke {
                    object: ObjectId(0),
                    op: Operation::CompareSwap {
                        expected: Value::Bottom,
                        new: Value::Int(*d as i64),
                    },
                },
                CasSt::Done(d) => Action::Decide(*d),
            }
        }

        fn transition(&self, s: &CasSt, resp: &Response, _coin: u32) -> CasSt {
            match s {
                CasSt::Try(d) => match resp.value() {
                    Some(Value::Bottom) => CasSt::Done(*d),
                    Some(v) => CasSt::Done(v.as_int().unwrap_or(0) as Decision),
                    None => CasSt::Done(*d),
                },
                done => done.clone(),
            }
        }
    }

    #[test]
    fn naive_protocol_is_broken_and_the_witness_replays() {
        let p = Naive { n: 2 };
        let out = Explorer::default().explore(&p, &[0, 1]);
        assert!(!out.truncated);
        let witness = out.consistency_violation.expect("must find a violation");
        // Replay the witness and confirm it indeed decides both values.
        let start = Configuration::initial(&p, &[0, 1]);
        let (end, _) = witness.replay(&p, &start).unwrap();
        assert!(end.is_inconsistent());
        assert_eq!(end.decided_values(), vec![0, 1]);
    }

    #[test]
    fn naive_protocol_is_valid_even_though_inconsistent() {
        let p = Naive { n: 2 };
        let out = Explorer::default().explore(&p, &[0, 1]);
        assert!(out.validity_violation.is_none());
    }

    #[test]
    fn cas_consensus_explores_safe() {
        let p = Cas { n: 3 };
        let out = Explorer::default().explore(&p, &[1, 0, 1]);
        assert!(!out.truncated);
        assert!(out.is_safe());
        assert_eq!(out.can_always_reach_termination, Some(true));
        assert!(out.terminal_configs > 0);
        // A deterministic wait-free protocol decides in a bounded
        // number of steps: no infinite executions.
        assert_eq!(out.infinite_execution_possible, Some(false));
    }

    #[test]
    fn exploration_respects_budgets() {
        let p = Naive { n: 3 };
        let out = Explorer::new(ExploreLimits { max_configs: 10, max_depth: 3 })
            .explore(&p, &[0, 1, 0]);
        assert!(out.truncated);
        assert!(out.configs_visited <= 10);
        assert_eq!(out.can_always_reach_termination, None);
    }

    #[test]
    fn solo_termination_witness_exists_and_replays() {
        let p = Naive { n: 2 };
        let config = Configuration::initial(&p, &[0, 1]);
        let w = Explorer::default()
            .solo_terminating(&p, &config, ProcessId(1))
            .expect("solo witness");
        assert_eq!(w.len(), 3, "write, read, decide");
        let (end, _) = w.replay(&p, &config).unwrap();
        assert_eq!(end.procs[1].decision(), Some(1));
    }

    #[test]
    fn solo_deciding_reports_the_decision() {
        let p = Cas { n: 2 };
        let config = Configuration::initial(&p, &[1, 0]);
        let (_, d) = Explorer::default()
            .solo_deciding(&p, &config, ProcessId(0))
            .expect("solo witness");
        assert_eq!(d, 1, "running alone, P0 decides its own input");
    }

    #[test]
    fn solo_on_inactive_process_is_none() {
        let p = Cas { n: 2 };
        let mut config = Configuration::initial(&p, &[1, 0]);
        config.crash(ProcessId(0));
        assert!(Explorer::default().solo_terminating(&p, &config, ProcessId(0)).is_none());
    }

    #[test]
    fn valency_of_cas_consensus() {
        // Mixed inputs: the initial configuration is bivalent (the
        // schedule picks the winner), decisions are reached through
        // critical configurations, and no bivalent cycle exists
        // (deterministic wait-free protocols decide in bounded steps).
        let p = Cas { n: 2 };
        let a = Explorer::default().valency(&p, &[0, 1]).expect("not truncated");
        assert_eq!(a.initial, Valency::Bivalent);
        assert!(a.zero_valent > 0 && a.one_valent > 0);
        assert!(a.critical_configs > 0, "someone must take the deciding step");
        assert!(!a.bivalent_cycle);
        assert_eq!(a.stuck, 0);
        assert_eq!(
            a.zero_valent + a.one_valent + a.bivalent + a.stuck,
            a.configs
        );
    }

    #[test]
    fn valency_of_unanimous_inputs_is_univalent_everywhere() {
        let p = Cas { n: 2 };
        let a = Explorer::default().valency(&p, &[1, 1]).expect("not truncated");
        assert_eq!(a.initial, Valency::One);
        assert_eq!(a.bivalent, 0);
        assert_eq!(a.zero_valent, 0);
    }

    #[test]
    fn valency_respects_budgets() {
        let p = Cas { n: 3 };
        let tiny = Explorer::new(ExploreLimits { max_configs: 3, max_depth: 2 });
        assert!(tiny.valency(&p, &[0, 1, 0]).is_none());
    }

    #[test]
    fn successors_enumerate_coin_branches() {
        /// One coin-flipping step with two outcomes.
        #[derive(Debug)]
        struct Flip;

        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        enum F {
            Start,
            Done(Decision),
        }

        impl Protocol for Flip {
            type State = F;

            fn objects(&self) -> Vec<ObjectSpec> {
                vec![ObjectSpec::new(ObjectKind::Register, "r")]
            }

            fn num_processes(&self) -> usize {
                1
            }

            fn initial_state(&self, _pid: ProcessId, _input: Decision) -> F {
                F::Start
            }

            fn action(&self, s: &F) -> Action {
                match s {
                    F::Start => Action::Invoke { object: ObjectId(0), op: Operation::Read },
                    F::Done(d) => Action::Decide(*d),
                }
            }

            fn coin_domain(&self, s: &F, _r: &Response) -> u32 {
                match s {
                    F::Start => 2,
                    F::Done(_) => 1,
                }
            }

            fn transition(&self, _s: &F, _r: &Response, coin: u32) -> F {
                F::Done(coin as Decision)
            }
        }

        let p = Flip;
        let c = Configuration::initial(&p, &[0]);
        let succs = successors(&p, &c, ProcessId(0));
        assert_eq!(succs.len(), 2);
        assert_ne!(succs[0].1, succs[1].1);
    }

    /// The observable fields of an outcome, for cross-thread-count
    /// comparison.
    fn fingerprint(o: &ExploreOutcome) -> impl PartialEq + std::fmt::Debug {
        (
            o.consistency_violation.clone(),
            o.validity_violation.clone(),
            o.configs_visited,
            o.terminal_configs,
            o.truncated,
            o.can_always_reach_termination,
            o.infinite_execution_possible,
        )
    }

    #[test]
    fn exploration_is_identical_across_thread_counts() {
        let p = Naive { n: 3 };
        let base = Explorer::default().threads(1).explore(&p, &[0, 1, 0]);
        for threads in [2, 4, 7] {
            let out = Explorer::default().threads(threads).explore(&p, &[0, 1, 0]);
            assert_eq!(
                fingerprint(&base),
                fingerprint(&out),
                "threads={threads} diverged from sequential"
            );
        }
    }

    #[test]
    fn exploration_is_identical_across_shard_counts() {
        let p = Cas { n: 3 };
        let base = Explorer::default().shards(1).explore(&p, &[1, 0, 1]);
        let wide = Explorer::default().shards(512).explore(&p, &[1, 0, 1]);
        assert_eq!(fingerprint(&base), fingerprint(&wide));
    }

    #[test]
    fn find_violation_matches_across_thread_counts() {
        let p = Naive { n: 2 };
        let bad = |c: &Configuration<St>| c.is_inconsistent();
        let (w1, t1) = Explorer::default().threads(1).find_violation(&p, &[0, 1], bad);
        let (w4, t4) = Explorer::default().threads(4).find_violation(&p, &[0, 1], bad);
        assert_eq!(w1, w4);
        assert_eq!(t1, t4);
        assert!(w1.is_some(), "naive consensus is inconsistent");
    }

    #[test]
    fn explore_config_resolution() {
        let auto = ExploreConfig::default();
        assert!(auto.effective_threads() >= 1);
        assert_eq!(auto.shard_count(), 64);
        let explicit = ExploreConfig { threads: 3, shards: 5, ..ExploreConfig::default() };
        assert_eq!(explicit.effective_threads(), 3);
        assert_eq!(explicit.shard_count(), 8, "rounded up to a power of two");
    }

    #[test]
    fn outcome_reports_arena_footprint() {
        let p = Cas { n: 2 };
        let out = Explorer::default().explore(&p, &[0, 1]);
        assert!(out.arena_bytes > 0);
        // At minimum the packed words of every interned configuration
        // (2 process slots + 1 object slot, 4 bytes each).
        assert!(out.arena_bytes >= out.configs_visited * 3 * 4);
        assert!(out.bytes_per_config >= 12.0);
        // The point of packing: far below the old heap representation
        // (inline struct + two spilled vectors was >100 B/config).
        assert!(
            out.bytes_per_config < 100.0,
            "packed arena should be compact, got {} B/config",
            out.bytes_per_config
        );
    }

    #[test]
    fn raw_mode_reports_trivial_reduction() {
        let p = Cas { n: 2 };
        let out = Explorer::default().explore(&p, &[0, 1]);
        assert!(!out.canonicalized);
        assert_eq!(out.canonical_configs, out.configs_visited);
        assert_eq!(out.raw_configs, out.configs_visited);
        assert_eq!(out.reduction_factor(), 1.0);
    }

    #[test]
    fn canonical_exploration_agrees_with_raw_and_reduces() {
        let p = Naive { n: 3 };
        let raw = Explorer::default().explore(&p, &[0, 1, 1]);
        let canon = Explorer::default().canonical(true).explore(&p, &[0, 1, 1]);
        assert!(!raw.truncated && !canon.truncated);
        assert!(canon.canonicalized);
        // Verdicts agree: both find the consistency violation, neither a
        // validity violation, same termination/cycle facts.
        assert_eq!(raw.is_safe(), canon.is_safe());
        assert!(canon.consistency_violation.is_some());
        assert!(canon.validity_violation.is_none());
        assert_eq!(raw.can_always_reach_termination, canon.can_always_reach_termination);
        assert_eq!(raw.infinite_execution_possible, canon.infinite_execution_possible);
        // The quotient genuinely shrinks the space. With mixed inputs
        // the multinomial accounting bounds the raw count from above
        // (the raw set is closed only under stabilizer permutations).
        assert!(canon.configs_visited < raw.configs_visited);
        assert!(canon.raw_configs >= raw.configs_visited);
        assert!(canon.reduction_factor() > 1.0);
    }

    #[test]
    fn canonical_raw_count_is_exact_for_uniform_inputs() {
        // A permutation-symmetric start (uniform inputs) makes the raw
        // reachable set closed under *all* process permutations, so the
        // per-class multinomial sum recovers the raw count exactly.
        let p = Naive { n: 3 };
        let raw = Explorer::default().explore(&p, &[1, 1, 1]);
        let canon = Explorer::default().canonical(true).explore(&p, &[1, 1, 1]);
        assert!(!raw.truncated && !canon.truncated);
        assert_eq!(canon.raw_configs, raw.configs_visited);
        assert!(canon.configs_visited < raw.configs_visited);
    }

    #[test]
    fn canonical_request_on_asymmetric_protocol_is_inert() {
        let p = Cas { n: 3 };
        let raw = Explorer::default().explore(&p, &[1, 0, 1]);
        let req = Explorer::default().canonical(true).explore(&p, &[1, 0, 1]);
        assert!(!req.canonicalized, "Cas does not declare Symmetric");
        assert_eq!(raw.configs_visited, req.configs_visited);
        assert_eq!(req.raw_configs, req.configs_visited);
    }

    #[test]
    fn canonical_valency_agrees_with_raw_on_classification() {
        let p = Naive { n: 2 };
        let raw = Explorer::default().valency(&p, &[0, 1]).expect("not truncated");
        let canon =
            Explorer::default().canonical(true).valency(&p, &[0, 1]).expect("not truncated");
        assert_eq!(raw.initial, canon.initial);
        assert_eq!(raw.bivalent_cycle, canon.bivalent_cycle);
        assert_eq!(raw.stuck == 0, canon.stuck == 0);
        assert!(canon.configs <= raw.configs);
    }

    #[test]
    fn deadline_cancellation_returns_truncated_but_valid_outcome() {
        use std::time::{Duration, Instant};
        let p = Naive { n: 3 };
        // A deadline that has already passed: the start configuration
        // is interned, then the first level boundary cancels cleanly.
        let expired = Instant::now();
        let out = Explorer::default().deadline(expired).explore(&p, &[0, 1, 0]);
        assert!(out.deadline_hit);
        assert!(out.truncated);
        assert!(out.configs_visited >= 1, "the BFS prefix is retained");
        assert_eq!(out.can_always_reach_termination, None);
        assert_eq!(out.infinite_execution_possible, None);
        assert_eq!(out.canonical_configs, out.configs_visited);
        assert!(out.arena_bytes > 0, "the arena is still a valid (partial) store");
        // Valency on a cancelled search refuses to classify — a
        // truncated graph would make the classification unsound.
        assert!(Explorer::default().deadline(expired).valency(&p, &[0, 1, 0]).is_none());
        // find_violation reports the truncation.
        let bad = |c: &Configuration<St>| c.is_inconsistent();
        let (hit, truncated) =
            Explorer::default().deadline(expired).find_violation(&p, &[0, 1, 0], bad);
        assert!(hit.is_none() && truncated);
        // A generous deadline is bit-identical to no deadline at all.
        let far = Instant::now() + Duration::from_secs(3600);
        let with = Explorer::default().deadline(far).explore(&p, &[0, 1, 0]);
        let without = Explorer::default().explore(&p, &[0, 1, 0]);
        assert_eq!(fingerprint(&with), fingerprint(&without));
        assert!(!with.deadline_hit);
    }

    #[test]
    fn metrics_capture_exploration_progress() {
        // Metrics must not perturb results, and an instrumented search
        // must leave a non-trivial snapshot behind. Counters are global
        // (other tests may explore concurrently while the flag is on),
        // so assertions are lower bounds from *before/after deltas*.
        let p = Naive { n: 3 };
        let quiet = Explorer::default().explore(&p, &[0, 1, 1]);
        let m = randsync_obs::global_metrics();
        let before = m.snapshot();
        randsync_obs::set_metrics_enabled(true);
        let loud = Explorer::default().explore(&p, &[0, 1, 1]);
        randsync_obs::set_metrics_enabled(false);
        let after = m.snapshot();
        assert_eq!(fingerprint(&quiet), fingerprint(&loud), "metrics changed the result");
        let delta = |name: &str| {
            after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
        };
        assert!(delta("explore.levels") > 0);
        assert!(
            delta("explore.interned") >= loud.configs_visited as u64 - 1,
            "every interned config past the root is counted"
        );
        assert!(delta("explore.candidates") >= delta("explore.interned"));
        assert!(delta("explore.dedup_hits") > 0, "Naive revisits configurations");
        assert!(after.gauge("explore.arena_bytes").unwrap_or(0) > 0);
    }

    #[test]
    fn trace_sink_sees_per_level_events() {
        let ring = std::sync::Arc::new(randsync_obs::RingSink::new(256));
        randsync_obs::install_trace_sink(ring.clone());
        let p = Naive { n: 2 };
        let out = Explorer::default().explore(&p, &[0, 1]);
        randsync_obs::clear_trace_sink();
        let levels: Vec<String> = ring
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"explore.level\""))
            .collect();
        assert!(!levels.is_empty(), "at least one level event");
        // Events parse and carry the advertised fields.
        let v = randsync_obs::parse_json(&levels[0]).expect("event line parses");
        for field in ["depth", "frontier", "candidates", "dedup_hits", "interned", "configs"] {
            assert!(v.get(field).is_some(), "missing {field}");
        }
        assert!(!out.truncated);
    }

    #[test]
    fn spill_mode_matches_ram_mode_bit_for_bit() {
        let p = Naive { n: 3 };
        let ram = Explorer::default().explore(&p, &[0, 1, 0]);
        // A budget far below the space's footprint forces real spilling.
        let spill = Explorer::default().mem_budget(4096).explore(&p, &[0, 1, 0]);
        assert!(spill.spill_mode && !ram.spill_mode);
        assert!(spill.spilled_bytes > 0, "the budget must actually spill");
        assert_eq!(fingerprint(&ram), fingerprint(&spill));
        assert_eq!(ram.raw_configs, spill.raw_configs);
        assert_eq!(ram.arena_bytes, spill.arena_bytes, "totals are backing-independent");
        // Witnesses are not just equal in verdict but step-for-step.
        assert_eq!(ram.consistency_violation, spill.consistency_violation);
    }

    #[test]
    fn spill_mode_find_violation_returns_the_ram_witness() {
        // The batch tiers evaluate the stop predicate on rows decoded
        // from the arena as they are interned; the witness must be the
        // RAM tier's, step for step, at every thread count.
        let p = Naive { n: 3 };
        let bad = |c: &Configuration<St>| c.is_inconsistent();
        let ram = Explorer::default().find_violation(&p, &[0, 1, 0], bad);
        assert!(ram.0.is_some(), "naive consensus is inconsistent");
        for threads in [1, 4] {
            let spill = Explorer::default()
                .threads(threads)
                .mem_budget(4096)
                .find_violation(&p, &[0, 1, 0], bad);
            assert_eq!(ram, spill);
        }
        // A predicate that never holds: same exhaustive answer too.
        let never = |_: &Configuration<St>| false;
        let ram = Explorer::default().find_violation(&p, &[0, 1, 0], never);
        let spill = Explorer::default().mem_budget(4096).find_violation(&p, &[0, 1, 0], never);
        assert_eq!(ram, spill);
        assert!(ram.0.is_none());
    }

    #[test]
    fn spill_mode_valency_matches_ram_mode() {
        let p = Cas { n: 3 };
        let ram = Explorer::default().valency(&p, &[1, 0, 1]).expect("not truncated");
        let spill = Explorer::default()
            .mem_budget(4096)
            .valency(&p, &[1, 0, 1])
            .expect("not truncated");
        assert_eq!(format!("{ram:?}"), format!("{spill:?}"));
    }

    #[test]
    fn transport_tier_matches_ram_mode_bit_for_bit() {
        let p = Naive { n: 3 };
        let ram = Explorer::default().explore(&p, &[0, 1, 0]);
        let via = Explorer::default()
            .frontier_transport(SharedFrontier::new(LocalFrontier::new()))
            .explore(&p, &[0, 1, 0]);
        assert_eq!(via.transport_error, None);
        assert_eq!(fingerprint(&ram), fingerprint(&via));
        assert_eq!(ram.raw_configs, via.raw_configs);
        assert_eq!(ram.arena_bytes, via.arena_bytes, "totals are backing-independent");
        // Witnesses are not just equal in verdict but step-for-step.
        assert_eq!(ram.consistency_violation, via.consistency_violation);
    }

    #[test]
    fn transport_tier_valency_matches_ram_mode() {
        let p = Cas { n: 3 };
        let ram = Explorer::default().valency(&p, &[1, 0, 1]).expect("not truncated");
        let via = Explorer::default()
            .frontier_transport(SharedFrontier::new(LocalFrontier::new()))
            .valency(&p, &[1, 0, 1])
            .expect("not truncated");
        assert_eq!(format!("{ram:?}"), format!("{via:?}"));
    }

    #[test]
    fn transport_tier_is_identical_across_thread_counts() {
        // Expansion parallelism and the frontier seam compose: the
        // merge stays sequential, so the transport sees one canonical
        // batch order regardless of how many threads expanded.
        let p = Naive { n: 3 };
        let base = Explorer::default().threads(1).explore(&p, &[0, 1, 0]);
        for threads in [2, 4] {
            let out = Explorer::default()
                .threads(threads)
                .frontier_transport(SharedFrontier::new(LocalFrontier::new()))
                .explore(&p, &[0, 1, 0]);
            assert_eq!(
                fingerprint(&base),
                fingerprint(&out),
                "transport tier with threads={threads} diverged"
            );
        }
    }

    /// A transport that serves a few probe batches and then fails, to
    /// exercise the engine's level-boundary error path.
    #[derive(Debug)]
    struct FlakyTransport {
        inner: LocalFrontier,
        probes_left: usize,
    }

    impl FrontierTransport for FlakyTransport {
        fn open(&mut self, stride: usize) -> Result<(), TransportError> {
            self.inner.open(stride)
        }

        fn probe_sorted(
            &mut self,
            hashes: &[u64],
            words: &[u32],
        ) -> Result<Vec<Option<u32>>, TransportError> {
            if self.probes_left == 0 {
                return Err(TransportError::new("shard went away"));
            }
            self.probes_left -= 1;
            self.inner.probe_sorted(hashes, words)
        }

        fn insert_sorted(
            &mut self,
            hashes: &[u64],
            indices: &[u32],
            words: &[u32],
        ) -> Result<(), TransportError> {
            self.inner.insert_sorted(hashes, indices, words)
        }

        fn close(&mut self) -> Result<(), TransportError> {
            self.inner.close()
        }
    }

    #[test]
    fn failing_transport_truncates_at_the_level_boundary() {
        let p = Naive { n: 3 };
        let flaky = FlakyTransport { inner: LocalFrontier::new(), probes_left: 2 };
        let out = Explorer::default()
            .frontier_transport(SharedFrontier::new(flaky))
            .explore(&p, &[0, 1, 0]);
        assert!(out.truncated);
        assert_eq!(out.truncation_reason, Some(TruncationReason::Transport));
        let msg = out.transport_error.expect("diagnostic is carried");
        assert!(msg.contains("shard went away"), "got: {msg}");
        // A truncated envelope is not a valency verdict.
        let flaky = FlakyTransport { inner: LocalFrontier::new(), probes_left: 2 };
        let val = Explorer::default()
            .frontier_transport(SharedFrontier::new(flaky))
            .valency(&p, &[0, 1, 0]);
        assert!(val.is_none());
    }

    #[test]
    fn depth_capped_run_checkpoints_and_resumes_to_the_full_outcome() {
        let p = Naive { n: 3 };
        let inputs = vec![0, 1, 0];
        let path = std::env::temp_dir()
            .join(format!("randsync-test-ckpt-{}-depthcap.ckpt", std::process::id()));
        let req = CheckpointRequest {
            path: path.clone(),
            protocol: "naive-test".into(),
            n: 3,
            r: 0,
            inputs: inputs.clone(),
        };
        let partial = Explorer::with_config(ExploreConfig {
            limits: ExploreLimits { max_configs: 200_000, max_depth: 2 },
            checkpoint: Some(req),
            ..ExploreConfig::default()
        })
        .explore(&p, &inputs);
        assert!(partial.truncated);
        assert_eq!(partial.truncation_reason, Some(TruncationReason::DepthCap));
        assert_eq!(partial.checkpoint.as_deref(), Some(path.as_path()));
        assert_eq!(partial.checkpoint_error, None);

        let ckpt = Checkpoint::load(&path).expect("checkpoint loads");
        assert_eq!(ckpt.level_depth, 2);
        let resumed = Explorer::default().resume(&p, &ckpt).expect("resume succeeds");
        let full = Explorer::default().explore(&p, &inputs);
        assert_eq!(fingerprint(&full), fingerprint(&resumed));
        assert_eq!(full.consistency_violation, resumed.consistency_violation);
        assert_eq!(full.raw_configs, resumed.raw_configs);
        assert_eq!(resumed.truncation_reason, None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_on_the_spill_tier_matches_ram_resume() {
        let p = Naive { n: 3 };
        let inputs = vec![0, 1, 1];
        let path = std::env::temp_dir()
            .join(format!("randsync-test-ckpt-{}-tier.ckpt", std::process::id()));
        let req = CheckpointRequest {
            path: path.clone(),
            protocol: "naive-test".into(),
            n: 3,
            r: 0,
            inputs: inputs.clone(),
        };
        let partial = Explorer::with_config(ExploreConfig {
            limits: ExploreLimits { max_configs: 200_000, max_depth: 3 },
            checkpoint: Some(req),
            ..ExploreConfig::default()
        })
        .explore(&p, &inputs);
        assert!(partial.checkpoint.is_some());
        let ckpt = Checkpoint::load(&path).expect("checkpoint loads");
        // The resumed search may run on a different storage tier than
        // the one that wrote the checkpoint.
        let ram = Explorer::default().resume(&p, &ckpt).expect("ram resume");
        let spill = Explorer::default().mem_budget(4096).resume(&p, &ckpt).expect("spill");
        assert_eq!(fingerprint(&ram), fingerprint(&spill));
        assert!(spill.spill_mode);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_capped_runs_refuse_to_checkpoint() {
        let p = Naive { n: 3 };
        let path = std::env::temp_dir()
            .join(format!("randsync-test-ckpt-{}-capped.ckpt", std::process::id()));
        let req = CheckpointRequest {
            path: path.clone(),
            protocol: "naive-test".into(),
            n: 3,
            r: 0,
            inputs: vec![0, 1, 0],
        };
        let out = Explorer::with_config(ExploreConfig {
            limits: ExploreLimits { max_configs: 10, max_depth: 10_000 },
            checkpoint: Some(req),
            ..ExploreConfig::default()
        })
        .explore(&p, &[0, 1, 0]);
        assert_eq!(out.truncation_reason, Some(TruncationReason::ConfigCap));
        // A config-capped level drops successors mid-level; the interned
        // graph is not a clean BFS prefix, so no checkpoint is written.
        assert_eq!(out.checkpoint, None);
        assert!(!path.exists());
    }

    #[test]
    fn canonical_exploration_is_identical_across_thread_counts() {
        let p = Naive { n: 3 };
        let base = Explorer::default().canonical(true).threads(1).explore(&p, &[0, 1, 0]);
        for threads in [2, 4] {
            let out =
                Explorer::default().canonical(true).threads(threads).explore(&p, &[0, 1, 0]);
            assert_eq!(
                fingerprint(&base),
                fingerprint(&out),
                "canonical threads={threads} diverged from sequential"
            );
            assert_eq!(base.raw_configs, out.raw_configs);
        }
    }

    /// Two processes mixing *private* bounded counters before deciding
    /// their own input — the POR showcase: every interleaving of the
    /// mixing phase is Mazurkiewicz-equivalent to the serialized one.
    #[derive(Debug)]
    struct PrivateMix {
        n: usize,
        r: u32,
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Pm {
        Mix { pid: usize, left: u32, pref: Decision },
        Done(Decision),
    }

    impl Protocol for PrivateMix {
        type State = Pm;

        fn objects(&self) -> Vec<ObjectSpec> {
            (0..self.n)
                .map(|i| {
                    ObjectSpec::new(ObjectKind::BoundedCounter { lo: 0, hi: 4 }, format!("c{i}"))
                })
                .collect()
        }

        fn num_processes(&self) -> usize {
            self.n
        }

        fn initial_state(&self, pid: ProcessId, input: Decision) -> Pm {
            Pm::Mix { pid: pid.0, left: self.r, pref: input }
        }

        fn action(&self, s: &Pm) -> Action {
            match s {
                Pm::Mix { pid, .. } => {
                    Action::Invoke { object: ObjectId(*pid), op: Operation::Inc }
                }
                Pm::Done(d) => Action::Decide(*d),
            }
        }

        fn transition(&self, s: &Pm, _resp: &Response, _coin: u32) -> Pm {
            match s {
                Pm::Mix { pid, left, pref } if *left > 1 => {
                    Pm::Mix { pid: *pid, left: left - 1, pref: *pref }
                }
                Pm::Mix { pref, .. } => Pm::Done(*pref),
                Pm::Done(d) => Pm::Done(*d),
            }
        }
    }

    #[test]
    fn por_preserves_verdicts_and_reduces_private_mixing() {
        let p = PrivateMix { n: 2, r: 4 };
        let raw = Explorer::default().explore(&p, &[0, 1]);
        let por = Explorer::default().por(true).explore(&p, &[0, 1]);
        assert!(!raw.truncated && !por.truncated);
        assert!(por.por_enabled && !raw.por_enabled);
        // Verdicts and liveness facts are preserved exactly.
        assert_eq!(raw.is_safe(), por.is_safe());
        assert_eq!(
            raw.consistency_violation.is_some(),
            por.consistency_violation.is_some(),
            "both must find the (input-disagreeing) inconsistency"
        );
        assert_eq!(raw.validity_violation.is_some(), por.validity_violation.is_some());
        assert_eq!(raw.can_always_reach_termination, por.can_always_reach_termination);
        assert_eq!(raw.infinite_execution_possible, por.infinite_execution_possible);
        // The private phase genuinely collapses: the raw space is the
        // full interleaving lattice, the reduced one a single chain
        // plus the decision tail.
        assert!(por.por_pruned > 0, "independent moves must be pruned");
        assert!(
            por.configs_visited < raw.configs_visited,
            "POR visited {} vs raw {}",
            por.configs_visited,
            raw.configs_visited
        );
        assert_eq!(por.por_fallbacks, 0, "acyclic private mixing needs no proviso");
    }

    #[test]
    fn por_agrees_with_raw_on_shared_object_protocols() {
        // Naive races on one shared register: the footprint rule finds
        // conflicts everywhere, so reduction comes only from decide
        // priority — but verdicts must still match bit for bit.
        let p = Naive { n: 3 };
        let raw = Explorer::default().explore(&p, &[0, 1, 1]);
        let por = Explorer::default().por(true).explore(&p, &[0, 1, 1]);
        assert!(!raw.truncated && !por.truncated);
        assert_eq!(raw.is_safe(), por.is_safe());
        assert_eq!(
            raw.consistency_violation.is_some(),
            por.consistency_violation.is_some()
        );
        assert_eq!(raw.can_always_reach_termination, por.can_always_reach_termination);
        assert_eq!(raw.infinite_execution_possible, por.infinite_execution_possible);
        assert!(por.configs_visited <= raw.configs_visited);
    }

    #[test]
    fn por_valency_agrees_with_raw() {
        let p = Naive { n: 2 };
        let raw = Explorer::default().valency(&p, &[0, 1]).expect("not truncated");
        let por = Explorer::default().por(true).valency(&p, &[0, 1]).expect("not truncated");
        assert_eq!(raw.initial, por.initial);
        assert_eq!(raw.bivalent_cycle, por.bivalent_cycle);
        assert_eq!(raw.stuck == 0, por.stuck == 0);
        assert!(por.configs <= raw.configs);

        let p = Cas { n: 2 };
        let raw = Explorer::default().valency(&p, &[0, 1]).expect("not truncated");
        let por = Explorer::default().por(true).valency(&p, &[0, 1]).expect("not truncated");
        assert_eq!(raw.initial, por.initial);
        assert_eq!(raw.bivalent_cycle, por.bivalent_cycle);
    }

    #[test]
    fn por_composes_with_canonical_quotient() {
        let p = Naive { n: 3 };
        let raw = Explorer::default().explore(&p, &[0, 1, 1]);
        let both = Explorer::default().canonical(true).por(true).explore(&p, &[0, 1, 1]);
        assert!(both.canonicalized && both.por_enabled);
        assert_eq!(raw.is_safe(), both.is_safe());
        assert_eq!(raw.can_always_reach_termination, both.can_always_reach_termination);
        assert_eq!(raw.infinite_execution_possible, both.infinite_execution_possible);
        assert!(both.configs_visited <= raw.configs_visited);
    }

    #[test]
    fn por_is_identical_across_thread_counts() {
        let p = PrivateMix { n: 3, r: 2 };
        let base = Explorer::default().por(true).threads(1).explore(&p, &[0, 1, 0]);
        for threads in [2, 4] {
            let out = Explorer::default().por(true).threads(threads).explore(&p, &[0, 1, 0]);
            assert_eq!(
                fingerprint(&base),
                fingerprint(&out),
                "por threads={threads} diverged from sequential"
            );
            assert_eq!(base.por_pruned, out.por_pruned);
            assert_eq!(base.por_fallbacks, out.por_fallbacks);
        }
    }

    #[test]
    fn best_first_finds_violation_and_path_replays() {
        let p = Naive { n: 2 };
        let bad = |c: &Configuration<St>| c.is_inconsistent();
        let (w, truncated) = Explorer::default()
            .search(SearchMode::BestFirst)
            .find_violation(&p, &[0, 1], bad);
        assert!(!truncated);
        let exec = w.expect("naive consensus is inconsistent");
        // The returned schedule is a real counterexample: replaying it
        // from the initial configuration lands on an inconsistent one.
        let start = Configuration::initial(&p, &[0, 1]);
        let (end, _) = exec.replay(&p, &start).expect("path replays");
        assert!(end.is_inconsistent());
        // BFS agrees on existence (the witnesses may differ in shape).
        let (bfs, _) = Explorer::default().find_violation(&p, &[0, 1], bad);
        assert!(bfs.is_some());
    }

    #[test]
    fn best_first_respects_budgets_and_reports_truncation() {
        let p = Naive { n: 3 };
        let bad = |c: &Configuration<St>| c.is_inconsistent();
        let tiny = Explorer::new(ExploreLimits { max_configs: 2, max_depth: 10_000 });
        let (w, truncated) =
            tiny.search(SearchMode::BestFirst).find_violation(&p, &[0, 0, 0], bad);
        // Unanimous inputs: no quick inconsistency, and the budget is
        // far too small to prove anything — the search must say so.
        assert!(w.is_none());
        assert!(truncated);
    }

    #[test]
    fn best_first_on_safe_protocol_exhausts_and_finds_nothing() {
        let p = Cas { n: 2 };
        let bad = |c: &Configuration<CasSt>| c.is_inconsistent();
        let (w, truncated) = Explorer::default()
            .search(SearchMode::BestFirst)
            .find_violation(&p, &[0, 1], bad);
        assert!(w.is_none(), "CAS consensus is consistent");
        assert!(!truncated, "the space is small enough to exhaust");
    }

    #[test]
    fn straddle_score_prefers_decision_straddles() {
        let p = Naive { n: 2 };
        let start = Configuration::initial(&p, &[0, 1]);
        let s0 = straddle_score(&p, &start);
        // Hand-decide one process each way: a straddle dominates.
        let mut straddle = start.clone();
        straddle.procs[0] = crate::config::ProcState::Decided(0);
        straddle.procs[1] = crate::config::ProcState::Decided(1);
        let s2 = straddle_score(&p, &straddle);
        assert!(s2 >= 10_000 + 200, "decided straddle scores the bonus");
        assert!(s2 > s0);
        let mut one_side = start.clone();
        one_side.procs[0] = crate::config::ProcState::Decided(1);
        one_side.procs[1] = crate::config::ProcState::Decided(1);
        let s1 = straddle_score(&p, &one_side);
        assert!(s2 > s1, "straddle beats unanimous progress");
    }
}
