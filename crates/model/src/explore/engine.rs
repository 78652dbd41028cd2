//! The shared breadth-first exploration engine.
//!
//! Every exhaustive search in this crate — consensus checking
//! ([`Explorer::explore_from`](super::Explorer::explore_from)), valency
//! analysis ([`Explorer::valency`](super::Explorer::valency)), and
//! safety-property search
//! ([`Explorer::find_violation`](super::Explorer::find_violation)) — is
//! a thin wrapper over [`bfs`]. The engine owns five responsibilities:
//!
//! 1. **Packing.** Each distinct configuration is stored exactly once,
//!    as a fixed-stride run of `u32` words in an append-only
//!    [`PackedArena`] (interned states and values; see [`super::pack`]).
//!    All bookkeeping — parent links, depths, successor edges, the
//!    frontier — refers to configurations by their `u32` arena index,
//!    so the graph costs a few words per node instead of two heap
//!    vectors, and hashing/equality run over flat words.
//! 2. **Canonicalization.** When the caller opts in and the protocol
//!    declares itself [`Symmetric`](crate::protocol::Symmetry), every
//!    candidate successor is mapped to its permutation-class
//!    representative (sorted process vector) before dedup, so the
//!    search runs on the symmetry quotient (see [`super::canonical`]).
//! 3. **Dedup.** Novelty checks go through a [`Dedup`] backend. The
//!    in-RAM tier is [`SeenMaps`]: a precomputed 64-bit hash of the
//!    packed words selects a shard, the shard maps the hash to
//!    candidate arena indices, and candidates are collision-checked by
//!    word-slice equality against the arena. When
//!    [`ExploreConfig::mem_budget_bytes`] is set, the out-of-core tier
//!    ([`super::spill::ExternalDedup`]) replaces it: per level, the
//!    candidate keys are sorted and probed in one batch against an
//!    on-disk seen-set of sorted runs, each with a resident fence index
//!    and Bloom filter, so a probe reads only the blocks that can hold
//!    a key. Both tiers compare full words, so their dedup decisions —
//!    and hence every result — are identical.
//! 4. **Deterministic parallelism.** Each BFS level is processed in two
//!    phases. Phase 1 expands the frontier — in parallel chunks under
//!    [`std::thread::scope`] when the frontier is large enough — with
//!    *read-only* access to the arena and seen-maps, producing
//!    candidate successors. On the batch tiers (out-of-core and
//!    transport) workers also pack each candidate against the codec as
//!    it stood at the level start — starting from the parent's row,
//!    since a step changes at most one object — and hand the merge its
//!    words and hash ([`SuccRef::Packed`]); the codec is append-only,
//!    so those words stay exactly what the merge would have encoded,
//!    and only candidates with a never-seen state travel as heap
//!    clones. Each worker appends its packed rows to one buffer for its
//!    whole chunk.
//!    Phase 2 merges the candidates sequentially,
//!    in frontier order, at the level barrier: it resolves duplicates
//!    discovered concurrently within the level, interns new states into
//!    the codec, assigns arena indices, and records edges. Because the
//!    merge runs in frontier order — and because the canonical order is
//!    the protocol-level `Ord` on states, not an interning artifact —
//!    the arena order (and hence every witness, count, and flag derived
//!    from it) is **identical to a sequential BFS regardless of thread
//!    count**, in RAM and spill mode alike (the external merge assigns
//!    indices by first occurrence in frontier order, exactly like the
//!    in-RAM probe loop).
//! 5. **Checkpointing.** When a search stops cleanly at a level
//!    boundary (deadline or depth budget, never a mid-level config cap)
//!    and [`ExploreConfig::checkpoint`] is set, the parent forest is
//!    serialized so [`bfs_resume`] can rebuild the exact engine state
//!    and continue — see [`super::checkpoint`] for the soundness
//!    argument.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::config::Configuration;
use crate::execution::Step;
use crate::protocol::{Action, Decision, ObjectSpec, Protocol};

use super::canonical::{permutations_of_sorted, Canonicalizer};
use super::checkpoint::{Checkpoint, CheckpointError};
use super::pack::{hash_words, PackedArena, WordStore};
use super::por::{Ample, PorContext};
use super::spill::{BudgetPlan, ExternalDedup, SpillDir, SpillStore};
use super::transport::{FrontierTransport, SharedFrontier, TransportError};
use super::ExploreConfig;

/// A caller-supplied early-stop predicate over configurations.
pub(super) type StopFn<'a, S> = dyn Fn(&Configuration<S>) -> bool + Sync + 'a;

/// Frontiers smaller than this are expanded inline: at this scale the
/// per-level thread spawn costs more than the expansion work it buys.
const PARALLEL_FRONTIER_MIN: usize = 64;

/// The sharded hash → arena-index dedup structure (the in-RAM tier).
///
/// Keys are precomputed [`hash_words`] values of packed
/// configurations; a key maps to every arena index whose words have
/// that hash (almost always one — the `Vec` exists only for 64-bit
/// collisions, and lookups confirm by word-slice equality against the
/// arena). Sharding by the low hash bits keeps lock contention
/// negligible when many workers probe concurrently.
pub(super) struct SeenMaps {
    shards: Vec<Mutex<HashMap<u64, Vec<u32>>>>,
    mask: u64,
}

impl SeenMaps {
    /// A map with `shards` shards, rounded up to a power of two.
    pub(super) fn new(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(1);
        SeenMaps {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n as u64 - 1,
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, HashMap<u64, Vec<u32>>> {
        // The maps are plain data; a panic while holding the lock cannot
        // leave them incoherent, so poisoning is ignored.
        self.shards[(hash & self.mask) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The arena index of the configuration packed as `words`, if it
    /// has been interned.
    pub(super) fn probe<S: Clone + Eq + Hash>(
        &self,
        hash: u64,
        words: &[u32],
        arena: &PackedArena<S>,
    ) -> Option<u32> {
        self.shard(hash)
            .get(&hash)?
            .iter()
            .copied()
            .find(|&j| arena.words_match(j, words))
    }

    /// Record that the configuration whose words hash to `hash` lives
    /// at arena index `index`.
    pub(super) fn insert(&self, hash: u64, index: u32) {
        self.shard(hash).entry(hash).or_default().push(index);
    }

    /// Number of interned entries per shard — the load-balance view the
    /// metrics layer reports (`explore.shard_entries`).
    pub(super) fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(Vec::len)
                    .sum()
            })
            .collect()
    }
}

/// The dedup backend: resident sharded maps, the out-of-core tier, or
/// a pluggable [`FrontierTransport`] (typically a remote, sharded
/// seen-set — see [`super::transport`]). The shared tier reuses the
/// external tier's batch merge, so its interning order — and therefore
/// every result — is identical to both local tiers.
pub(super) enum Dedup {
    Ram(SeenMaps),
    Ext(ExternalDedup),
    Shared(SharedFrontier),
}

/// Pre-resolved global-registry handles for the engine's per-level
/// metrics flush. Tallies are kept in plain locals during the merge and
/// written here once per level barrier, so the per-candidate path never
/// touches an atomic; the struct only exists when metrics were enabled
/// when the search started.
struct EngineMetrics {
    levels: randsync_obs::Counter,
    candidates: randsync_obs::Counter,
    dedup_hits: randsync_obs::Counter,
    interned: randsync_obs::Counter,
    frontier: randsync_obs::Histogram,
    arena_bytes: randsync_obs::Gauge,
    spilled_bytes: randsync_obs::Gauge,
    max_depth: randsync_obs::Gauge,
    raw_represented: randsync_obs::Gauge,
    shard_entries: randsync_obs::Histogram,
}

impl EngineMetrics {
    fn resolve() -> Option<Self> {
        if !randsync_obs::metrics_enabled() {
            return None;
        }
        let m = randsync_obs::global_metrics();
        Some(EngineMetrics {
            levels: m.counter("explore.levels"),
            candidates: m.counter("explore.candidates"),
            dedup_hits: m.counter("explore.dedup_hits"),
            interned: m.counter("explore.interned"),
            frontier: m.histogram("explore.frontier"),
            arena_bytes: m.gauge("explore.arena_bytes"),
            spilled_bytes: m.gauge("explore.spilled_bytes"),
            max_depth: m.gauge("explore.max_depth"),
            raw_represented: m.gauge("explore.raw_represented"),
            shard_entries: m.histogram("explore.shard_entries"),
        })
    }
}

/// The interned BFS forest produced by [`bfs`].
pub(super) struct BfsGraph<S> {
    /// The packed configuration arena, in BFS (insertion) order; index
    /// 0 is the start configuration (canonicalized in canonical mode).
    pub(super) arena: PackedArena<S>,
    /// `parent[i]` is the node and step that first reached node `i`
    /// (`None` only for the start node); follows shortest paths. In
    /// canonical mode the step applies to the canonical parent and the
    /// result re-canonicalizes to node `i`.
    pub(super) parent: Vec<Option<(u32, Step)>>,
    /// BFS depth of each node.
    pub(super) depth: Vec<u32>,
    /// Successor edges, in `(pid, coin)` enumeration order, including
    /// edges to already-interned nodes. Empty unless edges were
    /// requested.
    pub(super) succ: Vec<Vec<u32>>,
    /// Whether the search ran on the symmetry quotient.
    pub(super) canonical: bool,
    /// Total raw configurations represented: the sum over interned
    /// nodes of their permutation-class sizes. Equals the node count in
    /// raw mode. Saturates at `usize::MAX`; see
    /// [`raw_overflow`](BfsGraph::raw_overflow).
    pub(super) raw_represented: usize,
    /// The multinomial accumulation above saturated — the reported
    /// `raw_configs` is a floor, not the true count.
    pub(super) raw_overflow: bool,
    /// A successor was dropped because the arena reached `max_configs`.
    pub(super) config_capped: bool,
    /// The search stopped at a level boundary because
    /// [`ExploreConfig::deadline`] had passed.
    pub(super) deadline_hit: bool,
    /// The depth budget cut off at least one node that still had active
    /// processes (i.e. exploration genuinely stopped early).
    pub(super) depth_capped_active: bool,
    /// The depth budget cut off at least one node of any kind (the
    /// stricter flag used by safety search, which makes no claims about
    /// nodes beyond the horizon).
    pub(super) depth_capped_any: bool,
    /// The first node (in BFS order) satisfying the stop predicate, if
    /// one was given and matched.
    pub(super) hit: Option<u32>,
    /// Whether the search ran on the spillable (out-of-core) tier.
    pub(super) spill_mode: bool,
    /// Total bytes written to spill files (arena segments + dedup runs).
    pub(super) spilled_bytes: u64,
    /// On-disk dedup runs read (see
    /// [`ExploreOutcome::dedup_merge_passes`](super::ExploreOutcome::dedup_merge_passes)).
    pub(super) dedup_merge_passes: u64,
    /// Resident bytes of arena + dedup at the end of the search.
    pub(super) resident_bytes: usize,
    /// Path a checkpoint was written to, if one was requested and the
    /// search stopped checkpointably.
    pub(super) checkpoint_written: Option<std::path::PathBuf>,
    /// Why a requested checkpoint could not be written, if it failed.
    pub(super) checkpoint_error: Option<String>,
    /// The frontier transport failed mid-search; the graph is a valid
    /// BFS prefix but the search could not continue.
    pub(super) transport_error: Option<String>,
    /// Whether the search ran with partial-order reduction.
    pub(super) por_enabled: bool,
    /// Enabled process moves skipped by ample-set reduction (each a
    /// whole process's turn at a node, however many coin outcomes it
    /// would have fanned into).
    pub(super) por_pruned: usize,
    /// Reduced nodes re-expanded in full by the cycle proviso (an edge
    /// back to the same or an earlier BFS level).
    pub(super) por_fallbacks: usize,
}

impl<S> BfsGraph<S> {
    /// Accumulate one interned node's permutation-class size into the
    /// raw-represented total with explicit overflow tracking (the
    /// multinomials at n ≥ 4 scales can exceed `usize`).
    fn add_class(&mut self, class: usize) {
        if class == usize::MAX {
            self.raw_overflow = true;
        }
        match self.raw_represented.checked_add(class) {
            Some(v) => self.raw_represented = v,
            None => {
                self.raw_represented = usize::MAX;
                self.raw_overflow = true;
            }
        }
    }
}

/// A candidate successor produced during frontier expansion.
enum SuccRef<S> {
    /// Already interned at this arena index when the expansion probed
    /// (in-RAM tier only).
    Seen(u32),
    /// Packed against the frozen codec (batch tiers only): the hash of
    /// the words, which are the next `stride` words of the expanding
    /// worker's packed buffer. The codec is append-only, so these are
    /// exactly the words the merge would encode.
    Packed(u64),
    /// Not interned at expansion time; carries the (single) clone made
    /// once novelty was likely — already canonicalized in canonical
    /// mode. The merge re-encodes it against the grown codec.
    New(Configuration<S>),
}

/// Classify one candidate configuration (already canonical if the mode
/// asks for it) by packing it against the frozen codec.
///
/// On the in-RAM tier (`seen` is `Some`) the packed words are probed
/// in the seen-maps and the candidate is cloned only if it looks novel.
/// This is the hash-first / clone-on-insert discipline — known
/// configurations cost an encode, a hash, and a probe, never an
/// allocation.
///
/// On the batch tiers (`seen` is `None`) there are no probeable maps;
/// the words and their hash are handed to the level merge as
/// [`SuccRef::Packed`], with the words appended to `packed`, so the
/// merge neither clones nor re-encodes the candidate. Packing starts
/// from the parent's words (`parent`), since a step changes at most
/// the one object `changed`.
///
/// Either way, a candidate that fails to pack contains a never-interned
/// state, so it cannot be a duplicate of anything interned: it is
/// cloned, and the merge interns its new states in frontier order.
#[allow(clippy::too_many_arguments)]
fn classify<S: Clone + Eq + Hash>(
    cand: &Configuration<S>,
    seen: Option<&SeenMaps>,
    arena: &PackedArena<S>,
    parent: &[u32],
    changed: Option<usize>,
    words: &mut Vec<u32>,
    packed: &mut Vec<u32>,
) -> SuccRef<S> {
    match seen {
        Some(seen) => {
            if arena.try_encode(cand, words) {
                let hash = hash_words(words);
                if let Some(j) = seen.probe(hash, words, arena) {
                    return SuccRef::Seen(j);
                }
            }
        }
        None => {
            if arena.try_encode_successor(cand, parent, changed, words) {
                packed.extend_from_slice(words);
                return SuccRef::Packed(hash_words(words));
            }
        }
    }
    SuccRef::New(cand.clone())
}

/// One frontier node's expansion: its classified candidate successors
/// plus what the ample-set reduction did to it.
struct NodeExpansion<S> {
    cands: Vec<(Step, SuccRef<S>)>,
    /// Only one process's steps were expanded (an ample singleton).
    reduced: bool,
    /// Enabled process moves the reduction skipped at this node.
    pruned: u32,
}

/// All one-step successors of `config` (packed as `parent`), classified
/// against the current arena. Successors are enumerated in
/// `(pid, coin)` order — the same order as [`super::successors`] — by
/// mutating a single scratch clone in place and undoing each step, so a
/// full configuration clone happens only for candidates that are not
/// already interned. The words of
/// [`SuccRef::Packed`] candidates are appended to `packed`, which the
/// caller shares across all the nodes one worker expands: the merge,
/// which runs on another thread, then frees one buffer per worker
/// instead of one per node.
///
/// With a [`PorContext`], the node may be reduced to a singleton ample
/// set: only that process's steps are expanded (and the skipped moves
/// counted). The ample choice is a pure function of `config`, so
/// parallel workers and sequential re-expansion agree. If the ample
/// process turns out to contribute no successors (a degenerate apply
/// failure), the node falls back to full expansion — a reduced node
/// must never look terminal when it is not.
#[allow(clippy::too_many_arguments)]
fn expand_node<P>(
    protocol: &P,
    specs: &[ObjectSpec],
    config: &Configuration<P::State>,
    parent: &[u32],
    canon: &Canonicalizer,
    seen: Option<&SeenMaps>,
    arena: &PackedArena<P::State>,
    por: Option<&PorContext<P::State>>,
    packed: &mut Vec<u32>,
) -> NodeExpansion<P::State>
where
    P: Protocol,
{
    let restrict: Option<crate::process::ProcessId> =
        por.and_then(|ctx| match ctx.ample(protocol, config) {
            Ample::Singleton(p) => Some(p),
            Ample::Full => None,
        });
    let mut out = Vec::new();
    let mut pruned = 0u32;
    let mut scratch = config.clone();
    // Reusable buffers: the canonical copy of each candidate and its
    // packed words.
    let mut sorted = if canon.enabled() { Some(config.clone()) } else { None };
    let mut words: Vec<u32> = Vec::new();
    let mut push = |step: Step,
                    changed: Option<usize>,
                    scratch: &Configuration<P::State>,
                    out: &mut Vec<_>| {
        let cand: &Configuration<P::State> = match &mut sorted {
            Some(c) => {
                c.procs.clone_from(&scratch.procs);
                c.values.clone_from(&scratch.values);
                c.canonicalize();
                c
            }
            None => scratch,
        };
        out.push((step, classify(cand, seen, arena, parent, changed, &mut words, packed)));
    };
    for pid in config.active_processes() {
        if restrict.is_some_and(|p| p != pid) {
            pruned += 1;
            continue;
        }
        // `state` borrows from `config`, never from `scratch`, so the
        // in-place mutations below cannot invalidate it.
        let Some(state) = config.procs[pid.0].state() else { continue };
        match protocol.action(state) {
            Action::Decide(d) => {
                let prev = std::mem::replace(
                    &mut scratch.procs[pid.0],
                    crate::config::ProcState::Decided(d),
                );
                push(Step::of(pid), None, &scratch, &mut out);
                scratch.procs[pid.0] = prev;
            }
            Action::Invoke { object, op } => {
                let Some(spec) = specs.get(object.0) else { continue };
                let Some(value) = config.values.get(object.0) else { continue };
                let Ok((new_value, resp)) = spec.kind.apply(value, &op) else { continue };
                let domain = protocol.coin_domain(state, &resp).max(1);
                let prev_value = std::mem::replace(&mut scratch.values[object.0], new_value);
                for coin in 0..domain {
                    let next_state = protocol.transition(state, &resp, coin);
                    let prev_proc = std::mem::replace(
                        &mut scratch.procs[pid.0],
                        crate::config::ProcState::Active(next_state),
                    );
                    push(Step::with_coin(pid, coin), Some(object.0), &scratch, &mut out);
                    scratch.procs[pid.0] = prev_proc;
                }
                scratch.values[object.0] = prev_value;
            }
        }
    }
    if restrict.is_some() && out.is_empty() && pruned > 0 {
        // The ample process contributed nothing (so packed nothing);
        // expand in full.
        return expand_node(protocol, specs, config, parent, canon, seen, arena, None, packed);
    }
    let reduced = restrict.is_some() && pruned > 0;
    NodeExpansion { cands: out, reduced, pruned: if reduced { pruned } else { 0 } }
}

/// Per-level merge tallies, flushed to metrics at the level barrier.
struct LevelStats {
    candidates: u64,
    dedup: u64,
    interned: u64,
}

/// Pick the storage tier from the configuration: resident arena +
/// sharded maps, or spill store + external dedup under a budget.
///
/// Partial-order reduction forces the in-RAM tier: the cycle proviso
/// re-expands nodes during the merge, which needs the probeable
/// seen-maps the external tier does not keep.
fn make_store<S: Clone + Eq + Hash>(
    config: &ExploreConfig,
    n_procs: usize,
    n_values: usize,
) -> (PackedArena<S>, Dedup) {
    if let Some(transport) = &config.transport {
        if !config.por {
            // The shared (distributed) tier: the arena stays local —
            // the coordinator owns interning order — while the
            // seen-set lives behind the transport. Takes precedence
            // over a memory budget; POR still forces the in-RAM tier
            // (the cycle proviso needs probeable seen-maps).
            return (PackedArena::new(n_procs, n_values), Dedup::Shared(transport.clone()));
        }
    }
    if config.mem_budget_bytes > 0 && !config.por {
        let stride = n_procs + n_values;
        let plan = BudgetPlan::for_budget(config.mem_budget_bytes, stride);
        let dir = SpillDir::create(config.spill_dir.clone());
        let store = SpillStore::new(stride, &plan, Arc::clone(&dir));
        (
            PackedArena::with_store(n_procs, n_values, WordStore::Spill(store)),
            Dedup::Ext(ExternalDedup::new(stride, &plan, dir)),
        )
    } else {
        (PackedArena::new(n_procs, n_values), Dedup::Ram(SeenMaps::new(config.shard_count())))
    }
}

/// Depth-synchronous breadth-first exploration from `start`.
///
/// When `stop` is given, the search halts at the end of the level in
/// which the first (in BFS order) matching node is interned, recording
/// it in [`BfsGraph::hit`]; the predicate is evaluated on every node
/// exactly once, as it is interned (on the canonical representative in
/// canonical mode). When `record_edges` is set, the full successor
/// multigraph is recorded in [`BfsGraph::succ`].
///
/// The result is bit-identical for every `threads` setting — and for
/// every storage tier: parallel workers only *propose* successors, and
/// the sequential merge at each level barrier interns them — and
/// assigns codec ids — in frontier order.
pub(super) fn bfs<P>(
    protocol: &P,
    start: Configuration<P::State>,
    config: &ExploreConfig,
    record_edges: bool,
    stop: Option<&StopFn<'_, P::State>>,
) -> BfsGraph<P::State>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    // `Protocol::objects` allocates a fresh Vec per call; hoist it out
    // of the hot loop once for the whole search.
    let specs = protocol.objects();
    let canon = Canonicalizer::for_protocol(protocol, config.canonical);

    let mut start = start;
    canon.canonicalize(&mut start);

    // The reduction context is built once per search; `ample` is then a
    // pure function of each configuration.
    let por = config.por.then(|| PorContext::build(protocol, &start));

    let (arena, mut dedup) = make_store(config, start.procs.len(), start.values.len());
    let mut g = BfsGraph {
        arena,
        parent: Vec::new(),
        depth: Vec::new(),
        succ: Vec::new(),
        canonical: canon.enabled(),
        raw_represented: 0,
        raw_overflow: false,
        config_capped: false,
        deadline_hit: false,
        depth_capped_active: false,
        depth_capped_any: false,
        hit: None,
        spill_mode: matches!(dedup, Dedup::Ext(_)),
        spilled_bytes: 0,
        dedup_merge_passes: 0,
        resident_bytes: 0,
        checkpoint_written: None,
        checkpoint_error: None,
        transport_error: None,
        por_enabled: false,
        por_pruned: 0,
        por_fallbacks: 0,
    };
    // Reusable packed-word buffer for everything the merge interns.
    let mut words: Vec<u32> = Vec::new();
    g.arena.encode_intern(&start, &mut words);
    let start_hash = hash_words(&words);
    g.arena.push(&words);
    g.parent.push(None);
    g.depth.push(0);
    if record_edges {
        g.succ.push(Vec::new());
    }
    match &mut dedup {
        Dedup::Ram(seen) => seen.insert(start_hash, 0),
        Dedup::Ext(d) => d.insert_sorted(&[start_hash], &[0], &words),
        Dedup::Shared(t) => {
            let mut t = t.lock();
            let opened = t
                .open(g.arena.stride())
                .and_then(|()| t.insert_sorted(&[start_hash], &[0], &words));
            if let Err(e) = opened {
                drop(t);
                g.transport_error = Some(e.to_string());
                finalize(&mut g, &dedup, config, record_edges, 0);
                close_transport(&mut dedup);
                return g;
            }
        }
    }
    g.add_class(if canon.enabled() { permutations_of_sorted(&start.procs) } else { 1 });
    g.por_enabled = por.is_some();
    if let Some(pred) = stop {
        if pred(&start) {
            g.hit = Some(0);
            finalize(&mut g, &dedup, config, record_edges, 0);
            close_transport(&mut dedup);
            return g;
        }
    }

    let final_depth = run_levels(
        protocol,
        &specs,
        config,
        record_edges,
        stop,
        &canon,
        por.as_ref(),
        &mut g,
        &mut dedup,
        vec![0],
        0,
    );
    finalize(&mut g, &dedup, config, record_edges, final_depth);
    close_transport(&mut dedup);
    g
}

/// Best-effort end-of-search release of a shared frontier session
/// (close failures are unreportable — the search already finished).
fn close_transport(dedup: &mut Dedup) {
    if let Dedup::Shared(t) = dedup {
        let _ = t.lock().close();
    }
}

/// Rebuild a checkpointed search and continue it to completion (or the
/// next budget) under `config`.
///
/// The checkpoint stores only the parent forest; the arena, codec,
/// seen-set, and frontier are reconstructed by replaying one protocol
/// step per node in the original BFS order, which reproduces every
/// interned word and codec id exactly (see [`super::checkpoint`]). The
/// resumed search may run on a different storage tier than the one
/// that wrote the checkpoint.
pub(super) fn bfs_resume<P>(
    protocol: &P,
    ckpt: &Checkpoint,
    config: &ExploreConfig,
) -> Result<BfsGraph<P::State>, CheckpointError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let specs = protocol.objects();
    let canon = Canonicalizer::for_protocol(protocol, ckpt.canonical);
    if canon.enabled() != ckpt.canonical {
        return Err(CheckpointError::Mismatch(
            "checkpoint ran on the symmetry quotient but this protocol does not grant it".into(),
        ));
    }
    let inputs: Vec<Decision> = ckpt.inputs.clone();
    if inputs.len() != protocol.num_processes() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {} inputs, protocol has {} processes",
            inputs.len(),
            protocol.num_processes()
        )));
    }
    let mut start = Configuration::initial(protocol, &inputs);
    canon.canonicalize(&mut start);
    let (n_procs, n_values) = (start.procs.len(), start.values.len());
    if n_procs != ckpt.n_procs as usize || n_values != ckpt.n_values as usize {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint shape {}×{} does not match protocol shape {}×{}",
            ckpt.n_procs, ckpt.n_values, n_procs, n_values
        )));
    }
    let record_edges = ckpt.record_edges;
    let stride = n_procs + n_values;

    let (arena, mut dedup) = make_store(config, n_procs, n_values);
    let mut g = BfsGraph {
        arena,
        parent: Vec::with_capacity(ckpt.nodes()),
        depth: Vec::with_capacity(ckpt.nodes()),
        succ: Vec::new(),
        canonical: canon.enabled(),
        raw_represented: 0,
        raw_overflow: false,
        config_capped: false,
        deadline_hit: false,
        depth_capped_active: false,
        depth_capped_any: false,
        hit: None,
        spill_mode: matches!(dedup, Dedup::Ext(_)),
        spilled_bytes: 0,
        dedup_merge_passes: 0,
        resident_bytes: 0,
        checkpoint_written: None,
        checkpoint_error: None,
        transport_error: None,
        por_enabled: false,
        por_pruned: 0,
        por_fallbacks: 0,
    };
    if let Dedup::Shared(t) = &mut dedup {
        t.lock().open(stride).map_err(|e| {
            CheckpointError::Mismatch(format!("frontier transport failed to open: {e}"))
        })?;
    }

    // Replay: one decode + step + intern per node, in interning order.
    // In spill mode, seen-set entries are accumulated into bounded
    // sorted chunks so the rebuild respects the memory budget too.
    let mut words: Vec<u32> = Vec::new();
    let (mut pend_h, mut pend_i, mut pend_w): (Vec<u64>, Vec<u32>, Vec<u32>) =
        (Vec::new(), Vec::new(), Vec::new());
    let pend_cap = 64 * 1024; // entries per chunk before a sorted insert
    for i in 0..ckpt.nodes() {
        let cfg = if i == 0 {
            start.clone()
        } else {
            let (p, step) = ckpt.parent[i].ok_or_else(|| {
                CheckpointError::Corrupt(format!("node {i} lacks a parent"))
            })?;
            let mut c = g.arena.decode(p);
            c.step(protocol, step.pid, step.coin).map_err(|e| {
                CheckpointError::Mismatch(format!(
                    "replaying step {step:?} at node {i} failed: {e:?} — \
                     checkpoint does not match this protocol"
                ))
            })?;
            canon.canonicalize(&mut c);
            c
        };
        g.arena.encode_intern(&cfg, &mut words);
        let hash = hash_words(&words);
        let j = g.arena.push(&words);
        debug_assert_eq!(j as usize, i);
        g.parent.push(ckpt.parent[i]);
        let d = match ckpt.parent[i] {
            None => 0,
            Some((p, _)) => g.depth[p as usize] + 1,
        };
        g.depth.push(d);
        if record_edges {
            g.succ.push(ckpt.succ[i].clone());
        }
        g.add_class(if canon.enabled() { permutations_of_sorted(&cfg.procs) } else { 1 });
        match &mut dedup {
            Dedup::Ram(seen) => seen.insert(hash, j),
            Dedup::Ext(_) | Dedup::Shared(_) => {
                pend_h.push(hash);
                pend_i.push(j);
                pend_w.extend_from_slice(&words);
                if pend_h.len() >= pend_cap {
                    flush_pending(&mut dedup, &mut pend_h, &mut pend_i, &mut pend_w, stride)?;
                }
            }
        }
    }
    flush_pending(&mut dedup, &mut pend_h, &mut pend_i, &mut pend_w, stride)?;

    // The frontier is exactly the nodes at the stop depth, in index
    // (i.e. original interning) order.
    let level_depth = ckpt.level_depth as usize;
    let frontier: Vec<u32> = (0..ckpt.nodes() as u32)
        .filter(|&i| g.depth[i as usize] as usize == level_depth)
        .collect();

    // A resumed search always continues unreduced: the checkpointed
    // prefix records no ample decisions, and correctness of the cycle
    // proviso depends on the whole graph being built under one regime.
    let final_depth = run_levels(
        protocol,
        &specs,
        config,
        record_edges,
        None,
        &canon,
        None,
        &mut g,
        &mut dedup,
        frontier,
        level_depth,
    );
    finalize(&mut g, &dedup, config, record_edges, final_depth);
    close_transport(&mut dedup);
    Ok(g)
}

/// Flush pending rebuild entries to a batch-oriented dedup tier; maps
/// a transport failure to the checkpoint error the resume reports.
fn flush_pending(
    dedup: &mut Dedup,
    h: &mut Vec<u64>,
    idx: &mut Vec<u32>,
    w: &mut Vec<u32>,
    stride: usize,
) -> Result<(), CheckpointError> {
    let result = match dedup {
        Dedup::Ram(_) => return Ok(()),
        Dedup::Ext(d) => flush_sorted_chunk(d, h, idx, w, stride),
        Dedup::Shared(t) => flush_sorted_chunk(&mut *t.lock(), h, idx, w, stride),
    };
    result.map_err(|e| {
        CheckpointError::Mismatch(format!("frontier transport failed during rebuild: {e}"))
    })
}

/// Sort an unsorted chunk of seen-set entries by `(hash, words)` and
/// hand it to a batch-oriented dedup tier as one sorted batch.
fn flush_sorted_chunk(
    dedup: &mut dyn FrontierTransport,
    h: &mut Vec<u64>,
    idx: &mut Vec<u32>,
    w: &mut Vec<u32>,
    stride: usize,
) -> Result<(), TransportError> {
    if h.is_empty() {
        return Ok(());
    }
    let mut order: Vec<u32> = (0..h.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        h[a].cmp(&h[b])
            .then_with(|| w[a * stride..(a + 1) * stride].cmp(&w[b * stride..(b + 1) * stride]))
    });
    let mut sh = Vec::with_capacity(h.len());
    let mut si = Vec::with_capacity(h.len());
    let mut sw = Vec::with_capacity(w.len());
    for &o in &order {
        let o = o as usize;
        sh.push(h[o]);
        si.push(idx[o]);
        sw.extend_from_slice(&w[o * stride..(o + 1) * stride]);
    }
    dedup.insert_sorted(&sh, &si, &sw)?;
    h.clear();
    idx.clear();
    w.clear();
    Ok(())
}

/// The level loop shared by [`bfs`] and [`bfs_resume`]: expand, merge,
/// repeat until the frontier empties or a budget stops the search at a
/// level boundary. Returns the depth of the frontier when the loop
/// stopped (the resume point).
#[allow(clippy::too_many_arguments)]
fn run_levels<P>(
    protocol: &P,
    specs: &[ObjectSpec],
    config: &ExploreConfig,
    record_edges: bool,
    stop: Option<&StopFn<'_, P::State>>,
    canon: &Canonicalizer,
    por: Option<&PorContext<P::State>>,
    g: &mut BfsGraph<P::State>,
    dedup: &mut Dedup,
    mut frontier: Vec<u32>,
    mut level_depth: usize,
) -> usize
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let threads = config.effective_threads();
    let max_configs = config.limits.max_configs;
    let max_depth = config.limits.max_depth;
    let metrics = EngineMetrics::resolve();
    // One span over the whole level loop, so the per-level
    // `explore.level` events (and any frontier RPC spans under a
    // distributed dedup) hang off a single node in the trace tree.
    let _search_span = if randsync_obs::tracing_active() {
        Some(randsync_obs::span("explore.search", &[]))
    } else {
        None
    };

    while !frontier.is_empty() && g.hit.is_none() {
        if level_depth >= max_depth {
            g.depth_capped_any = true;
            if frontier.iter().any(|&i| g.arena.has_active(i)) {
                g.depth_capped_active = true;
            }
            break;
        }
        // Cooperative cancellation, checked once per level: expansion
        // stops cleanly at a level boundary, so everything interned so
        // far is a valid (truncated) BFS prefix — and, if a checkpoint
        // was requested, a resumable one.
        if config.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            g.deadline_hit = true;
            break;
        }

        // Phase 1: expand every frontier node against a frozen view of
        // the arena, codec, and seen-maps. Nothing is interned yet, so
        // workers may race freely; duplicates discovered concurrently
        // are resolved by the merge below. Frontier nodes are decoded
        // from the packed arena on the fly — the engine never holds
        // more than one heap configuration per in-flight expansion.
        let seen_view: Option<&SeenMaps> = match &*dedup {
            Dedup::Ram(seen) => Some(seen),
            Dedup::Ext(_) | Dedup::Shared(_) => None,
        };
        let arena = &g.arena;
        // Each chunk's packed rows go to one buffer; the buffers stay
        // in chunk order, so reading them front to back meets the rows
        // in frontier order.
        let expand_chunk = |ids: &[u32]| {
            let (mut row, mut packed) = (Vec::new(), Vec::new());
            let nodes: Vec<NodeExpansion<P::State>> = ids
                .iter()
                .map(|&i| {
                    arena.read_words(i, &mut row);
                    let config = arena.decode_words(&row);
                    expand_node(
                        protocol,
                        specs,
                        &config,
                        &row,
                        canon,
                        seen_view,
                        arena,
                        por,
                        &mut packed,
                    )
                })
                .collect();
            (nodes, packed)
        };
        let (expansions, packed) = if threads > 1 && frontier.len() >= PARALLEL_FRONTIER_MIN {
            let workers = threads.min(frontier.len());
            let chunk = frontier.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = frontier
                    .chunks(chunk)
                    .map(|ids| scope.spawn(move || expand_chunk(ids)))
                    .collect();
                let mut expansions = Vec::with_capacity(frontier.len());
                let mut packed = Vec::with_capacity(handles.len());
                for h in handles {
                    let (nodes, words) = h.join().expect("exploration worker panicked");
                    expansions.extend(nodes);
                    packed.push(words);
                }
                (expansions, packed)
            })
        } else {
            let (nodes, words) = expand_chunk(&frontier);
            (nodes, vec![words])
        };

        // Phase 2: sequential merge at the level barrier, in frontier
        // order. This is the only place the arena, the codec, and the
        // seen-set grow, so interning order — and everything derived
        // from it — matches the sequential BFS exactly, on either tier.
        let merged = match dedup {
            Dedup::Ram(seen) => Ok(merge_level_ram(
                protocol,
                specs,
                g,
                seen,
                &frontier,
                expansions,
                level_depth,
                max_configs,
                canon,
                stop,
                record_edges,
            )),
            Dedup::Ext(ext) => merge_level_external(
                g,
                ext,
                &frontier,
                expansions,
                &packed,
                level_depth,
                max_configs,
                canon,
                stop,
                record_edges,
            ),
            Dedup::Shared(t) => merge_level_external(
                g,
                &mut *t.lock(),
                &frontier,
                expansions,
                &packed,
                level_depth,
                max_configs,
                canon,
                stop,
                record_edges,
            ),
        };
        let (next_frontier, stats) = match merged {
            Ok(level) => level,
            Err(e) => {
                // The transport died; everything interned so far is a
                // valid BFS prefix, so stop here and report truncation.
                g.transport_error = Some(e.to_string());
                break;
            }
        };
        if let Some(m) = &metrics {
            m.levels.inc();
            m.candidates.add(stats.candidates);
            m.dedup_hits.add(stats.dedup);
            m.interned.add(stats.interned);
            m.frontier.observe(frontier.len() as u64);
            m.arena_bytes.record_max(g.arena.bytes() as i64);
            let spilled = g.arena.spilled_bytes()
                + if let Dedup::Ext(d) = &*dedup { d.spilled_bytes() } else { 0 };
            m.spilled_bytes.record_max(spilled as i64);
            m.max_depth.record_max(level_depth as i64 + 1);
            m.raw_represented.record_max(g.raw_represented as i64);
        }
        if randsync_obs::tracing_active() {
            randsync_obs::emit(
                "explore.level",
                &[
                    ("depth", randsync_obs::Field::U64(level_depth as u64)),
                    ("frontier", randsync_obs::Field::U64(frontier.len() as u64)),
                    ("candidates", randsync_obs::Field::U64(stats.candidates)),
                    ("dedup_hits", randsync_obs::Field::U64(stats.dedup)),
                    ("interned", randsync_obs::Field::U64(stats.interned)),
                    ("configs", randsync_obs::Field::U64(g.arena.len() as u64)),
                    ("arena_bytes", randsync_obs::Field::U64(g.arena.bytes() as u64)),
                ],
            );
        }
        frontier = next_frontier;
        level_depth += 1;
    }
    if let Some(m) = &metrics {
        if let Dedup::Ram(seen) = &*dedup {
            for size in seen.shard_sizes() {
                m.shard_entries.observe(size as u64);
            }
        }
    }
    level_depth
}

/// Resolve one candidate successor against the arena and seen-maps:
/// dedup or intern, record parent/depth/class, evaluate the stop
/// predicate, and extend the next frontier. Returns the arena index the
/// candidate resolved to (`None` if dropped at the config cap).
#[allow(clippy::too_many_arguments)]
fn merge_candidate<S: Clone + Eq + Hash>(
    g: &mut BfsGraph<S>,
    seen: &SeenMaps,
    words: &mut Vec<u32>,
    parent_idx: u32,
    step: Step,
    cand: SuccRef<S>,
    level_depth: usize,
    max_configs: usize,
    canon: &Canonicalizer,
    stop: Option<&StopFn<'_, S>>,
    record_edges: bool,
    next_frontier: &mut Vec<u32>,
    stats: &mut LevelStats,
) -> Option<u32> {
    stats.candidates += 1;
    match cand {
        SuccRef::Seen(j) => {
            stats.dedup += 1;
            Some(j)
        }
        SuccRef::Packed(_) => unreachable!("the in-RAM tier never hands off packed rows"),
        SuccRef::New(cand_config) => {
            // Re-encode against the grown codec (interning any
            // genuinely new states) and re-probe: another frontier
            // node earlier in the merge may have interned this
            // configuration within the same level.
            g.arena.encode_intern(&cand_config, words);
            let hash = hash_words(words);
            if let Some(j) = seen.probe(hash, words, &g.arena) {
                stats.dedup += 1;
                Some(j)
            } else if g.arena.len() >= max_configs {
                g.config_capped = true;
                None
            } else {
                let j = g.arena.push(words);
                g.parent.push(Some((parent_idx, step)));
                g.depth.push(level_depth as u32 + 1);
                if record_edges {
                    g.succ.push(Vec::new());
                }
                seen.insert(hash, j);
                g.add_class(if canon.enabled() {
                    permutations_of_sorted(&cand_config.procs)
                } else {
                    1
                });
                if g.hit.is_none() {
                    if let Some(pred) = stop {
                        if pred(&cand_config) {
                            g.hit = Some(j);
                        }
                    }
                }
                stats.interned += 1;
                next_frontier.push(j);
                Some(j)
            }
        }
    }
}

/// In-RAM level merge: probe the sharded maps candidate by candidate,
/// in frontier order.
///
/// This is also where the reduction's **cycle proviso** lives: when a
/// reduced node resolves an edge to a node at the same or an earlier
/// BFS depth — the kind of edge every cycle must contain — the node is
/// re-expanded in full (against the current maps, so already-interned
/// ample successors simply dedup) and its edges are rebuilt from the
/// full expansion. The check runs in the sequential merge, so the
/// decision is identical at every thread count.
#[allow(clippy::too_many_arguments)]
fn merge_level_ram<P>(
    protocol: &P,
    specs: &[ObjectSpec],
    g: &mut BfsGraph<P::State>,
    seen: &SeenMaps,
    frontier: &[u32],
    expansions: Vec<NodeExpansion<P::State>>,
    level_depth: usize,
    max_configs: usize,
    canon: &Canonicalizer,
    stop: Option<&StopFn<'_, P::State>>,
    record_edges: bool,
) -> (Vec<u32>, LevelStats)
where
    P: Protocol,
{
    let mut next_frontier: Vec<u32> = Vec::new();
    let mut stats = LevelStats { candidates: 0, dedup: 0, interned: 0 };
    let mut words: Vec<u32> = Vec::new();
    for (pos, expansion) in expansions.into_iter().enumerate() {
        let parent_idx = frontier[pos];
        let mut back_edge = false;
        for (step, cand) in expansion.cands {
            let interned = merge_candidate(
                g,
                seen,
                &mut words,
                parent_idx,
                step,
                cand,
                level_depth,
                max_configs,
                canon,
                stop,
                record_edges,
                &mut next_frontier,
                &mut stats,
            );
            if let Some(j) = interned {
                if record_edges {
                    g.succ[parent_idx as usize].push(j);
                }
                back_edge |= g.depth[j as usize] as usize <= level_depth;
            }
        }
        if expansion.reduced {
            if back_edge {
                // Cycle proviso: re-expand in full so every cycle in
                // the reduced graph contains a fully expanded node.
                g.por_fallbacks += 1;
                let mut row = Vec::new();
                g.arena.read_words(parent_idx, &mut row);
                let full = expand_node(
                    protocol,
                    specs,
                    &g.arena.decode_words(&row),
                    &row,
                    canon,
                    Some(seen),
                    &g.arena,
                    None,
                    &mut Vec::new(),
                );
                if record_edges {
                    g.succ[parent_idx as usize].clear();
                }
                for (step, cand) in full.cands {
                    let interned = merge_candidate(
                        g,
                        seen,
                        &mut words,
                        parent_idx,
                        step,
                        cand,
                        level_depth,
                        max_configs,
                        canon,
                        stop,
                        record_edges,
                        &mut next_frontier,
                        &mut stats,
                    );
                    if record_edges {
                        if let Some(j) = interned {
                            g.succ[parent_idx as usize].push(j);
                        }
                    }
                }
            } else {
                g.por_pruned += expansion.pruned as usize;
            }
        }
    }
    (next_frontier, stats)
}

/// Resolution state of one distinct candidate key within a level.
#[derive(Clone, Copy)]
enum GroupState {
    /// Interned in a previous level at this index.
    Existing(u32),
    /// Not yet resolved.
    Unassigned,
    /// Interned this level at this index (first occurrence wins).
    Assigned(u32),
    /// First occurrence hit the config cap; every occurrence drops.
    Capped,
}

/// Batch-oriented level merge, shared by the out-of-core tier and
/// every [`FrontierTransport`] (the distributed seen-set): gather every
/// candidate's packed words in frontier order (most arrive packed from
/// phase 1; the rest are encoded here, which is where codec ids are
/// assigned, exactly as the in-RAM merge would assign them), sort the
/// level's distinct keys, resolve them against the seen-set in one
/// sorted probe batch, then assign arena indices by first occurrence in
/// frontier order — reproducing the in-RAM merge's interning order bit
/// for bit.
#[allow(clippy::too_many_arguments)]
fn merge_level_external<S: Clone + Eq + Hash>(
    g: &mut BfsGraph<S>,
    dedup: &mut dyn FrontierTransport,
    frontier: &[u32],
    expansions: Vec<NodeExpansion<S>>,
    packed: &[Vec<u32>],
    level_depth: usize,
    max_configs: usize,
    canon: &Canonicalizer,
    stop: Option<&StopFn<'_, S>>,
    record_edges: bool,
) -> Result<(Vec<u32>, LevelStats), TransportError> {
    let stride = g.arena.stride();
    let n_procs = g.arena.n_procs();

    // Pass A: gather every candidate's words in frontier order. Packed
    // candidates only use codec ids that existed at the level start;
    // the rest are encoded here, which is where codec ids grow — in
    // exactly the order the in-RAM merge grows them.
    let mut lev_parent: Vec<u32> = Vec::new();
    let mut lev_step: Vec<Step> = Vec::new();
    let mut lev_hash: Vec<u64> = Vec::new();
    let mut lev_words: Vec<u32> = Vec::new();
    let mut words: Vec<u32> = Vec::new();
    // Packed rows arrive one worker buffer after another, in frontier
    // order, one row per `SuccRef::Packed` candidate.
    let mut buffers = packed.iter();
    let mut rows: &[u32] = &[];
    for (pos, expansion) in expansions.into_iter().enumerate() {
        let parent_idx = frontier[pos];
        // POR forces the in-RAM tier (see `make_store`), so external
        // merges never see reduced expansions.
        debug_assert!(!expansion.reduced);
        for (step, cand) in expansion.cands {
            match cand {
                SuccRef::Packed(hash) => {
                    while rows.len() < stride {
                        rows = buffers.next().expect("one packed row per packed candidate");
                    }
                    let (row, rest) = rows.split_at(stride);
                    lev_hash.push(hash);
                    lev_words.extend_from_slice(row);
                    rows = rest;
                }
                SuccRef::New(cfg) => {
                    g.arena.encode_intern(&cfg, &mut words);
                    lev_hash.push(hash_words(&words));
                    lev_words.extend_from_slice(&words);
                }
                SuccRef::Seen(_) => unreachable!("batch tiers never pre-classify"),
            }
            lev_parent.push(parent_idx);
            lev_step.push(step);
        }
    }
    let k = lev_hash.len();

    // Pass B: group candidates by key. Two candidates are the same
    // configuration iff their full words match (the hash only orders).
    let row = |ord: usize| &lev_words[ord * stride..(ord + 1) * stride];
    let mut order: Vec<u32> = (0..k as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        lev_hash[a].cmp(&lev_hash[b]).then_with(|| row(a).cmp(row(b)))
    });
    let mut group_of = vec![0u32; k];
    let mut reps: Vec<u32> = Vec::new();
    for (s, &ord) in order.iter().enumerate() {
        let fresh = s == 0 || {
            let prev = order[s - 1] as usize;
            let cur = ord as usize;
            lev_hash[prev] != lev_hash[cur] || row(prev) != row(cur)
        };
        if fresh {
            reps.push(ord);
        }
        group_of[ord as usize] = (reps.len() - 1) as u32;
    }

    // Pass C: one sorted probe batch against the external seen-set —
    // sequential merges over the RAM buffer and every on-disk run.
    let mut probe_h: Vec<u64> = Vec::with_capacity(reps.len());
    let mut probe_w: Vec<u32> = Vec::with_capacity(reps.len() * stride);
    for &rep in &reps {
        probe_h.push(lev_hash[rep as usize]);
        probe_w.extend_from_slice(row(rep as usize));
    }
    let found = dedup.probe_sorted(&probe_h, &probe_w)?;

    // Pass D: walk candidates in frontier order and intern first
    // occurrences — identical index assignment to the in-RAM merge.
    let mut gstate: Vec<GroupState> = found
        .iter()
        .map(|f| match f {
            Some(j) => GroupState::Existing(*j),
            None => GroupState::Unassigned,
        })
        .collect();
    let mut next_frontier: Vec<u32> = Vec::new();
    let mut stats = LevelStats { candidates: k as u64, dedup: 0, interned: 0 };
    for ord in 0..k {
        let gid = group_of[ord] as usize;
        let resolved = match gstate[gid] {
            GroupState::Existing(j) | GroupState::Assigned(j) => {
                stats.dedup += 1;
                Some(j)
            }
            GroupState::Capped => {
                g.config_capped = true;
                None
            }
            GroupState::Unassigned => {
                if g.arena.len() >= max_configs {
                    g.config_capped = true;
                    gstate[gid] = GroupState::Capped;
                    None
                } else {
                    let class = if canon.enabled() {
                        permutations_of_sorted(&row(ord)[..n_procs])
                    } else {
                        1
                    };
                    let j = g.arena.push(row(ord));
                    g.parent.push(Some((lev_parent[ord], lev_step[ord])));
                    g.depth.push(level_depth as u32 + 1);
                    if record_edges {
                        g.succ.push(Vec::new());
                    }
                    g.add_class(class);
                    if g.hit.is_none() {
                        // Only rows that are interned are decoded, and
                        // decoding is exact: packing is injective.
                        if let Some(pred) = stop {
                            if pred(&g.arena.decode(j)) {
                                g.hit = Some(j);
                            }
                        }
                    }
                    stats.interned += 1;
                    next_frontier.push(j);
                    gstate[gid] = GroupState::Assigned(j);
                    Some(j)
                }
            }
        };
        if record_edges {
            if let Some(j) = resolved {
                g.succ[lev_parent[ord] as usize].push(j);
            }
        }
    }

    // Pass E: append the level's newly interned keys to the seen-set as
    // one sorted batch (reps are already in sorted-key order).
    let mut new_h: Vec<u64> = Vec::new();
    let mut new_i: Vec<u32> = Vec::new();
    let mut new_w: Vec<u32> = Vec::new();
    for (gi, &rep) in reps.iter().enumerate() {
        if let GroupState::Assigned(j) = gstate[gi] {
            new_h.push(lev_hash[rep as usize]);
            new_i.push(j);
            new_w.extend_from_slice(row(rep as usize));
        }
    }
    if !new_h.is_empty() {
        dedup.insert_sorted(&new_h, &new_i, &new_w)?;
    }
    Ok((next_frontier, stats))
}

/// End-of-search bookkeeping: fold the spill statistics into the graph
/// and write the requested checkpoint if the search stopped resumably
/// (a clean level boundary — deadline or depth budget — with no
/// mid-level config-cap drops).
fn finalize<S: Clone + Eq + Hash>(
    g: &mut BfsGraph<S>,
    dedup: &Dedup,
    config: &ExploreConfig,
    record_edges: bool,
    level_depth: usize,
) {
    g.spilled_bytes = g.arena.spilled_bytes();
    match dedup {
        Dedup::Ram(_) => {
            // Arena + per-entry map cost, mirroring `arena_bytes`.
            g.resident_bytes = g.arena.bytes() + g.arena.len() * 24;
        }
        Dedup::Ext(d) => {
            g.spilled_bytes += d.spilled_bytes();
            g.dedup_merge_passes = d.merge_passes();
            g.resident_bytes = g.arena.resident_word_bytes() + d.resident_bytes();
        }
        Dedup::Shared(_) => {
            // The seen-set lives behind the transport (typically on
            // other nodes); locally only the arena is resident.
            g.resident_bytes = g.arena.bytes();
        }
    }
    let Some(req) = &config.checkpoint else { return };
    // A transport failure can cut a level mid-merge, so a graph that
    // carries one is not a checkpointable level-boundary prefix.
    let resumable = (g.deadline_hit || g.depth_capped_any)
        && !g.config_capped
        && g.transport_error.is_none();
    if !resumable {
        return;
    }
    let ck = Checkpoint {
        protocol: req.protocol.clone(),
        n: req.n,
        r: req.r,
        inputs: req.inputs.clone(),
        canonical: g.canonical,
        record_edges,
        n_procs: g.arena.n_procs() as u32,
        n_values: (g.arena.stride() - g.arena.n_procs()) as u32,
        level_depth: level_depth as u64,
        parent: g.parent.clone(),
        succ: if record_edges { g.succ.clone() } else { Vec::new() },
    };
    match ck.save(&req.path) {
        Ok(()) => g.checkpoint_written = Some(req.path.clone()),
        Err(e) => g.checkpoint_error = Some(e.to_string()),
    }
}
