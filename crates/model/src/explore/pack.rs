//! The packed configuration arena: interned states, flat `u32` words.
//!
//! A [`Configuration`] is two heap vectors — `Vec<ProcState<S>>` and
//! `Vec<Value>` — per node, hashed by recursive derive. At exploration
//! scale (10⁵–10⁶ nodes) that dominates memory and hash time. The
//! packed arena stores each interned configuration as a fixed-stride
//! run of `u32` **words** in one contiguous buffer:
//!
//! * one word per process slot, encoding the [`ProcState`]:
//!   `0` = crashed, `1` = retired, `2 + d` = decided `d` (a
//!   [`Decision`] is a `u8`, so `2..=257`), and `258 + id` = active in
//!   the state with interned id `id`;
//! * one word per object slot: the interned id of its [`Value`].
//!
//! Distinct `S` states and `Value`s are interned once in side tables
//! (the per-protocol **state codec** — the number of distinct local
//! states is tiny compared to the number of configurations). Equality
//! is a word-slice compare, hashing is one pass over flat words, and a
//! node costs `4·(procs + objects)` bytes instead of two allocations.
//!
//! The word buffer itself is a [`WordStore`]: either one resident
//! `Vec<u32>` (the default) or a [`SpillStore`] of file-backed segments
//! with a bounded resident window, selected by
//! [`ExploreConfig::mem_budget_bytes`](super::ExploreConfig::mem_budget_bytes).
//! Every row access goes through [`PackedArena::with_words`], so the
//! two backings are indistinguishable to the engine — same words, same
//! hashes, same ids. The codec tables always stay in RAM (they are
//! bounded by distinct states, not configurations).
//!
//! Ids are assigned only by [`PackedArena::encode_intern`], which the
//! engine calls solely from its sequential merge — so id assignment,
//! and with it every word in the arena, is deterministic for every
//! `threads`/`shards` setting.
//!
//! The codec is **append-only**: an id, once assigned, names the same
//! state or value for the rest of the search. That is what lets the
//! batch tiers' phase-1 workers pack candidates with
//! [`PackedArena::try_encode`] against the codec frozen at the level
//! start and hand the merge finished words: every id those words use
//! still means the same thing when the merge interns them, so the words
//! are exactly what [`PackedArena::encode_intern`] would produce.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

use crate::config::{Configuration, ProcState};
use crate::protocol::Decision;
use crate::value::Value;

use super::spill::SpillStore;

/// Process-slot word for a crashed process.
const WORD_CRASHED: u32 = 0;
/// Process-slot word for a retired process.
const WORD_RETIRED: u32 = 1;
/// Base of the decided band: `DECIDED_BASE + d` encodes `Decided(d)`.
const DECIDED_BASE: u32 = 2;
/// Base of the active band: `ACTIVE_BASE + id` encodes `Active(states[id])`.
const ACTIVE_BASE: u32 = DECIDED_BASE + 256;

/// Deterministic 64-bit hash of a packed configuration's words
/// (`DefaultHasher` is SipHash with fixed keys).
pub(super) fn hash_words(words: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    words.hash(&mut h);
    h.finish()
}

/// The backing buffer for packed rows: resident or spillable.
pub(super) enum WordStore {
    /// Everything in one resident vector (the default tier).
    Ram(Vec<u32>),
    /// File-backed segments with a bounded resident window.
    Spill(SpillStore),
}

/// Append-only arena of packed configurations plus the interning codec.
pub(super) struct PackedArena<S> {
    /// Words of every interned configuration, concatenated.
    store: WordStore,
    /// Process slots per configuration.
    n_procs: usize,
    /// Words per configuration (`n_procs + n_values`).
    stride: usize,
    /// Interned states: id → state.
    states: Vec<S>,
    /// Interned states: state → id.
    state_ids: HashMap<S, u32>,
    /// Interned object values: id → value.
    values: Vec<Value>,
    /// Interned object values: value → id.
    value_ids: HashMap<Value, u32>,
}

impl<S: Clone + Eq + Hash> PackedArena<S> {
    /// An empty resident arena for configurations of `n_procs`
    /// processes and `n_values` objects.
    pub(super) fn new(n_procs: usize, n_values: usize) -> Self {
        Self::with_store(n_procs, n_values, WordStore::Ram(Vec::new()))
    }

    /// An empty arena over an explicit word store (the engine passes a
    /// [`SpillStore`] when a memory budget is set).
    pub(super) fn with_store(n_procs: usize, n_values: usize, store: WordStore) -> Self {
        PackedArena {
            store,
            n_procs,
            stride: n_procs + n_values,
            states: Vec::new(),
            state_ids: HashMap::new(),
            values: Vec::new(),
            value_ids: HashMap::new(),
        }
    }

    /// Words per packed row.
    pub(super) fn stride(&self) -> usize {
        self.stride
    }

    /// Process slots per row.
    pub(super) fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Number of interned configurations.
    pub(super) fn len(&self) -> usize {
        let words = match &self.store {
            WordStore::Ram(v) => v.len(),
            WordStore::Spill(s) => s.len_words(),
        };
        words.checked_div(self.stride).unwrap_or(0)
    }

    /// Run `f` over the packed words of configuration `i`. In spill
    /// mode this may fault the row's segment into the resident window;
    /// in RAM mode it is a plain slice.
    pub(super) fn with_words<R>(&self, i: u32, f: impl FnOnce(&[u32]) -> R) -> R {
        let at = i as usize * self.stride;
        match &self.store {
            WordStore::Ram(v) => f(&v[at..at + self.stride]),
            WordStore::Spill(s) => s.with_words(at, self.stride, f),
        }
    }

    /// Whether configuration `i` packs exactly to `words`.
    pub(super) fn words_match(&self, i: u32, words: &[u32]) -> bool {
        self.with_words(i, |w| w == words)
    }

    /// Copy the packed words of configuration `i` into `out`.
    pub(super) fn read_words(&self, i: u32, out: &mut Vec<u32>) {
        out.clear();
        self.with_words(i, |w| out.extend_from_slice(w));
    }

    /// Encode `config` into `out` **without interning**: succeeds only
    /// if every state and value already has an id. A `false` return
    /// means the configuration cannot equal any interned one (whatever
    /// made encoding fail has never been seen). Read-only, so parallel
    /// workers may call it freely against a frozen arena.
    pub(super) fn try_encode(&self, config: &Configuration<S>, out: &mut Vec<u32>) -> bool {
        if !self.try_encode_procs(config, out) {
            return false;
        }
        for v in &config.values {
            match self.value_ids.get(v) {
                Some(&id) => out.push(id),
                None => return false,
            }
        }
        true
    }

    /// [`try_encode`](Self::try_encode) for a one-step successor of the
    /// configuration packed as `parent`: every object slot but
    /// `changed` still holds the parent's value, so it keeps the
    /// parent's word, and only the process slots and the changed object
    /// cost a codec lookup. Process slots are always looked up, since
    /// canonicalization may have reordered them.
    pub(super) fn try_encode_successor(
        &self,
        config: &Configuration<S>,
        parent: &[u32],
        changed: Option<usize>,
        out: &mut Vec<u32>,
    ) -> bool {
        debug_assert!(config.values.iter().enumerate().all(|(o, v)| Some(o) == changed
            || self.value_ids.get(v) == Some(&parent[self.n_procs + o])));
        if !self.try_encode_procs(config, out) {
            return false;
        }
        out.extend_from_slice(&parent[self.n_procs..]);
        if let Some(o) = changed {
            match self.value_ids.get(&config.values[o]) {
                Some(&id) => out[self.n_procs + o] = id,
                None => return false,
            }
        }
        true
    }

    /// Encode the process slots of `config` into `out` (cleared first)
    /// without interning; `false` if some state has no id yet.
    fn try_encode_procs(&self, config: &Configuration<S>, out: &mut Vec<u32>) -> bool {
        debug_assert_eq!(config.procs.len(), self.n_procs);
        out.clear();
        for p in &config.procs {
            match p {
                ProcState::Crashed => out.push(WORD_CRASHED),
                ProcState::Retired => out.push(WORD_RETIRED),
                ProcState::Decided(d) => out.push(DECIDED_BASE + *d as u32),
                ProcState::Active(s) => match self.state_ids.get(s) {
                    Some(&id) => out.push(ACTIVE_BASE + id),
                    None => return false,
                },
            }
        }
        true
    }

    /// Encode `config` into `out`, interning any new states and values.
    /// Only the engine's sequential merge may call this — id assignment
    /// order is part of the determinism guarantee.
    pub(super) fn encode_intern(&mut self, config: &Configuration<S>, out: &mut Vec<u32>) {
        debug_assert_eq!(config.procs.len(), self.n_procs);
        out.clear();
        for p in &config.procs {
            match p {
                ProcState::Crashed => out.push(WORD_CRASHED),
                ProcState::Retired => out.push(WORD_RETIRED),
                ProcState::Decided(d) => out.push(DECIDED_BASE + *d as u32),
                ProcState::Active(s) => {
                    let id = match self.state_ids.get(s) {
                        Some(&id) => id,
                        None => {
                            let id = u32::try_from(self.states.len())
                                .expect("distinct-state count exceeds u32");
                            self.states.push(s.clone());
                            self.state_ids.insert(s.clone(), id);
                            id
                        }
                    };
                    out.push(ACTIVE_BASE + id);
                }
            }
        }
        for v in &config.values {
            let id = match self.value_ids.get(v) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.values.len())
                        .expect("distinct-value count exceeds u32");
                    self.values.push(*v);
                    self.value_ids.insert(*v, id);
                    id
                }
            };
            out.push(id);
        }
    }

    /// Append an encoded configuration; returns its index.
    pub(super) fn push(&mut self, words: &[u32]) -> u32 {
        debug_assert_eq!(words.len(), self.stride);
        let i = self.len();
        debug_assert!(i < u32::MAX as usize);
        match &mut self.store {
            WordStore::Ram(v) => v.extend_from_slice(words),
            WordStore::Spill(s) => s.push_words(words),
        }
        i as u32
    }

    /// Decode configuration `i` back into its heap form.
    pub(super) fn decode(&self, i: u32) -> Configuration<S> {
        self.with_words(i, |words| self.decode_words(words))
    }

    /// Decode one packed row back into its heap form.
    pub(super) fn decode_words(&self, words: &[u32]) -> Configuration<S> {
        let procs = words[..self.n_procs]
            .iter()
            .map(|&w| match w {
                WORD_CRASHED => ProcState::Crashed,
                WORD_RETIRED => ProcState::Retired,
                w if w < ACTIVE_BASE => ProcState::Decided((w - DECIDED_BASE) as Decision),
                w => ProcState::Active(self.states[(w - ACTIVE_BASE) as usize].clone()),
            })
            .collect();
        let values = words[self.n_procs..].iter().map(|&w| self.values[w as usize]).collect();
        Configuration { procs, values }
    }

    /// Whether configuration `i` has at least one active process.
    pub(super) fn has_active(&self, i: u32) -> bool {
        self.with_words(i, |w| w[..self.n_procs].iter().any(|&w| w >= ACTIVE_BASE))
    }

    /// The distinct decided values of configuration `i`, sorted.
    pub(super) fn decided_values(&self, i: u32) -> Vec<Decision> {
        let mut vs: Vec<Decision> = self.with_words(i, |w| {
            w[..self.n_procs]
                .iter()
                .filter(|&&w| (DECIDED_BASE..ACTIVE_BASE).contains(&w))
                .map(|&w| (w - DECIDED_BASE) as Decision)
                .collect()
        });
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Whether two processes of configuration `i` decided different
    /// values.
    pub(super) fn is_inconsistent(&self, i: u32) -> bool {
        self.decided_values(i).len() > 1
    }

    /// Estimated **total** bytes of the arena's contents: every packed
    /// word (resident or spilled to segment files) plus the codec
    /// tables (each interned state/value sits in a dense vec and a
    /// hash-map entry; `MAP_ENTRY_BYTES` approximates the map-side
    /// bucket cost). In spill mode this keeps reporting the full
    /// logical footprint, not the resident window — `arena_bytes` and
    /// `bytes_per_config` stay comparable across tiers.
    pub(super) fn bytes(&self) -> usize {
        const MAP_ENTRY_BYTES: usize = 16;
        let words = match &self.store {
            WordStore::Ram(v) => v.len(),
            WordStore::Spill(s) => s.len_words(),
        };
        words * size_of::<u32>()
            + self.states.len() * (2 * size_of::<S>() + size_of::<u32>() + MAP_ENTRY_BYTES)
            + self.values.len() * (2 * size_of::<Value>() + size_of::<u32>() + MAP_ENTRY_BYTES)
    }

    /// Bytes actually resident in RAM right now: the full buffer in RAM
    /// mode, or the tail plus the loaded window in spill mode (codec
    /// excluded; it is shared and tiny).
    pub(super) fn resident_word_bytes(&self) -> usize {
        match &self.store {
            WordStore::Ram(v) => v.len() * size_of::<u32>(),
            WordStore::Spill(s) => s.resident_bytes(),
        }
    }

    /// Bytes written to spill segment files (0 in RAM mode).
    pub(super) fn spilled_bytes(&self) -> u64 {
        match &self.store {
            WordStore::Ram(_) => 0,
            WordStore::Spill(s) => s.spilled_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Configuration<u16> {
        Configuration {
            procs: vec![
                ProcState::Active(40_000),
                ProcState::Decided(255),
                ProcState::Crashed,
                ProcState::Retired,
                ProcState::Active(7),
            ],
            values: vec![Value::Bottom, Value::Int(-3), Value::Pair(1, 2)],
        }
    }

    #[test]
    fn round_trips_through_words() {
        let mut arena: PackedArena<u16> = PackedArena::new(5, 3);
        let c = sample();
        let mut words = Vec::new();
        assert!(!arena.try_encode(&c, &mut words), "nothing interned yet");
        arena.encode_intern(&c, &mut words);
        let i = arena.push(&words);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.decode(i), c);
        // Now everything is interned: try_encode agrees word for word.
        let mut again = Vec::new();
        assert!(arena.try_encode(&c, &mut again));
        assert_eq!(again, words);
        assert!(arena.words_match(i, &words));
        let mut copied = Vec::new();
        arena.read_words(i, &mut copied);
        assert_eq!(copied, words);
    }

    #[test]
    fn packed_predicates_match_decoded_ones() {
        let mut arena: PackedArena<u16> = PackedArena::new(5, 3);
        let c = sample();
        let mut words = Vec::new();
        arena.encode_intern(&c, &mut words);
        let i = arena.push(&words);
        assert!(arena.has_active(i));
        assert_eq!(arena.decided_values(i), vec![255]);
        assert!(!arena.is_inconsistent(i));

        let mut done = c.clone();
        done.procs = vec![
            ProcState::Decided(0),
            ProcState::Decided(1),
            ProcState::Crashed,
            ProcState::Retired,
            ProcState::Decided(0),
        ];
        arena.encode_intern(&done, &mut words);
        let j = arena.push(&words);
        assert!(!arena.has_active(j));
        assert_eq!(arena.decided_values(j), vec![0, 1]);
        assert!(arena.is_inconsistent(j));
    }

    #[test]
    fn distinct_configurations_pack_to_distinct_words() {
        let mut arena: PackedArena<u16> = PackedArena::new(2, 1);
        let a = Configuration {
            procs: vec![ProcState::Active(1), ProcState::Active(2)],
            values: vec![Value::Int(0)],
        };
        let b = Configuration {
            procs: vec![ProcState::Active(2), ProcState::Active(1)],
            values: vec![Value::Int(0)],
        };
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        arena.encode_intern(&a, &mut wa);
        arena.encode_intern(&b, &mut wb);
        assert_ne!(wa, wb, "packing is injective on raw configurations");
        assert_ne!(hash_words(&wa), hash_words(&wb));
    }

    #[test]
    fn footprint_counts_words_and_codec() {
        let mut arena: PackedArena<u16> = PackedArena::new(5, 3);
        let mut words = Vec::new();
        arena.encode_intern(&sample(), &mut words);
        arena.push(&words);
        let per_config = (5 + 3) * size_of::<u32>();
        assert!(arena.bytes() >= per_config);
        // Codec is bounded by distinct states/values, not configs.
        let one = arena.bytes();
        arena.push(&words.clone());
        assert_eq!(arena.bytes(), one + per_config);
        assert_eq!(arena.spilled_bytes(), 0, "RAM arena never spills");
        assert!(arena.resident_word_bytes() >= 2 * per_config);
    }

    #[test]
    fn spill_backed_arena_is_word_identical_to_ram() {
        use super::super::spill::{BudgetPlan, SpillDir, SpillStore};
        let mut ram: PackedArena<u16> = PackedArena::new(5, 3);
        let plan = BudgetPlan { segment_bytes: 64, window_segments: 2, dedup_ram_bytes: 64 };
        let dir = SpillDir::create(None);
        let store = SpillStore::new(8, &plan, dir);
        let mut spill: PackedArena<u16> =
            PackedArena::with_store(5, 3, WordStore::Spill(store));
        let mut words = Vec::new();
        // Enough rows to seal several segments.
        for k in 0..100u16 {
            let mut c = sample();
            c.procs[4] = ProcState::Active(k);
            ram.encode_intern(&c, &mut words);
            let i = ram.push(&words);
            spill.encode_intern(&c, &mut words);
            let j = spill.push(&words);
            assert_eq!(i, j);
        }
        assert!(spill.spilled_bytes() > 0, "tiny segments must spill");
        assert_eq!(ram.bytes(), spill.bytes(), "totals are backing-independent");
        for i in 0..100u32 {
            assert_eq!(ram.decode(i), spill.decode(i));
            let mut w = Vec::new();
            ram.read_words(i, &mut w);
            assert!(spill.words_match(i, &w));
            assert_eq!(ram.has_active(i), spill.has_active(i));
            assert_eq!(ram.decided_values(i), spill.decided_values(i));
        }
        assert!(spill.resident_word_bytes() < spill.bytes());
    }
}
