//! Out-of-core backing for the exploration engine: file-backed arena
//! segments and an external-memory (sorted-run) seen-set.
//!
//! When [`ExploreConfig::mem_budget_bytes`](super::ExploreConfig::mem_budget_bytes)
//! is nonzero the engine swaps its two unbounded in-RAM structures for
//! the spillable tier in this module:
//!
//! * [`SpillStore`] backs the packed arena's word buffer. Words are
//!   appended to a RAM *tail segment*; when the tail fills, it is
//!   sealed to a segment file and a fresh tail starts. Reads go through
//!   a small resident window of recently-loaded segments, so resident
//!   arena memory is bounded by `(window + 1) × segment_bytes` no
//!   matter how many configurations are interned. Segment size is a
//!   multiple of the row stride, so a packed row never straddles two
//!   segments.
//! * [`ExternalDedup`] replaces the sharded hash maps. It stores
//!   **exact** entries — the 64-bit word hash *plus the full packed
//!   words* — so dedup decisions are identical to the in-RAM engine's
//!   collision-checked probes (a fingerprint-only store could merge two
//!   hash-colliding configurations and silently diverge). Entries live
//!   in a bounded, sorted RAM buffer; when the buffer exceeds its share
//!   of the budget it is flushed as a sorted *run* file. Runs are
//!   compacted by k-way merge when they accumulate.
//!
//! Each BFS level probes one sorted batch of candidate keys: a
//! two-pointer merge against the RAM buffer, then each run through its
//! **index**, built in RAM whenever the run is written or compacted:
//!
//! * a *fence* hash every [`FENCE_STRIDE`] entries. A key's first
//!   candidate block is the one opened by the last fence whose hash is
//!   **strictly less** than the key's, so a range of equal hashes that
//!   straddles a fence is still found from its start;
//! * a Bloom filter over the entry hashes, [`BLOOM_BITS_PER_ENTRY`]
//!   bits per entry (about 1% false positives). Most absent keys never
//!   touch the run's file.
//!
//! A key that passes the filter costs one seek and one block read
//! (the scan position only moves forward, since keys ascend), and is
//! still resolved by comparing full words. The index costs
//! `10/8 + 8/64 ≈ 1.4` bytes per entry — every interned configuration
//! is one entry — and is counted in `resident_bytes`, hence in
//! `resident_arena_bytes`.
//!
//! Files are read and written a whole segment, record or block at a
//! time, never one word per call.
//!
//! All files live in one [`SpillDir`] per search, deleted on drop.
//!
//! I/O failures (disk full, permission) panic with context: a search
//! that has lost its backing store cannot produce a sound verdict, and
//! the engine has no error channel mid-level. The checkpoint writer, by
//! contrast, reports errors — see [`super::checkpoint`].

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::transport::{FrontierTransport, TransportError};

/// Lower bound on the spill segment size (bytes of packed words).
/// Small enough that even toy budgets genuinely spill (tests rely on
/// this); real budgets land in the hundreds-of-KiB range via the
/// budget/16 rule below.
const MIN_SEGMENT_BYTES: usize = 1024;
/// Upper bound on the spill segment size.
const MAX_SEGMENT_BYTES: usize = 1024 * 1024;
/// Compact dedup runs by k-way merge once this many accumulate.
const MAX_DEDUP_RUNS: usize = 8;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory owned by one search; removed on drop.
///
/// Created under the user-supplied parent (or [`std::env::temp_dir`])
/// with a `pid`-and-sequence unique name, so concurrent searches never
/// collide and a crash leaves at most an orphaned temp directory.
pub(super) struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    pub(super) fn create(parent: Option<PathBuf>) -> Arc<SpillDir> {
        let parent = parent.unwrap_or_else(std::env::temp_dir);
        let seq = DIR_SEQ.fetch_add(1, AtomicOrdering::Relaxed);
        let path = parent.join(format!(
            "randsync-spill-{}-{seq}",
            std::process::id()
        ));
        fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create spill dir {}: {e}", path.display()));
        Arc::new(SpillDir { path })
    }

    fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// How a memory budget is split between the spill structures.
///
/// The budget bounds the *steady-state resident* set: the arena's
/// resident window plus the dedup RAM buffer. Two things are additional:
/// the run indexes, which grow with the interned count (about 1.4 B per
/// configuration, see the module docs), and the per-level working set —
/// phase-1 candidates (packed rows, plus clones of the few that carry a
/// never-seen state) and the level merge buffers — which is
/// proportional to the widest BFS level, as it always was for the
/// in-RAM engine.
#[derive(Clone, Copy, Debug)]
pub(super) struct BudgetPlan {
    /// Bytes per arena segment (rounded to a stride multiple).
    pub(super) segment_bytes: usize,
    /// Sealed segments kept resident for reads.
    pub(super) window_segments: usize,
    /// Cap on the dedup RAM buffer, in bytes.
    pub(super) dedup_ram_bytes: usize,
}

impl BudgetPlan {
    pub(super) fn for_budget(budget: usize, stride: usize) -> BudgetPlan {
        let row = stride.max(1) * 4;
        let seg = (budget / 16).clamp(MIN_SEGMENT_BYTES, MAX_SEGMENT_BYTES);
        // Round up to a whole number of rows so rows never straddle.
        let segment_bytes = seg.div_ceil(row) * row;
        let window_segments = ((budget / 2) / segment_bytes).max(2);
        let dedup_ram_bytes = (budget / 4).max(MIN_SEGMENT_BYTES);
        debug_assert!(dedup_ram_bytes >= entry_bytes(stride));
        BudgetPlan { segment_bytes, window_segments, dedup_ram_bytes }
    }
}

/// FIFO window of resident sealed segments.
struct SegWindow {
    resident: HashMap<u64, Arc<Vec<u32>>>,
    order: std::collections::VecDeque<u64>,
}

/// Segmented, file-backed append-only `u32` buffer.
pub(super) struct SpillStore {
    dir: Arc<SpillDir>,
    /// Words per segment (a multiple of the row stride).
    segment_words: usize,
    /// Resident window capacity, in sealed segments.
    window_cap: usize,
    /// The unsealed tail segment, always resident.
    tail: Vec<u32>,
    /// Number of sealed (on-disk) segments.
    sealed: u64,
    /// Total words ever appended.
    total_words: usize,
    /// Bytes written to segment files.
    spilled_bytes: u64,
    window: Mutex<SegWindow>,
}

impl SpillStore {
    pub(super) fn new(stride: usize, plan: &BudgetPlan, dir: Arc<SpillDir>) -> SpillStore {
        let segment_words = (plan.segment_bytes / 4).max(stride.max(1));
        SpillStore {
            dir,
            segment_words,
            window_cap: plan.window_segments,
            tail: Vec::with_capacity(segment_words),
            sealed: 0,
            total_words: 0,
            spilled_bytes: 0,
            window: Mutex::new(SegWindow {
                resident: HashMap::new(),
                order: std::collections::VecDeque::new(),
            }),
        }
    }

    pub(super) fn len_words(&self) -> usize {
        self.total_words
    }

    pub(super) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Resident bytes right now: the tail plus the loaded window.
    pub(super) fn resident_bytes(&self) -> usize {
        let win = self.lock_window();
        (self.tail.capacity() + win.resident.len() * self.segment_words) * 4
    }

    fn lock_window(&self) -> MutexGuard<'_, SegWindow> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn seg_path(&self, seg: u64) -> PathBuf {
        self.dir.file(&format!("arena-{seg}.seg"))
    }

    /// Append `words` (one packed row; the caller guarantees the row
    /// length divides the segment size).
    pub(super) fn push_words(&mut self, words: &[u32]) {
        debug_assert!(self.segment_words.is_multiple_of(words.len().max(1)));
        self.tail.extend_from_slice(words);
        self.total_words += words.len();
        if self.tail.len() >= self.segment_words {
            self.seal_tail();
        }
    }

    fn seal_tail(&mut self) {
        let path = self.seg_path(self.sealed);
        let mut file = File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create spill segment {}: {e}", path.display()));
        let bytes: Vec<u8> = self.tail.iter().flat_map(|w| w.to_le_bytes()).collect();
        file.write_all(&bytes).unwrap_or_else(|e| panic!("spill segment write failed: {e}"));
        self.spilled_bytes += (self.tail.len() * 4) as u64;
        // Freshly sealed segments are the likeliest to be re-read (the
        // next level decodes the frontier just interned): seed the
        // window with the sealed words instead of forcing a reload.
        let words = std::mem::replace(&mut self.tail, Vec::with_capacity(self.segment_words));
        let seg = self.sealed;
        self.sealed += 1;
        let mut win = self.lock_window();
        Self::admit(&mut win, self.window_cap, seg, Arc::new(words));
    }

    fn admit(win: &mut SegWindow, cap: usize, seg: u64, words: Arc<Vec<u32>>) {
        if win.resident.insert(seg, words).is_none() {
            win.order.push_back(seg);
            while win.order.len() > cap {
                if let Some(old) = win.order.pop_front() {
                    win.resident.remove(&old);
                }
            }
        }
    }

    fn load(&self, seg: u64) -> Arc<Vec<u32>> {
        if let Some(words) = self.lock_window().resident.get(&seg) {
            return Arc::clone(words);
        }
        let path = self.seg_path(seg);
        let bytes = fs::read(&path)
            .unwrap_or_else(|e| panic!("cannot reread spill segment {}: {e}", path.display()));
        assert_eq!(
            bytes.len(),
            self.segment_words * 4,
            "spill segment {} has the wrong length",
            path.display()
        );
        let words: Vec<u32> = bytes.chunks_exact(4).map(le_u32).collect();
        let words = Arc::new(words);
        let mut win = self.lock_window();
        Self::admit(&mut win, self.window_cap, seg, Arc::clone(&words));
        words
    }

    /// Run `f` over the `len` words at word offset `at`. The range never
    /// straddles segments (rows are stride-aligned within segments).
    pub(super) fn with_words<R>(&self, at: usize, len: usize, f: impl FnOnce(&[u32]) -> R) -> R {
        let seg = (at / self.segment_words) as u64;
        let off = at % self.segment_words;
        if seg == self.sealed {
            return f(&self.tail[off..off + len]);
        }
        let words = self.load(seg);
        f(&words[off..off + len])
    }
}

/// Entries per block of a run's fence index. A run keeps the hash of
/// every `FENCE_STRIDE`-th entry in RAM, so a probe seeks straight to
/// the block a key can live in instead of scanning the run.
const FENCE_STRIDE: usize = 64;
/// Bloom filter bits per run entry (about 1% false positives at
/// [`BLOOM_PROBES`] probes).
const BLOOM_BITS_PER_ENTRY: usize = 10;
/// Bit probes per Bloom insert or lookup.
const BLOOM_PROBES: u64 = 7;

/// A Bloom filter over the 64-bit word hashes of one run's entries.
///
/// A negative answer is exact (the run holds no entry with that hash),
/// so a probe skips the run's disk blocks for most absent keys; a
/// positive answer only means "read the block and compare full words".
struct Bloom {
    bits: Vec<u64>,
}

impl Bloom {
    fn for_entries(entries: usize) -> Bloom {
        let words = (entries.max(1) * BLOOM_BITS_PER_ENTRY).div_ceil(64);
        Bloom { bits: vec![0; words] }
    }

    /// The bit positions of `hash`: double hashing over the well-mixed
    /// SipHash value, each probe reduced to `[0, nbits)` by a
    /// multiply-shift.
    fn positions(nbits: u64, hash: u64) -> impl Iterator<Item = usize> {
        let step = hash.rotate_left(32).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..BLOOM_PROBES).map(move |i| {
            let x = hash.wrapping_add(i.wrapping_mul(step));
            ((u128::from(x) * u128::from(nbits)) >> 64) as usize
        })
    }

    fn nbits(&self) -> u64 {
        self.bits.len() as u64 * 64
    }

    fn insert(&mut self, hash: u64) {
        for p in Self::positions(self.nbits(), hash) {
            self.bits[p / 64] |= 1 << (p % 64);
        }
    }

    fn may_contain(&self, hash: u64) -> bool {
        Self::positions(self.nbits(), hash).all(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
    }

    fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// One sealed sorted run of dedup entries on disk, plus its resident
/// index: the fence hashes and the Bloom filter.
struct DedupRun {
    path: PathBuf,
    entries: usize,
    /// `fences[b]` is the hash of entry `b * FENCE_STRIDE`.
    fences: Vec<u64>,
    bloom: Bloom,
}

impl DedupRun {
    /// Resident bytes of the run's index.
    fn index_bytes(&self) -> usize {
        self.fences.len() * 8 + self.bloom.bytes()
    }
}

/// External-memory exact seen-set: sorted RAM buffer + sorted run files.
///
/// An entry is `(hash, packed words, arena index)`; ordering is
/// lexicographic on `(hash, words)`. Every key is inserted exactly once
/// (only newly-interned configurations are inserted), so an entry lives
/// in exactly one place — the RAM buffer or one run.
pub(super) struct ExternalDedup {
    stride: usize,
    dir: Arc<SpillDir>,
    ram_cap_bytes: usize,
    /// Sorted parallel arrays: entry `k` is `hashes[k]`, `indices[k]`,
    /// `words[k*stride..][..stride]`.
    hashes: Vec<u64>,
    indices: Vec<u32>,
    words: Vec<u32>,
    runs: Vec<DedupRun>,
    run_seq: u64,
    spilled_bytes: u64,
    merge_passes: u64,
}

/// Bytes one entry costs, in the RAM buffer and as a run record: the
/// hash, the arena index and the stride words.
fn entry_bytes(stride: usize) -> usize {
    8 + 4 + stride * 4
}

fn key_cmp(ha: u64, wa: &[u32], hb: u64, wb: &[u32]) -> Ordering {
    ha.cmp(&hb).then_with(|| wa.cmp(wb))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte field"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte field"))
}

/// Decode one run record into `words`; returns its hash and index.
fn decode_record(record: &[u8], words: &mut [u32]) -> (u64, u32) {
    for (slot, b) in words.iter_mut().zip(record[12..].chunks_exact(4)) {
        *slot = le_u32(b);
    }
    (le_u64(&record[..8]), le_u32(&record[8..12]))
}

impl ExternalDedup {
    pub(super) fn new(stride: usize, plan: &BudgetPlan, dir: Arc<SpillDir>) -> ExternalDedup {
        ExternalDedup {
            stride,
            dir,
            ram_cap_bytes: plan.dedup_ram_bytes,
            hashes: Vec::new(),
            indices: Vec::new(),
            words: Vec::new(),
            runs: Vec::new(),
            run_seq: 0,
            spilled_bytes: 0,
            merge_passes: 0,
        }
    }

    pub(super) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// On-disk runs read so far — by a probe, only runs with at least
    /// one key that passed the Bloom filter; plus every run a
    /// compaction read. Reported as `dedup_merge_passes`.
    pub(super) fn merge_passes(&self) -> u64 {
        self.merge_passes
    }

    /// The RAM buffer plus every run's index (fences and Bloom bits).
    pub(super) fn resident_bytes(&self) -> usize {
        self.hashes.len() * entry_bytes(self.stride)
            + self.runs.iter().map(DedupRun::index_bytes).sum::<usize>()
    }

    fn key_of(&self, k: usize) -> (u64, &[u32]) {
        (self.hashes[k], &self.words[k * self.stride..(k + 1) * self.stride])
    }

    /// Resolve a sorted batch of candidate keys against the seen-set.
    ///
    /// `keys_h[k]` / `keys_w[k*stride..]` hold key `k`; keys are unique
    /// and ascending by `(hash, words)`. Returns, per key, the arena
    /// index of the matching interned configuration if one exists. One
    /// two-pointer merge over the RAM buffer, then per run only the
    /// index blocks that can hold a still-unresolved key.
    pub(super) fn probe_sorted(&mut self, keys_h: &[u64], keys_w: &[u32]) -> Vec<Option<u32>> {
        let stride = self.stride;
        let n = keys_h.len();
        let mut out = vec![None; n];
        // RAM buffer merge.
        let mut ki = 0usize;
        let mut ri = 0usize;
        while ki < n && ri < self.hashes.len() {
            let kw = &keys_w[ki * stride..(ki + 1) * stride];
            let (rh, rw) = self.key_of(ri);
            match key_cmp(keys_h[ki], kw, rh, rw) {
                Ordering::Less => ki += 1,
                Ordering::Greater => ri += 1,
                Ordering::Equal => {
                    out[ki] = Some(self.indices[ri]);
                    ki += 1;
                    ri += 1;
                }
            }
        }
        for run in &self.runs {
            if probe_run(run, stride, keys_h, keys_w, &mut out) {
                self.merge_passes += 1;
            }
        }
        out
    }

    /// Insert a sorted batch of new entries (keys ascending, unique, and
    /// not present anywhere in the seen-set). Flushes the RAM buffer as
    /// a run when it exceeds its budget share, and compacts runs when
    /// they accumulate.
    pub(super) fn insert_sorted(&mut self, new_h: &[u64], new_idx: &[u32], new_w: &[u32]) {
        let stride = self.stride;
        let total = self.hashes.len() + new_h.len();
        let mut hashes = Vec::with_capacity(total);
        let mut indices = Vec::with_capacity(total);
        let mut words = Vec::with_capacity(total * stride);
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.hashes.len() || b < new_h.len() {
            let take_old = if a == self.hashes.len() {
                false
            } else if b == new_h.len() {
                true
            } else {
                let (oh, ow) = self.key_of(a);
                key_cmp(oh, ow, new_h[b], &new_w[b * stride..(b + 1) * stride])
                    != Ordering::Greater
            };
            if take_old {
                hashes.push(self.hashes[a]);
                indices.push(self.indices[a]);
                words.extend_from_slice(&self.words[a * stride..(a + 1) * stride]);
                a += 1;
            } else {
                hashes.push(new_h[b]);
                indices.push(new_idx[b]);
                words.extend_from_slice(&new_w[b * stride..(b + 1) * stride]);
                b += 1;
            }
        }
        self.hashes = hashes;
        self.indices = indices;
        self.words = words;
        if self.hashes.len() * entry_bytes(stride) > self.ram_cap_bytes {
            self.flush_ram();
            if self.runs.len() >= MAX_DEDUP_RUNS {
                self.compact_runs();
            }
        }
    }

    fn flush_ram(&mut self) {
        if self.hashes.is_empty() {
            return;
        }
        let path = self.dir.file(&format!("dedup-run-{}.bin", self.run_seq));
        self.run_seq += 1;
        let mut w = RunWriter::create(path, self.hashes.len(), self.stride);
        for k in 0..self.hashes.len() {
            w.write(self.hashes[k], self.indices[k], &self.words[k * self.stride..(k + 1) * self.stride]);
        }
        let (run, bytes) = w.finish();
        self.spilled_bytes += bytes;
        self.runs.push(run);
        self.hashes.clear();
        self.indices.clear();
        self.words.clear();
        self.hashes.shrink_to_fit();
        self.indices.shrink_to_fit();
        self.words.shrink_to_fit();
    }

    /// K-way merge every run into one. Entry keys are globally unique,
    /// so the merge is a pure interleave.
    fn compact_runs(&mut self) {
        let old = std::mem::take(&mut self.runs);
        let total: usize = old.iter().map(|r| r.entries).sum();
        let path = self.dir.file(&format!("dedup-run-{}.bin", self.run_seq));
        self.run_seq += 1;
        let mut readers: Vec<RunReader> =
            old.iter().map(|r| RunReader::open(&r.path, r.entries, self.stride)).collect();
        let mut heads: Vec<Option<(u64, u32)>> = readers.iter_mut().map(RunReader::next).collect();
        self.merge_passes += old.len() as u64;
        let mut w = RunWriter::create(path, total, self.stride);
        loop {
            let mut best: Option<usize> = None;
            for (i, head) in heads.iter().enumerate() {
                let Some((h, _)) = head else { continue };
                match best {
                    None => best = Some(i),
                    Some(j) => {
                        let (bh, _) = heads[j].unwrap();
                        if key_cmp(*h, readers[i].words(), bh, readers[j].words())
                            == Ordering::Less
                        {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(i) = best else { break };
            let (h, idx) = heads[i].unwrap();
            w.write(h, idx, readers[i].words());
            heads[i] = readers[i].next();
        }
        let (run, bytes) = w.finish();
        self.spilled_bytes += bytes;
        for r in &old {
            let _ = fs::remove_file(&r.path);
        }
        self.runs.push(run);
    }
}

/// Resolve the still-unresolved keys of a sorted probe batch against
/// one indexed run; returns whether any of the run's blocks was read.
///
/// A key is looked up only if the run's Bloom filter admits its hash.
/// Its first candidate block is the one opened by the **last fence
/// strictly below** its hash: entries with an equal hash may begin in
/// that block and straddle into the next, so starting at a fence equal
/// to the hash could miss them. The scan then compares full words and
/// walks forward across block boundaries until it passes the key. Keys
/// ascend, so the scan position never moves back.
fn probe_run(
    run: &DedupRun,
    stride: usize,
    keys_h: &[u64],
    keys_w: &[u32],
    out: &mut [Option<u32>],
) -> bool {
    let mut reader: Option<BlockReader> = None;
    // Every entry before `pos` is smaller than the current key.
    let mut pos = 0usize;
    for (k, &h) in keys_h.iter().enumerate() {
        if out[k].is_some() || !run.bloom.may_contain(h) {
            continue;
        }
        let kw = &keys_w[k * stride..(k + 1) * stride];
        let start = run.fences.partition_point(|&f| f < h).saturating_sub(1) * FENCE_STRIDE;
        pos = pos.max(start);
        let reader = reader.get_or_insert_with(|| BlockReader::open(run, stride));
        while pos < run.entries {
            let (eh, ew, idx) = reader.entry(pos);
            match key_cmp(h, kw, eh, ew) {
                Ordering::Less => break,
                Ordering::Equal => {
                    out[k] = Some(idx);
                    pos += 1;
                    break;
                }
                Ordering::Greater => pos += 1,
            }
        }
    }
    reader.is_some()
}

/// The spill tier speaks the frontier-exchange seam natively: its two
/// batch operations *are* the trait, and it never fails (I/O trouble
/// panics with a diagnostic, as everywhere else in this module — a
/// half-written spill file has no sound recovery). `open`/`close` are
/// no-ops: the store's lifetime is the search's.
impl FrontierTransport for ExternalDedup {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        debug_assert_eq!(stride, self.stride);
        Ok(())
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        Ok(ExternalDedup::probe_sorted(self, hashes, words))
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        ExternalDedup::insert_sorted(self, hashes, indices, words);
        Ok(())
    }

    fn close(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// Sequential writer of one sorted run file that builds the run's
/// index as it goes. Each entry is encoded into one record buffer and
/// written with a single call.
struct RunWriter {
    path: PathBuf,
    w: BufWriter<File>,
    record: Vec<u8>,
    entries: usize,
    fences: Vec<u64>,
    bloom: Bloom,
    bytes: u64,
}

impl RunWriter {
    /// A writer for a run of exactly `entries` entries (sizes the
    /// Bloom filter).
    fn create(path: PathBuf, entries: usize, stride: usize) -> RunWriter {
        let file = File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create dedup run {}: {e}", path.display()));
        RunWriter {
            path,
            w: BufWriter::new(file),
            record: Vec::with_capacity(entry_bytes(stride)),
            entries: 0,
            fences: Vec::with_capacity(entries.div_ceil(FENCE_STRIDE)),
            bloom: Bloom::for_entries(entries),
            bytes: 0,
        }
    }

    fn write(&mut self, hash: u64, index: u32, words: &[u32]) {
        if self.entries.is_multiple_of(FENCE_STRIDE) {
            self.fences.push(hash);
        }
        self.bloom.insert(hash);
        self.entries += 1;
        self.record.clear();
        self.record.extend_from_slice(&hash.to_le_bytes());
        self.record.extend_from_slice(&index.to_le_bytes());
        self.record.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        self.w.write_all(&self.record).unwrap_or_else(|e| panic!("dedup run write failed: {e}"));
        self.bytes += self.record.len() as u64;
    }

    /// Flush the file; returns the indexed run and the bytes written.
    fn finish(mut self) -> (DedupRun, u64) {
        self.w.flush().unwrap_or_else(|e| panic!("dedup run flush failed: {e}"));
        let run = DedupRun {
            path: self.path,
            entries: self.entries,
            fences: self.fences,
            bloom: self.bloom,
        };
        (run, self.bytes)
    }
}

/// Sequential reader of one sorted run file (compaction); `words()`
/// exposes the words of the entry most recently returned by
/// [`RunReader::next`]. Reads one whole record per call.
struct RunReader {
    r: BufReader<File>,
    remaining: usize,
    record: Vec<u8>,
    words: Vec<u32>,
}

impl RunReader {
    fn open(path: &std::path::Path, entries: usize, stride: usize) -> RunReader {
        let file = File::open(path)
            .unwrap_or_else(|e| panic!("cannot reopen dedup run {}: {e}", path.display()));
        RunReader {
            r: BufReader::new(file),
            remaining: entries,
            record: vec![0; entry_bytes(stride)],
            words: vec![0; stride],
        }
    }

    fn next(&mut self) -> Option<(u64, u32)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.r
            .read_exact(&mut self.record)
            .unwrap_or_else(|e| panic!("dedup run read failed: {e}"));
        Some(decode_record(&self.record, &mut self.words))
    }

    fn words(&self) -> &[u32] {
        &self.words
    }
}

/// Random-access reader of one run's fence blocks, for probes: a block
/// is loaded with one seek and one read and stays decoded until the
/// scan leaves it.
struct BlockReader<'r> {
    run: &'r DedupRun,
    file: File,
    stride: usize,
    /// The loaded block, if any.
    block: Option<usize>,
    raw: Vec<u8>,
    hashes: Vec<u64>,
    indices: Vec<u32>,
    words: Vec<u32>,
}

impl<'r> BlockReader<'r> {
    fn open(run: &'r DedupRun, stride: usize) -> BlockReader<'r> {
        let file = File::open(&run.path)
            .unwrap_or_else(|e| panic!("cannot reopen dedup run {}: {e}", run.path.display()));
        BlockReader {
            run,
            file,
            stride,
            block: None,
            raw: Vec::new(),
            hashes: Vec::with_capacity(FENCE_STRIDE),
            indices: Vec::with_capacity(FENCE_STRIDE),
            words: Vec::with_capacity(FENCE_STRIDE * stride),
        }
    }

    /// The hash, words and arena index of entry `pos` of the run.
    fn entry(&mut self, pos: usize) -> (u64, &[u32], u32) {
        let block = pos / FENCE_STRIDE;
        if self.block != Some(block) {
            self.load(block);
        }
        let at = pos % FENCE_STRIDE;
        let words = &self.words[at * self.stride..(at + 1) * self.stride];
        (self.hashes[at], words, self.indices[at])
    }

    fn load(&mut self, block: usize) {
        let record = entry_bytes(self.stride);
        let first = block * FENCE_STRIDE;
        let count = FENCE_STRIDE.min(self.run.entries - first);
        self.raw.resize(count * record, 0);
        self.file
            .seek(SeekFrom::Start((first * record) as u64))
            .and_then(|_| self.file.read_exact(&mut self.raw))
            .unwrap_or_else(|e| panic!("dedup run read failed: {e}"));
        self.hashes.clear();
        self.indices.clear();
        self.words.resize(count * self.stride, 0);
        for (k, rec) in self.raw.chunks_exact(record).enumerate() {
            let (h, idx) =
                decode_record(rec, &mut self.words[k * self.stride..(k + 1) * self.stride]);
            self.hashes.push(h);
            self.indices.push(idx);
        }
        self.block = Some(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::{BTreeMap, BTreeSet};

    fn plan() -> BudgetPlan {
        // Tiny budget so tests exercise sealing and run flushing.
        BudgetPlan { segment_bytes: 48, window_segments: 2, dedup_ram_bytes: 64 }
    }

    #[test]
    fn spill_store_round_trips_across_segments() {
        let dir = SpillDir::create(None);
        let stride = 3usize;
        let mut store = SpillStore::new(stride, &plan(), dir);
        let rows: Vec<Vec<u32>> = (0..50u32).map(|i| vec![i, i + 1, i * 7]).collect();
        for row in &rows {
            store.push_words(row);
        }
        assert_eq!(store.len_words(), 150);
        assert!(store.spilled_bytes() > 0, "tiny segments must have sealed");
        for (i, row) in rows.iter().enumerate() {
            store.with_words(i * stride, stride, |w| assert_eq!(w, row.as_slice()));
        }
        // Random-order re-reads through the bounded window still agree.
        for &i in &[49usize, 0, 25, 3, 48, 1] {
            store.with_words(i * stride, stride, |w| assert_eq!(w, rows[i].as_slice()));
        }
        assert!(store.resident_bytes() > 0);
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create(None);
        let path = dir.path.clone();
        let mut store = SpillStore::new(2, &plan(), Arc::clone(&dir));
        for i in 0..100u32 {
            store.push_words(&[i, i]);
        }
        assert!(path.exists());
        drop(store);
        drop(dir);
        assert!(!path.exists(), "spill dir must be cleaned up");
    }

    #[test]
    fn external_dedup_probe_matches_inserts_across_flushes() {
        let dir = SpillDir::create(None);
        let stride = 2usize;
        let mut dd = ExternalDedup::new(stride, &plan(), dir);
        // Insert 64 unique entries in sorted chunks; the tiny RAM cap
        // forces several run flushes and at least one compaction.
        for chunk in 0..16u32 {
            let mut keys: Vec<(u64, [u32; 2], u32)> = (0..4u32)
                .map(|k| {
                    let v = chunk * 4 + k;
                    ((v as u64) * 11, [v, v * 3], v)
                })
                .collect();
            keys.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let h: Vec<u64> = keys.iter().map(|e| e.0).collect();
            let idx: Vec<u32> = keys.iter().map(|e| e.2).collect();
            let w: Vec<u32> = keys.iter().flat_map(|e| e.1).collect();
            dd.insert_sorted(&h, &idx, &w);
        }
        assert!(dd.spilled_bytes() > 0, "runs must have flushed");
        // Probe every inserted key plus misses interleaved, sorted.
        let mut probes: Vec<(u64, [u32; 2], Option<u32>)> = Vec::new();
        for v in 0..64u32 {
            probes.push(((v as u64) * 11, [v, v * 3], Some(v)));
            probes.push(((v as u64) * 11 + 1, [v, v], None));
            // Same hash, different words: must not match (exact dedup).
            probes.push(((v as u64) * 11, [v, v * 3 + 1], None));
        }
        probes.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let h: Vec<u64> = probes.iter().map(|e| e.0).collect();
        let w: Vec<u32> = probes.iter().flat_map(|e| e.1).collect();
        let got = dd.probe_sorted(&h, &w);
        for (k, p) in probes.iter().enumerate() {
            assert_eq!(got[k], p.2, "probe {k} diverged");
        }
        assert!(dd.merge_passes() > 0);
    }

    /// Insert `batch` (already sorted by `(hash, words)`) into `dd`.
    fn insert_batch(dd: &mut ExternalDedup, batch: &BTreeMap<(u64, Vec<u32>), u32>) {
        let h: Vec<u64> = batch.keys().map(|k| k.0).collect();
        let w: Vec<u32> = batch.keys().flat_map(|k| k.1.iter().copied()).collect();
        let idx: Vec<u32> = batch.values().copied().collect();
        dd.insert_sorted(&h, &idx, &w);
    }

    /// Hash shared by about a quarter of the keys [`probe_vs_brute_force`]
    /// inserts: its entries span several fence blocks, so equal hashes
    /// straddle fences.
    const SHARED: u64 = 1 << 40;

    /// Insert 40 random sorted batches into a seen-set built with
    /// `plan`, probing after each one; every probe must equal a brute
    /// force lookup in the set of everything inserted so far.
    fn probe_vs_brute_force(plan: &BudgetPlan) -> ExternalDedup {
        let stride = 2usize;
        let mut dd = ExternalDedup::new(stride, plan, SpillDir::create(None));
        let mut rng = SplitMix64::new(12);
        let mut truth: BTreeMap<(u64, Vec<u32>), u32> = BTreeMap::new();
        let random_key = |rng: &mut SplitMix64| {
            let h = if rng.next_below(4) == 0 { SHARED } else { rng.next_below(1 << 16) * 7 };
            (h, vec![rng.next_below(64) as u32, rng.next_below(64) as u32])
        };
        for _ in 0..40 {
            let mut batch = BTreeMap::new();
            while batch.len() < 60 {
                let key = random_key(&mut rng);
                if !truth.contains_key(&key) && !batch.contains_key(&key) {
                    batch.insert(key, (truth.len() + batch.len()) as u32);
                }
            }
            insert_batch(&mut dd, &batch);
            truth.extend(batch);

            // Probe a sorted mix of present keys, random keys (mostly
            // absent everywhere) and absent words under the shared hash.
            let mut probes: BTreeSet<(u64, Vec<u32>)> = BTreeSet::new();
            let present: Vec<&(u64, Vec<u32>)> = truth.keys().collect();
            for _ in 0..80 {
                probes.insert(present[rng.next_below(present.len() as u64) as usize].clone());
                probes.insert(random_key(&mut rng));
                probes.insert((SHARED, vec![64 + rng.next_below(8) as u32, 0]));
            }
            let h: Vec<u64> = probes.iter().map(|k| k.0).collect();
            let w: Vec<u32> = probes.iter().flat_map(|k| k.1.iter().copied()).collect();
            let got = dd.probe_sorted(&h, &w);
            // Brute force: the exact set of everything ever inserted.
            let want: Vec<Option<u32>> = probes.iter().map(|k| truth.get(k).copied()).collect();
            assert_eq!(got, want);
        }
        dd
    }

    #[test]
    fn indexed_probe_matches_brute_force_across_runs_and_compactions() {
        // The tiny plan flushes a run on every insert.
        let dd = probe_vs_brute_force(&plan());
        assert!(dd.run_seq > MAX_DEDUP_RUNS as u64, "runs must have been compacted");
        let straddles = dd
            .runs
            .iter()
            .any(|r| r.fences.iter().skip(1).any(|&f| f == SHARED));
        assert!(straddles, "some fence block must open inside the shared-hash range");
        assert!(dd.resident_bytes() > 0);
    }

    #[test]
    fn ram_buffer_merge_matches_brute_force() {
        // Room for a few batches: inserts merge into a non-empty RAM
        // buffer, and a few flushes still happen.
        let roomy = BudgetPlan { dedup_ram_bytes: 200 * entry_bytes(2), ..plan() };
        let dd = probe_vs_brute_force(&roomy);
        assert!(!dd.runs.is_empty(), "the buffer must have flushed too");
    }

    #[test]
    fn bloom_filter_has_no_false_negatives_and_few_false_positives() {
        let mut bloom = Bloom::for_entries(10_000);
        let mut rng = SplitMix64::new(3);
        let inserted: Vec<u64> = (0..10_000).map(|_| rng.next_u64()).collect();
        for &h in &inserted {
            bloom.insert(h);
        }
        assert!(inserted.iter().all(|&h| bloom.may_contain(h)));
        let false_hits = (0..100_000).filter(|_| bloom.may_contain(rng.next_u64())).count();
        assert!(false_hits < 2_000, "{false_hits} false positives in 100000 (> 2%)");
        assert_eq!(bloom.bytes(), (10_000 * BLOOM_BITS_PER_ENTRY).div_ceil(64) * 8);
    }
}
