//! The **frontier-exchange seam**: a pluggable seen-set the engine's
//! level merge probes and extends in sorted batches.
//!
//! The out-of-core merge ([`engine`](super::engine)) already talks to
//! its dedup structure through exactly two bulk operations per BFS
//! level: one sorted *probe* batch (which of these distinct candidate
//! keys are already interned, and at which arena index?) and one sorted
//! *insert* batch (these keys were just interned at these indices).
//! [`FrontierTransport`] names that contract as a trait, which is all
//! it takes to stretch the fingerprint-sharded seen-set across
//! machines: a coordinator keeps the arena and performs the in-order
//! merge — so interning order, and therefore every verdict, count, and
//! witness, is **bit-identical to a single-node run** — while worker
//! nodes own disjoint fingerprint ranges of the seen-set and answer
//! probe/insert batches for their range.
//!
//! Implementations in this workspace:
//!
//! * [`LocalFrontier`] — the in-process reference implementation (one
//!   flat words vector behind an open-addressing index), used by the
//!   equivalence property suites, as the semantic model every remote
//!   implementation must match, and as the store of every remote shard.
//! * `ExternalDedup` (the spill tier) implements the same trait, so
//!   the engine's external merge is written once against the seam.
//! * `randsync-svc`'s `DistributedFrontier` speaks the same contract
//!   over the wire protocol (binary probe/insert frames) to N worker
//!   processes.
//!
//! # Contract
//!
//! * `open(stride)` begins a search; `stride` is the packed row width
//!   in `u32` words. Implementations must start empty.
//! * `probe_sorted(hashes, words)` receives **distinct** keys sorted
//!   by `(hash, words)`; `words.len() == hashes.len() * stride`. It
//!   returns, per key in order, the arena index the key was inserted
//!   under, or `None` if never inserted. Keys with equal 64-bit hashes
//!   but different words are different keys (the engine compares full
//!   words; the hash only routes and orders).
//! * `insert_sorted(hashes, indices, words)` records keys (sorted the
//!   same way, disjoint from everything previously inserted) under the
//!   caller-assigned arena indices.
//! * `close()` ends the search and releases any session state.
//!
//! Errors are surfaced, not panicked: the engine stops the search at
//! the level boundary and reports a truncated outcome with
//! [`TruncationReason::Transport`](super::TruncationReason::Transport).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A frontier-exchange failure (connection loss, protocol error, a
/// worker shard gone away). Carries a human-readable description.
#[derive(Clone, Debug)]
pub struct TransportError(pub String);

impl TransportError {
    /// Build an error from anything displayable.
    pub fn new(msg: impl std::fmt::Display) -> Self {
        TransportError(msg.to_string())
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TransportError {}

/// The pluggable seen-set behind the engine's level merge — see the
/// module docs for the full contract.
pub trait FrontierTransport: Send {
    /// Begin a search whose packed rows are `stride` `u32` words wide.
    fn open(&mut self, stride: usize) -> Result<(), TransportError>;

    /// Resolve distinct sorted keys against everything inserted so
    /// far: `Some(index)` for known keys, `None` for novel ones.
    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError>;

    /// Record newly interned sorted keys under their arena indices.
    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError>;

    /// End the search and release session state.
    fn close(&mut self) -> Result<(), TransportError>;
}

/// A cloneable, lockable handle to a [`FrontierTransport`], suitable
/// for [`ExploreConfig::transport`](super::ExploreConfig::transport)
/// (which must stay `Clone`). The engine serializes all access through
/// the lock — the merge is sequential by design, so the lock is never
/// contended during a search.
#[derive(Clone)]
pub struct SharedFrontier(Arc<Mutex<dyn FrontierTransport>>);

impl SharedFrontier {
    /// Wrap a transport implementation for use in an `ExploreConfig`.
    pub fn new(transport: impl FrontierTransport + 'static) -> Self {
        SharedFrontier(Arc::new(Mutex::new(transport)))
    }

    /// Lock the underlying transport (poisoning is ignored: the
    /// transports hold plain data and remote handles, which a panic
    /// cannot leave incoherent).
    pub fn lock(&self) -> MutexGuard<'_, dyn FrontierTransport + 'static> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for SharedFrontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedFrontier(..)")
    }
}

/// The in-process reference implementation of the seam. Every key's
/// packed words sit in one flat vector (key `k` at `k * stride`), next
/// to its hash and arena index; an open-addressing table over the
/// hashes finds them. Inserting allocates nothing per key, and a probe
/// compares full words, so keys whose 64-bit hashes collide stay
/// distinct. Semantically identical to the engine's in-RAM seen-maps;
/// exists so the seam itself can be property-tested for bit-identity
/// without any networking, and as the store behind every remote shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalFrontier {
    stride: usize,
    /// Packed words, `stride` per key, in insertion order.
    words: Vec<u32>,
    /// Each key's hash.
    hashes: Vec<u64>,
    /// Each key's arena index.
    indices: Vec<u32>,
    /// Linear-probing table, a power of two in size and at most half
    /// full: `k + 1` for key `k`, 0 for an empty slot. A key inserted
    /// twice is found at its first insertion, which sits earlier on the
    /// probe sequence.
    slots: Vec<u32>,
}

impl LocalFrontier {
    /// An empty frontier store.
    pub fn new() -> Self {
        LocalFrontier::default()
    }

    /// Number of keys inserted so far.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether no keys have been inserted.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The packed row width of the open search (0 before `open`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The table slot where the probe sequence for `h` starts.
    fn home(&self, h: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The key number holding `(h, row)`, if inserted.
    fn find(&self, h: u64, row: &[u32]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(h);
        loop {
            let k = (self.slots[at] as usize).checked_sub(1)?;
            if self.hashes[k] == h && &self.words[k * self.stride..(k + 1) * self.stride] == row {
                return Some(k);
            }
            at = (at + 1) & mask;
        }
    }

    /// Enter key `k` into the table.
    fn place(&mut self, k: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(self.hashes[k]);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = k as u32 + 1;
    }
}

impl FrontierTransport for LocalFrontier {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        if stride == 0 {
            return Err(TransportError::new("frontier stride must be nonzero"));
        }
        self.close()?;
        self.stride = stride;
        Ok(())
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        let stride = self.stride;
        if stride == 0 || words.len() != hashes.len() * stride {
            return Err(TransportError::new("malformed probe batch"));
        }
        Ok(hashes
            .iter()
            .zip(words.chunks_exact(stride))
            .map(|(&h, row)| self.find(h, row).map(|k| self.indices[k]))
            .collect())
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        let stride = self.stride;
        if stride == 0
            || indices.len() != hashes.len()
            || words.len() != hashes.len() * stride
        {
            return Err(TransportError::new("malformed insert batch"));
        }
        let old = self.len();
        let len = old + hashes.len();
        // Slot entries are `k + 1` in a u32.
        if len >= u32::MAX as usize {
            return Err(TransportError::new("frontier store full"));
        }
        self.words.extend_from_slice(words);
        self.hashes.extend_from_slice(hashes);
        self.indices.extend_from_slice(indices);
        let mut size = self.slots.len().max(16);
        while size < 2 * len {
            size *= 2;
        }
        let first_new = if size == self.slots.len() {
            old
        } else {
            self.slots = vec![0; size];
            0
        };
        for k in first_new..len {
            self.place(k);
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), TransportError> {
        *self = LocalFrontier { stride: self.stride, ..LocalFrontier::default() };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_frontier_probe_insert_roundtrip() {
        let mut f = LocalFrontier::new();
        f.open(2).unwrap();
        // Nothing known yet.
        assert_eq!(f.probe_sorted(&[1, 2], &[0, 0, 0, 1]).unwrap(), vec![None, None]);
        f.insert_sorted(&[1, 2], &[10, 11], &[0, 0, 0, 1]).unwrap();
        assert_eq!(
            f.probe_sorted(&[1, 2, 3], &[0, 0, 0, 1, 9, 9]).unwrap(),
            vec![Some(10), Some(11), None]
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn local_frontier_distinguishes_hash_collisions_by_words() {
        let mut f = LocalFrontier::new();
        f.open(1).unwrap();
        f.insert_sorted(&[7], &[0], &[100]).unwrap();
        // Same 64-bit hash, different words: a different key.
        assert_eq!(f.probe_sorted(&[7], &[200]).unwrap(), vec![None]);
        f.insert_sorted(&[7], &[1], &[200]).unwrap();
        assert_eq!(f.probe_sorted(&[7, 7], &[100, 200]).unwrap(), vec![Some(0), Some(1)]);
    }

    #[test]
    fn local_frontier_rejects_malformed_batches() {
        let mut f = LocalFrontier::new();
        assert!(f.open(0).is_err());
        f.open(2).unwrap();
        assert!(f.probe_sorted(&[1], &[0]).is_err());
        assert!(f.insert_sorted(&[1], &[0, 1], &[0, 0]).is_err());
    }

    #[test]
    fn local_frontier_grows_past_many_table_doublings() {
        let mut f = LocalFrontier::new();
        f.open(2).unwrap();
        // Few distinct hashes, so probe runs are long and every growth
        // re-places keys that share a home slot.
        let keys: Vec<(u64, [u32; 2])> =
            (0..5000u32).map(|i| (u64::from(i % 37) << 40, [i, i ^ 0xabcd])).collect();
        for (batch, chunk) in keys.chunks(700).enumerate() {
            let hashes: Vec<u64> = chunk.iter().map(|(h, _)| *h).collect();
            let words: Vec<u32> = chunk.iter().flat_map(|(_, w)| *w).collect();
            let first = 700 * batch as u32;
            let indices: Vec<u32> = (first..first + chunk.len() as u32).collect();
            f.insert_sorted(&hashes, &indices, &words).unwrap();
        }
        assert_eq!(f.len(), keys.len());
        let hashes: Vec<u64> = keys.iter().map(|(h, _)| *h).collect();
        let words: Vec<u32> = keys.iter().flat_map(|(_, w)| *w).collect();
        let found = f.probe_sorted(&hashes, &words).unwrap();
        assert!(found.iter().enumerate().all(|(i, slot)| *slot == Some(i as u32)));
        assert_eq!(f.probe_sorted(&[0], &[1, 1]).unwrap(), vec![None]);
    }

    #[test]
    fn a_key_inserted_twice_answers_with_its_first_index() {
        let mut f = LocalFrontier::new();
        f.open(1).unwrap();
        f.insert_sorted(&[3], &[8], &[5]).unwrap();
        f.insert_sorted(&[3], &[9], &[5]).unwrap();
        assert_eq!(f.probe_sorted(&[3], &[5]).unwrap(), vec![Some(8)]);
    }

    #[test]
    fn open_resets_prior_state() {
        let mut f = LocalFrontier::new();
        f.open(1).unwrap();
        f.insert_sorted(&[5], &[0], &[42]).unwrap();
        f.open(1).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.probe_sorted(&[5], &[42]).unwrap(), vec![None]);
    }
}
