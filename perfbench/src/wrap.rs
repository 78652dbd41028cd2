//! Pass-through wrappers that time the calls the explorer makes into
//! the layers below it, from outside the program.
//!
//! [`TimedProtocol`] stands between the `Explorer` and a consensus
//! model protocol; [`TimedTransport`] stands between the `Explorer`
//! and its frontier transport. Both forward every call unchanged, so a
//! search through them gives the same results as one without them
//! (the crate's tests check this).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use randsync_model::{
    Action, Decision, FrontierTransport, ObjectSpec, ProcessId, Protocol, Response, Symmetry,
    TransportError,
};

/// Cache-line-padded call counters; each thread adds into its own slot
/// so timing the step calls of parallel expansion workers does not
/// make them contend on one line.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    nanos: AtomicU64,
}

const SLOTS: usize = 64;

/// Counts and total time of the protocol step calls (`action`,
/// `coin_domain`, `transition`) made through a [`TimedProtocol`].
#[derive(Debug)]
pub struct StepStats {
    slots: Vec<Slot>,
}

impl Default for StepStats {
    fn default() -> Self {
        StepStats { slots: (0..SLOTS).map(|_| Slot::default()).collect() }
    }
}

fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS);
    SLOT.with(|s| *s)
}

impl StepStats {
    fn record(&self, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        let slot = &self.slots[thread_slot()];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls and summed call time so far, over every thread.
    pub fn totals(&self) -> (u64, Duration) {
        self.slots.iter().fold((0, Duration::ZERO), |(calls, time), s| {
            (
                calls + s.calls.load(Ordering::Relaxed),
                time + Duration::from_nanos(s.nanos.load(Ordering::Relaxed)),
            )
        })
    }
}

/// A [`Protocol`] that forwards to `inner` and times each step call.
#[derive(Debug)]
pub struct TimedProtocol<'a, P> {
    inner: &'a P,
    stats: &'a StepStats,
}

impl<'a, P> TimedProtocol<'a, P> {
    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: &'a P, stats: &'a StepStats) -> Self {
        TimedProtocol { inner, stats }
    }
}

impl<P: Protocol> Protocol for TimedProtocol<'_, P> {
    type State = P::State;

    fn objects(&self) -> Vec<ObjectSpec> {
        self.inner.objects()
    }

    fn num_processes(&self) -> usize {
        self.inner.num_processes()
    }

    fn initial_state(&self, pid: ProcessId, input: Decision) -> Self::State {
        self.inner.initial_state(pid, input)
    }

    fn action(&self, state: &Self::State) -> Action {
        let started = Instant::now();
        let action = self.inner.action(state);
        self.stats.record(started);
        action
    }

    fn coin_domain(&self, state: &Self::State, resp: &Response) -> u32 {
        let started = Instant::now();
        let domain = self.inner.coin_domain(state, resp);
        self.stats.record(started);
        domain
    }

    fn transition(&self, state: &Self::State, resp: &Response, coin: u32) -> Self::State {
        let started = Instant::now();
        let next = self.inner.transition(state, resp, coin);
        self.stats.record(started);
        next
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }

    fn symmetry(&self) -> Symmetry {
        self.inner.symmetry()
    }
}

/// Which seam operation a [`TransportCall`] was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeamOp {
    /// `probe_sorted`.
    Probe,
    /// `insert_sorted`.
    Insert,
}

/// One timed probe or insert batch.
#[derive(Clone, Copy, Debug)]
pub struct TransportCall {
    /// Which operation.
    pub op: SeamOp,
    /// When the call entered the wrapper.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Keys in the batch.
    pub keys: usize,
}

/// The calls a [`TimedTransport`] has seen; shared with the caller,
/// since the transport itself moves into the explorer's handle.
pub type TransportLog = Arc<Mutex<Vec<TransportCall>>>;

/// A [`FrontierTransport`] that forwards to `inner` and logs the time
/// and size of every probe and insert batch.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    log: TransportLog,
}

impl<T> TimedTransport<T> {
    /// Wrap `inner`; returns the wrapper and the log it appends to.
    pub fn new(inner: T) -> (Self, TransportLog) {
        let log = TransportLog::default();
        (TimedTransport { inner, log: log.clone() }, log)
    }

    fn record(&self, op: SeamOp, start: Instant, keys: usize) {
        let call = TransportCall { op, start, end: Instant::now(), keys };
        self.log.lock().unwrap_or_else(PoisonError::into_inner).push(call);
    }
}

impl<T: FrontierTransport> FrontierTransport for TimedTransport<T> {
    fn open(&mut self, stride: usize) -> Result<(), TransportError> {
        self.inner.open(stride)
    }

    fn probe_sorted(
        &mut self,
        hashes: &[u64],
        words: &[u32],
    ) -> Result<Vec<Option<u32>>, TransportError> {
        let start = Instant::now();
        let found = self.inner.probe_sorted(hashes, words);
        self.record(SeamOp::Probe, start, hashes.len());
        found
    }

    fn insert_sorted(
        &mut self,
        hashes: &[u64],
        indices: &[u32],
        words: &[u32],
    ) -> Result<(), TransportError> {
        let start = Instant::now();
        let done = self.inner.insert_sorted(hashes, indices, words);
        self.record(SeamOp::Insert, start, hashes.len());
        done
    }

    fn close(&mut self) -> Result<(), TransportError> {
        self.inner.close()
    }
}
