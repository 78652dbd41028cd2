//! The shared protocol registry: one table mapping protocol names to
//! constructors, defaults, paper hooks, and harness capabilities.
//!
//! Before this module existed, the CLI (`randsync check/valency/attack`),
//! the exploration performance harness, and the property suites each
//! hand-maintained their own list of model protocols; adding a protocol
//! meant touching three match statements. The registry is the single
//! source of truth: every consumer iterates [`registry()`] or looks a
//! name up with [`find`].
//!
//! Because the explorer, simulator, runtime, and adversaries are all
//! generic over [`Protocol`], the registry needs one *concrete* type
//! that can hold any of the crate's model protocols: [`AnyProtocol`], an
//! enum that delegates every trait method to the wrapped machine (with
//! [`AnyState`] wrapping the per-protocol states). The dispatch adds an
//! enum tag per step — negligible next to the hash-and-memoize work of
//! exploration — and buys `fn(usize, usize) -> AnyProtocol` constructor
//! pointers, which is what makes a *data-driven* table possible.

use randsync_model::{
    Action, Decision, ObjectSpec, ProcessId, Protocol, Response, Symmetry,
};

use crate::model_protocols::{
    CasModel, FetchIncTwoModel, LocalCoinModel, MixedZigzag, NaiveWriteRead, Optimistic,
    PhaseModel, SwapChain, SwapTwoModel, TasRace, TasTwoModel, WalkBacking, WalkModel, Zigzag,
};
use crate::model_protocols::historyless::{ChainState, MixedState, RaceState};
use crate::model_protocols::naive::{NaiveState, OptState};
use crate::model_protocols::phase_model::PhaseState;
use crate::model_protocols::two_proc::{FetchIncState, SwapState, TasState};
use crate::model_protocols::cas_model::CasState;
use crate::model_protocols::local_coin::LocalCoinState;
use crate::model_protocols::walk_model::WalkState;

macro_rules! any_protocol {
    ($( $variant:ident : $proto:ty , $state:ty ; )+) => {
        /// Any of the crate's model protocols behind one concrete
        /// [`Protocol`] type, so registry entries can expose plain
        /// `fn(n, r) -> AnyProtocol` constructors and every generic
        /// consumer (explorer, simulator, threaded runtime, adversary)
        /// works off the same table.
        #[derive(Clone, Debug)]
        pub enum AnyProtocol {
            $( #[doc = concat!("A [`", stringify!($proto), "`].")] $variant($proto), )+
        }

        /// The per-process state of an [`AnyProtocol`]; each variant
        /// wraps the corresponding protocol's state type.
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub enum AnyState {
            $( #[doc = concat!("State of a [`", stringify!($proto), "`] process.")] $variant($state), )+
        }

        impl Protocol for AnyProtocol {
            type State = AnyState;

            fn objects(&self) -> Vec<ObjectSpec> {
                match self { $( AnyProtocol::$variant(p) => p.objects(), )+ }
            }

            fn num_processes(&self) -> usize {
                match self { $( AnyProtocol::$variant(p) => p.num_processes(), )+ }
            }

            fn initial_state(&self, pid: ProcessId, input: Decision) -> AnyState {
                match self {
                    $( AnyProtocol::$variant(p) => AnyState::$variant(p.initial_state(pid, input)), )+
                }
            }

            fn action(&self, state: &AnyState) -> Action {
                match (self, state) {
                    $( (AnyProtocol::$variant(p), AnyState::$variant(s)) => p.action(s), )+
                    _ => panic!("state does not belong to this protocol"),
                }
            }

            fn coin_domain(&self, state: &AnyState, resp: &Response) -> u32 {
                match (self, state) {
                    $( (AnyProtocol::$variant(p), AnyState::$variant(s)) => p.coin_domain(s, resp), )+
                    _ => panic!("state does not belong to this protocol"),
                }
            }

            fn transition(&self, state: &AnyState, resp: &Response, coin: u32) -> AnyState {
                match (self, state) {
                    $( (AnyProtocol::$variant(p), AnyState::$variant(s)) =>
                        AnyState::$variant(p.transition(s, resp, coin)), )+
                    _ => panic!("state does not belong to this protocol"),
                }
            }

            fn is_symmetric(&self) -> bool {
                match self { $( AnyProtocol::$variant(p) => p.is_symmetric(), )+ }
            }

            fn symmetry(&self) -> Symmetry {
                match self { $( AnyProtocol::$variant(p) => p.symmetry(), )+ }
            }
        }
    };
}

any_protocol! {
    Walk: WalkModel, WalkState;
    Cas: CasModel, CasState;
    SwapTwo: SwapTwoModel, SwapState;
    TasTwo: TasTwoModel, TasState;
    FetchIncTwo: FetchIncTwoModel, FetchIncState;
    Naive: NaiveWriteRead, NaiveState;
    Optimistic: Optimistic, OptState;
    Zigzag: Zigzag, OptState;
    SwapChain: SwapChain, ChainState;
    TasRace: TasRace, RaceState;
    Mixed: MixedZigzag, MixedState;
    Phase: PhaseModel, PhaseState;
    LocalCoin: LocalCoinModel, LocalCoinState;
}

/// Which lower-bound adversary (if any) applies to a protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttackFamily {
    /// The Lemma 3.2 adversary for identical processes over registers
    /// (`randsync_core::attack::attack_identical`).
    RegisterIdentical,
    /// The Lemma 3.6 adversary for historyless non-register objects
    /// (`randsync_core::combine35::attack_historyless`).
    Historyless,
    /// No adversary targets this protocol (it is correct, or uses
    /// objects outside both adversaries' hypotheses).
    NotApplicable,
}

impl AttackFamily {
    /// Stable machine-readable name, used by the job server's
    /// `protocols` and `verify_witness` results and by CLI output.
    pub fn label(self) -> &'static str {
        match self {
            AttackFamily::RegisterIdentical => "register-identical",
            AttackFamily::Historyless => "historyless",
            AttackFamily::NotApplicable => "none",
        }
    }
}

/// One registered protocol: its name, construction, defaults, paper
/// hook, and which harnesses apply to it.
#[derive(Debug)]
pub struct ProtocolEntry {
    /// The CLI/registry name (`randsync check <name>` etc.).
    pub name: &'static str,
    /// The shared objects, for the inventory table.
    pub objects: &'static str,
    /// Where in the paper this protocol lives.
    pub paper: &'static str,
    /// Process count the defaults are tuned for.
    pub default_n: usize,
    /// Default round/repetition parameter (ignored by protocols without
    /// one).
    pub default_r: usize,
    /// The default input vector (length `default_n`).
    pub default_inputs: &'static [u8],
    /// Whether the second `build` argument (rounds/repetitions) matters.
    pub takes_r: bool,
    /// Whether the protocol is *correct* consensus: exploration and
    /// execution must never observe a consistency or validity violation.
    /// `false` marks the deliberately flawed adversary targets.
    pub expected_safe: bool,
    /// Whether the protocol terminates with probability 1 under free
    /// scheduling, making it meaningful to run on real threads. `false`
    /// for machines with adversarial-schedule livelocks (the
    /// deterministic walk variant) or spin states (the phase model),
    /// which only the explorer and simulator should drive.
    pub runnable: bool,
    /// Which lower-bound adversary targets this protocol.
    pub attack: AttackFamily,
    /// Construct the protocol for `n` processes with round parameter
    /// `r`. Fixed-arity protocols (the 2-process separations) ignore
    /// `n`; protocols without a round parameter ignore `r`.
    pub build: fn(n: usize, r: usize) -> AnyProtocol,
}

impl ProtocolEntry {
    /// The protocol at its registered defaults.
    pub fn build_default(&self) -> AnyProtocol {
        (self.build)(self.default_n, self.default_r)
    }
}

/// The input vector used when a caller overrides `n`: alternating
/// `0, 1, 0, …` (both values present for every `n ≥ 2`).
pub fn alternating_inputs(n: usize) -> Vec<u8> {
    (0..n).map(|p| (p % 2) as u8).collect()
}

static ENTRIES: &[ProtocolEntry] = &[
    ProtocolEntry {
        name: "cas",
        objects: "1 compare&swap register",
        paper: "Herlihy [20], via Corollary 4.1",
        default_n: 3,
        default_r: 1,
        default_inputs: &[0, 1, 0],
        takes_r: false,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |n, _| AnyProtocol::Cas(CasModel::new(n.max(1))),
    },
    ProtocolEntry {
        name: "swap2",
        objects: "1 swap register",
        paper: "Section 4, 2-process separations",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |_, _| AnyProtocol::SwapTwo(SwapTwoModel),
    },
    ProtocolEntry {
        name: "tas2",
        objects: "1 test&set + 2 registers",
        paper: "Section 4, 2-process separations",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |_, _| AnyProtocol::TasTwo(TasTwoModel),
    },
    ProtocolEntry {
        name: "fetchinc2",
        objects: "1 fetch&increment + 2 registers",
        paper: "Section 4, 2-process separations",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |_, _| AnyProtocol::FetchIncTwo(FetchIncTwoModel),
    },
    ProtocolEntry {
        name: "walk-counter",
        objects: "1 bounded counter",
        paper: "Theorem 4.2 (Aspnes), tight margins",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |n, _| {
            AnyProtocol::Walk(WalkModel::with_tight_margins(n.max(1), WalkBacking::BoundedCounter))
        },
    },
    ProtocolEntry {
        name: "walk-fetchadd",
        objects: "1 fetch&add register",
        paper: "Theorem 4.4, tight margins",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |n, _| {
            AnyProtocol::Walk(WalkModel::with_tight_margins(n.max(1), WalkBacking::FetchAdd))
        },
    },
    ProtocolEntry {
        name: "walk-default",
        objects: "1 bounded counter (range ±3n)",
        paper: "Theorem 4.2, the paper's margins",
        default_n: 3,
        default_r: 1,
        default_inputs: &[0, 1, 0],
        takes_r: false,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |n, _| {
            AnyProtocol::Walk(WalkModel::with_default_margins(
                n.max(1),
                WalkBacking::BoundedCounter,
            ))
        },
    },
    ProtocolEntry {
        name: "walk-deterministic",
        objects: "1 bounded counter",
        paper: "consensus number 1 (FLP-style demonstration)",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: true,
        // Safe, but an adversarial schedule balances the walk forever —
        // real threads are not guaranteed to terminate.
        runnable: false,
        attack: AttackFamily::NotApplicable,
        build: |n, _| {
            AnyProtocol::Walk(WalkModel::deterministic_variant(
                n.max(1),
                WalkBacking::BoundedCounter,
            ))
        },
    },
    ProtocolEntry {
        name: "naive",
        objects: "n single-writer registers",
        paper: "Section 3 warm-up (broken by Lemma 3.2)",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: false,
        runnable: true,
        attack: AttackFamily::RegisterIdentical,
        build: |n, _| AnyProtocol::Naive(NaiveWriteRead::new(n.max(1))),
    },
    ProtocolEntry {
        name: "optimistic",
        objects: "n single-writer registers",
        paper: "Section 3 warm-up (broken by Lemma 3.2)",
        default_n: 2,
        default_r: 2,
        default_inputs: &[0, 1],
        takes_r: true,
        expected_safe: false,
        runnable: true,
        attack: AttackFamily::RegisterIdentical,
        build: |n, r| AnyProtocol::Optimistic(Optimistic::new(n.max(1), r.max(1))),
    },
    ProtocolEntry {
        name: "zigzag",
        objects: "n single-writer registers",
        paper: "Section 3 warm-up (broken by Lemma 3.2, Figure 4 case)",
        default_n: 2,
        default_r: 2,
        default_inputs: &[0, 1],
        takes_r: true,
        expected_safe: false,
        runnable: true,
        attack: AttackFamily::RegisterIdentical,
        build: |n, r| AnyProtocol::Zigzag(Zigzag::new(n.max(1), r.max(1))),
    },
    ProtocolEntry {
        name: "swapchain",
        objects: "1 swap register (3 processes)",
        paper: "Lemma 3.6 target (historyless, non-register)",
        default_n: 3,
        default_r: 1,
        default_inputs: &[0, 1, 1],
        takes_r: false,
        expected_safe: false,
        runnable: true,
        attack: AttackFamily::Historyless,
        build: |n, _| AnyProtocol::SwapChain(SwapChain::new(n.max(1))),
    },
    ProtocolEntry {
        name: "tasrace",
        objects: "1 test&set flag",
        paper: "Lemma 3.6 target (historyless, non-register)",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: false,
        runnable: true,
        attack: AttackFamily::Historyless,
        build: |n, _| AnyProtocol::TasRace(TasRace::new(n.max(1))),
    },
    ProtocolEntry {
        name: "mixedzigzag",
        objects: "2 registers + 1 swap + 1 test&set",
        paper: "Lemma 3.6 target (mixed historyless objects)",
        default_n: 2,
        default_r: 1,
        default_inputs: &[0, 1],
        takes_r: false,
        expected_safe: false,
        runnable: true,
        attack: AttackFamily::Historyless,
        build: |n, _| AnyProtocol::Mixed(MixedZigzag::new(n.max(1))),
    },
    ProtocolEntry {
        name: "localcoin",
        objects: "n private bounded counters + 1 compare&swap",
        paper: "private mixing before Herlihy's CAS (Section 4 flavor)",
        default_n: 2,
        default_r: 4,
        default_inputs: &[0, 1],
        takes_r: true,
        expected_safe: true,
        runnable: true,
        attack: AttackFamily::NotApplicable,
        build: |n, r| AnyProtocol::LocalCoin(LocalCoinModel::new(n.max(1), r.max(1) as u32)),
    },
    ProtocolEntry {
        name: "phase",
        objects: "per-round registers + counters",
        paper: "phase-structured randomized consensus (Section 4 flavor)",
        default_n: 2,
        default_r: 2,
        default_inputs: &[0, 1],
        takes_r: true,
        expected_safe: true,
        // The model has a Parked spin state: a process can loop on an
        // unchanged read, so free-running threads may livelock.
        runnable: false,
        attack: AttackFamily::NotApplicable,
        build: |n, r| AnyProtocol::Phase(PhaseModel::new(n.max(1), r.max(1))),
    },
];

/// Every registered protocol, in display order.
pub fn registry() -> &'static [ProtocolEntry] {
    ENTRIES
}

/// Look a protocol up by its registry name.
pub fn find(name: &str) -> Option<&'static ProtocolEntry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// The entries a lower-bound adversary targets — the deliberately
/// flawed protocols whose counterexamples the verification gate's
/// witness corpus regression-tests. Every entry here has an
/// [`AttackFamily`] other than `NotApplicable`.
pub fn adversary_targets() -> impl Iterator<Item = &'static ProtocolEntry> {
    ENTRIES.iter().filter(|e| e.attack != AttackFamily::NotApplicable)
}

/// The protocol inventory as a Markdown table (the source of the
/// README/crate-docs inventory).
pub fn markdown_table() -> String {
    let mut out = String::from(
        "| Protocol | Objects | Paper hook | Correct? | Threads? |\n|---|---|---|---|---|\n",
    );
    for e in ENTRIES {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            e.name,
            e.objects,
            e.paper,
            if e.expected_safe { "yes" } else { "**flawed**" },
            if e.runnable { "yes" } else { "model-only" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use randsync_model::{ExploreLimits, Explorer, RandomScheduler, Simulator};

    #[test]
    fn names_are_unique_and_findable() {
        for e in registry() {
            let found = find(e.name).expect("every entry resolves by name");
            assert!(std::ptr::eq(found, e));
        }
        let names: std::collections::HashSet<_> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), registry().len(), "duplicate registry names");
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn defaults_are_coherent() {
        for e in registry() {
            assert_eq!(
                e.default_inputs.len(),
                e.default_n,
                "{}: default inputs must cover default_n",
                e.name
            );
            let p = e.build_default();
            assert_eq!(p.num_processes(), e.default_n, "{}: arity mismatch", e.name);
            assert!(!p.objects().is_empty(), "{}: protocols use shared objects", e.name);
        }
    }

    #[test]
    fn any_protocol_delegates_faithfully() {
        // Spot-check the enum dispatch against the wrapped protocol.
        let direct = CasModel::new(2);
        let wrapped = AnyProtocol::Cas(CasModel::new(2));
        assert_eq!(wrapped.num_processes(), direct.num_processes());
        assert_eq!(wrapped.objects(), direct.objects());
        assert_eq!(wrapped.symmetry(), direct.symmetry());
        let s0 = wrapped.initial_state(ProcessId(0), 1);
        let d0 = direct.initial_state(ProcessId(0), 1);
        assert_eq!(wrapped.action(&s0), direct.action(&d0));
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_states_are_rejected() {
        let cas = AnyProtocol::Cas(CasModel::new(2));
        let swap = AnyProtocol::SwapTwo(SwapTwoModel);
        let s = swap.initial_state(ProcessId(0), 0);
        let _ = cas.action(&s);
    }

    #[test]
    fn expected_safe_entries_simulate_clean() {
        for e in registry() {
            let p = e.build_default();
            let mut sim = Simulator::new(2_000_000, 7);
            let mut sched = RandomScheduler::new(11);
            let out = sim.run(&p, e.default_inputs, &mut sched).expect("simulation runs");
            if e.expected_safe && out.all_decided {
                let vals = out.decided_values();
                assert_eq!(vals.len(), 1, "{}: inconsistent decisions", e.name);
                assert!(e.default_inputs.contains(&vals[0]), "{}: invalid decision", e.name);
            }
        }
    }

    #[test]
    fn flawed_entries_are_actually_broken_and_safe_entries_check_out() {
        // The registry's `expected_safe` claims are enforced by the
        // explorer on the cheap entries (2-process defaults).
        let limits = ExploreLimits { max_configs: 500_000, max_depth: 50_000 };
        for e in registry() {
            if e.default_n > 2 {
                continue;
            }
            let out = Explorer::new(limits).explore(&e.build_default(), e.default_inputs);
            if out.truncated {
                continue;
            }
            assert_eq!(
                out.is_safe(),
                e.expected_safe,
                "{}: registry safety claim contradicts the model checker",
                e.name
            );
        }
    }

    #[test]
    fn markdown_table_lists_every_protocol() {
        let table = markdown_table();
        for e in registry() {
            assert!(table.contains(e.name), "inventory missing {}", e.name);
        }
    }
}
