//! Reference answers the workloads are checked against.
//!
//! The explorer workloads run n = 3 on one of the six mixed input
//! vectors, picked by the seed. The counts depend only on how many
//! processes start with 1: permuting inputs permutes processes, and
//! complementing them swaps the roles of 0 and 1.

use randsync_model::{ExploreOutcome, SplitMix64, Valency, ValencyAnalysis};

/// The six mixed input vectors for three processes.
pub const MIXED_INPUTS: [[u8; 3]; 6] =
    [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]];

/// The mixed input vector the seed picks.
pub fn inputs_for_seed(seed: u64) -> [u8; 3] {
    MIXED_INPUTS[SplitMix64::new(seed).next_below(MIXED_INPUTS.len() as u64) as usize]
}

/// Expected valency classification of a space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ValencyExpect {
    /// Reachable configurations.
    pub configs: usize,
    /// Configurations from which only 0 is reachable.
    pub zero_valent: usize,
    /// Configurations from which only 1 is reachable.
    pub one_valent: usize,
    /// Configurations from which both values are reachable.
    pub bivalent: usize,
    /// Configurations from which no decision is reachable.
    pub stuck: usize,
    /// Bivalent configurations whose successors are all univalent.
    pub critical_configs: usize,
    /// Whether the initial configuration is bivalent.
    pub initial_bivalent: bool,
    /// Whether the bivalent configurations contain a cycle.
    pub bivalent_cycle: bool,
}

/// Expected result of a full exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExploreExpect {
    /// Configurations visited (canonical representatives).
    pub configs: usize,
    /// Raw configurations those representatives stand for.
    pub raw_configs: usize,
}

/// Every reference answer, indexed like [`MIXED_INPUTS`].
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    /// `walk-default`, n = 3, raw space: `valency-walk` and
    /// `dist-valency`. Both workloads check against this one table,
    /// so they must also agree with each other.
    pub walk: [ValencyExpect; 6],
    /// `phase`, n = 3, r = 3, symmetry quotient: `explore-phase-spill`.
    pub phase: [ExploreExpect; 6],
}

const WALK_ONE_1: ValencyExpect = ValencyExpect {
    configs: 154_367,
    zero_valent: 85_608,
    one_valent: 44_093,
    bivalent: 24_666,
    stuck: 0,
    critical_configs: 0,
    initial_bivalent: true,
    bivalent_cycle: true,
};

const WALK_TWO_1: ValencyExpect = ValencyExpect {
    zero_valent: WALK_ONE_1.one_valent,
    one_valent: WALK_ONE_1.zero_valent,
    ..WALK_ONE_1
};

const PHASE_ONE_1: ExploreExpect = ExploreExpect { configs: 152_655, raw_configs: 877_242 };
const PHASE_TWO_1: ExploreExpect = ExploreExpect { configs: 152_837, raw_configs: 878_253 };

/// The reference answers.
pub const EXPECTED: Expected = Expected {
    walk: [WALK_ONE_1, WALK_ONE_1, WALK_ONE_1, WALK_TWO_1, WALK_TWO_1, WALK_TWO_1],
    phase: [PHASE_ONE_1, PHASE_ONE_1, PHASE_ONE_1, PHASE_TWO_1, PHASE_TWO_1, PHASE_TWO_1],
};

impl Expected {
    /// The index of `inputs` in [`MIXED_INPUTS`].
    fn index(inputs: &[u8]) -> usize {
        MIXED_INPUTS
            .iter()
            .position(|v| v.as_slice() == inputs)
            .expect("inputs come from MIXED_INPUTS")
    }

    /// The walk reference for `inputs`.
    pub fn walk_for(&self, inputs: &[u8]) -> ValencyExpect {
        self.walk[Self::index(inputs)]
    }

    /// The phase reference for `inputs`.
    pub fn phase_for(&self, inputs: &[u8]) -> ExploreExpect {
        self.phase[Self::index(inputs)]
    }
}

/// Compare a valency analysis with its reference.
pub fn check_valency(got: Option<&ValencyAnalysis>, want: &ValencyExpect) -> Result<(), String> {
    let Some(a) = got else {
        return Err("valency search stopped early (budget, deadline or transport failure)".into());
    };
    let got = ValencyExpect {
        configs: a.configs,
        zero_valent: a.zero_valent,
        one_valent: a.one_valent,
        bivalent: a.bivalent,
        stuck: a.stuck,
        critical_configs: a.critical_configs,
        initial_bivalent: a.initial == Valency::Bivalent,
        bivalent_cycle: a.bivalent_cycle,
    };
    if got == *want {
        Ok(())
    } else {
        Err(format!("valency mismatch: got {got:?}, expected {want:?}"))
    }
}

/// Check a full exploration: safe, complete, and the reference counts.
pub fn check_explore(o: &ExploreOutcome, want: &ExploreExpect) -> Result<(), String> {
    if o.truncated {
        return Err(format!("exploration truncated ({:?})", o.truncation_reason));
    }
    if !o.is_safe() {
        return Err(format!("exploration found a violation: {}", o.verdict_label()));
    }
    let got = ExploreExpect { configs: o.configs_visited, raw_configs: o.raw_configs };
    if got == *want {
        Ok(())
    } else {
        Err(format!("exploration mismatch: got {got:?}, expected {want:?}"))
    }
}
