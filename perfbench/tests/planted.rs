//! A wrong reference value must turn the exit status red.

use randsync_perfbench::expect::{inputs_for_seed, EXPECTED};

fn args(workload: &str) -> Vec<String> {
    ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

#[test]
fn a_planted_wrong_valency_count_fails_the_run() {
    let mut planted = EXPECTED;
    let index = randsync_perfbench::expect::MIXED_INPUTS
        .iter()
        .position(|v| *v == inputs_for_seed(5))
        .expect("a mixed vector");
    planted.walk[index].bivalent += 1;
    assert_eq!(randsync_perfbench::run(&args("valency-walk"), &planted), 1);
}

#[test]
fn a_planted_wrong_config_count_fails_the_run() {
    let mut planted = EXPECTED;
    for want in &mut planted.phase {
        want.configs -= 1;
    }
    assert_eq!(randsync_perfbench::run(&args("explore-phase-spill"), &planted), 1);
}
