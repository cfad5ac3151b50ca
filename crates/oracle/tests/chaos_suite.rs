//! Chaos fuzz sweep: seeded scenarios with cuts, repairs, degradation,
//! op faults and crashes, replayed through the hardened controller with
//! every invariant checked every slot.
//!
//! Seed count balances coverage against debug-mode runtime; the CI
//! `chaos-long` job sweeps a much larger range.

use owan_obs::Recorder;
use owan_oracle::{fuzz_chaos, replay_chaos_scenario, ChaosReplayConfig, Scenario};
use owan_sim::Probes;

#[test]
fn chaos_fuzz_sweep_is_clean() {
    let config = ChaosReplayConfig::default();
    match fuzz_chaos(0, 25, &config, &Recorder::disabled()) {
        Ok(stats) => {
            assert_eq!(stats.scenarios, 25);
            assert!(stats.plans_checked > 0);
            assert!(
                stats.updates_checked > 0,
                "sweep never checked an update schedule: {stats:?}"
            );
            assert!(
                stats.crashes > 0,
                "sweep never exercised a crash restart: {stats:?}"
            );
        }
        Err((seed, failure)) => panic!("seed {seed} violated an invariant: {failure}"),
    }
}

#[test]
fn chaos_replay_is_deterministic() {
    let scenario = Scenario::generate(12);
    let config = ChaosReplayConfig::default();
    let a = replay_chaos_scenario(&scenario, &config, &Probes::default()).expect("clean");
    let b = replay_chaos_scenario(&scenario, &config, &Probes::default()).expect("clean");
    assert_eq!(a.slots, b.slots);
    assert_eq!(a.plans_checked, b.plans_checked);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.faults_detected, b.faults_detected);
    assert_eq!(a.crashes, b.crashes);
}

#[test]
fn heavier_op_faults_stay_invariant_clean() {
    // Crank injection rates well past the defaults: invariants must hold
    // regardless of how many ops retry or abort.
    let config = ChaosReplayConfig {
        timeout_prob: 0.35,
        fail_prob: 0.25,
        ..Default::default()
    };
    for seed in [2u64, 5, 9, 14] {
        let scenario = Scenario::generate(seed);
        if let Err(f) = replay_chaos_scenario(&scenario, &config, &Probes::default()) {
            panic!("seed {seed} violated under heavy op faults: {f}");
        }
    }
}
