//! Chaos fuzz sweep: seeded scenarios with fiber cuts and site downs that
//! heal, op faults and crashes, replayed through the hardened controller
//! with every invariant checked every slot.
//!
//! Seed count balances coverage against debug-mode runtime; the CI
//! `chaos-long` job sweeps a much larger range.

use owan_obs::Recorder;
use owan_oracle::{fuzz, replay, ReplayKind, Scenario};
use owan_sim::Probes;

#[test]
fn chaos_fuzz_sweep_is_clean() {
    match fuzz(0, 25, ReplayKind::CHAOS, 40, &Recorder::disabled()) {
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

/// Replaying the same seed twice yields identical coverage.
#[test]
fn chaos_replay_is_deterministic() {
    let scenario = Scenario::generate(12);
    let a = replay(&scenario, ReplayKind::CHAOS, 40, &Probes::default()).expect("clean");
    let b = replay(&scenario, ReplayKind::CHAOS, 40, &Probes::default()).expect("clean");
    assert_eq!(a, b);
}

#[test]
fn heavier_op_faults_stay_invariant_clean() {
    // Crank injection rates well past the defaults: invariants must hold
    // regardless of how many ops retry or abort.
    let kind = ReplayKind::Chaos {
        timeout_prob: 0.35,
        fail_prob: 0.25,
    };
    for seed in [2u64, 5, 9, 14] {
        let scenario = Scenario::generate(seed);
        if let Err(f) = replay(&scenario, kind, 40, &Probes::default()) {
            panic!("seed {seed} violated under heavy op faults: {f}");
        }
    }
}
