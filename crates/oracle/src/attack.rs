//! Attack replay: adversarial demand waves composed with chaos fault
//! timelines, driven through the hardened controller with every attacked
//! slot audited by both invariant checkers.
//!
//! This is the traffic-adversity twin of [`crate::chaos`]: where
//! [`fuzz_chaos`](crate::chaos::fuzz_chaos) sweeps physical-fault
//! timelines, [`fuzz_attack`] additionally injects a seeded coremelt
//! and/or flash-crowd wave into every scenario, so the oracle exercises
//! exactly the composition the `owan-cli attack` subcommand runs —
//! detection-delayed believed plant, op faults, controller crashes, and
//! hostile demand, all at once.

use crate::audit::InvariantAudit;
use crate::chaos::{chaos_events_for, chaos_inputs, ChaosReplayConfig};
use crate::fuzz::Scenario;
use crate::replay::ReplayFailure;
use owan_chaos::{restartable_owan, run_attack, AttackTimeline};
use owan_obs::Recorder;
use owan_sim::Probes;
use owan_workload::attack::{coremelt, flash_crowd, AttackWave, CoremeltConfig, FlashCrowdConfig};

/// Derives a deterministic attack timeline for a fuzz scenario: a
/// coremelt wave, a flash-crowd wave, or both, by seed, with onsets in
/// the first half of the horizon so recovery has room to show.
pub fn attack_timeline_for(scenario: &Scenario) -> AttackTimeline {
    let horizon = scenario.slot_len_s * scenario.max_slots as f64;
    let mut waves: Vec<AttackWave> = Vec::new();
    if scenario.seed % 3 != 1 {
        let mut cm = CoremeltConfig::new(scenario.seed ^ 0xC0DE, 0.2 * horizon, 0.4 * horizon);
        // Fuzz plants are small rings; one target and modest intensity
        // keep the surge within what invariant-checked plans can carry.
        cm.target_fibers = 1;
        cm.pairs_per_fiber = 2;
        cm.intensity = 1.0;
        waves.push(coremelt(&scenario.plant, &cm));
    }
    if scenario.seed % 3 != 2 {
        let mut fc = FlashCrowdConfig::new(scenario.seed ^ 0xF1A5, 0.3 * horizon);
        fc.sources = 3;
        fc.ramp_s = scenario.slot_len_s;
        fc.hold_s = 2.0 * scenario.slot_len_s;
        fc.decay_s = scenario.slot_len_s;
        fc.bucket_s = scenario.slot_len_s;
        waves.push(flash_crowd(&scenario.plant, &fc));
    }
    AttackTimeline::new(waves)
}

/// What a clean attack replay covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackReplayStats {
    /// Slots the hardened controller planned in (attacked run).
    pub slots: usize,
    /// Plans checked with [`check_plan`](crate::check_plan).
    pub plans_checked: usize,
    /// Update schedules checked with [`check_timeline`](crate::check_timeline).
    pub updates_checked: usize,
    /// Attack waves composed into the scenario.
    pub waves: usize,
    /// Post-onset slots in the restored state.
    pub restored_slots: u64,
    /// True when background delivery recovered to the target fraction
    /// and held to the end of the horizon.
    pub recovered: bool,
}

/// Replays one fuzz scenario with its derived attack timeline composed
/// into the fault timeline, auditing every attacked slot. Invariant checks
/// count on the probes' recorder, attack counters land under
/// `chaos.attack.*`, and the attacked run's timeline flows into the
/// probes' scope.
pub fn replay_attack_scenario(
    scenario: &Scenario,
    config: &ChaosReplayConfig,
    probes: &Probes,
) -> Result<AttackReplayStats, ReplayFailure> {
    let timeline = attack_timeline_for(scenario);
    let events = chaos_events_for(scenario);
    let (chaos_config, op_faults) = chaos_inputs(scenario, config);
    let mut audit = InvariantAudit::new(probes);
    let outcome = run_attack(
        &scenario.plant,
        &scenario.requests,
        &timeline,
        &mut restartable_owan(config.anneal_iterations, scenario.seed),
        &chaos_config,
        0.9,
        &events,
        &op_faults,
        probes,
        Some(&mut |a| audit.check(a)),
    );
    let outcome = outcome.map_err(|e| audit.failure(e))?;
    Ok(AttackReplayStats {
        slots: outcome.attacked.slots,
        plans_checked: audit.plans_checked,
        updates_checked: audit.updates_checked,
        waves: timeline.waves().len(),
        restored_slots: outcome.metrics.restored_slots,
        recovered: outcome.metrics.time_to_restore_slots.is_some(),
    })
}

/// Aggregate coverage of a clean attack fuzz sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackFuzzStats {
    /// Scenarios replayed.
    pub scenarios: usize,
    /// Total slots planned across all attacked runs.
    pub slots: usize,
    /// Total plans checked.
    pub plans_checked: usize,
    /// Total update schedules checked.
    pub updates_checked: usize,
    /// Total attack waves composed.
    pub waves: usize,
    /// Scenarios whose background delivery recovered to the bar.
    pub recovered: usize,
}

/// Sweeps `count` seeds starting at `start` through attack replay,
/// counting every invariant check on `recorder`. On a violation, returns
/// the failing seed with the failure.
pub fn fuzz_attack(
    start: u64,
    count: u64,
    config: &ChaosReplayConfig,
    recorder: &Recorder,
) -> Result<AttackFuzzStats, (u64, ReplayFailure)> {
    let probes = Probes {
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut stats = AttackFuzzStats::default();
    for seed in start..start + count {
        let scenario = Scenario::generate(seed);
        let s = replay_attack_scenario(&scenario, config, &probes).map_err(|f| (seed, f))?;
        stats.scenarios += 1;
        stats.slots += s.slots;
        stats.plans_checked += s.plans_checked;
        stats.updates_checked += s.updates_checked;
        stats.waves += s.waves;
        stats.recovered += s.recovered as usize;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_timeline_is_deterministic_per_scenario() {
        let s = Scenario::generate(21);
        assert_eq!(attack_timeline_for(&s), attack_timeline_for(&s));
        assert!(!attack_timeline_for(&s).waves().is_empty());
    }

    #[test]
    fn single_attack_replay_is_clean() {
        let s = Scenario::generate(4);
        let stats = replay_attack_scenario(&s, &ChaosReplayConfig::default(), &Probes::default())
            .unwrap_or_else(|f| panic!("seed 4 violated: {f}"));
        assert!(stats.plans_checked > 0);
        assert_eq!(stats.plans_checked, stats.slots);
        assert!(stats.waves > 0);
    }
}
