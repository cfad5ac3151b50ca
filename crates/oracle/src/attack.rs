//! The attack kind's demand: a seeded coremelt and/or flash-crowd wave
//! per fuzz scenario, so a [`ReplayKind::Attack`] replay exercises
//! exactly the composition the `owan-cli attack` subcommand runs —
//! detection-delayed believed plant, op faults, controller crashes, and
//! hostile demand, all at once.
//!
//! [`ReplayKind::Attack`]: crate::ReplayKind::Attack

use crate::fuzz::Scenario;
use owan_chaos::AttackTimeline;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay, ReplayKind};
    use owan_sim::Probes;

    #[test]
    fn attack_timeline_is_deterministic_per_scenario() {
        let s = Scenario::generate(21);
        assert_eq!(attack_timeline_for(&s), attack_timeline_for(&s));
        assert!(!attack_timeline_for(&s).waves().is_empty());
    }

    #[test]
    fn single_attack_replay_is_clean() {
        let s = Scenario::generate(4);
        let run = || {
            replay(&s, ReplayKind::Attack, 40, &Probes::default())
                .unwrap_or_else(|f| panic!("seed 4 violated: {f}"))
        };
        let stats = run();
        assert_eq!(stats, run(), "attack replay is not deterministic");
        assert!(stats.plans_checked > 0);
        assert_eq!(stats.plans_checked, stats.slots);
        assert!(stats.waves > 0);
    }
}
