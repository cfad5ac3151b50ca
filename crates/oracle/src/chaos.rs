//! The chaos kind's timeline: every fuzzed failure (a fiber cut or a
//! site down) heals and a controller crash lands mid-run, so a
//! [`ReplayKind::Chaos`] replay drives cuts that heal, sites that blink
//! and crash restarts through the hardened controller path.
//!
//! [`ReplayKind::Chaos`]: crate::ReplayKind::Chaos

use crate::fuzz::Scenario;
use owan_chaos::{FaultEvent, FaultKind};

/// Derives a full chaos timeline from a fuzz scenario: every generated
/// failure becomes a fault event, heals a quarter-horizon later, and one
/// controller crash lands mid-run. Deterministic in the scenario.
pub fn chaos_events_for(scenario: &Scenario) -> Vec<FaultEvent> {
    let horizon = scenario.slot_len_s * scenario.max_slots as f64;
    let mut events: Vec<FaultEvent> = Vec::new();
    for f in &scenario.failures {
        events.push(*f);
        let heal = f.time_s + 0.25 * horizon;
        if let Some(repair) = f.kind.repair().filter(|_| heal < horizon) {
            events.push(FaultEvent::at(heal, repair));
        }
    }
    events.push(FaultEvent::at(0.4 * horizon, FaultKind::ControllerCrash));
    events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay, ReplayKind};
    use owan_sim::Probes;

    #[test]
    fn chaos_events_are_deterministic_and_sorted() {
        let s = Scenario::generate(17);
        let a = chaos_events_for(&s);
        let b = chaos_events_for(&s);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ControllerCrash)));
    }

    #[test]
    fn single_chaos_replay_is_clean() {
        let s = Scenario::generate(3);
        let stats = replay(&s, ReplayKind::CHAOS, 40, &Probes::default())
            .unwrap_or_else(|f| panic!("seed 3 violated: {f}"));
        assert!(stats.plans_checked > 0);
        assert_eq!(stats.plans_checked, stats.slots);
    }
}
