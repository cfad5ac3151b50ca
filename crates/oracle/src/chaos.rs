//! Chaos replay: drive the *hardened* controller path (`owan-chaos`)
//! over fuzzed scenarios and audit every planned slot.
//!
//! Where [`crate::replay`] checks the fault-free control loop against
//! one-way failure injections, this module replays full chaos timelines
//! — cuts that heal, sites that blink, amplifier degradation, injected
//! update-op faults, controller crashes — through
//! [`owan_chaos::run_chaos`], with [`check_plan`] asserting every slot's
//! cross-layer invariants on the *believed* plant and [`check_timeline`]
//! asserting blackhole/loop/overload freedom of every executed update
//! schedule. [`fuzz_chaos`] sweeps seed ranges.

use crate::audit::InvariantAudit;
use crate::fuzz::Scenario;
use crate::replay::ReplayFailure;
use owan_chaos::{
    restartable_owan, run_chaos_probed, ChaosConfig, FaultEvent, FaultKind, OpFaultModel,
};
use owan_obs::Recorder;
use owan_sim::{Failure, Probes};

/// Chaos-replay tunables.
#[derive(Debug, Clone, Copy)]
pub struct ChaosReplayConfig {
    /// Annealing iterations per slot (small: the invariants hold for any
    /// iteration count).
    pub anneal_iterations: usize,
    /// Detection delay for injected faults, seconds.
    pub detection_delay_s: f64,
    /// Per-attempt probability an update op times out.
    pub timeout_prob: f64,
    /// Per-attempt probability an update op fails fast.
    pub fail_prob: f64,
}

impl Default for ChaosReplayConfig {
    fn default() -> Self {
        ChaosReplayConfig {
            anneal_iterations: 40,
            detection_delay_s: 45.0,
            timeout_prob: 0.1,
            fail_prob: 0.05,
        }
    }
}

/// What a clean chaos replay covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReplayStats {
    /// Slots the hardened controller planned in.
    pub slots: usize,
    /// Plans checked with [`check_plan`].
    pub plans_checked: usize,
    /// Update schedules checked with [`check_timeline`].
    pub updates_checked: usize,
    /// Transfers that completed within the horizon.
    pub completed: usize,
    /// Fault events whose detection delay elapsed during the run.
    pub faults_detected: u64,
    /// Controller crash restarts exercised.
    pub crashes: u64,
}

/// The fault event a scenario failure strikes as, and the event that
/// heals it.
pub(crate) fn fault_and_repair(failure: Failure) -> (FaultKind, FaultKind) {
    match failure {
        Failure::FiberCut(id) => (FaultKind::FiberCut(id), FaultKind::FiberRepaired(id)),
        Failure::SiteDown(s) => (FaultKind::SiteDown(s), FaultKind::SiteUp(s)),
        Failure::AmpDegraded { fiber, usable } => (
            FaultKind::AmpDegraded { fiber, usable },
            FaultKind::AmpRepaired(fiber),
        ),
    }
}

/// The loop configuration and op-fault model a chaos replay of
/// `scenario` runs under.
pub(crate) fn chaos_inputs(
    scenario: &Scenario,
    config: &ChaosReplayConfig,
) -> (ChaosConfig, OpFaultModel) {
    let chaos_config = ChaosConfig {
        slot_len_s: scenario.slot_len_s,
        max_slots: scenario.max_slots,
        detection_delay_s: config.detection_delay_s,
        ..Default::default()
    };
    let op_faults = OpFaultModel {
        seed: scenario.seed,
        timeout_prob: config.timeout_prob,
        fail_prob: config.fail_prob,
    };
    (chaos_config, op_faults)
}

/// Derives a full chaos timeline from a fuzz scenario: every generated
/// failure becomes a fault event, heals a quarter-horizon later, and one
/// controller crash lands mid-run. Deterministic in the scenario.
pub fn chaos_events_for(scenario: &Scenario) -> Vec<FaultEvent> {
    let horizon = scenario.slot_len_s * scenario.max_slots as f64;
    let mut events: Vec<FaultEvent> = Vec::new();
    for f in &scenario.failures {
        let (fault, repair) = fault_and_repair(f.failure);
        events.push(FaultEvent::at(f.time_s, fault));
        let heal = f.time_s + 0.25 * horizon;
        if heal < horizon {
            events.push(FaultEvent::at(heal, repair));
        }
    }
    events.push(FaultEvent::at(0.4 * horizon, FaultKind::ControllerCrash));
    events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    events
}

/// Replays one scenario through the hardened controller, checking every
/// planned slot and every executed update schedule. The checks count on
/// the probes' recorder, the loop's timeline flows into the probes'
/// scope, and a violation freezes a flight dump of the slots leading up
/// to it (see [`InvariantAudit`]).
pub fn replay_chaos_scenario(
    scenario: &Scenario,
    config: &ChaosReplayConfig,
    probes: &Probes,
) -> Result<ChaosReplayStats, ReplayFailure> {
    let events = chaos_events_for(scenario);
    let (chaos_config, op_faults) = chaos_inputs(scenario, config);
    let mut audit = InvariantAudit::new(probes);
    let result = run_chaos_probed(
        &scenario.plant,
        &scenario.requests,
        &mut restartable_owan(config.anneal_iterations, scenario.seed),
        &chaos_config,
        &events,
        &op_faults,
        probes,
        Some(&mut |a| audit.check(a)),
    );
    let result = result.map_err(|e| audit.failure(e))?;
    Ok(ChaosReplayStats {
        slots: result.slots,
        plans_checked: audit.plans_checked,
        updates_checked: audit.updates_checked,
        completed: result
            .completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count(),
        faults_detected: result.stats.faults_detected,
        crashes: result.stats.crashes,
    })
}

/// Aggregate coverage of a clean chaos fuzz sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosFuzzStats {
    /// Scenarios replayed.
    pub scenarios: usize,
    /// Total slots planned across all replays.
    pub slots: usize,
    /// Total plans checked.
    pub plans_checked: usize,
    /// Total update schedules checked.
    pub updates_checked: usize,
    /// Total crash restarts exercised.
    pub crashes: u64,
}

/// Sweeps `count` seeds starting at `start` through chaos replay,
/// counting every invariant check on `recorder`. On a violation, returns
/// the failing seed with the failure.
pub fn fuzz_chaos(
    start: u64,
    count: u64,
    config: &ChaosReplayConfig,
    recorder: &Recorder,
) -> Result<ChaosFuzzStats, (u64, ReplayFailure)> {
    let probes = Probes {
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut stats = ChaosFuzzStats::default();
    for seed in start..start + count {
        let scenario = Scenario::generate(seed);
        let s = replay_chaos_scenario(&scenario, config, &probes).map_err(|f| (seed, f))?;
        stats.scenarios += 1;
        stats.slots += s.slots;
        stats.plans_checked += s.plans_checked;
        stats.updates_checked += s.updates_checked;
        stats.crashes += s.crashes;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let stats = replay_chaos_scenario(&s, &ChaosReplayConfig::default(), &Probes::default())
            .unwrap_or_else(|f| panic!("seed 3 violated: {f}"));
        assert!(stats.plans_checked > 0);
        assert_eq!(stats.plans_checked, stats.slots);
    }
}
