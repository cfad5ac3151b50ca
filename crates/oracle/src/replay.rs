//! Differential replay: drive the production control loop over fuzzed
//! scenarios and check every invariant at every slot.
//!
//! [`replay`] runs one [`Scenario`] through `owan_chaos::run_chaos` — the
//! workspace's one failure loop — under one of three [`ReplayKind`]s:
//!
//! - [`ReplayKind::Plain`]: the plain §3.4 controller. Each failure
//!   strikes for good and is detected at once, no update op fails, and
//!   the engine's own plan must be feasible on the true plant (a slot the
//!   loop had to fall back on is a `PlanError`).
//! - [`ReplayKind::Chaos`]: the hardened path. The failures heal, a
//!   controller crash lands mid-run ([`chaos_events_for`]), faults are
//!   detected [`DETECTION_DELAY_S`] late and update ops time out or fail
//!   at the kind's rates.
//! - [`ReplayKind::Attack`]: the chaos timeline at the default op-fault
//!   rates plus adversarial demand waves ([`attack_timeline_for`]),
//!   composed through `owan_chaos::run_attack`.
//!
//! Every planned slot is audited by an [`InvariantAudit`]:
//! [`check_plan`](crate::check_plan) on the slot plan and
//! [`check_timeline`](crate::check_timeline) on the executed update into
//! it. [`fuzz`] sweeps seed ranges; a plain-kind divergence is shrunk by
//! [`minimize`] to a [`Reproducer`] — a seed plus the surviving
//! request/failure indices, which regenerate the minimal case exactly
//! (generation is deterministic). Chaos and attack scenarios regenerate
//! from the seed alone.

use crate::attack::attack_timeline_for;
use crate::audit::InvariantAudit;
use crate::chaos::chaos_events_for;
use crate::fuzz::Scenario;
use owan_chaos::{
    restartable_owan, run_attack, run_chaos_probed, ChaosConfig, OpFaultModel, SlotAudit,
};
use owan_obs::Recorder;
use owan_sim::Probes;

/// Detection delay of the chaos and attack kinds, seconds.
pub const DETECTION_DELAY_S: f64 = 45.0;

/// Which timeline a replay drives through the failure loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayKind {
    /// One-way failures detected at once, no op faults, and a fallback
    /// slot counts as a violation.
    Plain,
    /// Healing failures plus a crash, detected [`DETECTION_DELAY_S`]
    /// late, with update ops failing at these per-attempt rates.
    Chaos {
        /// Probability an update op attempt times out.
        timeout_prob: f64,
        /// Probability an update op attempt fails fast.
        fail_prob: f64,
    },
    /// The [`ReplayKind::CHAOS`] timeline with attack waves composed in.
    Attack,
}

impl ReplayKind {
    /// The chaos kind at its default op-fault rates, which the attack
    /// kind runs under too.
    pub const CHAOS: ReplayKind = ReplayKind::Chaos {
        timeout_prob: 0.1,
        fail_prob: 0.05,
    };

    fn op_faults(self, seed: u64) -> OpFaultModel {
        match self {
            ReplayKind::Plain => OpFaultModel::none(),
            ReplayKind::Chaos {
                timeout_prob,
                fail_prob,
            } => OpFaultModel {
                seed,
                timeout_prob,
                fail_prob,
            },
            ReplayKind::Attack => ReplayKind::CHAOS.op_faults(seed),
        }
    }
}

/// An invariant violation observed during replay.
#[derive(Debug, Clone)]
pub struct ReplayFailure {
    /// Slot the violation surfaced in.
    pub slot: usize,
    /// The violated invariant, rendered (`"slot plan: LinkCapacity: ..."`).
    pub message: String,
}

impl std::fmt::Display for ReplayFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot {}: {}", self.slot, self.message)
    }
}

/// What a clean replay covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Slots the controller planned in (the attacked run's, for the
    /// attack kind).
    pub slots: usize,
    /// Plans checked with [`check_plan`](crate::check_plan).
    pub plans_checked: usize,
    /// Executed updates checked with [`check_timeline`](crate::check_timeline).
    pub updates_checked: usize,
    /// Executed updates it exempts (see [`timeline_exempt`](crate::timeline_exempt)).
    pub updates_exempt: usize,
    /// Transfers that completed within the horizon.
    pub completed: usize,
    /// Fault events whose detection delay elapsed during the run.
    pub faults_detected: u64,
    /// Controller crash restarts exercised.
    pub crashes: u64,
    /// Attack waves composed into the scenario.
    pub waves: usize,
    /// True when background delivery recovered to 90 % of the
    /// attack-free run and held to the end of the horizon.
    pub recovered: bool,
}

/// Replays one scenario under `kind`, annealing `iterations` per slot
/// (the oracle checks hold for any count), checking every invariant at
/// every planned slot. The checks count on the probes' recorder, the
/// loop's timeline flows into the probes' scope, and a violation freezes
/// a flight dump of the slots leading up to it (see [`InvariantAudit`]).
pub fn replay(
    scenario: &Scenario,
    kind: ReplayKind,
    iterations: usize,
    probes: &Probes,
) -> Result<ReplayStats, ReplayFailure> {
    let (events, detection_delay_s) = match kind {
        ReplayKind::Plain => (scenario.failures.clone(), 0.0),
        _ => (chaos_events_for(scenario), DETECTION_DELAY_S),
    };
    let config = ChaosConfig {
        slot_len_s: scenario.slot_len_s,
        max_slots: scenario.max_slots,
        detection_delay_s,
        ..Default::default()
    };
    let op_faults = kind.op_faults(scenario.seed);
    let mut engine = restartable_owan(iterations, scenario.seed);
    let mut audit = InvariantAudit::new(probes);
    let mut hook = |a: &SlotAudit| match kind {
        ReplayKind::Plain => audit.check_engine_plan(a),
        _ => audit.check(a),
    };
    let mut stats = ReplayStats::default();
    let result = match kind {
        ReplayKind::Attack => {
            let timeline = attack_timeline_for(scenario);
            run_attack(
                &scenario.plant,
                &scenario.requests,
                &timeline,
                &mut engine,
                &config,
                0.9,
                &events,
                &op_faults,
                probes,
                Some(&mut hook),
            )
            .map(|outcome| {
                stats.waves = timeline.waves().len();
                stats.recovered = outcome.metrics.time_to_restore_slots.is_some();
                outcome.attacked
            })
        }
        _ => run_chaos_probed(
            &scenario.plant,
            &scenario.requests,
            &mut engine,
            &config,
            &events,
            &op_faults,
            probes,
            Some(&mut hook),
        ),
    };
    let result = result.map_err(|e| audit.failure(e))?;
    Ok(ReplayStats {
        slots: result.slots,
        plans_checked: audit.plans_checked,
        updates_checked: audit.updates_checked,
        updates_exempt: audit.updates_exempt,
        completed: result
            .completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count(),
        faults_detected: result.stats.faults_detected,
        crashes: result.stats.crashes,
        ..stats
    })
}

/// A minimized failing case: the seed plus the request/failure indices
/// that survived shrinking. `Scenario::generate(seed).subset(..)`
/// reconstructs it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Generating seed.
    pub seed: u64,
    /// Surviving request indices (into the generated request vector).
    pub request_idx: Vec<usize>,
    /// Surviving failure indices (into the generated failure vector).
    pub failure_idx: Vec<usize>,
    /// The violation the minimal case still triggers.
    pub message: String,
}

impl Reproducer {
    /// Rebuilds the minimal scenario this reproducer describes.
    pub fn scenario(&self) -> Scenario {
        Scenario::generate(self.seed).subset(&self.request_idx, &self.failure_idx)
    }

    /// Plain-text serialization (one `key: value` per line).
    pub fn to_text(&self) -> String {
        let join = |v: &[usize]| {
            v.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "owan-oracle reproducer v1\nseed: {}\nrequests: {}\nfailures: {}\nviolation: {}\n",
            self.seed,
            join(&self.request_idx),
            join(&self.failure_idx),
            self.message
        )
    }

    /// Parses [`Reproducer::to_text`] output.
    pub fn from_text(text: &str) -> Result<Reproducer, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("owan-oracle reproducer v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut seed = None;
        let mut request_idx = Vec::new();
        let mut failure_idx = Vec::new();
        let mut message = String::new();
        for line in lines {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match key {
                "seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?),
                "requests" => {
                    request_idx = parse_indices(value)?;
                }
                "failures" => {
                    failure_idx = parse_indices(value)?;
                }
                "violation" => {
                    message = value.to_string();
                }
                _ => {}
            }
        }
        Ok(Reproducer {
            seed: seed.ok_or("missing seed")?,
            request_idx,
            failure_idx,
            message,
        })
    }
}

fn parse_indices(value: &str) -> Result<Vec<usize>, String> {
    value
        .split_whitespace()
        .map(|s| {
            s.parse::<usize>()
                .map_err(|e| format!("bad index {s}: {e}"))
        })
        .collect()
}

/// Greedy delta-debugging: drop one request (then one failure) at a time,
/// keeping any removal that still reproduces *a* violation. The result is
/// 1-minimal — removing any single surviving element makes the failure
/// disappear.
pub fn minimize(scenario: &Scenario, iterations: usize) -> Reproducer {
    let mut request_idx: Vec<usize> = (0..scenario.requests.len()).collect();
    let mut failure_idx: Vec<usize> = (0..scenario.failures.len()).collect();
    let base = Scenario::generate(scenario.seed);

    let still_fails = |req: &[usize], fail: &[usize]| -> Option<String> {
        replay(
            &base.subset(req, fail),
            ReplayKind::Plain,
            iterations,
            &Probes::default(),
        )
        .err()
        .map(|f| f.message)
    };
    let mut message = match still_fails(&request_idx, &failure_idx) {
        Some(m) => m,
        // The caller observed a failure the base scenario does not
        // reproduce (e.g. it replayed under different options); return
        // the unshrunk index set.
        None => {
            return Reproducer {
                seed: scenario.seed,
                request_idx,
                failure_idx,
                message: String::from("not reproducible under minimizer options"),
            }
        }
    };

    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let mut i = 0;
        while i < request_idx.len() {
            let mut candidate = request_idx.clone();
            candidate.remove(i);
            if let Some(m) = still_fails(&candidate, &failure_idx) {
                request_idx = candidate;
                message = m;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        let mut j = 0;
        while j < failure_idx.len() {
            let mut candidate = failure_idx.clone();
            candidate.remove(j);
            if let Some(m) = still_fails(&request_idx, &candidate) {
                failure_idx = candidate;
                message = m;
                shrunk = true;
            } else {
                j += 1;
            }
        }
    }

    Reproducer {
        seed: scenario.seed,
        request_idx,
        failure_idx,
        message,
    }
}

/// What a fuzz sweep covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzStats {
    /// Scenarios replayed cleanly.
    pub scenarios: u64,
    /// Total slots planned.
    pub slots: usize,
    /// Total plans checked.
    pub plans_checked: usize,
    /// Total update schedules checked.
    pub updates_checked: usize,
    /// Total update schedules exempt from the check.
    pub updates_exempt: usize,
    /// Total crash restarts exercised.
    pub crashes: u64,
    /// Total attack waves composed.
    pub waves: usize,
    /// Scenarios whose background delivery recovered.
    pub recovered: usize,
}

/// Replays `count` consecutive seeds starting at `start` under `kind`,
/// counting every invariant check on `recorder`. Returns the summed
/// coverage, or the first failing seed with its failure; for the plain
/// kind, [`minimize`] shrinks that seed's scenario to a [`Reproducer`].
pub fn fuzz(
    start: u64,
    count: u64,
    kind: ReplayKind,
    iterations: usize,
    recorder: &Recorder,
) -> Result<FuzzStats, (u64, ReplayFailure)> {
    let probes = Probes {
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut stats = FuzzStats::default();
    for seed in start..start + count {
        let s =
            replay(&Scenario::generate(seed), kind, iterations, &probes).map_err(|f| (seed, f))?;
        stats.scenarios += 1;
        stats.slots += s.slots;
        stats.plans_checked += s.plans_checked;
        stats.updates_checked += s.updates_checked;
        stats.updates_exempt += s.updates_exempt;
        stats.crashes += s.crashes;
        stats.waves += s.waves;
        stats.recovered += s.recovered as usize;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seed_replays_ok() {
        let scenario = Scenario::generate(0);
        let stats = replay(&scenario, ReplayKind::Plain, 40, &Probes::default())
            .unwrap_or_else(|f| panic!("seed 0 diverged: {f}"));
        assert!(stats.plans_checked > 0);
    }

    #[test]
    fn reproducer_text_round_trips() {
        let r = Reproducer {
            seed: 42,
            request_idx: vec![0, 3, 7],
            failure_idx: vec![1],
            message: String::from("LinkCapacity: link (0, 1) over capacity"),
        };
        let parsed = Reproducer::from_text(&r.to_text()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn reproducer_rejects_garbage() {
        assert!(Reproducer::from_text("not a reproducer").is_err());
        assert!(Reproducer::from_text("owan-oracle reproducer v1\nseed: banana\n").is_err());
    }

    #[test]
    fn minimize_on_passing_scenario_is_graceful() {
        let scenario = Scenario::generate(0);
        let r = minimize(&scenario, 40);
        assert_eq!(r.seed, 0);
        assert!(r.message.contains("not reproducible"));
    }
}
