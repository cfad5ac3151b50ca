//! Differential replay: drive the production control loop over fuzzed
//! scenarios and check every invariant at every slot.
//!
//! [`replay_scenario`] runs one [`Scenario`] through
//! `owan_chaos::run_chaos` — the workspace's one failure loop — with zero
//! detection delay and no injected op faults: the plain §3.4 controller,
//! removing each failed fiber or site from its plant view as it strikes
//! and recomputing. Every planned slot is audited by an
//! [`InvariantAudit`]: the engine's own plan must be feasible on the true
//! plant (a slot the loop had to fall back on is a `PlanError`),
//! [`check_plan`](crate::check_plan) holds on it, and
//! [`check_timeline`](crate::check_timeline) on the executed update into
//! it. [`fuzz`] sweeps seed ranges; on divergence the failing scenario is
//! shrunk by [`minimize`] to a [`Reproducer`] — a seed plus the surviving
//! request/failure indices, which regenerate the minimal case exactly
//! (generation is deterministic).

use crate::audit::InvariantAudit;
use crate::chaos::fault_and_repair;
use crate::fuzz::Scenario;
use owan_chaos::{restartable_owan, run_chaos_probed, ChaosConfig, FaultEvent, OpFaultModel};
use owan_obs::Recorder;
use owan_sim::Probes;

/// Replay tunables. The defaults keep debug-mode replay of one scenario
/// in the low tens of milliseconds so hundreds of seeds fit in a test.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Annealing iterations per slot (the production default is 400;
    /// replay shrinks it — the oracle checks hold for *any* iteration
    /// count).
    pub anneal_iterations: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            anneal_iterations: 40,
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
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Slots the controller planned in.
    pub slots: usize,
    /// Plans checked with [`check_plan`](crate::check_plan).
    pub plans_checked: usize,
    /// Executed updates checked with [`check_timeline`](crate::check_timeline).
    pub updates_checked: usize,
    /// Transfers that completed within the horizon.
    pub completed: usize,
}

/// Replays one scenario, checking every invariant at every planned slot.
/// The checks count on the probes' recorder, and a violation freezes the
/// probes' scope (see [`InvariantAudit`]).
pub fn replay_scenario(
    scenario: &Scenario,
    config: &ReplayConfig,
    probes: &Probes,
) -> Result<ReplayStats, ReplayFailure> {
    let events: Vec<FaultEvent> = scenario
        .failures
        .iter()
        .map(|f| FaultEvent::at(f.time_s, fault_and_repair(f.failure).0))
        .collect();
    let chaos_config = ChaosConfig {
        slot_len_s: scenario.slot_len_s,
        max_slots: scenario.max_slots,
        detection_delay_s: 0.0,
        ..Default::default()
    };
    let mut audit = InvariantAudit::new(probes);
    let result = run_chaos_probed(
        &scenario.plant,
        &scenario.requests,
        &mut restartable_owan(config.anneal_iterations, scenario.seed),
        &chaos_config,
        &events,
        &OpFaultModel::none(),
        probes,
        Some(&mut |a| audit.check_engine_plan(a)),
    );
    let result = result.map_err(|e| audit.failure(e))?;
    Ok(ReplayStats {
        slots: result.slots,
        plans_checked: audit.plans_checked,
        updates_checked: audit.updates_checked,
        completed: result
            .completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count(),
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
pub fn minimize(scenario: &Scenario, config: &ReplayConfig) -> Reproducer {
    let mut request_idx: Vec<usize> = (0..scenario.requests.len()).collect();
    let mut failure_idx: Vec<usize> = (0..scenario.failures.len()).collect();
    let base = Scenario::generate(scenario.seed);

    let still_fails = |req: &[usize], fail: &[usize]| -> Option<String> {
        replay_scenario(&base.subset(req, fail), config, &Probes::default())
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
    /// Seeds replayed cleanly.
    pub seeds: u64,
    /// Total slots executed.
    pub slots: usize,
    /// Total plans checked.
    pub plans_checked: usize,
    /// Total transitions checked.
    pub updates_checked: usize,
}

/// Replays `count` consecutive seeds starting at `start`, counting every
/// invariant check on `recorder`. Returns stats on success, or the first
/// failure minimized to a [`Reproducer`]. The minimizer runs unobserved —
/// its replays probe candidate subsets rather than verify, so counting
/// them would inflate the check totals.
pub fn fuzz(
    start: u64,
    count: u64,
    config: &ReplayConfig,
    recorder: &Recorder,
) -> Result<FuzzStats, Reproducer> {
    let probes = Probes {
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut stats = FuzzStats::default();
    for seed in start..start + count {
        let scenario = Scenario::generate(seed);
        match replay_scenario(&scenario, config, &probes) {
            Ok(s) => {
                stats.seeds += 1;
                stats.slots += s.slots;
                stats.plans_checked += s.plans_checked;
                stats.updates_checked += s.updates_checked;
            }
            Err(_) => return Err(minimize(&scenario, config)),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seed_replays_ok() {
        let scenario = Scenario::generate(0);
        let stats = replay_scenario(&scenario, &ReplayConfig::default(), &Probes::default())
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
        let r = minimize(&scenario, &ReplayConfig::default());
        assert_eq!(r.seed, 0);
        assert!(r.message.contains("not reproducible"));
    }
}
