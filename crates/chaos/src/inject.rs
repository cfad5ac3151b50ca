//! Seeded, deterministic fault injection.
//!
//! Two injectors live here: [`OpFaultModel`] decides per update-operation
//! attempt whether the op times out or fails outright, using a counter
//! hash rather than a stateful RNG so the decision for `(slot, op,
//! attempt)` never depends on how many other ops were probed; and
//! [`seeded_scenario`] builds a full chaos timeline (cut + degradation +
//! crash + repair) from a seed, which the oracle fuzzer and the CLI both
//! replay.

use crate::fault::{FaultEvent, FaultKind};
use owan_optical::FiberPlant;
use owan_update::OpFault;

/// SplitMix64 finalizer — the same mixing used throughout the workspace
/// for deterministic per-index seeds.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Probabilistic update-op fault model, seeded and stateless: the fault
/// for a given `(slot, op index, attempt)` is a pure function of the
/// seed, so two runs of the same scenario inject identical faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpFaultModel {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Probability an attempt times out (costs the full timeout before
    /// the retry).
    pub timeout_prob: f64,
    /// Probability an attempt fails fast (costs only the op duration).
    pub fail_prob: f64,
}

impl OpFaultModel {
    /// A model that never injects anything.
    pub fn none() -> Self {
        OpFaultModel {
            seed: 0,
            timeout_prob: 0.0,
            fail_prob: 0.0,
        }
    }

    /// True when this model can never produce a fault.
    pub fn is_none(&self) -> bool {
        self.timeout_prob <= 0.0 && self.fail_prob <= 0.0
    }

    /// The fault injected into attempt `attempt` (1-based) of op
    /// `op_index` in slot `slot`.
    pub fn fault(&self, slot: usize, op_index: usize, attempt: u32) -> OpFault {
        if self.is_none() {
            return OpFault::None;
        }
        let h = mix64(
            self.seed
                ^ mix64(slot as u64)
                ^ mix64((op_index as u64).rotate_left(17))
                ^ mix64((attempt as u64).rotate_left(41)),
        );
        let u = unit(h);
        if u < self.timeout_prob {
            OpFault::Timeout
        } else if u < self.timeout_prob + self.fail_prob {
            OpFault::Fail
        } else {
            OpFault::None
        }
    }
}

/// Builds a deterministic mixed scenario from `seed`: one fiber cut
/// (repaired later), one amplifier degradation (also repaired), one
/// controller crash, and — on plants with redundant ports — one site
/// blink. Event times are spread over `[0.15, 0.75] · horizon_s`, so a
/// run that would finish without faults keeps planning through the whole
/// schedule.
pub fn seeded_scenario(plant: &FiberPlant, seed: u64, horizon_s: f64) -> Vec<FaultEvent> {
    assert!(horizon_s > 0.0);
    let nf = plant.fiber_count();
    let mut events = Vec::new();
    if nf == 0 {
        return events;
    }
    let pick = |salt: u64, n: usize| (mix64(seed ^ mix64(salt)) % n as u64) as usize;

    let cut = pick(1, nf);
    events.push(FaultEvent::at(0.15 * horizon_s, FaultKind::FiberCut(cut)));
    events.push(FaultEvent::at(
        0.60 * horizon_s,
        FaultKind::FiberRepaired(cut),
    ));

    let degraded = (cut + 1 + pick(2, nf.saturating_sub(1).max(1))) % nf;
    let phi = plant.params().wavelengths_per_fiber;
    let usable = (phi / 2).max(1);
    events.push(FaultEvent::at(
        0.25 * horizon_s,
        FaultKind::AmpDegraded {
            fiber: degraded,
            usable,
        },
    ));
    events.push(FaultEvent::at(
        0.70 * horizon_s,
        FaultKind::AmpRepaired(degraded),
    ));

    events.push(FaultEvent::at(0.40 * horizon_s, FaultKind::ControllerCrash));

    // Only blink a site when every other site keeps at least one router
    // port — otherwise the scenario can strand transfers by construction.
    let routers = plant.router_sites();
    if routers.len() > 3 {
        let s = routers[pick(3, routers.len())];
        events.push(FaultEvent::at(0.35 * horizon_s, FaultKind::SiteDown(s)));
        events.push(FaultEvent::at(0.55 * horizon_s, FaultKind::SiteUp(s)));
    }

    events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    #[test]
    fn op_fault_model_is_deterministic() {
        let m = OpFaultModel {
            seed: 42,
            timeout_prob: 0.3,
            fail_prob: 0.2,
        };
        for slot in 0..4 {
            for op in 0..16 {
                for attempt in 1..4 {
                    assert_eq!(m.fault(slot, op, attempt), m.fault(slot, op, attempt));
                }
            }
        }
    }

    #[test]
    fn op_fault_rates_track_probabilities() {
        let m = OpFaultModel {
            seed: 7,
            timeout_prob: 0.25,
            fail_prob: 0.25,
        };
        let mut timeouts = 0;
        let mut fails = 0;
        let n = 4000;
        for i in 0..n {
            match m.fault(i, 0, 1) {
                OpFault::Timeout => timeouts += 1,
                OpFault::Fail => fails += 1,
                OpFault::None => {}
            }
        }
        let ft = timeouts as f64 / n as f64;
        let ff = fails as f64 / n as f64;
        assert!((ft - 0.25).abs() < 0.05, "timeout rate {ft}");
        assert!((ff - 0.25).abs() < 0.05, "fail rate {ff}");
    }

    #[test]
    fn none_model_never_faults() {
        let m = OpFaultModel::none();
        assert!(m.is_none());
        for i in 0..100 {
            assert_eq!(m.fault(i, i, 1), OpFault::None);
        }
    }

    #[test]
    fn seeded_scenario_is_deterministic_and_sorted() {
        let mut p = FiberPlant::new(OpticalParams::default());
        for i in 0..5 {
            p.add_site(&format!("S{i}"), 2, 1);
        }
        for i in 0..5 {
            p.add_fiber(i, (i + 1) % 5, 150.0);
        }
        let a = seeded_scenario(&p, 99, 3000.0);
        let b = seeded_scenario(&p, 99, 3000.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ControllerCrash)));
        assert!(a.iter().any(|e| matches!(e.kind, FaultKind::FiberCut(_))));
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, FaultKind::FiberRepaired(_))));
    }
}
