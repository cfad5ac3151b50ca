//! The full controller loop of §3.1, including the network-update step.
//!
//! [`sim::simulate`](crate::sim::simulate) evaluates scheduling quality
//! under the paper's assumption that reconfiguration is much faster than a
//! slot ("a few minutes vs. hundreds or thousands of milliseconds").
//! [`run_controller`] drops that idealization: between consecutive slots it
//! derives the [`NetworkDelta`], schedules it
//! with the consistent (or one-shot) planner, and charges the transition
//! against the new slot — traffic ramps to the new allocation only as the
//! update timeline actually carries it, so heavy optical churn costs real
//! delivered bytes.
//!
//! This is the component a deployment would run: submit requests, tick the
//! clock, read back rate allocations and the device operation schedule.

use crate::ledger::{CompletionRecord, SlotLedger};
use crate::sim::PlanError;
use owan_core::{SlotInput, SlotPlan, TrafficEngineer, TransferRequest};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_update::{plan_consistent, plan_one_shot, transition_scale, NetworkDelta, UpdateParams};

/// Update scheduling discipline used between slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateDiscipline {
    /// Dionysus-style consistent updates (the paper's §3.3).
    Consistent,
    /// Everything fired at once (the §5.4 comparison).
    OneShot,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Slot length, seconds.
    pub slot_len_s: f64,
    /// Hard cap on slots.
    pub max_slots: usize,
    /// Update discipline between slots.
    pub discipline: UpdateDiscipline,
    /// Router rule install/remove time, seconds.
    pub path_time_s: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            slot_len_s: 300.0,
            max_slots: 2_000,
            discipline: UpdateDiscipline::Consistent,
            path_time_s: 0.1,
        }
    }
}

/// Outcome of a controller run.
#[derive(Debug, Clone)]
pub struct ControllerResult {
    /// Per-transfer outcomes (same shape as the plain simulator's).
    pub completions: Vec<CompletionRecord>,
    /// Per-slot `(slot start, delivered volume in Gb)` — *delivered*, i.e.
    /// after update-transition losses, unlike the plain simulator's
    /// allocated-throughput series.
    pub delivered_series: Vec<(f64, f64)>,
    /// Makespan (absolute completion of the last transfer).
    pub makespan_s: f64,
    /// Total update operations executed across the run.
    pub update_ops: usize,
    /// Gb lost to update transitions relative to the allocated rates
    /// (what the idealized simulator would have delivered on the same
    /// plans during the transition windows).
    pub transition_loss_gbits: f64,
    /// Set when the engine emitted an infeasible plan: the slot it happened
    /// in and the violated feasibility condition. The run stops at that
    /// slot; transfers still pending are reported unfinished.
    pub plan_error: Option<(usize, PlanError)>,
}

impl ControllerResult {
    /// True if every transfer completed.
    pub fn all_completed(&self) -> bool {
        self.completions.iter().all(|c| c.completion_s.is_some())
    }
}

/// Runs the controller loop: admit → plan → schedule update → deliver.
/// The engine runs with a disabled recorder.
pub fn run_controller(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &ControllerConfig,
) -> ControllerResult {
    let theta = plant.params().wavelength_capacity_gbps;
    engine.set_recorder(Recorder::disabled());
    let params = UpdateParams {
        theta_gbps: theta,
        circuit_time_s: plant.params().circuit_reconfig_time_s,
        path_time_s: config.path_time_s,
    };

    let mut ledger = SlotLedger::new(requests);
    let mut prev_plan: Option<SlotPlan> = None;
    let mut delivered_series = Vec::new();
    let mut update_ops = 0usize;
    let mut transition_loss_gbits = 0.0;
    let mut plan_error: Option<(usize, PlanError)> = None;

    for slot in 0..config.max_slots {
        let now = slot as f64 * config.slot_len_s;
        let (active, pending) = ledger.admit(now);
        if active.is_empty() && !pending {
            break;
        }

        let plan = engine.plan_slot(
            plant,
            &SlotInput {
                transfers: &active,
                slot_len_s: config.slot_len_s,
                now_s: now,
            },
        );
        if let Err(e) = crate::sim::plan_is_feasible(&plan, theta) {
            plan_error = Some((slot, e));
            break;
        }

        // Schedule the transition from the previous state.
        let (scale, loss) = match &prev_plan {
            Some(prev) => {
                let delta = NetworkDelta::from_plans(
                    &prev.topology,
                    &prev.allocations,
                    &plan.topology,
                    &plan.allocations,
                    plant.params().wavelengths_per_fiber,
                );
                let update = match config.discipline {
                    UpdateDiscipline::Consistent => plan_consistent(&delta, &params),
                    UpdateDiscipline::OneShot => plan_one_shot(&delta, &params),
                };
                update_ops += update.ops.len();
                transition_scale(
                    &delta,
                    &update,
                    &params,
                    config.slot_len_s,
                    plan.throughput_gbps,
                )
            }
            None => (1.0, 0.0),
        };
        transition_loss_gbits += loss;

        // Deliver. The controller counts no starvation and has no
        // completion floor (ROADMAP, re-baselining item).
        let mut slot_delivered = 0.0;
        for alloc in &plan.allocations {
            let delivery = ledger.deliver(
                alloc.transfer,
                alloc.total_rate(),
                scale,
                now,
                config.slot_len_s,
            );
            if let Some(d) = delivery {
                slot_delivered += d.booked_gbits;
            }
        }
        delivered_series.push((now, slot_delivered));
        prev_plan = Some(plan);
    }

    let (completions, makespan_s) =
        ledger.finish(delivered_series.len() as f64 * config.slot_len_s);
    ControllerResult {
        completions,
        delivered_series,
        makespan_s,
        update_ops,
        transition_loss_gbits,
        plan_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_core::{default_topology, OwanConfig, OwanEngine};
    use owan_optical::OpticalParams;

    fn plant() -> FiberPlant {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 8,
            circuit_reconfig_time_s: 4.0,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 2, 1);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 300.0);
        }
        p
    }

    fn requests() -> Vec<TransferRequest> {
        vec![
            TransferRequest {
                src: 0,
                dst: 1,
                volume_gbits: 2_000.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferRequest {
                src: 2,
                dst: 3,
                volume_gbits: 1_500.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferRequest {
                src: 1,
                dst: 3,
                volume_gbits: 700.0,
                arrival_s: 300.0,
                deadline_s: None,
            },
        ]
    }

    fn run(discipline: UpdateDiscipline) -> ControllerResult {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let cfg = ControllerConfig {
            slot_len_s: 100.0,
            discipline,
            ..Default::default()
        };
        run_controller(&p, &requests(), &mut e, &cfg)
    }

    #[test]
    fn controller_drains_workload() {
        let res = run(UpdateDiscipline::Consistent);
        assert!(res.all_completed(), "{res:?}");
        assert!(res.makespan_s > 0.0);
        let delivered: f64 = res.delivered_series.iter().map(|(_, v)| v).sum();
        let requested: f64 = requests().iter().map(|r| r.volume_gbits).sum();
        assert!(
            (delivered - requested).abs() < 1e-3,
            "{delivered} vs {requested}"
        );
    }

    #[test]
    fn updates_are_scheduled_between_slots() {
        let res = run(UpdateDiscipline::Consistent);
        // Rates change between slots (transfers shrink), so path ops exist.
        assert!(res.update_ops > 0);
    }

    #[test]
    fn one_shot_loses_comparably_or_more_than_consistent() {
        // Loss is measured against the ideal volume of each plan's *own*
        // transition window; the consistent plan's window is longer (it
        // serializes operations), so its ramp-up counts against it even
        // though no packet is dropped. The two metrics are therefore only
        // comparable up to that window difference — one-shot must not
        // lose meaningfully *less*.
        let consistent = run(UpdateDiscipline::Consistent);
        let one_shot = run(UpdateDiscipline::OneShot);
        assert!(
            one_shot.transition_loss_gbits >= consistent.transition_loss_gbits * 0.8 - 1e-6,
            "one-shot loss {} far below consistent {}",
            one_shot.transition_loss_gbits,
            consistent.transition_loss_gbits
        );
        // And the workload still drains under both disciplines.
        assert!(consistent.all_completed());
        assert!(one_shot.all_completed());
    }

    #[test]
    fn transition_losses_slow_completion_not_break_it() {
        let res = run(UpdateDiscipline::OneShot);
        for c in &res.completions {
            assert!(c.completion_s.is_some());
            assert!(c.completion_s.unwrap() >= c.arrival_s);
        }
    }
}
