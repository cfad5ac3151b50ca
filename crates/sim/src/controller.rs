//! The full controller loop of §3.1, including the network-update step.
//!
//! [`sim::simulate`](crate::sim::simulate) evaluates scheduling quality
//! under the paper's assumption that reconfiguration is much faster than a
//! slot ("a few minutes vs. hundreds or thousands of milliseconds").
//! [`Controller`] drops that idealization: between consecutive slots it
//! derives the [`NetworkDelta`](owan_update::NetworkDelta), schedules it
//! with the consistent (or one-shot) planner, and charges the transition
//! against the new slot — traffic ramps to the new allocation only as the
//! update timeline actually carries it, so heavy optical churn costs real
//! delivered bytes.
//!
//! This is the component a deployment would run: submit requests, tick the
//! clock, read back rate allocations and the device operation schedule.

use crate::sim::{CompletionRecord, PlanError};
use crate::telemetry::{at_risk_count, SimTelemetry, SlotTelemetry};
use owan_core::{SlotInput, SlotPlan, TrafficEngineer, Transfer, TransferRequest};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_update::{
    plan_consistent_observed, plan_one_shot_observed, transition_scale, NetworkDelta, UpdateParams,
    UpdateTelemetry,
};

const EPS: f64 = 1e-9;

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
    /// Per-slot controller telemetry, present when the run was made with
    /// a recording recorder (see [`run_controller_observed`]).
    pub telemetry: Option<Vec<SlotTelemetry>>,
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
pub fn run_controller(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &ControllerConfig,
) -> ControllerResult {
    run_controller_observed(plant, requests, engine, config, &Recorder::disabled())
}

/// [`run_controller`] with telemetry. Unlike [`crate::sim::simulate_observed`],
/// the update planner here is on the real execution path (its schedule
/// determines delivered volume), so the `stage.update` span times work
/// the controller was doing anyway. Delivered results are identical to
/// the unobserved run.
pub fn run_controller_observed(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &ControllerConfig,
    recorder: &Recorder,
) -> ControllerResult {
    let theta = plant.params().wavelength_capacity_gbps;
    engine.set_recorder(recorder.clone());
    let telemetry = recorder.is_enabled().then(|| SimTelemetry::new(recorder));
    let update_telemetry = telemetry
        .as_ref()
        .map_or_else(UpdateTelemetry::disabled, |t| t.update.clone());
    let mut slot_rows: Vec<SlotTelemetry> = Vec::new();
    let params = UpdateParams {
        theta_gbps: theta,
        circuit_time_s: plant.params().circuit_reconfig_time_s,
        path_time_s: config.path_time_s,
    };

    let mut transfers: Vec<Transfer> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| Transfer::from_request(id, r))
        .collect();
    let mut records: Vec<CompletionRecord> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| CompletionRecord {
            id,
            volume_gbits: r.volume_gbits,
            arrival_s: r.arrival_s,
            deadline_s: r.deadline_s,
            completion_s: None,
            gbits_by_deadline: 0.0,
        })
        .collect();

    let mut prev_plan: Option<SlotPlan> = None;
    let mut delivered_series = Vec::new();
    let mut makespan_s: f64 = 0.0;
    let mut update_ops = 0usize;
    let mut transition_loss_gbits = 0.0;
    let mut plan_error: Option<(usize, PlanError)> = None;

    for slot in 0..config.max_slots {
        let now = slot as f64 * config.slot_len_s;
        let active: Vec<Transfer> = transfers
            .iter()
            .filter(|t| t.arrival_s <= now + EPS && !t.is_complete())
            .cloned()
            .collect();
        let pending = transfers
            .iter()
            .any(|t| t.arrival_s > now + EPS && !t.is_complete());
        if active.is_empty() && !pending {
            break;
        }

        let slot_span = telemetry
            .as_ref()
            .map(|t| (t.slot_stage.enter(), t.stage_marks()));
        let plan_start_ns = recorder.now_ns();
        let plan = engine.plan_slot(
            plant,
            &SlotInput {
                transfers: &active,
                slot_len_s: config.slot_len_s,
                now_s: now,
            },
        );
        let plan_ns = recorder.now_ns().saturating_sub(plan_start_ns);
        if let Err(e) = crate::sim::plan_is_feasible(&plan, theta) {
            plan_error = Some((slot, e));
            break;
        }

        // Schedule the transition from the previous state.
        let mut slot_update_ops = 0usize;
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
                    UpdateDiscipline::Consistent => {
                        plan_consistent_observed(&delta, &params, &update_telemetry)
                    }
                    UpdateDiscipline::OneShot => {
                        plan_one_shot_observed(&delta, &params, &update_telemetry)
                    }
                };
                slot_update_ops = update.ops.len();
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

        // Deliver.
        let mut slot_delivered = 0.0;
        let mut got_rate = vec![false; transfers.len()];
        for alloc in &plan.allocations {
            let rate_alloc = alloc.total_rate();
            let rate = rate_alloc * scale;
            if rate <= EPS {
                continue;
            }
            got_rate[alloc.transfer] = true;
            let t = &mut transfers[alloc.transfer];
            let rec = &mut records[alloc.transfer];
            if let Some(d) = t.deadline_s {
                if d > now {
                    let usable = (d - now).min(config.slot_len_s);
                    let by_deadline = (rate * usable).min(t.remaining_gbits);
                    rec.gbits_by_deadline =
                        (rec.gbits_by_deadline + by_deadline).min(t.volume_gbits);
                }
            }
            // Completion keys off the *allocated* rate (as in
            // `sim::simulate`): a transfer whose allocation covers its
            // remaining volume finishes this slot, merely later when the
            // transition ate into the slot — otherwise the scaled delivery
            // would produce an unphysical geometric tail.
            if rate_alloc * config.slot_len_s + EPS >= t.remaining_gbits {
                let finish = now + t.remaining_gbits / rate;
                slot_delivered += t.remaining_gbits;
                t.remaining_gbits = 0.0;
                rec.completion_s = Some(finish);
                makespan_s = makespan_s.max(finish);
            } else {
                let vol = rate * config.slot_len_s;
                t.remaining_gbits -= vol;
                slot_delivered += vol;
            }
        }
        delivered_series.push((now, slot_delivered));

        if let (Some(t), Some((span, marks))) = (&telemetry, slot_span) {
            span.finish();
            let (anneal_ns, circuits_ns, rates_ns, update_ns) = t.stage_marks().since(&marks);
            let row = SlotTelemetry {
                slot,
                start_s: now,
                active_transfers: active.len(),
                queue_depth: active.iter().filter(|a| !got_rate[a.id]).count(),
                at_risk: at_risk_count(&active, &plan, now),
                plan_ns,
                anneal_ns,
                circuits_ns,
                rates_ns,
                update_ns,
                update_ops: slot_update_ops,
                throughput_gbps: plan.throughput_gbps,
            };
            t.publish_slot(&row);
            slot_rows.push(row);
        }
        prev_plan = Some(plan);
    }

    if !records.iter().all(|r| r.completion_s.is_some()) {
        makespan_s = makespan_s.max(delivered_series.len() as f64 * config.slot_len_s);
    }

    ControllerResult {
        completions: records,
        delivered_series,
        makespan_s,
        update_ops,
        transition_loss_gbits,
        telemetry: telemetry.map(|_| slot_rows),
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
