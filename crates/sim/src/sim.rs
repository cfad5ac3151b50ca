//! The time-slotted fluid flow simulator.
//!
//! Time is divided into slots "much longer than the time to reconfigure the
//! network and adjust sending rates, i.e., a few minutes vs. hundreds or
//! thousands of milliseconds" (§3.1). Each slot the simulator:
//!
//! 1. admits transfers whose arrival time has passed,
//! 2. asks the engine for a [`SlotPlan`](owan_core::SlotPlan),
//! 3. verifies the plan is feasible (no link over capacity),
//! 4. advances every transfer fluidly by its allocated rate, recording
//!    mid-slot completion times and per-deadline byte counts,
//! 5. updates starvation counters (the §3.2 starvation guard's input).
//!
//! The paper validated exactly this style of flow-level simulator against
//! its hardware testbed within 10% (§5.1); [`crate::validate`] reproduces
//! that comparison with an impaired-rate mode.

use crate::telemetry::{at_risk_count, SimTelemetry, SlotTelemetry};
use owan_core::{Profiler, SlotInput, SlotPlan, TrafficEngineer, Transfer, TransferRequest};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_scope::{path_label, ScopeRecorder, SlotObservation, TransferSlotRow};
use owan_update::{plan_consistent_observed, NetworkDelta, UpdateParams};
use owan_why::{TransferSample, WhyRecorder, WhySlotObservation};
use serde::{Deserialize, Serialize};

const EPS: f64 = 1e-9;

/// Transfers whose remaining volume falls below this floor (1e-6 Gb = 125
/// bytes) are counted complete at the end of the slot. LP-based engines
/// leave numerical dust of this order; without the floor a sub-byte
/// residue can starve forever below the allocators' rate thresholds.
const COMPLETION_FLOOR_GBITS: f64 = 1e-6;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Slot length, seconds (paper: five minutes).
    pub slot_len_s: f64,
    /// Hard cap on simulated slots (guards against engines that cannot
    /// drain the workload).
    pub max_slots: usize,
    /// Rate efficiency in `(0, 1]`: fraction of each allocated rate that
    /// is actually delivered. `1.0` is the ideal fluid model; `~0.9`
    /// emulates the testbed's imperfect rate limiting and prefix-splitting
    /// (§5.1 performance validation).
    pub rate_efficiency: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            slot_len_s: 300.0,
            max_slots: 2_000,
            rate_efficiency: 1.0,
        }
    }
}

/// Per-transfer outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// Transfer id (index into the request list).
    pub id: usize,
    /// Total volume, gigabits.
    pub volume_gbits: f64,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Deadline, if any.
    pub deadline_s: Option<f64>,
    /// Completion time (absolute seconds), or `None` if unfinished when
    /// the simulation ended.
    pub completion_s: Option<f64>,
    /// Gigabits delivered before the deadline (equals `volume_gbits` when
    /// the transfer met its deadline; meaningful only if a deadline is set).
    pub gbits_by_deadline: f64,
}

impl CompletionRecord {
    /// Completion time relative to arrival, if finished.
    pub fn completion_time_s(&self) -> Option<f64> {
        self.completion_s.map(|c| c - self.arrival_s)
    }

    /// True if the transfer finished before its deadline.
    pub fn met_deadline(&self) -> bool {
        match (self.completion_s, self.deadline_s) {
            (Some(c), Some(d)) => c <= d + EPS,
            _ => false,
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Name of the engine that produced it.
    pub engine: String,
    /// Per-transfer outcomes, ordered by id.
    pub completions: Vec<CompletionRecord>,
    /// Absolute time the last transfer completed (the *makespan* measured
    /// in Figure 8), or the simulation end if some never finished.
    pub makespan_s: f64,
    /// Total allocated throughput per slot `(slot start, Gbps)` — the
    /// series plotted in Figure 10(a).
    pub throughput_series: Vec<(f64, f64)>,
    /// Slots simulated.
    pub slots: usize,
    /// Per-slot controller telemetry, present when the run was made with
    /// a recording [`Recorder`] (see [`simulate_probed`]).
    pub telemetry: Option<Vec<SlotTelemetry>>,
    /// Set when the engine emitted an infeasible plan: the slot it happened
    /// in and the violated feasibility condition. The run stops at that
    /// slot; transfers still pending are reported unfinished.
    pub plan_error: Option<(usize, PlanError)>,
}

impl SimResult {
    /// True if every transfer completed.
    pub fn all_completed(&self) -> bool {
        self.completions.iter().all(|c| c.completion_s.is_some())
    }
}

/// Why a [`SlotPlan`] failed the feasibility check — a bug in the engine
/// that emitted it, not an operational condition. Fuzz harnesses record it
/// in [`SimResult::plan_error`] instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// An allocation carried a negative rate.
    NegativeRate {
        /// Offending transfer id.
        transfer: usize,
        /// The negative rate, Gbps.
        rate_gbps: f64,
    },
    /// Allocated paths load a link beyond its circuit capacity.
    LinkOverCapacity {
        /// Link endpoints (u < v).
        u: usize,
        /// Link endpoints (u < v).
        v: usize,
        /// Total load crossing the link, Gbps.
        load_gbps: f64,
        /// Link capacity (multiplicity × θ), Gbps.
        capacity_gbps: f64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NegativeRate {
                transfer,
                rate_gbps,
            } => {
                write!(f, "negative rate {rate_gbps} for transfer {transfer}")
            }
            PlanError::LinkOverCapacity {
                u,
                v,
                load_gbps,
                capacity_gbps,
            } => write!(
                f,
                "link ({u},{v}) carries {load_gbps} over capacity {capacity_gbps}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Verifies that a plan does not oversubscribe any link of its topology.
pub fn plan_is_feasible(plan: &SlotPlan, theta: f64) -> Result<(), PlanError> {
    let n = plan.topology.site_count();
    let mut load = vec![0.0f64; n * n];
    for a in &plan.allocations {
        for (path, r) in &a.paths {
            if *r < -EPS {
                return Err(PlanError::NegativeRate {
                    transfer: a.transfer,
                    rate_gbps: *r,
                });
            }
            for w in path.windows(2) {
                load[w[0] * n + w[1]] += r;
                load[w[1] * n + w[0]] += r;
            }
        }
    }
    for u in 0..n {
        for v in u + 1..n {
            let cap = plan.topology.multiplicity(u, v) as f64 * theta;
            if load[u * n + v] > cap + 1e-6 {
                return Err(PlanError::LinkOverCapacity {
                    u,
                    v,
                    load_gbps: load[u * n + v],
                    capacity_gbps: cap,
                });
            }
        }
    }
    Ok(())
}

/// The run context a slot loop reports into: the obs recorder (tier 1),
/// the flight recorder (tier 2), the region profiler (tier 3) and the
/// attribution/SLO collector (tier 4). `Probes::default()` disables all
/// four, and a disabled handle changes no plan: every recording path is an
/// early return (`tests/{observability,scope,prof,why}.rs` check each tier
/// enabled and disabled).
#[derive(Debug, Default)]
pub struct Probes {
    /// Counters, gauges and stage spans; attached to the engine.
    pub recorder: Recorder,
    /// Transfer lifecycle, flight frames, the causal span timeline.
    pub scope: ScopeRecorder,
    /// Region profiler; attached to the engine.
    pub prof: Profiler,
    /// Per-transfer attribution and online SLO monitors.
    pub why: WhyRecorder,
}

/// Runs `engine` over `requests` on `plant` until every transfer completes
/// (or `max_slots` elapse).
///
/// If the engine ever emits an infeasible plan — a bug in the engine, not
/// an operational condition — the run stops at that slot and reports the
/// violation in [`SimResult::plan_error`], so differential fuzz harnesses
/// can record and minimize the failure instead of aborting.
pub fn simulate(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &SimConfig,
) -> SimResult {
    simulate_probed(plant, requests, engine, config, &Probes::default())
}

/// [`simulate`] reporting into `probes`: admission, feasibility gate,
/// fluid delivery, deadline + starvation bookkeeping, per slot.
///
/// * An enabled recorder is attached to the engine (via
///   [`TrafficEngineer::set_recorder`]), each slot is timed as a
///   `stage.slot` span, and the result carries one [`SlotTelemetry`] row
///   per slot. The update-scheduling stage is measured by running the
///   consistent planner between consecutive plans purely for telemetry —
///   the idealized simulator still delivers the full allocation.
/// * An enabled scope gets per-transfer lifecycle rows, a flight frame
///   per slot and the causal span timeline.
/// * An enabled profiler is attached to the engine, and the loop wraps
///   each slot and its telemetry-only update pass in `slot` / `update`
///   regions.
/// * An enabled why recorder is fed every slot (per-transfer rate
///   samples, planning latency, throughput); a tripped SLO monitor
///   freezes the flight recorder through [`ScopeRecorder::anomaly`].
///
/// Failures and controller restarts (§3.4) are `owan-chaos::run_chaos`'s
/// job: this loop runs one engine on one plant.
pub fn simulate_probed(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &SimConfig,
    probes: &Probes,
) -> SimResult {
    let Probes {
        recorder,
        scope,
        prof,
        why,
    } = probes;
    assert!(config.rate_efficiency > 0.0 && config.rate_efficiency <= 1.0);
    let scope_on = scope.is_enabled();
    if scope_on {
        scope.begin_run(requests);
    }
    let why_on = why.is_enabled();
    if why_on {
        why.begin_run(requests);
    }
    let theta = plant.params().wavelength_capacity_gbps;
    engine.set_recorder(recorder.clone());
    engine.set_profiler(prof.clone());
    let telemetry = recorder.is_enabled().then(|| SimTelemetry::new(recorder));
    let update_params = UpdateParams {
        theta_gbps: theta,
        circuit_time_s: plant.params().circuit_reconfig_time_s,
        ..Default::default()
    };
    let mut slot_rows: Vec<SlotTelemetry> = Vec::new();
    let mut prev_plan: Option<SlotPlan> = None;

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

    let mut throughput_series = Vec::new();
    let mut makespan_s: f64 = 0.0;
    let mut slots = 0;
    let mut plan_error: Option<(usize, PlanError)> = None;

    for slot in 0..config.max_slots {
        let now = slot as f64 * config.slot_len_s;
        slots = slot + 1;

        // Active = arrived and incomplete.
        let active: Vec<Transfer> = transfers
            .iter()
            .filter(|t| t.arrival_s <= now + EPS && !t.is_complete())
            .cloned()
            .collect();
        let pending_future = transfers
            .iter()
            .any(|t| t.arrival_s > now + EPS && !t.is_complete());
        if active.is_empty() && !pending_future {
            break;
        }
        // A workload stuck on portless endpoints cannot drain; stop when
        // no active transfer can make progress and nothing new will arrive.
        let any_progress_possible = active
            .iter()
            .any(|t| plant.router_ports(t.src) > 0 && plant.router_ports(t.dst) > 0);
        if !any_progress_possible && !pending_future {
            break;
        }

        let slot_region = prof.region("slot");
        let slot_start_ns = recorder.now_ns();
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
        if let Err(e) = plan_is_feasible(&plan, theta) {
            scope.anomaly("plan.infeasible", slot);
            plan_error = Some((slot, e));
            break;
        }
        throughput_series.push((now, plan.throughput_gbps));

        // Telemetry-only update scheduling: the idealized simulator does
        // not charge transitions (see [`crate::controller`] for the loop
        // that does), but measuring the consistent planner here lets one
        // run report every controller stage. The plan is dropped after
        // counting; delivery below uses the full allocation either way.
        let update_ops = match (&telemetry, &prev_plan) {
            (Some(t), Some(prev)) => {
                let _region = prof.region("update");
                let delta = NetworkDelta::from_plans(
                    &prev.topology,
                    &prev.allocations,
                    &plan.topology,
                    &plan.allocations,
                    plant.params().wavelengths_per_fiber,
                );
                plan_consistent_observed(&delta, &update_params, &t.update)
                    .ops
                    .len()
            }
            _ => 0,
        };

        // Advance transfers.
        let mut got_rate = vec![false; transfers.len()];
        let mut scope_delivered = (scope_on || why_on).then(|| vec![0.0f64; transfers.len()]);
        for alloc in &plan.allocations {
            let rate_alloc = alloc.total_rate();
            let rate = rate_alloc * config.rate_efficiency;
            if rate <= EPS {
                continue;
            }
            let t = &mut transfers[alloc.transfer];
            debug_assert!(!t.is_complete(), "allocation to a finished transfer");
            got_rate[alloc.transfer] = true;
            let remaining_before = t.remaining_gbits;

            let rec = &mut records[alloc.transfer];
            // Bytes before the deadline (pro-rata within the slot).
            if let Some(d) = t.deadline_s {
                if d > now {
                    let usable = (d - now).min(config.slot_len_s);
                    let by_deadline = (rate * usable).min(t.remaining_gbits);
                    rec.gbits_by_deadline =
                        (rec.gbits_by_deadline + by_deadline).min(t.volume_gbits);
                }
            }
            // A transfer whose *allocated* rate covers its remaining volume
            // finishes this slot; with impaired delivery it finishes up to
            // `1/rate_efficiency` later within (or just past) the slot.
            // Modeling the under-delivered sliver this way avoids the
            // unphysical geometric tail a demand-capped allocator would
            // otherwise produce.
            if rate_alloc * config.slot_len_s + EPS >= t.remaining_gbits {
                let finish = now + t.remaining_gbits / rate;
                t.remaining_gbits = 0.0;
                rec.completion_s = Some(finish);
                makespan_s = makespan_s.max(finish);
            } else {
                t.remaining_gbits -= rate * config.slot_len_s;
            }
            if let Some(delivered) = scope_delivered.as_mut() {
                delivered[alloc.transfer] = remaining_before - t.remaining_gbits;
            }
        }

        // Numerical-dust floor: see COMPLETION_FLOOR_GBITS.
        for (i, t) in transfers.iter_mut().enumerate() {
            if !t.is_complete() && t.remaining_gbits < COMPLETION_FLOOR_GBITS {
                t.remaining_gbits = 0.0;
                let finish = now + config.slot_len_s;
                records[i].completion_s = Some(finish);
                makespan_s = makespan_s.max(finish);
            }
        }

        // Starvation guard bookkeeping.
        let mut queue_depth = 0usize;
        for (i, t) in transfers.iter_mut().enumerate() {
            if t.arrival_s <= now + EPS && !t.is_complete() {
                if got_rate[i] {
                    t.starved_slots = 0;
                } else {
                    t.starved_slots += 1;
                    queue_depth += 1;
                }
            }
        }

        let at_risk = if telemetry.is_some() || scope_on {
            at_risk_count(&active, &plan, now)
        } else {
            0
        };
        let mut stage_ns = (0u64, 0u64, 0u64, 0u64);
        if let (Some(t), Some((span, marks))) = (&telemetry, slot_span) {
            span.finish();
            stage_ns = t.stage_marks().since(&marks);
            let row = SlotTelemetry {
                slot,
                start_s: now,
                active_transfers: active.len(),
                queue_depth,
                at_risk,
                plan_ns,
                anneal_ns: stage_ns.0,
                circuits_ns: stage_ns.1,
                rates_ns: stage_ns.2,
                update_ns: stage_ns.3,
                update_ops,
                throughput_gbps: plan.throughput_gbps,
            };
            t.publish_slot(&row);
            slot_rows.push(row);
        }
        if let (true, Some(delivered)) = (scope_on, &scope_delivered) {
            let rows = build_scope_rows(&active, &plan, &transfers, &records, delivered);
            scope.record_slot(&SlotObservation {
                slot,
                now_s: now,
                slot_len_s: config.slot_len_s,
                start_ns: slot_start_ns,
                end_ns: recorder.now_ns().max(slot_start_ns),
                plan_start_ns,
                plan_ns,
                anneal_ns: stage_ns.0,
                circuits_ns: stage_ns.1,
                rates_ns: stage_ns.2,
                update_ns: stage_ns.3,
                update_ops,
                throughput_gbps: plan.throughput_gbps,
                active_transfers: active.len(),
                queue_depth,
                at_risk,
                plan: &plan,
                rows: &rows,
                believed_down: &[],
                actual_down: &[],
                events: &[],
            });
        }
        if let (true, Some(delivered)) = (why_on, &scope_delivered) {
            // Tier-4 feed: allocation-order samples first (the order
            // the chaos runner books its Gb ledger in), then the
            // queued actives. The idealized simulator has no
            // transitions, blackholes, or attacks, so full == live,
            // scale == 1, and the fault channel stays empty.
            let mut samples: Vec<TransferSample> = Vec::with_capacity(active.len());
            let mut allocated = vec![false; transfers.len()];
            for alloc in &plan.allocations {
                let id = alloc.transfer;
                let rate_alloc = alloc.total_rate();
                allocated[id] = true;
                samples.push(TransferSample {
                    id,
                    full_rate_gbps: rate_alloc,
                    live_rate_gbps: rate_alloc,
                    delivered_gbits: delivered[id],
                    remaining_gbits: transfers[id].remaining_gbits,
                    completion_s: records[id].completion_s,
                    queued: rate_alloc <= EPS,
                });
            }
            for t in &active {
                if !allocated[t.id] {
                    samples.push(TransferSample {
                        id: t.id,
                        full_rate_gbps: 0.0,
                        live_rate_gbps: 0.0,
                        delivered_gbits: 0.0,
                        remaining_gbits: transfers[t.id].remaining_gbits,
                        completion_s: records[t.id].completion_s,
                        queued: true,
                    });
                }
            }
            if let Some(reason) = why.observe_slot(&WhySlotObservation {
                slot,
                now_s: now,
                slot_len_s: config.slot_len_s,
                start_ns: slot_start_ns,
                end_ns: recorder.now_ns().max(slot_start_ns),
                plan_ns,
                transition_scale: 1.0,
                throughput_gbps: plan.throughput_gbps,
                attack_active: false,
                samples: &samples,
                events: &[],
            }) {
                scope.anomaly(reason, slot);
            }
        }
        if telemetry.is_some() {
            prev_plan = Some(plan);
        }
        slot_region.finish();
    }

    if !records.iter().all(|r| r.completion_s.is_some()) {
        makespan_s = makespan_s.max(slots as f64 * config.slot_len_s);
    }

    SimResult {
        engine: engine.name().to_string(),
        completions: records,
        makespan_s,
        throughput_series,
        slots,
        telemetry: telemetry.map(|_| slot_rows),
        plan_error,
    }
}

/// One [`TransferSlotRow`] per active transfer, for the scope's transfer
/// tracker: allocated rate, volume delivered this slot (attributed per
/// path pro-rata by path rate), post-slot remaining volume, queue
/// position for unserved transfers, and the completion instant when the
/// transfer finished this slot. Shared with the chaos loop, which feeds
/// its achieved (post-fault) plan instead of the target plan.
pub fn build_scope_rows(
    active: &[Transfer],
    plan: &SlotPlan,
    transfers: &[Transfer],
    records: &[CompletionRecord],
    delivered: &[f64],
) -> Vec<TransferSlotRow> {
    let mut rows = Vec::with_capacity(active.len());
    let mut queue_pos = 0usize;
    for a in active {
        let id = a.id;
        let alloc = plan.allocations.iter().find(|al| al.transfer == id);
        let rate_gbps = alloc.map_or(0.0, |al| al.total_rate());
        let delivered_gbits = delivered.get(id).copied().unwrap_or(0.0);
        let served = rate_gbps > EPS;
        let paths = match alloc {
            Some(al) if served && delivered_gbits > 0.0 => al
                .paths
                .iter()
                .filter(|(_, r)| *r > EPS)
                .map(|(p, r)| (path_label(p), delivered_gbits * r / rate_gbps))
                .collect(),
            _ => Vec::new(),
        };
        rows.push(TransferSlotRow {
            id,
            rate_gbps,
            delivered_gbits,
            remaining_gbits: transfers[id].remaining_gbits,
            queue_pos: if served {
                None
            } else {
                queue_pos += 1;
                Some(queue_pos - 1)
            },
            completion_s: records[id].completion_s,
            paths,
        });
    }
    rows
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
                volume_gbits: 600.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferRequest {
                src: 2,
                dst: 3,
                volume_gbits: 300.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferRequest {
                src: 1,
                dst: 2,
                volume_gbits: 100.0,
                arrival_s: 400.0,
                deadline_s: None,
            },
        ]
    }

    #[test]
    fn owan_drains_workload() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &requests(), &mut e, &cfg);
        assert!(res.all_completed(), "{res:?}");
        for c in &res.completions {
            let ct = c.completion_time_s().unwrap();
            assert!(ct > 0.0);
            assert!(c.completion_s.unwrap() >= c.arrival_s);
        }
        assert!(res.makespan_s > 0.0);
    }

    #[test]
    fn late_arrival_not_served_early() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &requests(), &mut e, &cfg);
        let late = &res.completions[2];
        assert!(late.completion_s.unwrap() >= 400.0);
    }

    #[test]
    fn demand_limited_transfer_finishes_in_one_slot() {
        // 50 Gb over a 100 s slot: the allocator hands it exactly its
        // demand rate (0.5 Gbps), so it completes precisely at the slot
        // boundary — never later.
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = vec![TransferRequest {
            src: 0,
            dst: 1,
            volume_gbits: 50.0,
            arrival_s: 0.0,
            deadline_s: None,
        }];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &reqs, &mut e, &cfg);
        let ct = res.completions[0].completion_time_s().unwrap();
        assert!((ct - 100.0).abs() < 1e-6, "got {ct}");
    }

    #[test]
    fn impaired_final_sliver_finishes_late_not_never() {
        // With rate efficiency 0.9, the same transfer completes at
        // 100 / 0.9 ≈ 111 s instead of iterating an asymptotic tail.
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = vec![TransferRequest {
            src: 0,
            dst: 1,
            volume_gbits: 50.0,
            arrival_s: 0.0,
            deadline_s: None,
        }];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            rate_efficiency: 0.9,
            ..Default::default()
        };
        let res = simulate(&p, &reqs, &mut e, &cfg);
        let ct = res.completions[0].completion_time_s().unwrap();
        assert!((ct - 100.0 / 0.9).abs() < 1e-6, "got {ct}");
    }

    #[test]
    fn rate_efficiency_slows_completion() {
        let p = plant();
        let run = |eff: f64| {
            let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
            let cfg = SimConfig {
                slot_len_s: 100.0,
                rate_efficiency: eff,
                ..Default::default()
            };
            simulate(&p, &requests(), &mut e, &cfg)
        };
        let ideal = run(1.0);
        let impaired = run(0.9);
        let avg = |r: &SimResult| {
            r.completions
                .iter()
                .filter_map(|c| c.completion_time_s())
                .sum::<f64>()
                / r.completions.len() as f64
        };
        assert!(
            avg(&impaired) >= avg(&ideal),
            "impairment cannot speed things up"
        );
    }

    #[test]
    fn deadline_bookkeeping() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = vec![
            // Easily met: 100 Gb, deadline after 200 s at >= 10 Gbps.
            TransferRequest {
                src: 0,
                dst: 1,
                volume_gbits: 100.0,
                arrival_s: 0.0,
                deadline_s: Some(200.0),
            },
            // Impossible: 10 000 Gb in 100 s.
            TransferRequest {
                src: 2,
                dst: 3,
                volume_gbits: 10_000.0,
                arrival_s: 0.0,
                deadline_s: Some(100.0),
            },
        ];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &reqs, &mut e, &cfg);
        assert!(res.completions[0].met_deadline());
        assert!(!res.completions[1].met_deadline());
        // Partial bytes before the deadline were still delivered.
        assert!(res.completions[1].gbits_by_deadline > 0.0);
        assert!(res.completions[1].gbits_by_deadline < 10_000.0);
    }

    #[test]
    fn empty_workload() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let res = simulate(&p, &[], &mut e, &SimConfig::default());
        assert_eq!(res.slots, 1);
        assert!(res.completions.is_empty());
    }

    #[test]
    fn feasibility_checker_catches_overload() {
        use owan_core::{Allocation, SlotPlan, Topology};
        let mut topo = Topology::empty(2);
        topo.add_links(0, 1, 1);
        let plan = SlotPlan {
            topology: topo,
            allocations: vec![Allocation {
                transfer: 0,
                paths: vec![(vec![0, 1], 25.0)],
            }],
            throughput_gbps: 25.0,
        };
        assert!(plan_is_feasible(&plan, 10.0).is_err());
        assert!(plan_is_feasible(&plan, 30.0).is_ok());
    }
}
