//! The time-slotted fluid flow simulator.
//!
//! Time is divided into slots "much longer than the time to reconfigure the
//! network and adjust sending rates, i.e., a few minutes vs. hundreds or
//! thousands of milliseconds" (§3.1). Each slot the simulator:
//!
//! 1. admits transfers whose arrival time has passed,
//! 2. asks the engine for a [`SlotPlan`],
//! 3. verifies the plan is feasible (no link over capacity),
//! 4. advances every transfer fluidly by its allocated rate, recording
//!    mid-slot completion times and per-deadline byte counts,
//! 5. updates starvation counters (the §3.2 starvation guard's input).
//!
//! Steps 1, 4 and 5 are [`SlotLedger`]'s, shared with the other loops.
//!
//! The paper validated exactly this style of flow-level simulator against
//! its hardware testbed within 10% (§5.1); [`crate::validate`] reproduces
//! that comparison with an impaired-rate mode.

use crate::ledger::{at_risk_count, CompletionRecord, SlotLedger};
use crate::telemetry::SimTelemetry;
use owan_core::{Profiler, SlotInput, SlotPlan, TrafficEngineer, TransferRequest};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_scope::{ScopeRecorder, SlotRecord};
use owan_update::{plan_consistent_observed, NetworkDelta, UpdateParams};
use owan_why::WhyRecorder;
use serde::{Deserialize, Serialize};

const EPS: f64 = 1e-9;

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
    /// Every slot's record, present when the run was made with a
    /// recording [`Recorder`] (see [`simulate_probed`]).
    pub telemetry: Option<Vec<SlotRecord>>,
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
    /// Transfer lifecycle, the flight ring, the causal span timeline.
    pub scope: ScopeRecorder,
    /// Region profiler; attached to the engine.
    pub prof: Profiler,
    /// Per-transfer attribution and online SLO monitors.
    pub why: WhyRecorder,
}

impl Probes {
    /// Starts a run on the scope and the why recorder.
    pub fn begin_run(&self, requests: &[TransferRequest]) {
        self.scope.begin_run(requests);
        self.why.begin_run(requests);
    }

    /// Hands a finished slot's record to the scope and the why recorder.
    /// The scope reads `rec` with the slot's `plan`; then each of the
    /// loop's own `anomalies` whose flag is set fires, in order; then the
    /// why recorder keeps the record, and a tripped SLO monitor fires its
    /// reason. The first anomaly of a run freezes the flight dump.
    pub fn finish_slot(&self, rec: SlotRecord, plan: &SlotPlan, anomalies: &[(bool, &str)]) {
        let slot = rec.slot;
        self.scope.record_slot(&rec, plan);
        for &(_, reason) in anomalies.iter().filter(|(fired, _)| *fired) {
            self.scope.anomaly(reason, slot);
        }
        if let Some(reason) = self.why.observe_slot(rec) {
            self.scope.anomaly(reason, slot);
        }
    }
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
/// With any of the recorder, the scope or the why recorder on, the loop
/// builds one [`SlotRecord`] per slot and every enabled probe reads it:
/// * An enabled recorder is attached to the engine (via
///   [`TrafficEngineer::set_recorder`]), each slot is timed as a
///   `stage.slot` span, the record sets the slot gauges and the `slot`
///   event, and the result carries every record in
///   [`SimResult::telemetry`]. The update-scheduling stage is measured by
///   running the consistent planner between consecutive plans purely for
///   telemetry — the idealized simulator still delivers the full
///   allocation.
/// * [`Probes::finish_slot`] hands the record to the scope, which reads
///   it for per-transfer lifecycle rows, the flight ring and the causal
///   span timeline, then to the why recorder, which keeps it.
/// * An enabled profiler is attached to the engine, and the loop wraps
///   each slot and its telemetry-only update pass in `slot` / `update`
///   regions.
/// * A tripped SLO monitor of the why recorder freezes the flight
///   recorder through [`ScopeRecorder::anomaly`].
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
    probes.begin_run(requests);
    let theta = plant.params().wavelength_capacity_gbps;
    engine.set_recorder(recorder.clone());
    engine.set_profiler(prof.clone());
    let telemetry = recorder.is_enabled().then(|| SimTelemetry::new(recorder));
    let record_on = telemetry.is_some() || scope.is_enabled() || why.is_enabled();
    let update_params = UpdateParams {
        theta_gbps: theta,
        circuit_time_s: plant.params().circuit_reconfig_time_s,
        ..Default::default()
    };
    let mut records: Vec<SlotRecord> = Vec::new();
    let mut prev_plan: Option<SlotPlan> = None;
    let mut ledger = SlotLedger::new(requests);
    let n = requests.len();

    let mut throughput_series = Vec::new();
    let mut slots = 0;
    let mut plan_error: Option<(usize, PlanError)> = None;

    for slot in 0..config.max_slots {
        let now = slot as f64 * config.slot_len_s;
        slots = slot + 1;

        let (active, pending_future) = ledger.admit(now);
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
        let slot_span = telemetry.as_ref().map(|t| {
            let marks = (t.stages.totals(), t.update.update.total_ns());
            (t.slot_stage.enter(), marks)
        });
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
        let mut got_rate = vec![false; n];
        let mut per_delivered = record_on.then(|| vec![0.0f64; n]);
        for alloc in &plan.allocations {
            let (id, rate_alloc) = (alloc.transfer, alloc.total_rate());
            debug_assert!(
                rate_alloc * config.rate_efficiency <= EPS || !ledger.transfers()[id].is_complete(),
                "allocation to a finished transfer"
            );
            let Some(d) = ledger.deliver(
                id,
                rate_alloc,
                config.rate_efficiency,
                now,
                config.slot_len_s,
            ) else {
                continue;
            };
            got_rate[id] = true;
            if let Some(delivered) = per_delivered.as_mut() {
                delivered[id] = d.drained_gbits;
            }
        }
        ledger.settle_dust(now, config.slot_len_s);
        let queue_depth = ledger.count_starved(now, &got_rate);

        let at_risk = if telemetry.is_some() || scope.is_enabled() {
            at_risk_count(&active, &plan, now)
        } else {
            0
        };
        let ([anneal_ns, circuits_ns, rates_ns], update_ns) = match (&telemetry, slot_span) {
            (Some(t), Some((span, (stages, update)))) => {
                span.finish();
                (t.stages.since(stages), t.update.update.total_ns() - update)
            }
            _ => ([0; 3], 0),
        };
        if let Some(delivered) = &per_delivered {
            // The idealized simulator has no transitions, blackholes,
            // failures or attacks: live == allocated, scale == 1.
            let rec = SlotRecord {
                slot,
                now_s: now,
                slot_len_s: config.slot_len_s,
                start_ns: slot_start_ns,
                end_ns: recorder.now_ns().max(slot_start_ns),
                plan_start_ns,
                plan_ns,
                anneal_ns,
                circuits_ns,
                rates_ns,
                update_ns,
                update_ops,
                throughput_gbps: plan.throughput_gbps,
                active_transfers: active.len(),
                queue_depth,
                at_risk,
                transition_scale: 1.0,
                attack_active: false,
                believed_down: Vec::new(),
                actual_down: Vec::new(),
                events: Vec::new(),
                transfers: ledger.transfer_rows(&active, &plan, delivered, |_, a| a.total_rate()),
            };
            if let Some(t) = &telemetry {
                t.publish_slot(&rec);
                records.push(rec.clone());
            }
            probes.finish_slot(rec, &plan, &[]);
        }
        if telemetry.is_some() {
            prev_plan = Some(plan);
        }
        slot_region.finish();
    }

    let (completions, makespan_s) = ledger.finish(slots as f64 * config.slot_len_s);
    SimResult {
        engine: engine.name().to_string(),
        completions,
        makespan_s,
        throughput_series,
        slots,
        telemetry: telemetry.map(|_| records),
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
