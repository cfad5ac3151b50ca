//! The hardened controller loop: [`run_chaos`] drives the full planning
//! path — anneal, circuit build, rate assignment, consistent update
//! scheduling — against a plant that fails and recovers underneath it.
//!
//! Differences from the fault-free `owan_sim::run_controller`:
//!
//! * The engine plans against the **believed** plant: faults (and
//!   repairs) become visible only after a detection delay.
//! * The scheduled update is **executed** through
//!   [`owan_update::execute_plan`] with injected per-op faults; timed-out
//!   and failed ops retry with capped exponential backoff, and past the
//!   retry budget their dependent subtree aborts. The slot then runs on
//!   the **achieved** state (what the surviving ops actually built), and
//!   that achieved state — not the target plan — seeds the next slot's
//!   delta, so the controller replans around the wreckage.
//! * A [`FaultKind::ControllerCrash`] discards the engine; a fresh one is
//!   built at the next slot boundary from the stored plant and transfer
//!   set (§3.4). Data-plane state (installed circuits and paths) is read
//!   back from the network, so recovery is stateless.
//! * Circuits that traverse a fiber cut the controller has not yet
//!   detected are blackholed: their paths deliver zero from the cut
//!   instant until the end of the slot.
//! * When the engine emits an infeasible plan, the slot degrades
//!   gracefully to the previous topology filtered to surviving links
//!   instead of erroring out.

use crate::fault::{FaultEvent, FaultKind, FaultState};
use crate::inject::OpFaultModel;
use crate::telemetry::ChaosTelemetry;
use owan_core::{
    build_topology_cached, Allocation, BuiltTopology, CircuitBuildConfig, CoreTelemetry,
    EnergyCache, SlotInput, SlotPlan, Topology, TrafficEngineer, Transfer, TransferRequest,
};
use owan_obs::Recorder;
use owan_optical::{FiberId, FiberPlant, SiteId};
use owan_scope::{ScopeRecorder, SlotObservation};
use owan_sim::{build_scope_rows, plan_is_feasible, CompletionRecord, Failure};
use owan_update::{
    execute_plan, plan_consistent, transition_scale, NetworkDelta, OpKind, RetryPolicy,
    UpdateParams, UpdatePlan,
};
use owan_why::{TransferSample, WhyRecorder, WhySlotObservation};
use std::collections::{HashMap, HashSet};

const EPS: f64 = 1e-9;

/// Configuration for the hardened controller loop.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Slot length δ, seconds.
    pub slot_len_s: f64,
    /// Safety cap on simulated slots.
    pub max_slots: usize,
    /// Router path-programming time for the update scheduler.
    pub path_time_s: f64,
    /// Seconds between a fault striking and the controller seeing it.
    /// Applies to repairs too: a spliced fiber is not trusted instantly.
    pub detection_delay_s: f64,
    /// Retry budget and backoff for failed update ops.
    pub retry: RetryPolicy,
    /// Per-request adversarial flags aligned with the request list:
    /// `true` marks injected attack traffic, which is excluded from the
    /// background delivered accounting. Empty means all background.
    pub attack_flags: Vec<bool>,
    /// Network-layer links (normalized `u < v` site pairs) whose
    /// utilization the runner tracks per slot on the achieved plan.
    pub victim_links: Vec<(SiteId, SiteId)>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            slot_len_s: 300.0,
            max_slots: 2000,
            path_time_s: 0.1,
            detection_delay_s: 30.0,
            retry: RetryPolicy::default(),
            attack_flags: Vec::new(),
            victim_links: Vec::new(),
        }
    }
}

/// Aggregate fault/recovery counters for one run (the same numbers land
/// on the [`Recorder`] under the `chaos.` prefix).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosStats {
    /// Fault events whose detection delay elapsed during the run.
    pub faults_detected: u64,
    /// Op attempts re-run after an injected timeout or failure.
    pub op_retries: u64,
    /// Op attempts that timed out.
    pub op_timeouts: u64,
    /// Op attempts that failed fast.
    pub op_failures: u64,
    /// Ops aborted after the retry budget, plus their dependent subtree.
    pub op_aborts: u64,
    /// Controller crash restarts.
    pub crashes: u64,
    /// Slots that degraded to the filtered previous topology.
    pub fallback_slots: u64,
    /// Paths blackholed by undetected mid-slot cuts.
    pub blackhole_paths: u64,
    /// Volume lost to blackholed paths, gigabits.
    pub blackhole_gbits: f64,
}

/// Outcome of a chaos run. Mirrors `ControllerResult` plus fault
/// accounting.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Per-transfer outcomes, ordered by id.
    pub completions: Vec<CompletionRecord>,
    /// Delivered gigabits per slot `(slot start, gbits)`.
    pub delivered_series: Vec<(f64, f64)>,
    /// Total delivered volume, gigabits.
    pub delivered_gbits: f64,
    /// Delivered gigabits per slot for *background* transfers only —
    /// those not flagged in [`ChaosConfig::attack_flags`]. Identical to
    /// `delivered_series` when no attack flags are set.
    pub background_series: Vec<(f64, f64)>,
    /// Total background delivered volume, gigabits.
    pub background_gbits: f64,
    /// Per-slot peak utilization across [`ChaosConfig::victim_links`] on
    /// the achieved plan (`load / capacity`; 0 when no victims tracked).
    pub victim_util_series: Vec<(f64, f64)>,
    /// Absolute completion time of the last transfer, or simulation end.
    pub makespan_s: f64,
    /// Total scheduled update operations.
    pub update_ops: usize,
    /// Volume lost to update transitions, gigabits.
    pub transition_loss_gbits: f64,
    /// Fault/recovery counters.
    pub stats: ChaosStats,
    /// Slots the controller planned in. Idle waiting slots (no active
    /// transfer, or survivors stranded pending a repair) appear in
    /// `delivered_series` but are not counted here.
    pub slots: usize,
}

impl ChaosResult {
    /// True when every transfer finished.
    pub fn all_complete(&self) -> bool {
        self.completions.iter().all(|r| r.completion_s.is_some())
    }
}

/// Everything an external checker needs to audit one slot: the world as
/// the controller believed it, the transfers it planned for, the plan it
/// targeted, and the update schedule it executed. The oracle hooks in
/// here; returning an error aborts the run with that message.
pub struct SlotAudit<'a> {
    /// Slot index.
    pub slot: usize,
    /// Slot start, seconds.
    pub now_s: f64,
    /// The plant as the controller believed it (detection-delayed).
    pub believed_plant: &'a FiberPlant,
    /// Active transfers the slot planned for.
    pub transfers: &'a [Transfer],
    /// The target plan for the slot (engine output, or the fallback).
    pub plan: &'a SlotPlan,
    /// The delta from the achieved data-plane state into this plan
    /// (absent on the first slot).
    pub delta: Option<&'a NetworkDelta>,
    /// The scheduled update into this plan (absent on the first slot).
    pub update: Option<&'a UpdatePlan>,
    /// The update-scheduler parameters the run is using.
    pub params: UpdateParams,
    /// Slot length, seconds.
    pub slot_len_s: f64,
    /// True when the slot degraded to the filtered previous topology.
    pub used_fallback: bool,
}

/// Per-slot audit hook type.
pub type AuditHook<'a> = dyn FnMut(&SlotAudit) -> Result<(), String> + 'a;

/// Runs the hardened controller loop over `events`, injecting op faults
/// from `op_faults`. `make_engine` builds a fresh engine from the
/// believed plant — called once at start and again after every crash
/// (stateless restart). `audit`, when given, is invoked every planned
/// slot; an `Err` aborts the run.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    make_engine: &mut dyn FnMut(&FiberPlant) -> Box<dyn TrafficEngineer>,
    config: &ChaosConfig,
    events: &[FaultEvent],
    op_faults: &OpFaultModel,
    recorder: &Recorder,
    audit: Option<&mut AuditHook>,
) -> Result<ChaosResult, String> {
    run_chaos_traced(
        plant,
        requests,
        make_engine,
        config,
        events,
        op_faults,
        recorder,
        &ScopeRecorder::disabled(),
        audit,
    )
}

/// [`run_chaos`] with a flight recorder attached. Besides the sim-side
/// scope data (transfer lifecycle, flight frames, spans), the chaos loop
/// contributes what only it knows: the believed-vs-actual failure sets
/// per slot, per-slot fault events, and the anomaly triggers —
/// `plan.infeasible` (fallback slot), `update.retry_exhausted` (op
/// subtree aborted), `blackhole.undetected_cut` (paths dark under an
/// undetected cut). The *first* anomaly freezes the flight ring into a
/// deterministic dump.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_traced(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    make_engine: &mut dyn FnMut(&FiberPlant) -> Box<dyn TrafficEngineer>,
    config: &ChaosConfig,
    events: &[FaultEvent],
    op_faults: &OpFaultModel,
    recorder: &Recorder,
    scope: &ScopeRecorder,
    audit: Option<&mut AuditHook>,
) -> Result<ChaosResult, String> {
    run_chaos_explained(
        plant,
        requests,
        make_engine,
        config,
        events,
        op_faults,
        recorder,
        scope,
        &WhyRecorder::disabled(),
        audit,
    )
}

/// [`run_chaos_traced`] with the tier-4 attribution/SLO collector on
/// top. The chaos loop feeds `why` the values only it knows: the
/// pre-blackhole (`full`) and post-blackhole (`live`) rate of every
/// achieved allocation, the transition scale, the slot's fault labels,
/// and whether an attack wave was active — exactly the inputs the
/// attribution engine needs to reproduce the runner's booked
/// blackhole-Gb figure bit-for-bit. A tripped SLO monitor freezes the
/// flight recorder through the existing [`ScopeRecorder::anomaly`]
/// path, so `verify --replay` reconstructs the dump unchanged.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_explained(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    make_engine: &mut dyn FnMut(&FiberPlant) -> Box<dyn TrafficEngineer>,
    config: &ChaosConfig,
    events: &[FaultEvent],
    op_faults: &OpFaultModel,
    recorder: &Recorder,
    scope: &ScopeRecorder,
    why: &WhyRecorder,
    mut audit: Option<&mut AuditHook>,
) -> Result<ChaosResult, String> {
    let theta = plant.params().wavelength_capacity_gbps;
    let scope_on = scope.is_enabled();
    if scope_on {
        scope.begin_run(requests);
    }
    let why_on = why.is_enabled();
    if why_on {
        why.begin_run(requests);
    }
    // Slot-event labels and per-transfer delivery feed both tier-2
    // frames and the tier-4 joiner.
    let trace_on = scope_on || why_on;
    let telem = ChaosTelemetry::new(recorder);
    let params = UpdateParams {
        theta_gbps: theta,
        circuit_time_s: plant.params().circuit_reconfig_time_s,
        path_time_s: config.path_time_s,
    };
    let circuit_cfg = CircuitBuildConfig::default();
    // Re-realises topologies on the believed plant (fallback plans, the
    // blackhole check); the engine's own cache dies with it at a crash.
    let mut realise_cache = EnergyCache::new();

    // Split the timeline: plant faults detect with delay; crashes take
    // effect at the slot boundary after they strike.
    let mut plant_events: Vec<FaultEvent> = events
        .iter()
        .filter(|e| e.kind.touches_plant())
        .copied()
        .collect();
    plant_events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    let mut crash_times: Vec<f64> = events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::ControllerCrash))
        .map(|e| e.time_s)
        .collect();
    crash_times.sort_by(|a, b| a.total_cmp(b));

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

    let mut state = FaultState::default();
    // Ground truth for the scope's believed-vs-actual frames: the same
    // plant events folded in with zero detection delay.
    let mut actual_state = FaultState::default();
    let mut actual_applied = 0usize;
    let mut detected = 0usize;
    let mut next_crash = 0usize;
    let mut believed: Option<(FiberPlant, Vec<Option<FiberId>>)> = None;
    let mut engine: Option<Box<dyn TrafficEngineer>> = None;

    // The data-plane state the network is actually in: survives crashes
    // (it lives in the switches, not the controller).
    let mut achieved_prev: Option<SlotPlan> = None;

    let mut stats = ChaosStats::default();
    let mut delivered_series: Vec<(f64, f64)> = Vec::new();
    let mut background_series: Vec<(f64, f64)> = Vec::new();
    let mut victim_util_series: Vec<(f64, f64)> = Vec::new();
    let is_attack = |id: usize| -> bool { config.attack_flags.get(id).copied().unwrap_or(false) };
    let mut makespan_s: f64 = 0.0;
    let mut update_ops = 0usize;
    let mut transition_loss_gbits = 0.0;
    let mut slots = 0usize;

    for slot in 0..config.max_slots {
        let now = slot as f64 * config.slot_len_s;
        let mut slot_events: Vec<String> = Vec::new();

        // 1. Detection: fold in events whose delay has elapsed.
        let mut changed = believed.is_none();
        while detected < plant_events.len()
            && plant_events[detected].time_s + config.detection_delay_s <= now + EPS
        {
            changed |= state.apply(&plant_events[detected].kind);
            telem.faults_detected.incr();
            stats.faults_detected += 1;
            detected += 1;
        }
        if changed {
            believed = Some(state.degraded_view(plant));
        }
        let (believed_plant, fiber_map) = believed.as_ref().expect("believed plant set");

        // 2. Crash restarts: any crash at or before this boundary kills
        // the running engine; a fresh instance takes over.
        while next_crash < crash_times.len() && crash_times[next_crash] <= now + EPS {
            if engine.is_some() {
                engine = None;
                telem.crashes.incr();
                stats.crashes += 1;
                if trace_on {
                    slot_events.push(fault_label(&FaultKind::ControllerCrash));
                }
            }
            next_crash += 1;
        }
        let eng = engine.get_or_insert_with(|| make_engine(believed_plant));
        eng.set_recorder(recorder.clone());

        // 3. Admission.
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
        let all_events_done = detected == plant_events.len() && next_crash == crash_times.len();
        let progress_possible = active.iter().any(|t| {
            believed_plant.router_ports(t.src) > 0 && believed_plant.router_ports(t.dst) > 0
        });
        if active.is_empty() || (!progress_possible && all_events_done) {
            // Nothing this slot can move: either all work is in the
            // future, or the survivors are permanently stranded (every
            // fault already landed, endpoints still dark).
            if !pending && all_events_done {
                break;
            }
            delivered_series.push((now, 0.0));
            background_series.push((now, 0.0));
            victim_util_series.push((now, 0.0));
            continue;
        }
        slots += 1;
        let slot_start_ns = recorder.now_ns();

        // 4. Plan on the believed plant; degrade gracefully if the
        // engine's answer is infeasible.
        let input = SlotInput {
            transfers: &active,
            slot_len_s: config.slot_len_s,
            now_s: now,
        };
        let plan_start_ns = recorder.now_ns();
        let mut plan = eng.plan_slot(believed_plant, &input);
        let plan_ns = recorder.now_ns().saturating_sub(plan_start_ns);
        let mut used_fallback = false;
        let plan_ok =
            plan_is_feasible(&plan, theta).is_ok() && plan.topology.ports_feasible(believed_plant);
        if !plan_ok {
            plan = fallback_plan(
                believed_plant,
                achieved_prev.as_ref(),
                &active,
                &transfers,
                theta,
                config.slot_len_s,
                &circuit_cfg,
                &mut realise_cache,
            );
            used_fallback = true;
            telem.fallback_slots.incr();
            stats.fallback_slots += 1;
        }

        // 5. Schedule + execute the update from the achieved data-plane
        // state; the achieved (post-fault) state is what the slot runs on.
        let update_start_ns = recorder.now_ns();
        let mut slot_ops = 0usize;
        let mut slot_aborts = 0u64;
        let (achieved, transition, scale, loss) = match &achieved_prev {
            Some(prev) => {
                let delta = NetworkDelta::from_plans(
                    &prev.topology,
                    &prev.allocations,
                    &plan.topology,
                    &plan.allocations,
                    plant.params().wavelengths_per_fiber,
                );
                let update = plan_consistent(&delta, &params);
                update_ops += update.ops.len();
                slot_ops = update.ops.len();
                let mut inject = |op: usize, attempt: u32| op_faults.fault(slot, op, attempt);
                let report = execute_plan(&delta, &update, &config.retry, &mut inject);
                stats.op_retries += report.retries;
                stats.op_timeouts += report.timeouts;
                stats.op_failures += report.failures;
                stats.op_aborts += report.aborted;
                slot_aborts = report.aborted;
                telem.op_retries.add(report.retries);
                telem.op_timeouts.add(report.timeouts);
                telem.op_failures.add(report.failures);
                telem.op_aborts.add(report.aborted);
                if trace_on && report.retries > 0 {
                    slot_events.push(format!("op.retries {}", report.retries));
                }
                if trace_on && report.aborted > 0 {
                    slot_events.push(format!("op.aborts {}", report.aborted));
                }
                let achieved = achieved_state(prev, &delta, &report, theta);
                let executed = report.as_executed_plan();
                // The timeline of the *executed* plan: actual post-retry
                // op times, aborted ops absent.
                let (scale, loss) = transition_scale(
                    &delta,
                    &executed,
                    &params,
                    config.slot_len_s,
                    achieved.throughput_gbps,
                );
                (achieved, Some((delta, update)), scale, loss)
            }
            // First plan: greenfield build, no transition to pay.
            None => (plan.clone(), None, 1.0, 0.0),
        };
        let update_ns = recorder.now_ns().saturating_sub(update_start_ns);
        transition_loss_gbits += loss;

        if let Some(hook) = audit.as_deref_mut() {
            let a = SlotAudit {
                slot,
                now_s: now,
                believed_plant,
                transfers: &active,
                plan: &plan,
                delta: transition.as_ref().map(|(d, _)| d),
                update: transition.as_ref().map(|(_, u)| u),
                slot_len_s: config.slot_len_s,
                params,
                used_fallback,
            };
            hook(&a).map_err(|e| format!("audit failed at slot {slot}: {e}"))?;
        }

        // 6. Blackholes: cuts that struck but are still undetected kill
        // every path over a circuit that traverses them, from the cut
        // instant to the end of the slot.
        let slot_end = now + config.slot_len_s;
        let path_live_frac = blackhole_fractions(
            believed_plant,
            fiber_map,
            &achieved,
            &plant_events[detected..],
            now,
            slot_end,
            &circuit_cfg,
            &mut realise_cache,
        );
        let dark_paths = path_live_frac.values().filter(|f| **f < 1.0 - EPS).count() as u64;
        telem.blackhole_paths.add(dark_paths);
        stats.blackhole_paths += dark_paths;
        if trace_on && dark_paths > 0 {
            slot_events.push(format!("blackhole.paths {dark_paths}"));
        }

        // 7. Deliver on the achieved state, discounted by the transition
        // and any blackholes.
        let mut slot_delivered = 0.0;
        let mut slot_background = 0.0;
        let mut got_rate = vec![false; transfers.len()];
        let mut per_delivered = trace_on.then(|| vec![0.0f64; transfers.len()]);
        for (ai, alloc) in achieved.allocations.iter().enumerate() {
            let rate_alloc: f64 = alloc
                .paths
                .iter()
                .enumerate()
                .map(|(pi, (_, r))| r * path_live_frac.get(&(ai, pi)).copied().unwrap_or(1.0))
                .sum();
            let full_alloc = alloc.total_rate();
            let lost = (full_alloc - rate_alloc).max(0.0) * scale * config.slot_len_s;
            if lost > EPS {
                stats.blackhole_gbits += lost;
            }
            let rate = rate_alloc * scale;
            if rate <= EPS {
                continue;
            }
            got_rate[alloc.transfer] = true;
            let t = &mut transfers[alloc.transfer];
            let remaining_before = t.remaining_gbits;
            let rec = &mut records[alloc.transfer];
            if let Some(d) = t.deadline_s {
                if d > now {
                    let usable = (d - now).min(config.slot_len_s);
                    let by_deadline = (rate * usable).min(t.remaining_gbits);
                    rec.gbits_by_deadline =
                        (rec.gbits_by_deadline + by_deadline).min(t.volume_gbits);
                }
            }
            // Completion keys off the effective allocated rate, as in the
            // fault-free controller: scaled delivery only shifts the
            // finish instant inside the slot.
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
            if !is_attack(alloc.transfer) {
                slot_background += remaining_before - t.remaining_gbits;
            }
            if let Some(delivered) = per_delivered.as_mut() {
                delivered[alloc.transfer] += remaining_before - t.remaining_gbits;
            }
        }
        delivered_series.push((now, slot_delivered));
        background_series.push((now, slot_background));
        victim_util_series.push((
            now,
            victim_utilization(&achieved, &config.victim_links, theta),
        ));

        // Starvation bookkeeping feeds the §3.2 guard in the engine.
        let mut queue_depth = 0usize;
        for t in transfers.iter_mut() {
            if t.arrival_s <= now + EPS && !t.is_complete() {
                if got_rate[t.id] {
                    t.starved_slots = 0;
                } else {
                    t.starved_slots += 1;
                    queue_depth += 1;
                }
            }
        }

        if let Some(delivered) = &per_delivered {
            // Fold in every plant event that struck during this slot —
            // detected or not — so the frame's actual_down is ground
            // truth while believed_down lags by the detection delay.
            // The same labels become the tier-4 joiner's fault instants.
            while actual_applied < plant_events.len()
                && plant_events[actual_applied].time_s < now + config.slot_len_s - EPS
            {
                actual_state.apply(&plant_events[actual_applied].kind);
                slot_events.push(fault_label(&plant_events[actual_applied].kind));
                actual_applied += 1;
            }
            if scope_on {
                let believed_down: Vec<String> =
                    state.active_failures().iter().map(failure_label).collect();
                let actual_down: Vec<String> = actual_state
                    .active_failures()
                    .iter()
                    .map(failure_label)
                    .collect();
                let at_risk = active
                    .iter()
                    .filter(|a| a.deadline_s.is_some() && !transfers[a.id].is_complete())
                    .filter(|a| {
                        let deadline = a.deadline_s.expect("filtered to deadline transfers");
                        let rate = achieved
                            .allocations
                            .iter()
                            .find(|al| al.transfer == a.id)
                            .map_or(0.0, Allocation::total_rate);
                        let horizon = (deadline - now).max(0.0);
                        rate * horizon + EPS < transfers[a.id].remaining_gbits
                    })
                    .count();
                let rows = build_scope_rows(&active, &achieved, &transfers, &records, delivered);
                scope.record_slot(&SlotObservation {
                    slot,
                    now_s: now,
                    slot_len_s: config.slot_len_s,
                    start_ns: slot_start_ns,
                    end_ns: recorder.now_ns().max(slot_start_ns),
                    plan_start_ns,
                    plan_ns,
                    anneal_ns: 0,
                    circuits_ns: 0,
                    rates_ns: 0,
                    update_ns,
                    update_ops: slot_ops,
                    throughput_gbps: achieved.throughput_gbps,
                    active_transfers: active.len(),
                    queue_depth,
                    at_risk,
                    plan: &achieved,
                    rows: &rows,
                    believed_down: &believed_down,
                    actual_down: &actual_down,
                    events: &slot_events,
                });
                scope.record_extra_span(
                    "chaos",
                    "update.execute",
                    update_start_ns,
                    update_start_ns.saturating_add(update_ns),
                    Vec::new(),
                );
            }
            if used_fallback {
                scope.anomaly("plan.infeasible", slot);
            }
            if slot_aborts > 0 {
                scope.anomaly("update.retry_exhausted", slot);
            }
            if dark_paths > 0 {
                scope.anomaly("blackhole.undetected_cut", slot);
            }
            if why_on {
                // Tier-4 feed: recompute each achieved allocation's
                // full and live rate with the exact expressions the
                // delivery loop used, in the same order, so the why
                // report's Gb ledger reproduces `stats.blackhole_gbits`
                // bit-for-bit.
                let mut samples: Vec<TransferSample> = Vec::with_capacity(active.len());
                let mut sampled = vec![false; transfers.len()];
                for (ai, alloc) in achieved.allocations.iter().enumerate() {
                    let rate_alloc: f64 = alloc
                        .paths
                        .iter()
                        .enumerate()
                        .map(|(pi, (_, r))| {
                            r * path_live_frac.get(&(ai, pi)).copied().unwrap_or(1.0)
                        })
                        .sum();
                    let full_alloc = alloc.total_rate();
                    sampled[alloc.transfer] = true;
                    samples.push(TransferSample {
                        id: alloc.transfer,
                        full_rate_gbps: full_alloc,
                        live_rate_gbps: rate_alloc,
                        delivered_gbits: delivered[alloc.transfer],
                        remaining_gbits: transfers[alloc.transfer].remaining_gbits,
                        completion_s: records[alloc.transfer].completion_s,
                        queued: full_alloc <= EPS,
                    });
                }
                for t in &active {
                    if !sampled[t.id] {
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
                let attack_active = active.iter().any(|t| is_attack(t.id));
                if let Some(reason) = why.observe_slot(&WhySlotObservation {
                    slot,
                    now_s: now,
                    slot_len_s: config.slot_len_s,
                    start_ns: slot_start_ns,
                    end_ns: recorder.now_ns().max(slot_start_ns),
                    plan_ns,
                    transition_scale: scale,
                    throughput_gbps: achieved.throughput_gbps,
                    attack_active,
                    samples: &samples,
                    events: &slot_events,
                }) {
                    scope.anomaly(reason, slot);
                }
            }
        }

        achieved_prev = Some(achieved);
    }

    if !records.iter().all(|r| r.completion_s.is_some()) {
        makespan_s = makespan_s.max(delivered_series.len() as f64 * config.slot_len_s);
    }
    let delivered_gbits = delivered_series.iter().map(|(_, g)| g).sum();
    let background_gbits = background_series.iter().map(|(_, g)| g).sum();

    Ok(ChaosResult {
        completions: records,
        delivered_series,
        delivered_gbits,
        background_series,
        background_gbits,
        victim_util_series,
        makespan_s,
        update_ops,
        transition_loss_gbits,
        stats,
        slots,
    })
}

/// Peak utilization across the tracked victim links on one achieved
/// plan: summed path load over a link divided by its capacity in the
/// achieved topology. A loaded link with zero achieved capacity counts
/// as fully utilized (traffic is riding a link that no longer exists).
fn victim_utilization(plan: &SlotPlan, victims: &[(SiteId, SiteId)], theta: f64) -> f64 {
    if victims.is_empty() {
        return 0.0;
    }
    let mut load: HashMap<(SiteId, SiteId), f64> = HashMap::new();
    for alloc in &plan.allocations {
        for (nodes, r) in &alloc.paths {
            for w in nodes.windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                *load.entry(key).or_insert(0.0) += *r;
            }
        }
    }
    let mut peak: f64 = 0.0;
    for &(u, v) in victims {
        let key = (u.min(v), u.max(v));
        let l = load.get(&key).copied().unwrap_or(0.0);
        let cap = plan.topology.multiplicity(key.0, key.1) as f64 * theta;
        if cap > EPS {
            peak = peak.max(l / cap);
        } else if l > EPS {
            peak = peak.max(1.0);
        }
    }
    peak
}

/// Stable label for an active failure in flight-dump frames.
fn failure_label(f: &Failure) -> String {
    match f {
        Failure::FiberCut(id) => format!("fiber_cut {id}"),
        Failure::SiteDown(s) => format!("site_down {s}"),
        Failure::AmpDegraded { fiber, usable } => {
            format!("amp_degraded {fiber} usable={usable}")
        }
    }
}

/// Stable label for a timeline event in flight-dump frames.
fn fault_label(k: &FaultKind) -> String {
    match k {
        FaultKind::FiberCut(id) => format!("fault fiber_cut {id}"),
        FaultKind::FiberRepaired(id) => format!("repair fiber {id}"),
        FaultKind::SiteDown(s) => format!("fault site_down {s}"),
        FaultKind::SiteUp(s) => format!("repair site {s}"),
        FaultKind::AmpDegraded { fiber, usable } => {
            format!("fault amp_degraded {fiber} usable={usable}")
        }
        FaultKind::AmpRepaired(id) => format!("repair amp {id}"),
        FaultKind::ControllerCrash => "fault controller_crash".to_string(),
    }
}

/// Graceful degradation (§3.4): the previous topology filtered to links
/// whose endpoints and fiber routes survive, re-realized on the believed
/// plant, carrying the previous allocations clamped to what still fits.
#[allow(clippy::too_many_arguments)]
fn fallback_plan(
    believed: &FiberPlant,
    prev: Option<&SlotPlan>,
    active: &[Transfer],
    transfers: &[Transfer],
    theta: f64,
    slot_len_s: f64,
    circuit_cfg: &CircuitBuildConfig,
    cache: &mut EnergyCache,
) -> SlotPlan {
    let n = believed.site_count();
    let empty = SlotPlan {
        topology: Topology::empty(n),
        allocations: Vec::new(),
        throughput_gbps: 0.0,
    };
    let Some(prev) = prev else { return empty };

    let fd = believed.fiber_distance_matrix();
    let mut desired = Topology::empty(n);
    for (u, v, m) in prev.topology.links() {
        if believed.router_ports(u) > 0 && believed.router_ports(v) > 0 && fd[u][v].is_finite() {
            desired.add_links(u, v, m);
        }
    }
    let topo = realise(believed, &desired, &fd, circuit_cfg, cache).achieved;

    let active_ids: HashSet<usize> = active.iter().map(|t| t.id).collect();
    let mut allocations: Vec<Allocation> = Vec::new();
    for alloc in &prev.allocations {
        if !active_ids.contains(&alloc.transfer) {
            continue;
        }
        let paths: Vec<(Vec<SiteId>, f64)> = alloc
            .paths
            .iter()
            .filter(|(nodes, r)| {
                *r > EPS && nodes.windows(2).all(|w| topo.multiplicity(w[0], w[1]) > 0)
            })
            .cloned()
            .collect();
        if paths.is_empty() {
            continue;
        }
        let demand = transfers[alloc.transfer].remaining_gbits / slot_len_s;
        let total: f64 = paths.iter().map(|(_, r)| r).sum();
        let clamp = if total > demand && total > EPS {
            demand / total
        } else {
            1.0
        };
        allocations.push(Allocation {
            transfer: alloc.transfer,
            paths: paths
                .into_iter()
                .map(|(nodes, r)| (nodes, r * clamp))
                .collect(),
        });
    }
    scale_to_capacity(&mut allocations, &topo, theta);
    let throughput_gbps = allocations.iter().map(Allocation::total_rate).sum();
    SlotPlan {
        topology: topo,
        allocations,
        throughput_gbps,
    }
}

/// Uniformly scales `allocations` down so no link carries more than its
/// capacity in `topo`. A no-op when everything already fits.
fn scale_to_capacity(allocations: &mut [Allocation], topo: &Topology, theta: f64) {
    let mut load: HashMap<(SiteId, SiteId), f64> = HashMap::new();
    for alloc in allocations.iter() {
        for (nodes, r) in &alloc.paths {
            for w in nodes.windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                *load.entry(key).or_insert(0.0) += r;
            }
        }
    }
    let mut overload: f64 = 1.0;
    for (&(u, v), &l) in &load {
        let cap = topo.multiplicity(u, v) as f64 * theta;
        if cap <= EPS {
            if l > EPS {
                overload = f64::INFINITY;
            }
        } else {
            overload = overload.max(l / cap);
        }
    }
    if overload > 1.0 + 1e-6 {
        let f = if overload.is_finite() {
            1.0 / overload
        } else {
            0.0
        };
        for alloc in allocations.iter_mut() {
            for (_, r) in alloc.paths.iter_mut() {
                *r *= f;
            }
        }
    }
}

/// The state the network actually reached after executing the update:
/// completed teardowns/setups applied to the previous topology, removed
/// paths that survived an aborted removal still installed, added paths
/// present only when their install op completed.
fn achieved_state(
    prev: &SlotPlan,
    delta: &NetworkDelta,
    report: &owan_update::ExecReport,
    theta: f64,
) -> SlotPlan {
    let completed: HashSet<OpKind> = report
        .ops
        .iter()
        .filter(|o| o.completed())
        .map(|o| o.kind)
        .collect();

    let mut topo = prev.topology.clone();
    for (i, c) in delta.removed_circuits.iter().enumerate() {
        if completed.contains(&OpKind::TeardownCircuit(i)) {
            topo.remove_links(c.u, c.v, 1);
        }
    }
    for (i, c) in delta.added_circuits.iter().enumerate() {
        if completed.contains(&OpKind::SetupCircuit(i)) {
            topo.add_links(c.u, c.v, 1);
        }
    }

    // Paths, grouped back into per-transfer allocations in delta order.
    let mut by_transfer: HashMap<usize, Vec<(Vec<SiteId>, f64)>> = HashMap::new();
    let mut order: Vec<usize> = Vec::new();
    let push = |t: usize,
                nodes: &[SiteId],
                rate: f64,
                by: &mut HashMap<usize, Vec<(Vec<SiteId>, f64)>>,
                order: &mut Vec<usize>| {
        if rate <= EPS {
            return;
        }
        if !by.contains_key(&t) {
            order.push(t);
        }
        by.entry(t).or_default().push((nodes.to_vec(), rate));
    };
    for p in &delta.unchanged_paths {
        push(
            p.transfer,
            &p.nodes,
            p.rate_gbps,
            &mut by_transfer,
            &mut order,
        );
    }
    for (i, p) in delta.removed_paths.iter().enumerate() {
        if !completed.contains(&OpKind::RemovePath(i)) {
            push(
                p.transfer,
                &p.nodes,
                p.rate_gbps,
                &mut by_transfer,
                &mut order,
            );
        }
    }
    for (i, p) in delta.added_paths.iter().enumerate() {
        if completed.contains(&OpKind::AddPath(i)) {
            push(
                p.transfer,
                &p.nodes,
                p.rate_gbps,
                &mut by_transfer,
                &mut order,
            );
        }
    }
    let mut allocations: Vec<Allocation> = order
        .into_iter()
        .map(|t| Allocation {
            transfer: t,
            paths: by_transfer.remove(&t).unwrap_or_default(),
        })
        .collect();

    // Defensive clamp: an aborted removal can leave load on a link whose
    // teardown completed regardless (the scheduler only sees explicit
    // dependencies); never deliver above physical capacity.
    scale_to_capacity(&mut allocations, &topo, theta);
    let throughput_gbps = allocations.iter().map(Allocation::total_rate).sum();
    SlotPlan {
        topology: topo,
        allocations,
        throughput_gbps,
    }
}

/// Re-realises `desired` on the believed plant through the run's one
/// [`EnergyCache`]: the same [`BuiltTopology`] as the naive
/// `build_topology`, without a regenerator graph and a Yen run per circuit.
/// The cache keeps its plant precompute until `begin_run` sees another
/// fingerprint, and the believed plant moves at every detection and
/// repair, so every build announces its plant first.
fn realise(
    believed: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    circuit_cfg: &CircuitBuildConfig,
    cache: &mut EnergyCache,
) -> BuiltTopology {
    cache.begin_run(believed);
    build_topology_cached(
        believed,
        desired,
        fiber_dist,
        circuit_cfg,
        cache,
        &CoreTelemetry::disabled(),
    )
}

/// When the fibers (in *believed* ids) and sites hit by a still-undetected
/// cut or site failure go dark, for those that do before `slot_end`.
#[derive(Default)]
struct DarkInstants {
    fibers: HashMap<FiberId, f64>,
    sites: HashMap<SiteId, f64>,
}

impl DarkInstants {
    fn of(
        believed: &FiberPlant,
        fiber_map: &[Option<FiberId>],
        undetected: &[FaultEvent],
        slot_end: f64,
    ) -> Self {
        let mut dark = DarkInstants::default();
        for e in undetected {
            if e.time_s >= slot_end - EPS {
                continue;
            }
            match e.kind {
                FaultKind::FiberCut(orig) => {
                    if let Some(&Some(bid)) = fiber_map.get(orig) {
                        let t = dark.fibers.entry(bid).or_insert(f64::INFINITY);
                        *t = t.min(e.time_s);
                    }
                }
                FaultKind::SiteDown(s) => {
                    let t = dark.sites.entry(s).or_insert(f64::INFINITY);
                    *t = t.min(e.time_s);
                    for (bid, f) in believed.fibers().iter().enumerate() {
                        if f.a == s || f.b == s {
                            let t = dark.fibers.entry(bid).or_insert(f64::INFINITY);
                            *t = t.min(e.time_s);
                        }
                    }
                }
                _ => {}
            }
        }
        dark
    }

    fn is_empty(&self) -> bool {
        self.fibers.is_empty() && self.sites.is_empty()
    }

    /// The fraction of `[now, slot_end]` each path of `achieved` carries
    /// traffic, `built` being the achieved topology realised on the
    /// believed plant (the link → fiber mapping the data plane is using).
    /// Conservative: a link is dark when *any* of its circuits traverses a
    /// dark fiber.
    fn live_fractions(
        &self,
        built: &BuiltTopology,
        achieved: &SlotPlan,
        now: f64,
        slot_end: f64,
    ) -> HashMap<(usize, usize), f64> {
        let mut dark_links: HashMap<(SiteId, SiteId), f64> = HashMap::new();
        for ((u, v), ids) in &built.circuits {
            let mut dark_at = f64::INFINITY;
            for &cid in ids {
                if let Some(c) = built.optical.circuit(cid) {
                    for seg in &c.segments {
                        for &f in &seg.fibers {
                            if let Some(&t) = self.fibers.get(&f) {
                                dark_at = dark_at.min(t);
                            }
                        }
                    }
                }
            }
            if dark_at.is_finite() {
                dark_links.insert((*u.min(v), *u.max(v)), dark_at);
            }
        }

        let mut out = HashMap::new();
        for (ai, alloc) in achieved.allocations.iter().enumerate() {
            for (pi, (nodes, rate)) in alloc.paths.iter().enumerate() {
                if *rate <= EPS {
                    continue;
                }
                let mut dark_at = f64::INFINITY;
                for n in nodes {
                    if let Some(&t) = self.sites.get(n) {
                        dark_at = dark_at.min(t);
                    }
                }
                for w in nodes.windows(2) {
                    let key = (w[0].min(w[1]), w[0].max(w[1]));
                    if let Some(&t) = dark_links.get(&key) {
                        dark_at = dark_at.min(t);
                    }
                }
                if dark_at.is_finite() {
                    let frac = ((dark_at.max(now) - now) / (slot_end - now)).clamp(0.0, 1.0);
                    out.insert((ai, pi), frac);
                }
            }
        }
        out
    }
}

/// For every path in `achieved`, the fraction of the slot it actually
/// carries traffic, given the cuts that struck but are still undetected.
/// Keys are `(allocation index, path index)`; absent keys mean 1.0.
#[allow(clippy::too_many_arguments)]
fn blackhole_fractions(
    believed: &FiberPlant,
    fiber_map: &[Option<FiberId>],
    achieved: &SlotPlan,
    undetected: &[FaultEvent],
    now: f64,
    slot_end: f64,
    circuit_cfg: &CircuitBuildConfig,
    cache: &mut EnergyCache,
) -> HashMap<(usize, usize), f64> {
    let dark = DarkInstants::of(believed, fiber_map, undetected, slot_end);
    if dark.is_empty() {
        return HashMap::new();
    }
    let fd = believed.fiber_distance_matrix();
    let built = realise(believed, &achieved.topology, &fd, circuit_cfg, cache);
    dark.live_fractions(&built, achieved, now, slot_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_core::{build_topology, default_topology};
    use owan_topo::isp_backbone;

    /// One-hop paths over every link of `topo`, one allocation a link.
    fn plan_over(topo: Topology) -> SlotPlan {
        let allocations: Vec<Allocation> = topo
            .links()
            .into_iter()
            .enumerate()
            .map(|(i, (u, v, _))| Allocation {
                transfer: i,
                paths: vec![(vec![u, v], 5.0 + i as f64), (vec![v, u], 1.0)],
            })
            .collect();
        let throughput_gbps = allocations.iter().map(Allocation::total_rate).sum();
        SlotPlan {
            topology: topo,
            allocations,
            throughput_gbps,
        }
    }

    /// `blackhole_fractions` realises the achieved topology through the
    /// run's one cache; the believed plant under it changes at every
    /// detection and repair. Two believed plants taken in turns through one
    /// cache must give what the naive build gives on each — the same keys,
    /// the same bits.
    #[test]
    fn blackhole_fractions_through_one_cache_match_the_naive_build() {
        let net = isp_backbone(7);
        let cfg = CircuitBuildConfig::default();
        let intact = FaultState::default().degraded_view(&net.plant);
        let mut state = FaultState::default();
        state.apply(&FaultKind::FiberCut(3));
        state.apply(&FaultKind::AmpDegraded {
            fiber: 10,
            usable: 2,
        });
        let degraded = state.degraded_view(&net.plant);
        assert_ne!(intact.0.fiber_count(), degraded.0.fiber_count());

        // Still undetected: cuts of fibers both views have (original ids),
        // one striking mid-slot, and a site going down.
        let undetected = [
            FaultEvent::at(100.0, FaultKind::FiberCut(0)),
            FaultEvent::at(450.0, FaultKind::FiberCut(7)),
            FaultEvent::at(500.0, FaultKind::SiteDown(5)),
            FaultEvent::at(990.0, FaultKind::FiberCut(12)),
        ];
        let (now, slot_end) = (300.0, 600.0);

        let mut cache = EnergyCache::new();
        let mut dark_paths = 0;
        for round in 0..3 {
            for (believed, fiber_map) in [&intact, &degraded] {
                let mut topo = default_topology(believed);
                if round == 1 {
                    // Another topology on the same plant.
                    let (u, v, _) = topo.links()[0];
                    topo.remove_links(u, v, 1);
                }
                let achieved = plan_over(topo);
                let got = blackhole_fractions(
                    believed,
                    fiber_map,
                    &achieved,
                    &undetected,
                    now,
                    slot_end,
                    &cfg,
                    &mut cache,
                );

                let dark = DarkInstants::of(believed, fiber_map, &undetected, slot_end);
                let fd = believed.fiber_distance_matrix();
                let naive = build_topology(believed, &achieved.topology, &fd, &cfg);
                let want = dark.live_fractions(&naive, &achieved, now, slot_end);

                let sorted = |m: &HashMap<(usize, usize), f64>| {
                    let mut rows: Vec<((usize, usize), u64)> =
                        m.iter().map(|(&k, &f)| (k, f.to_bits())).collect();
                    rows.sort_unstable();
                    rows
                };
                assert_eq!(sorted(&got), sorted(&want), "round {round}");
                dark_paths += got.len();
                assert!(
                    got.values().any(|&f| f > 0.0 && f < 1.0),
                    "a mid-slot cut leaves a path live for part of the slot"
                );
            }
        }
        assert!(dark_paths > 0);
        assert!(
            cache.stats.flushes >= 5,
            "every turn hands the cache the other plant: {:?}",
            cache.stats
        );
    }
}
