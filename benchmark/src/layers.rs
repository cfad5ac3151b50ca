//! The traced pass's layer ledger: every crate timed from outside, by
//! calling its public functions on the slots the decorator captured.
//!
//! Nothing here feeds an end-to-end number. Each replay opens a span
//! under a per-slot `replay` span, so the trace file shows where the
//! ledger's time went, and counts are taken at the same boundaries.
//! Samples are pushed under the metric's own name, in its unit; a metric
//! is the mean of its samples unless `measure` sets it otherwise.

use crate::engines::{CapturedSlot, ReplayEngine};
use crate::metrics::{mad, median, Values, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{
    chaos_inputs, op_fault_model, runner_config, update_params, RunOutcome, Workload, SLOT_LEN_S,
    TUNNELS_K,
};
use owan_chaos::{run_chaos, ChaosStats, FaultKind, FaultState, OpFaultModel};
use owan_core::{
    anneal_parallel_pooled, assign_rates, build_topology_observed, compute_energy,
    repair_spare_ports, AnnealConfig, CircuitBuildConfig, CoreTelemetry, EnergyCache,
    EnergyCacheStats, EnergyContext, MissReason, PlantCache, Profiler, RateAssignConfig,
    RegenGraph, SchedulingPolicy, SlotInput, SlotPlan, TrafficEngineer,
};
use owan_graph::{k_shortest_paths, shortest_paths};
use owan_obs::Recorder;
use owan_optical::{FiberPlant, OpticalState};
use owan_oracle::{check_plan, check_timeline};
use owan_scope::{ScopeConfig, ScopeRecorder};
use owan_sim::metrics::mean;
use owan_sim::{
    plan_is_feasible, run_controller, run_engine, run_engine_explained, run_engine_observed,
    run_engine_profiled, run_engine_traced, ControllerConfig, EngineKind, RunnerConfig,
};
use owan_te::{
    AmoebaConfig, AmoebaTe, FixedContext, GreedyTe, MaxFlowTe, SwanTe, TempusConfig, TempusTe,
};
use owan_topo::internet2_testbed;
use owan_update::{
    dependency_graph_size, execute_plan, plan_consistent, throughput_timeline, NetworkDelta,
    RetryPolicy,
};
use owan_why::{WhyConfig, WhyRecorder};
use owan_workload::{generate, WorkloadConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Captured slots the per-call replays sample from run 0.
const REPLAY_SLOTS: usize = 12;
/// Consecutive busy slots of run 0 the annealer is replayed over with
/// one persistent cache, as the engine holds it.
const ANNEAL_SLOTS: usize = 16;
/// Slots (and repeats per slot) of the two-worker pool measurement.
const POOL_SLOTS: usize = 3;
/// Requests of the testbed instance behind `sim.small_net_slot_us`.
const SMALL_NET_REQUESTS: usize = 30;
/// Interleaved repeats per tier.
const TIER_REPEATS: usize = 5;
/// Pairs / links sampled per slot by the per-call replays.
const PER_SLOT_CALLS: usize = 8;

/// What the traced pass hands the ledger.
pub struct LayerInputs<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Annealing iterations per slot.
    pub iterations: usize,
    /// Run 0, untraced, before the traced runs (the end-to-end side of the
    /// overhead comparison and the digest reference).
    pub untraced0: &'a RunOutcome,
    /// Run 0, untraced once more, after the traced runs.
    pub untraced0_again: &'a RunOutcome,
    /// The traced runs, run 0 first, with their captured slots.
    pub traced: &'a [RunOutcome],
    /// Span sink.
    pub spans: &'a Spans,
}

/// The ledger plus what the correctness pass found.
pub struct LayerReport {
    /// Every per-layer metric.
    pub values: Values,
    /// Slots the oracle audited across the traced runs.
    pub audited_slots: usize,
    /// What the oracle objected to.
    pub violations: Vec<String>,
}

/// Samples by metric name, plus the correctness pass's findings.
struct Ledger<'a> {
    inp: &'a LayerInputs<'a>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    audited: usize,
    violations: Vec<String>,
}

fn evenly<T>(items: &[T], n: usize) -> Vec<&T> {
    if items.len() <= n {
        return items.iter().collect();
    }
    (0..n).map(|i| &items[i * items.len() / n]).collect()
}

fn site_pairs(slot: &CapturedSlot) -> Vec<(usize, usize)> {
    let pairs: BTreeSet<(usize, usize)> = slot.transfers.iter().map(|t| (t.src, t.dst)).collect();
    pairs.into_iter().collect()
}

fn energy_context<'s>(
    slot: &'s CapturedSlot,
    dist: &'s [Vec<f64>],
    policy: SchedulingPolicy,
) -> EnergyContext<'s> {
    EnergyContext {
        plant: &slot.plant,
        fiber_dist: dist,
        transfers: &slot.transfers,
        policy,
        slot_len_s: slot.slot_len_s,
        circuit_config: CircuitBuildConfig::default(),
        rate_config: RateAssignConfig::default(),
        prof: Profiler::disabled(),
    }
}

/// A crash-restarted engine plans from `default_topology` of a degraded
/// plant; the rare capture whose start topology is sized for another
/// plant cannot be replayed through the annealer.
fn replayable(slot: &CapturedSlot) -> bool {
    slot.start_topology.site_count() == slot.plant.site_count()
}

impl<'a> Ledger<'a> {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Runs `f` inside span `span`; when `metric` is given, its elapsed
    /// time divided by `per_ns` becomes a sample of it.
    fn timed<T>(
        &mut self,
        span: &'static str,
        metric: Option<(&'static str, f64)>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let guard = self.inp.spans.enter(span);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as f64;
        drop(guard);
        if let Some((name, per_ns)) = metric {
            self.push(name, ns / per_ns);
        }
        (out, ns)
    }

    fn us<T>(&mut self, span: &'static str, metric: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(span, Some((metric, 1e3)), f).0
    }

    fn ms<T>(&mut self, span: &'static str, metric: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(span, Some((metric, 1e6)), f).0
    }

    /// Update scheduling, the feasibility check and the oracle, on every
    /// slot of every traced run. This is the correctness pass for the
    /// `run_controller` workloads; the fault workload was audited inside
    /// `run_chaos`, where the believed plant and the executed schedule
    /// are known.
    fn updates_and_audit(&mut self) {
        let inp = self.inp;
        let audit_here = !inp.workload.faults;
        let mut audit_ns = 0.0;
        for (ri, run) in inp.traced.iter().enumerate() {
            let params = update_params(&run.network.plant);
            let op_faults = if inp.workload.faults {
                op_fault_model(run.seed)
            } else {
                OpFaultModel::none()
            };
            self.audited += run.audited_slots;
            audit_ns += run.audit_ns as f64;
            for (si, slot) in run.log.captured.iter().enumerate() {
                inp.spans.set_context(ri as u32, si as u32);
                let _replay = inp.spans.enter("replay");
                self.us("sim.feasible", "sim.feasible_us_per_slot", || {
                    black_box(plan_is_feasible(&slot.plan, params.theta_gbps).is_ok())
                });
                if audit_here {
                    let (verdict, ns) = self.timed("oracle.check_plan", None, || {
                        check_plan(&slot.plant, &slot.transfers, slot.slot_len_s, &slot.plan)
                    });
                    audit_ns += ns;
                    self.audited += 1;
                    if let Err(v) = verdict {
                        self.violations
                            .push(format!("run {ri} slot {si}: plan: {v}"));
                    }
                }
                let Some(prev) = si.checked_sub(1).map(|p| &run.log.captured[p].plan) else {
                    continue;
                };
                let delta = self.us("update.delta", "update.delta_us_per_slot", || {
                    NetworkDelta::from_plans(
                        &prev.topology,
                        &prev.allocations,
                        &slot.plan.topology,
                        &slot.plan.allocations,
                        slot.plant.params().wavelengths_per_fiber,
                    )
                });
                let update = self.us("update.schedule", "update.schedule_us_per_slot", || {
                    plan_consistent(&delta, &params)
                });
                self.push("update.ops_per_slot", update.ops.len() as f64);
                self.push("update.makespan_s_p50", update.makespan_s);
                self.push(
                    "update.dep_edges_per_slot",
                    dependency_graph_size(&delta).1 as f64,
                );
                // The controller's own sampling of the transition; a slot
                // with nothing to update pays nothing and still counts.
                let window = update.makespan_s.min(slot.slot_len_s);
                if update.ops.is_empty() || window <= 1e-9 {
                    self.push("update.timeline_us_per_slot", 0.0);
                } else {
                    let dt = (window / 64.0).max(0.05);
                    self.us("update.timeline", "update.timeline_us_per_slot", || {
                        black_box(throughput_timeline(&delta, &update, &params, dt, window).len())
                    });
                }
                let mut inject = |op: usize, attempt: u32| op_faults.fault(si, op, attempt);
                let report = execute_plan(&delta, &update, &RetryPolicy::default(), &mut inject);
                self.push("update.exec_retries_per_slot", report.retries as f64);
                if audit_here {
                    let (verdict, ns) = self.timed("oracle.check_timeline", None, || {
                        check_timeline(&delta, &update, &params)
                    });
                    audit_ns += ns;
                    if let Err(v) = verdict {
                        self.violations
                            .push(format!("run {ri} slot {si}: update: {v}"));
                    }
                }
            }
        }
        self.push(
            "oracle.audit_us_per_slot",
            audit_ns / 1e3 / self.audited.max(1) as f64,
        );
    }

    /// `owan-graph`, `owan-optical` and the pieces of one energy
    /// evaluation, on slots sampled from run 0.
    fn per_call(&mut self, sampled: &[&CapturedSlot]) {
        let inp = self.inp;
        let policy = inp.workload.policy;
        let core_rec = Recorder::enabled();
        let core_tel = CoreTelemetry::new(&core_rec);
        let sp_calls = core_rec.counter("circuits.shortest_path_calls");
        for (i, &slot) in sampled.iter().enumerate() {
            inp.spans.set_context(0, i as u32);
            let _replay = inp.spans.enter("replay");
            let plant: &FiberPlant = &slot.plant;
            let dist = self.us(
                "optical.dist_matrix",
                "optical.dist_matrix_us_per_call",
                || plant.fiber_distance_matrix(),
            );
            if replayable(slot) {
                let mut topology = slot.start_topology.clone();
                self.us("core.repair", "core.repair_us_per_call", || {
                    repair_spare_ports(plant, &mut topology, &slot.transfers, &dist)
                });
            }
            for &&(src, dst) in &evenly(&site_pairs(slot), PER_SLOT_CALLS) {
                self.us("graph.dijkstra", "graph.dijkstra_us_per_call", || {
                    black_box(shortest_paths(plant.fiber_graph(), src).distance(dst))
                });
                self.us("graph.yen", "graph.yen_us_per_call", || {
                    black_box(k_shortest_paths(plant.fiber_graph(), src, dst, TUNNELS_K).len())
                });
            }

            // Regenerator graphs and provisioning over the planned links,
            // in the builder's own order.
            let links = slot.plan.topology.links();
            let fresh = OpticalState::new(plant);
            for &&(u, v, _) in &evenly(&links, PER_SLOT_CALLS) {
                self.us("core.regen_build", "core.regen_build_us_per_call", || {
                    black_box(RegenGraph::build(plant, &fresh, &dist, u, v).sites.len())
                });
            }
            let mut optical = OpticalState::new(plant);
            for &(u, v, m) in &links {
                for _ in 0..m {
                    let relay = RegenGraph::build(plant, &optical, &dist, u, v).best_relay_path();
                    let built = relay.is_some_and(|relay| {
                        self.us("optical.provision", "optical.provision_us_per_call", || {
                            optical.provision(plant, &relay).is_ok()
                        })
                    });
                    self.push("optical.provision_fail_frac", f64::from(u8::from(!built)));
                }
            }

            let before = sp_calls.get();
            self.ms("core.circuits", "core.circuits_ms_per_build", || {
                black_box(
                    build_topology_observed(
                        plant,
                        &slot.plan.topology,
                        &dist,
                        &CircuitBuildConfig::default(),
                        &core_tel,
                    )
                    .circuit_count(),
                )
            });
            self.push(
                "core.circuits_sp_calls_per_build",
                (sp_calls.get() - before) as f64,
            );
            self.us("core.rates", "core.rates_us_per_call", || {
                black_box(
                    assign_rates(
                        &slot.plan.topology,
                        plant.params().wavelength_capacity_gbps,
                        &slot.transfers,
                        policy,
                        slot.slot_len_s,
                        &RateAssignConfig::default(),
                    )
                    .throughput_gbps,
                )
            });
            let ctx = energy_context(slot, &dist, policy);
            self.ms("core.energy_naive", "core.energy_naive_ms_per_eval", || {
                black_box(compute_energy(&ctx, &slot.plan.topology).energy_gbps())
            });
        }
    }

    fn anneal_config(&self) -> AnnealConfig {
        AnnealConfig {
            max_iterations: self.inp.iterations,
            seed: self.inp.traced[0].seed,
            ..Default::default()
        }
    }

    /// The annealer over consecutive busy slots of run 0 with one
    /// persistent cache. Returns the cache's counters, the recorder the
    /// core published to, and the seconds spent annealing.
    fn anneal(&mut self) -> (EnergyCacheStats, Recorder, f64) {
        let inp = self.inp;
        let run0 = &inp.traced[0];
        let recorder = Recorder::enabled();
        let telemetry = CoreTelemetry::new(&recorder);
        let mut caches = vec![EnergyCache::new()];
        let cfg = self.anneal_config();
        let mut total_ns = 0.0;
        let window = run0
            .log
            .captured
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.transfers.is_empty() && replayable(s))
            .take(ANNEAL_SLOTS);
        for (si, slot) in window {
            inp.spans.set_context(0, si as u32);
            let _replay = inp.spans.enter("replay");
            let dist = slot.plant.fiber_distance_matrix();
            let mut current = slot.start_topology.clone();
            repair_spare_ports(&slot.plant, &mut current, &slot.transfers, &dist);
            let ctx = energy_context(slot, &dist, inp.workload.policy);
            let (_, ns) = self.timed(
                "core.anneal",
                Some(("core.anneal_ms_per_slot", 1e6)),
                || {
                    anneal_parallel_pooled(
                        &ctx,
                        &current,
                        &cfg,
                        1,
                        &mut caches,
                        Some(1),
                        &telemetry,
                    )
                },
            );
            total_ns += ns;
        }
        (caches[0].stats, recorder, total_ns / 1e9)
    }

    /// `PlantCache::build`, and two chains on one worker against two.
    fn plant_cache_and_pool(&mut self, busy: &[&CapturedSlot]) {
        let plant0 = &self.inp.traced[0].network.plant;
        let dist0 = plant0.fiber_distance_matrix();
        for _ in 0..3 {
            self.ms(
                "core.plant_cache_build",
                "core.plant_cache_build_ms",
                || {
                    black_box(PlantCache::build(plant0, &dist0));
                },
            );
        }
        let cfg = self.anneal_config();
        for &&slot in &evenly(busy, POOL_SLOTS) {
            if !replayable(slot) {
                continue;
            }
            let dist = slot.plant.fiber_distance_matrix();
            let ctx = energy_context(slot, &dist, self.inp.workload.policy);
            let pooled = |workers: usize| {
                let mut caches = vec![EnergyCache::new(), EnergyCache::new()];
                let t = Instant::now();
                black_box(
                    anneal_parallel_pooled(
                        &ctx,
                        &slot.start_topology,
                        &cfg,
                        2,
                        &mut caches,
                        Some(workers),
                        &CoreTelemetry::disabled(),
                    )
                    .iterations,
                );
                t.elapsed().as_secs_f64()
            };
            for rep in 0..POOL_SLOTS {
                // Alternate which side goes first.
                let (one, two) = if rep % 2 == 0 {
                    let one = pooled(1);
                    (one, pooled(2))
                } else {
                    let two = pooled(2);
                    (pooled(1), two)
                };
                self.push("core.pool_speedup_2w", one / two);
            }
        }
    }

    /// The LP baselines and the solver under them, on the sampled slots
    /// over the network's static topology. How many LPs an engine solves
    /// a slot, and their row counts, are not visible from outside
    /// `owan-te`; they wait for a counter there.
    fn baselines_and_solver(&mut self, sampled: &[&CapturedSlot]) {
        let inp = self.inp;
        let network = &inp.traced[0].network;
        let plant0 = &network.plant;
        let topo = || network.static_topology.clone();
        let theta = plant0.params().wavelength_capacity_gbps;
        type Baseline = (&'static str, &'static str, Box<dyn TrafficEngineer>);
        let mut baselines: [Baseline; 5] = [
            (
                "te.swan",
                "te.swan_ms_per_slot",
                Box::new(SwanTe::new(topo(), theta, TUNNELS_K)),
            ),
            (
                "te.tempus",
                "te.tempus_ms_per_slot",
                Box::new(TempusTe::new(
                    topo(),
                    theta,
                    TUNNELS_K,
                    TempusConfig::default(),
                )),
            ),
            (
                "te.amoeba",
                "te.amoeba_ms_per_slot",
                Box::new(AmoebaTe::new(
                    topo(),
                    theta,
                    TUNNELS_K,
                    AmoebaConfig::default(),
                )),
            ),
            (
                "te.maxflow",
                "te.maxflow_ms_per_slot",
                Box::new(MaxFlowTe::new(topo(), theta, TUNNELS_K)),
            ),
            (
                "te.greedy",
                "te.greedy_ms_per_slot",
                Box::new(GreedyTe::new(inp.workload.policy)),
            ),
        ];
        let mut fixed = FixedContext::new(topo(), theta, TUNNELS_K);
        for (i, &slot) in sampled.iter().enumerate() {
            inp.spans.set_context(0, i as u32);
            let _replay = inp.spans.enter("replay");
            let mut cold = FixedContext::new(topo(), theta, TUNNELS_K);
            for &&(src, dst) in &evenly(&site_pairs(slot), PER_SLOT_CALLS) {
                self.us("te.tunnels", "te.tunnel_us_per_pair", || {
                    black_box(cold.paths(src, dst).len())
                });
            }
            let input = SlotInput {
                transfers: &slot.transfers,
                slot_len_s: slot.slot_len_s,
                now_s: slot.now_s,
            };
            for (span, metric, engine) in &mut baselines {
                self.ms(span, metric, || {
                    black_box(engine.plan_slot(plant0, &input).throughput_gbps)
                });
            }

            // The simplex under them, on its own: one throughput LP over
            // the slot's tunnels, with its size as the crate's public
            // items give it (one rate variable per commodity and path).
            let (mcf, tunnels) = fixed.build_mcf(&slot.transfers, slot.slot_len_s);
            self.push("solver.commodities_per_solve", mcf.commodity_count() as f64);
            self.push(
                "solver.path_vars_per_solve",
                tunnels.iter().map(Vec::len).sum::<usize>() as f64,
            );
            self.ms("solver.solve", "solver.simplex_ms_per_solve", || {
                black_box(mcf.max_throughput().total_throughput)
            });
        }
    }

    /// The two slot loops with planning taken out: a `ReplayEngine`
    /// hands run 0's recorded plans back. What is left is the
    /// feasibility check, update scheduling and delivery.
    fn loops(&mut self) {
        let inp = self.inp;
        let run0 = &inp.traced[0];
        let plant0 = &run0.network.plant;
        let replay = || {
            let plans: Vec<(f64, SlotPlan)> = run0
                .log
                .captured
                .iter()
                .map(|s| (s.now_s, s.plan.clone()))
                .collect();
            ReplayEngine::new(plans, run0.network.static_topology.clone())
        };
        // Stop where the recording stops: past it the replay has no
        // allocations to hand out and the loop would spin to its cap.
        let max_slots = run0
            .log
            .captured
            .last()
            .map_or(1, |s| (s.now_s / SLOT_LEN_S).round() as usize + 1);
        inp.spans.set_context(0, 0);

        let cfg = ControllerConfig {
            max_slots,
            ..Default::default()
        };
        let mut engine = replay();
        let (result, ns) = self.timed("sim.loop", None, || {
            run_controller(plant0, &run0.requests, &mut engine, &cfg)
        });
        self.push(
            "sim.loop_us_per_slot",
            ns / 1e3 / result.delivered_series.len().max(1) as f64,
        );

        let (config, mut events, mut op_faults) = chaos_inputs(plant0, run0.seed, max_slots);
        if !inp.workload.faults {
            events.clear();
            op_faults = OpFaultModel::none();
        }
        let engine = replay();
        let mut build = |_: &FiberPlant| -> Box<dyn TrafficEngineer> { Box::new(engine.clone()) };
        let (result, ns) = self.timed("chaos.loop", None, || {
            run_chaos(
                plant0,
                &run0.requests,
                &mut build,
                &config,
                &events,
                &op_faults,
                &Recorder::disabled(),
                None,
            )
        });
        let slots = result.map_or(0, |r| r.slots);
        self.push("chaos.loop_us_per_slot", ns / 1e3 / slots.max(1) as f64);

        let mut state = FaultState::default();
        state.apply(&FaultKind::FiberCut(0));
        for _ in 0..8 {
            self.us(
                "chaos.degraded_view",
                "chaos.degraded_view_us_per_call",
                || black_box(state.degraded_view(plant0).0.fiber_count()),
            );
        }
    }

    /// The pieces of set-up, and a whole Owan slot on the 9-site testbed
    /// (the per-slot fixed-cost floor).
    fn setup_and_floor(&mut self) {
        let inp = self.inp;
        let seed = inp.traced[0].seed;
        for rep in 0..5u64 {
            let net = self.ms("topo.build", "topo.build_ms", || inp.workload.net.build());
            self.ms("workload.generate", "workload.generate_ms", || {
                black_box(inp.workload.requests(&net, seed + rep).len())
            });
        }
        let net = internet2_testbed();
        let mut reqs = generate(&net, &WorkloadConfig::testbed(1.0, seed));
        reqs.truncate(SMALL_NET_REQUESTS);
        let cfg = RunnerConfig {
            anneal_iterations: inp.iterations,
            seed,
            ..Default::default()
        };
        let (result, ns) = self.timed("sim.small_net", None, || {
            run_engine(EngineKind::Owan, &net, &reqs, &cfg)
        });
        self.push(
            "sim.small_net_slot_us",
            ns / 1e3 / result.slots.max(1) as f64,
        );
    }

    /// `run_engine_{observed,traced,profiled,explained}` against plain
    /// `run_engine` on run 0 of the workload (its network, request set,
    /// first engine and iteration count): interleaved repeats, one
    /// overhead fraction per tier per repeat.
    fn tiers(&mut self) {
        let inp = self.inp;
        let run0 = &inp.traced[0];
        let (net, reqs) = (&*run0.network, &run0.requests[..]);
        let cfg = runner_config(inp.workload, run0.seed, inp.iterations);
        let kind = run0.engine;
        let time = |f: &dyn Fn() -> usize| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        };
        let scope = || ScopeRecorder::enabled(ScopeConfig::default());
        for _ in 0..TIER_REPEATS {
            let _span = inp.spans.enter("tiers.repeat");
            let base = time(&|| run_engine(kind, net, reqs, &cfg).slots);
            let rec = Recorder::enabled();
            let obs = time(&|| run_engine_observed(kind, net, reqs, &cfg, &rec).slots);
            let (rec, sc) = (Recorder::enabled(), scope());
            let scoped = time(&|| run_engine_traced(kind, net, reqs, &cfg, &rec, &sc).slots);
            let (rec, sc, prof) = (Recorder::enabled(), scope(), Profiler::enabled());
            let profiled =
                time(&|| run_engine_profiled(kind, net, reqs, &cfg, &rec, &sc, &prof).slots);
            let (rec, sc, prof) = (Recorder::enabled(), scope(), Profiler::enabled());
            let why = WhyRecorder::enabled(WhyConfig::default(), &rec);
            let explained =
                time(&|| run_engine_explained(kind, net, reqs, &cfg, &rec, &sc, &prof, &why).slots);
            for (name, t) in [
                ("obs.overhead_frac", obs),
                ("scope.overhead_frac", scoped),
                ("prof.overhead_frac", profiled),
                ("why.overhead_frac", explained),
            ] {
                self.push(name, t / base - 1.0);
            }
        }
    }
}

/// Measures every per-layer metric.
pub fn measure(inp: &LayerInputs<'_>) -> LayerReport {
    let mut led = Ledger {
        inp,
        samples: BTreeMap::new(),
        audited: 0,
        violations: Vec::new(),
    };
    let run0 = &inp.traced[0];
    let busy: Vec<&CapturedSlot> = run0
        .log
        .captured
        .iter()
        .filter(|s| !s.transfers.is_empty())
        .collect();
    let sampled: Vec<&CapturedSlot> = evenly(&busy, REPLAY_SLOTS).into_iter().copied().collect();

    led.updates_and_audit();
    led.per_call(&sampled);
    let (cache, core, anneal_s) = led.anneal();
    led.plant_cache_and_pool(&busy);
    led.baselines_and_solver(&sampled);
    led.loops();
    led.setup_and_floor();
    led.tiers();

    // Whatever is not set here is the mean of its samples.
    let mut v = Values::new();
    let counter = |name: &str| core.counter(name).get() as f64;
    let ratio = |part: f64, rest: f64| part / (part + rest).max(1.0);
    v.insert(
        "core.rates_delta_frac",
        ratio(counter("rates.delta_evals"), counter("rates.full_evals")),
    );
    v.insert(
        "core.anneal_evals_per_s",
        (counter("anneal.cache_hit") + counter("anneal.cache_miss")) / anneal_s.max(1e-9),
    );
    v.insert(
        "core.cache_relay_hit_rate",
        ratio(
            (cache.relay_hits + cache.relay_relaxed_hits) as f64,
            cache.relay_misses as f64,
        ),
    );
    v.insert(
        "core.cache_outcome_hit_rate",
        ratio(cache.outcome_hits as f64, cache.outcome_misses as f64),
    );
    let core_telemetry = CoreTelemetry::new(&core);
    for (name, reason) in [
        ("core.cache_miss_cold", MissReason::Cold),
        ("core.cache_miss_flush", MissReason::Flush),
        (
            "core.cache_miss_class_collision",
            MissReason::ClassCollision,
        ),
        ("core.cache_miss_boundary_guard", MissReason::BoundaryGuard),
        (
            "core.cache_miss_membership_crossing",
            MissReason::MembershipCrossing,
        ),
        (
            "core.cache_miss_partial_candidate_list",
            MissReason::PartialCandidateList,
        ),
        ("core.cache_miss_capacity", MissReason::Capacity),
    ] {
        v.insert(name, core_telemetry.cache_miss_reason(reason).get() as f64);
    }
    let plan_s = inp.untraced0.log.plan_ns.iter().sum::<u64>() as f64 / 1e9;
    v.insert(
        "core.plan_share",
        plan_s / inp.untraced0.loop_wall_s.max(1e-9),
    );
    for name in [
        "core.pool_speedup_2w",
        "update.makespan_s_p50",
        "topo.build_ms",
        "workload.generate_ms",
        "obs.overhead_frac",
        "scope.overhead_frac",
        "prof.overhead_frac",
        "why.overhead_frac",
    ] {
        v.insert(name, median(led.of(name)).unwrap_or(0.0));
    }
    for (name, of) in [
        ("core.pool_speedup_2w_mad", "core.pool_speedup_2w"),
        ("obs.overhead_mad", "obs.overhead_frac"),
        ("scope.overhead_mad", "scope.overhead_frac"),
        ("prof.overhead_mad", "prof.overhead_frac"),
        ("why.overhead_mad", "why.overhead_frac"),
    ] {
        v.insert(name, mad(led.of(of)).unwrap_or(0.0));
    }
    let chaos_total = |f: fn(&ChaosStats) -> u64| -> f64 {
        inp.traced
            .iter()
            .filter_map(|r| r.chaos.as_ref())
            .fold(0.0, |acc, c| acc + f(c) as f64)
    };
    v.insert("chaos.fallback_slots", chaos_total(|c| c.fallback_slots));
    v.insert("chaos.op_retries", chaos_total(|c| c.op_retries));
    // Audit time is the correctness pass, not tracing. The untraced side
    // is the mean of a twin run before and one after the traced runs, so
    // that process warm-up does not read as negative overhead; what the
    // twins differ by is the noise an overhead has to exceed.
    let traced_wall = run0.loop_wall_s - run0.audit_ns as f64 / 1e9;
    let (before, after) = (inp.untraced0.loop_wall_s, inp.untraced0_again.loop_wall_s);
    let untraced_wall = (0.5 * (before + after)).max(1e-9);
    v.insert(
        "bench.trace_overhead_frac",
        traced_wall / untraced_wall - 1.0,
    );
    v.insert(
        "bench.trace_overhead_noise",
        (before - after).abs() / untraced_wall,
    );
    for d in &PER_LAYER {
        v.entry(d.name).or_insert_with(|| mean(led.of(d.name)));
    }

    LayerReport {
        values: v,
        audited_slots: led.audited,
        violations: led.violations,
    }
}
