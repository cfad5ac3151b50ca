//! Experiment runner: constructs engines by name and drives whole
//! comparison sweeps, optionally in parallel across engines/loads.

use crate::sim::{simulate, simulate_probed, Probes, SimConfig, SimResult};
use owan_core::{
    default_topology, AnnealConfig, OwanConfig, OwanEngine, SchedulingPolicy, TrafficEngineer,
    TransferRequest,
};
use owan_obs::Recorder;
use owan_te::{
    AmoebaConfig, AmoebaTe, GreedyTe, MaxFlowTe, MaxMinFractTe, RateOnlyTe, RoutingRateTe, SwanTe,
    TempusConfig, TempusTe,
};
use owan_topo::Network;

/// The engines the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The full joint optimization (this paper).
    Owan,
    /// LP max total throughput.
    MaxFlow,
    /// LP max-min served fraction.
    MaxMinFract,
    /// Iterated-LP approximate max-min + throughput.
    Swan,
    /// Time-expanded deadline LP.
    Tempus,
    /// Deadline admission control.
    Amoeba,
    /// Separate-layer greedy (§5.4).
    Greedy,
    /// Rate-only ablation (Fig 10(c)).
    RateOnly,
    /// Routing+rate ablation (Fig 10(c)).
    RoutingRate,
}

impl EngineKind {
    /// Engines used in the deadline-unconstrained comparison (Fig 7/8).
    pub const UNCONSTRAINED: [EngineKind; 4] = [
        EngineKind::Owan,
        EngineKind::MaxFlow,
        EngineKind::MaxMinFract,
        EngineKind::Swan,
    ];

    /// Engines used in the deadline-constrained comparison (Fig 9).
    pub const DEADLINE: [EngineKind; 6] = [
        EngineKind::Owan,
        EngineKind::MaxFlow,
        EngineKind::MaxMinFract,
        EngineKind::Swan,
        EngineKind::Tempus,
        EngineKind::Amoeba,
    ];
}

/// Knobs shared by every engine construction.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Simulation parameters.
    pub sim: SimConfig,
    /// Tunnels per site pair for LP baselines.
    pub tunnels_k: usize,
    /// Annealing iterations for Owan (per slot; Fig 10(d) sweeps it).
    pub anneal_iterations: usize,
    /// Starvation guard threshold `t̂` for Owan's rate assignment (§3.2).
    pub starvation_threshold: u32,
    /// Annealing seed.
    pub seed: u64,
    /// Transfer ordering policy for Owan/Greedy/ablations.
    pub policy: SchedulingPolicy,
    /// Parallel annealing chains per slot for Owan (1 = sequential; the
    /// result for N chains is deterministic and never worse than chain 0's).
    pub anneal_chains: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            sim: SimConfig::default(),
            tunnels_k: 4,
            anneal_iterations: 200,
            starvation_threshold: owan_core::RateAssignConfig::default().starvation_threshold,
            seed: 1,
            policy: SchedulingPolicy::ShortestJobFirst,
            anneal_chains: 1,
        }
    }
}

/// Builds a fresh engine of the given kind for `network`.
pub fn make_engine(
    kind: EngineKind,
    network: &Network,
    config: &RunnerConfig,
) -> Box<dyn TrafficEngineer + Send> {
    let theta = network.plant.params().wavelength_capacity_gbps;
    let topo = network.static_topology.clone();
    let k = config.tunnels_k;
    match kind {
        EngineKind::Owan => {
            let owan_cfg = OwanConfig {
                anneal: AnnealConfig {
                    max_iterations: config.anneal_iterations,
                    seed: config.seed,
                    ..Default::default()
                },
                rate: owan_core::RateAssignConfig {
                    starvation_threshold: config.starvation_threshold,
                    ..Default::default()
                },
                policy: config.policy,
                chains: config.anneal_chains,
                ..Default::default()
            };
            let initial = if topo.total_links() > 0 {
                topo
            } else {
                default_topology(&network.plant)
            };
            Box::new(OwanEngine::new(initial, owan_cfg))
        }
        EngineKind::MaxFlow => Box::new(MaxFlowTe::new(topo, theta, k)),
        EngineKind::MaxMinFract => Box::new(MaxMinFractTe::new(topo, theta, k)),
        EngineKind::Swan => Box::new(SwanTe::new(topo, theta, k)),
        EngineKind::Tempus => Box::new(TempusTe::new(topo, theta, k, TempusConfig::default())),
        EngineKind::Amoeba => Box::new(AmoebaTe::new(topo, theta, k, AmoebaConfig::default())),
        EngineKind::Greedy => Box::new(GreedyTe::new(config.policy)),
        EngineKind::RateOnly => Box::new(RateOnlyTe::new(topo, theta)),
        EngineKind::RoutingRate => Box::new(RoutingRateTe::new(topo, theta, config.policy)),
    }
}

/// Runs one engine over a workload.
pub fn run_engine(
    kind: EngineKind,
    network: &Network,
    requests: &[TransferRequest],
    config: &RunnerConfig,
) -> SimResult {
    let mut engine = make_engine(kind, network, config);
    simulate(&network.plant, requests, engine.as_mut(), &config.sim)
}

/// [`run_engine`] through [`simulate_probed`] with a recorder attached.
/// This and the next three shims exist for the benchmark's overhead rows;
/// other callers build a [`Probes`] and call [`simulate_probed`].
pub fn run_engine_observed(
    kind: EngineKind,
    network: &Network,
    requests: &[TransferRequest],
    config: &RunnerConfig,
    recorder: &Recorder,
) -> SimResult {
    let probes = Probes {
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut engine = make_engine(kind, network, config);
    simulate_probed(
        &network.plant,
        requests,
        engine.as_mut(),
        &config.sim,
        &probes,
    )
}

/// [`run_engine_observed`] with a flight recorder attached on top.
pub fn run_engine_traced(
    kind: EngineKind,
    network: &Network,
    requests: &[TransferRequest],
    config: &RunnerConfig,
    recorder: &Recorder,
    scope: &owan_scope::ScopeRecorder,
) -> SimResult {
    let probes = Probes {
        recorder: recorder.clone(),
        scope: scope.clone(),
        ..Default::default()
    };
    let mut engine = make_engine(kind, network, config);
    simulate_probed(
        &network.plant,
        requests,
        engine.as_mut(),
        &config.sim,
        &probes,
    )
}

/// [`run_engine_traced`] with a region profiler attached on top.
pub fn run_engine_profiled(
    kind: EngineKind,
    network: &Network,
    requests: &[TransferRequest],
    config: &RunnerConfig,
    recorder: &Recorder,
    scope: &owan_scope::ScopeRecorder,
    prof: &owan_core::Profiler,
) -> SimResult {
    let probes = Probes {
        recorder: recorder.clone(),
        scope: scope.clone(),
        prof: prof.clone(),
        ..Default::default()
    };
    let mut engine = make_engine(kind, network, config);
    simulate_probed(
        &network.plant,
        requests,
        engine.as_mut(),
        &config.sim,
        &probes,
    )
}

/// [`run_engine_profiled`] with a why recorder attached on top.
#[allow(clippy::too_many_arguments)]
pub fn run_engine_explained(
    kind: EngineKind,
    network: &Network,
    requests: &[TransferRequest],
    config: &RunnerConfig,
    recorder: &Recorder,
    scope: &owan_scope::ScopeRecorder,
    prof: &owan_core::Profiler,
    why: &owan_why::WhyRecorder,
) -> SimResult {
    let probes = Probes {
        recorder: recorder.clone(),
        scope: scope.clone(),
        prof: prof.clone(),
        why: why.clone(),
    };
    let mut engine = make_engine(kind, network, config);
    simulate_probed(
        &network.plant,
        requests,
        engine.as_mut(),
        &config.sim,
        &probes,
    )
}

/// Runs several engines over the same workload, in parallel (one thread
/// per engine via `std::thread::scope`, which joins all threads and
/// propagates panics before returning).
pub fn run_comparison(
    kinds: &[EngineKind],
    network: &Network,
    requests: &[TransferRequest],
    config: &RunnerConfig,
) -> Vec<SimResult> {
    let mut results: Vec<Option<SimResult>> = (0..kinds.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, &kind) in results.iter_mut().zip(kinds) {
            scope.spawn(move || {
                *slot = Some(run_engine(kind, network, requests, config));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("thread filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_topo::internet2_testbed;
    use owan_workload::{generate, WorkloadConfig};

    fn small_workload() -> (Network, Vec<TransferRequest>) {
        let net = internet2_testbed();
        let mut cfg = WorkloadConfig::testbed(0.5, 42);
        cfg.duration_s = 1_200.0;
        (net.clone(), generate(&net, &cfg))
    }

    fn fast_runner() -> RunnerConfig {
        RunnerConfig {
            sim: SimConfig {
                slot_len_s: 300.0,
                max_slots: 400,
                ..Default::default()
            },
            anneal_iterations: 60,
            ..Default::default()
        }
    }

    #[test]
    fn every_engine_kind_constructs_and_runs() {
        let (net, reqs) = small_workload();
        let reqs: Vec<_> = reqs.into_iter().take(6).collect();
        let cfg = fast_runner();
        for kind in [
            EngineKind::Owan,
            EngineKind::MaxFlow,
            EngineKind::MaxMinFract,
            EngineKind::Swan,
            EngineKind::Tempus,
            EngineKind::Amoeba,
            EngineKind::Greedy,
            EngineKind::RateOnly,
            EngineKind::RoutingRate,
        ] {
            let res = run_engine(kind, &net, &reqs, &cfg);
            assert!(res.all_completed(), "{kind:?} left transfers unfinished");
        }
    }

    #[test]
    fn comparison_runs_in_parallel_and_preserves_order() {
        let (net, reqs) = small_workload();
        let reqs: Vec<_> = reqs.into_iter().take(5).collect();
        let cfg = fast_runner();
        let results = run_comparison(&[EngineKind::MaxFlow, EngineKind::Swan], &net, &reqs, &cfg);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].engine, "MaxFlow");
        assert_eq!(results[1].engine, "SWAN");
    }
}
