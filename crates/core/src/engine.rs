//! The Owan traffic-engineering engine and the interface shared with the
//! baseline engines in `owan-te`.
//!
//! Each time slot the controller hands the current transfer set to an
//! engine, which returns a [`SlotPlan`]: the network-layer topology to
//! realize and per-transfer multi-path rate allocations (paper §3.1 steps
//! 1–3). The Owan engine runs the simulated-annealing joint optimization;
//! baselines keep a fixed topology and only recompute routing/rates.

use crate::anneal::{anneal_parallel_pooled, AnnealConfig};
use crate::cache::{plant_fingerprint, EnergyCache};
use crate::circuits::CircuitBuildConfig;
use crate::rates::RateAssignConfig;
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use crate::types::{Allocation, SchedulingPolicy, Transfer};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_prof::Profiler;

/// Input to an engine for one slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotInput<'a> {
    /// Transfers with outstanding demand at the start of the slot.
    pub transfers: &'a [Transfer],
    /// Slot length, seconds.
    pub slot_len_s: f64,
    /// Absolute slot start time, seconds.
    pub now_s: f64,
}

/// An engine's decision for one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPlan {
    /// The network-layer topology in effect during the slot (for Owan, the
    /// *achieved* topology after circuit construction).
    pub topology: Topology,
    /// Multi-path rate allocations.
    pub allocations: Vec<Allocation>,
    /// Total allocated rate, Gbps.
    pub throughput_gbps: f64,
}

/// A per-slot traffic-engineering algorithm.
pub trait TrafficEngineer {
    /// Human-readable name used in result tables ("Owan", "SWAN", …).
    fn name(&self) -> &str;

    /// Computes the plan for one slot. `plant` is passed per slot so that
    /// failure experiments can present a degraded plant.
    fn plan_slot(&mut self, plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan;

    /// Attaches a telemetry recorder. Engines that support instrumentation
    /// override this; the default ignores the recorder, so baselines stay
    /// untouched. Must never change planning behavior — with or without a
    /// recorder, `plan_slot` returns identical plans.
    fn set_recorder(&mut self, recorder: Recorder) {
        let _ = recorder;
    }

    /// Attaches a region profiler (observability tier 3). Same contract as
    /// [`TrafficEngineer::set_recorder`]: the default ignores it, and an
    /// attached profiler must never change planning behavior.
    fn set_profiler(&mut self, prof: Profiler) {
        let _ = prof;
    }
}

/// Configuration of the Owan engine.
#[derive(Debug, Clone, Copy)]
pub struct OwanConfig {
    /// Annealing parameters (Algorithm 1).
    pub anneal: AnnealConfig,
    /// Circuit-builder parameters.
    pub circuit: CircuitBuildConfig,
    /// Rate-assignment parameters.
    pub rate: RateAssignConfig,
    /// Transfer ordering policy (SJF for completion time, EDF for
    /// deadlines).
    pub policy: SchedulingPolicy,
    /// Independently-seeded annealing chains per slot (1 = sequential;
    /// chain 0 always replays the sequential search, so raising this only
    /// ever adds candidate results). The best-of reduction is
    /// deterministic regardless of thread scheduling.
    pub chains: usize,
}

impl Default for OwanConfig {
    fn default() -> Self {
        OwanConfig {
            anneal: AnnealConfig::default(),
            circuit: CircuitBuildConfig::default(),
            rate: RateAssignConfig::default(),
            policy: SchedulingPolicy::ShortestJobFirst,
            chains: 1,
        }
    }
}

/// The Owan engine: joint optical/network-layer optimization with
/// simulated annealing, seeded each slot from the previous slot's topology.
pub struct OwanEngine {
    config: OwanConfig,
    current: Topology,
    slot_counter: u64,
    telemetry: CoreTelemetry,
    prof: Profiler,
    /// One persistent [`EnergyCache`] per annealing chain; the plant-scoped
    /// layers survive across slots (and are fingerprint-flushed on plant
    /// changes).
    caches: Vec<EnergyCache>,
    /// The all-pairs fiber distance matrix (one Dijkstra per site) of the
    /// plant with this fingerprint: recomputed when a fault, a repair or a
    /// restart moves the fingerprint, not every slot.
    fiber_dist: Option<(u64, Vec<Vec<f64>>)>,
}

impl OwanEngine {
    /// Creates an engine starting from `initial` (typically the network's
    /// static topology).
    pub fn new(initial: Topology, config: OwanConfig) -> Self {
        assert!(config.chains >= 1, "at least one annealing chain");
        OwanEngine {
            config,
            current: initial,
            slot_counter: 0,
            telemetry: CoreTelemetry::disabled(),
            prof: Profiler::disabled(),
            caches: (0..config.chains).map(|_| EnergyCache::new()).collect(),
            fiber_dist: None,
        }
    }

    /// The topology the engine currently holds.
    pub fn current_topology(&self) -> &Topology {
        &self.current
    }

    /// The per-chain evaluation caches, one per annealing chain. Exposed
    /// for tests and benchmarks to inspect effectiveness counters.
    pub fn energy_caches(&self) -> &[EnergyCache] {
        &self.caches
    }
}

impl TrafficEngineer for OwanEngine {
    fn name(&self) -> &str {
        "Owan"
    }

    fn plan_slot(&mut self, plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let _region = self.prof.region("plan_slot");
        let sig = plant_fingerprint(plant);
        let fiber_dist = match self.fiber_dist.take() {
            Some((at, matrix)) if at == sig => matrix,
            _ => plant.fiber_distance_matrix(),
        };
        // Re-spend any ports freed by past circuit-construction failures:
        // the achieved topology may have fewer links than desired (Alg 3
        // lines 13-14), and the degree-preserving neighbor move can never
        // add them back on its own.
        {
            let _region = self.prof.region("repair");
            repair_spare_ports(plant, &mut self.current, input.transfers, &fiber_dist);
        }
        let ctx = crate::energy::EnergyContext {
            plant,
            fiber_dist: &fiber_dist,
            transfers: input.transfers,
            policy: self.config.policy,
            slot_len_s: input.slot_len_s,
            circuit_config: self.config.circuit,
            rate_config: self.config.rate,
            prof: self.prof.clone(),
        };
        // Vary the seed per slot deterministically so repeated runs agree
        // but successive slots explore differently.
        let mut cfg = self.config.anneal;
        cfg.seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.slot_counter);
        self.slot_counter += 1;

        let result = anneal_parallel_pooled(
            &ctx,
            &self.current,
            &cfg,
            self.config.chains,
            &mut self.caches,
            None,
            &self.telemetry,
        );
        self.fiber_dist = Some((sig, fiber_dist));
        self.current = result.outcome.built.achieved.clone();

        SlotPlan {
            topology: result.outcome.built.achieved,
            throughput_gbps: result.outcome.rates.throughput_gbps,
            allocations: result.outcome.rates.allocations,
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.telemetry = CoreTelemetry::new(&recorder);
    }

    fn set_profiler(&mut self, prof: Profiler) {
        self.prof = prof;
    }
}

/// Tops up a topology so that every router port is in use: spare port
/// pairs are spent on the site pairs with the highest outstanding demand,
/// then on the nearest router pairs by fiber distance. Leaves topologies
/// that already use all ports untouched.
pub fn repair_spare_ports(
    plant: &FiberPlant,
    topo: &mut Topology,
    transfers: &[Transfer],
    fiber_dist: &[Vec<f64>],
) {
    let routers = plant.router_sites();
    let spare = |topo: &Topology, s: usize| plant.router_ports(s).saturating_sub(topo.degree(s));
    if routers.iter().all(|&s| spare(topo, s) == 0) {
        return;
    }
    let n = plant.site_count();
    let mut demand = vec![0.0f64; n * n];
    for t in transfers {
        let (a, b) = (t.src.min(t.dst), t.src.max(t.dst));
        demand[a * n + b] += t.remaining_gbits;
    }
    loop {
        // Highest-demand spare pair first; fall back to nearest pair.
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for &u in &routers {
            if spare(topo, u) == 0 {
                continue;
            }
            for &v in &routers {
                if v <= u || spare(topo, v) == 0 {
                    continue;
                }
                let d = fiber_dist[u][v];
                if !d.is_finite() {
                    continue;
                }
                let key = (-demand[u * n + v], d, u, v);
                if best.is_none_or(|(bd, bdist, bu, bv)| key < (bd, bdist, bu, bv)) {
                    best = Some(key);
                }
            }
        }
        match best {
            Some((_, _, u, v)) => topo.add_links(u, v, 1),
            None => break,
        }
    }
}

/// A uniformly random port-feasible topology: router ports are paired at
/// random (seeded). Used by the seeding ablation — the paper argues that
/// starting the annealing from the *current* topology converges much
/// faster than starting from a random one (§5.4, Fig 10(d) discussion).
pub fn random_topology(plant: &FiberPlant, seed: u64) -> Topology {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::empty(plant.site_count());
    // One entry per free port.
    let mut ports: Vec<usize> = Vec::new();
    for s in plant.router_sites() {
        for _ in 0..plant.router_ports(s) {
            ports.push(s);
        }
    }
    // Fisher-Yates, then pair adjacent entries (skipping self-pairs).
    for i in (1..ports.len()).rev() {
        let j = rng.random_range(0..=i);
        ports.swap(i, j);
    }
    let mut i = 0;
    while i + 1 < ports.len() {
        let (u, v) = (ports[i], ports[i + 1]);
        if u != v {
            topo.add_links(u, v, 1);
            i += 2;
        } else {
            // Rotate the duplicate away; give up if everything left is
            // the same site.
            if ports[i + 1..].iter().all(|&p| p == u) {
                break;
            }
            let k = (i + 1..ports.len())
                .find(|&k| ports[k] != u)
                .expect("checked above");
            ports.swap(i + 1, k);
        }
    }
    debug_assert!(topo.ports_feasible(plant));
    topo
}

/// Derives a reasonable initial topology from a plant: a ring over the
/// router sites (in id order) using one port per direction, then any spare
/// ports pair up nearest router neighbors by fiber distance. The result is
/// connected and port-feasible — a neutral starting point for both Owan and
/// the fixed-topology baselines on synthetic plants.
pub fn default_topology(plant: &FiberPlant) -> Topology {
    let routers = plant.router_sites();
    let n = plant.site_count();
    let mut topo = Topology::empty(n);
    if routers.len() < 2 {
        return topo;
    }
    let spare = |topo: &Topology, s: usize| plant.router_ports(s).saturating_sub(topo.degree(s));
    // Ring for connectivity — but never beyond a site's port budget (a
    // 1-port router can terminate only one ring link, degrading the ring
    // to a path there). Unchanged when every router has ≥ 2 ports.
    for i in 0..routers.len() {
        let u = routers[i];
        let v = routers[(i + 1) % routers.len()];
        if u != v && spare(&topo, u) > 0 && spare(&topo, v) > 0 {
            topo.add_links(u, v, 1);
        }
    }
    // Spend spare ports on nearest neighbors, greedily and deterministically.
    let dist = plant.fiber_distance_matrix();
    loop {
        let mut best: Option<(f64, usize, usize)> = None;
        for &u in &routers {
            if spare(&topo, u) == 0 {
                continue;
            }
            for &v in &routers {
                if v <= u || spare(&topo, v) == 0 {
                    continue;
                }
                let d = dist[u][v];
                if d.is_finite() && best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, u, v));
                }
            }
        }
        match best {
            Some((_, u, v)) => topo.add_links(u, v, 1),
            None => break,
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    fn plant(n: usize, ports: u32) -> FiberPlant {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 8,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..n {
            p.add_site(&format!("S{i}"), ports, 1);
        }
        for i in 0..n {
            p.add_fiber(i, (i + 1) % n, 300.0);
        }
        p
    }

    fn transfer(id: usize, src: usize, dst: usize, gbits: f64) -> Transfer {
        Transfer {
            id,
            src,
            dst,
            volume_gbits: gbits,
            remaining_gbits: gbits,
            arrival_s: 0.0,
            deadline_s: None,
            starved_slots: 0,
        }
    }

    #[test]
    fn default_topology_connected_and_feasible() {
        let p = plant(6, 3);
        let t = default_topology(&p);
        assert!(t.ports_feasible(&p));
        assert!(t.connects_routers(&p));
        assert!(t.total_links() >= 6, "ring plus spare ports");
    }

    #[test]
    fn default_topology_handles_portless_sites() {
        let p_params = OpticalParams {
            wavelengths_per_fiber: 8,
            ..Default::default()
        };
        let mut p = FiberPlant::new(p_params);
        p.add_site("A", 2, 0);
        p.add_site("RELAY", 0, 4);
        p.add_site("B", 2, 0);
        p.add_fiber(0, 1, 100.0);
        p.add_fiber(1, 2, 100.0);
        let t = default_topology(&p);
        assert_eq!(t.degree(1), 0, "relay site gets no network-layer links");
        assert!(t.multiplicity(0, 2) >= 1);
    }

    #[test]
    fn owan_engine_produces_feasible_plans() {
        let p = plant(4, 2);
        let initial = default_topology(&p);
        let mut engine = OwanEngine::new(initial, OwanConfig::default());
        let transfers = vec![transfer(0, 0, 1, 50.0), transfer(1, 2, 3, 50.0)];
        let input = SlotInput {
            transfers: &transfers,
            slot_len_s: 1.0,
            now_s: 0.0,
        };
        let plan = engine.plan_slot(&p, &input);
        assert!(plan.topology.ports_feasible(&p));
        assert!(plan.throughput_gbps > 0.0);
        // Allocations reference real transfers and carry positive rates.
        for a in &plan.allocations {
            assert!(a.transfer <= 1);
            assert!(a.total_rate() > 0.0);
        }
    }

    #[test]
    fn owan_engine_carries_topology_across_slots() {
        let p = plant(4, 2);
        let initial = default_topology(&p);
        let mut engine = OwanEngine::new(initial.clone(), OwanConfig::default());
        let transfers = vec![transfer(0, 0, 2, 500.0)];
        let input = SlotInput {
            transfers: &transfers,
            slot_len_s: 1.0,
            now_s: 0.0,
        };
        let plan1 = engine.plan_slot(&p, &input);
        assert_eq!(engine.current_topology(), &plan1.topology);
    }

    #[test]
    fn engine_name() {
        let p = plant(4, 2);
        let engine = OwanEngine::new(default_topology(&p), OwanConfig::default());
        assert_eq!(engine.name(), "Owan");
    }
}
