//! Property tests for the Owan core algorithms.
//!
//! Random plants, topologies, and transfer sets; the invariants checked
//! are the ones the correctness of the whole system rests on: neighbor
//! moves preserve degrees, rate assignments never oversubscribe a link or
//! a demand, circuit construction never violates optical constraints, and
//! the annealing result is always port-feasible and at least as good as
//! its starting point.

use owan_core::{
    anneal, assign_rates, build_topology, compute_energy, AnnealConfig, CircuitBuildConfig,
    EnergyContext, RateAssignConfig, SchedulingPolicy, Topology, Transfer,
};
use owan_optical::{FiberPlant, OpticalParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A connected random plant: ring + chords, every site a router.
fn arb_plant() -> impl Strategy<Value = FiberPlant> {
    (4usize..9, 2u32..4, 0u32..3, any::<u64>()).prop_map(|(n, ports, regens, seed)| {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 6,
            optical_reach_km: 900.0,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..n {
            p.add_site(&format!("S{i}"), ports, regens);
        }
        for i in 0..n {
            let len = 150.0 + ((seed >> (i % 13)) & 0x7f) as f64;
            p.add_fiber(i, (i + 1) % n, len);
        }
        if n > 4 {
            p.add_fiber(0, n / 2, 400.0);
        }
        p
    })
}

/// A port-feasible random topology for the plant.
fn topology_for(plant: &FiberPlant, pairs: &[(usize, usize)]) -> Topology {
    let n = plant.site_count();
    let mut topo = Topology::empty(n);
    for &(a, b) in pairs {
        let (u, v) = (a % n, b % n);
        if u != v
            && topo.degree(u) < plant.router_ports(u)
            && topo.degree(v) < plant.router_ports(v)
        {
            topo.add_links(u, v, 1);
        }
    }
    topo
}

fn transfers_for(plant: &FiberPlant, specs: &[(usize, usize, u32)]) -> Vec<Transfer> {
    let n = plant.site_count();
    specs
        .iter()
        .enumerate()
        .filter(|(_, &(s, d, _))| s % n != d % n)
        .map(|(i, &(s, d, vol))| Transfer {
            id: i,
            src: s % n,
            dst: d % n,
            volume_gbits: vol as f64,
            remaining_gbits: vol as f64,
            arrival_s: 0.0,
            deadline_s: None,
            starved_slots: 0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn neighbor_moves_preserve_port_usage(
        plant in arb_plant(),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 2..12),
        seed in any::<u64>(),
    ) {
        let topo = topology_for(&plant, &pairs);
        let degrees: Vec<u32> = (0..plant.site_count()).map(|s| topo.degree(s)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            if let Some(n) = owan_core::anneal::compute_neighbor(&topo, &mut rng) {
                for (s, &deg) in degrees.iter().enumerate() {
                    prop_assert_eq!(n.degree(s), deg);
                }
                prop_assert!(n.link_distance(&topo) <= 4);
            }
        }
    }

    #[test]
    fn rate_assignment_never_oversubscribes(
        plant in arb_plant(),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 2..12),
        specs in proptest::collection::vec((0usize..16, 0usize..16, 1u32..2_000), 1..12),
    ) {
        let topo = topology_for(&plant, &pairs);
        let transfers = transfers_for(&plant, &specs);
        let theta = plant.params().wavelength_capacity_gbps;
        let out = assign_rates(
            &topo, theta, &transfers,
            SchedulingPolicy::ShortestJobFirst, 10.0,
            &RateAssignConfig::default(),
        );
        // Per-link loads within capacity.
        let n = plant.site_count();
        let mut load = vec![0.0f64; n * n];
        for a in &out.allocations {
            for (path, r) in &a.paths {
                prop_assert!(*r > 0.0);
                for w in path.windows(2) {
                    load[w[0] * n + w[1]] += r;
                    load[w[1] * n + w[0]] += r;
                }
            }
        }
        for u in 0..n {
            for v in 0..n {
                let cap = topo.multiplicity(u, v) as f64 * theta;
                prop_assert!(load[u * n + v] <= cap + 1e-6);
            }
        }
        // Per-transfer rates within demand.
        for a in &out.allocations {
            let t = transfers.iter().find(|t| t.id == a.transfer).expect("known transfer");
            prop_assert!(a.total_rate() <= t.demand_rate_gbps(10.0) + 1e-6);
        }
        // Paths connect the right endpoints and are loopless.
        for a in &out.allocations {
            let t = transfers.iter().find(|t| t.id == a.transfer).expect("known");
            for (path, _) in &a.paths {
                prop_assert_eq!(path[0], t.src);
                prop_assert_eq!(*path.last().unwrap(), t.dst);
                let mut seen = path.clone();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), path.len());
            }
        }
    }

    #[test]
    fn built_circuits_respect_optical_invariants(
        plant in arb_plant(),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 2..12),
    ) {
        let topo = topology_for(&plant, &pairs);
        let fd = plant.fiber_distance_matrix();
        let built = build_topology(&plant, &topo, &fd, &CircuitBuildConfig::default());
        built.optical.check_invariants(&plant).map_err(|e| {
            TestCaseError::fail(format!("optical invariant violated: {e}"))
        })?;
        // Achieved is a sub-multigraph of desired.
        for (u, v, m) in built.achieved.links() {
            prop_assert!(m <= topo.multiplicity(u, v));
        }
        // Every achieved circuit's segments respect the reach.
        for (_, c) in built.optical.circuits() {
            for seg in &c.segments {
                prop_assert!(seg.length_km <= plant.params().optical_reach_km + 1e-9);
            }
        }
    }

    #[test]
    fn anneal_never_regresses_and_stays_feasible(
        plant in arb_plant(),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 2..10),
        specs in proptest::collection::vec((0usize..16, 0usize..16, 10u32..500), 1..8),
        seed in any::<u64>(),
    ) {
        let topo = topology_for(&plant, &pairs);
        let transfers = transfers_for(&plant, &specs);
        let fd = plant.fiber_distance_matrix();
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 10.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: owan_core::Profiler::disabled(),
        };
        let cfg = AnnealConfig { max_iterations: 30, seed, ..Default::default() };
        let res = anneal(&ctx, &topo, &cfg);
        prop_assert!(res.energy_gbps() + 1e-9 >= res.initial_energy_gbps,
            "best {} below initial {}", res.energy_gbps(), res.initial_energy_gbps);
        prop_assert!(res.topology.ports_feasible(&plant));
        // Energy is reproducible.
        let again = compute_energy(&ctx, &res.topology);
        prop_assert!((again.energy_gbps() - res.energy_gbps()).abs() < 1e-6);
    }

    #[test]
    fn miss_taxonomy_partitions_every_cache_miss(
        plant in arb_plant(),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 2..10),
        specs in proptest::collection::vec((0usize..16, 0usize..16, 10u32..500), 1..8),
        seed in any::<u64>(),
    ) {
        let topo = topology_for(&plant, &pairs);
        let transfers = transfers_for(&plant, &specs);
        let fd = plant.fiber_distance_matrix();
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 10.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: owan_core::Profiler::disabled(),
        };
        let cfg = AnnealConfig { max_iterations: 40, seed, ..Default::default() };
        let recorder = owan_obs::Recorder::enabled();
        let telemetry = owan_core::CoreTelemetry::new(&recorder);
        let mut cache = owan_core::EnergyCache::new();
        owan_core::anneal_with_cache(&ctx, &topo, &cfg, Some(&mut cache), &telemetry);

        // Counter-level accounting: the `anneal.cache_miss.<reason>`
        // counters sum exactly to `anneal.cache_miss` on the cached path,
        // where every evaluation — one per iteration after the initial
        // one — is `cold`.
        let snap = recorder.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let by_reason: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("anneal.cache_miss."))
            .map(|(_, v)| *v)
            .sum();
        prop_assert_eq!(by_reason, counter("anneal.cache_miss"));
        prop_assert_eq!(counter("anneal.cache_miss.uncached"), 0);
        prop_assert_eq!(counter("anneal.cache_miss"), cache.stats.outcome_misses);
        prop_assert_eq!(counter("anneal.cache_miss.cold"), cache.stats.outcome_misses);
        prop_assert_eq!(counter("anneal.cache_miss"), counter("anneal.iterations") + 1);
    }
}
