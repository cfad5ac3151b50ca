//! Fast-path equivalence suite: the lazy relay search, the circuit ledger
//! and its delta rebuilds, the rate kernel, and parallel multi-chain
//! annealing are pure accelerations (`ledger.rs` checks the ledger
//! evaluation by evaluation) — every test here pins the accelerated paths
//! bit-for-bit to the naive reference, across benchmark networks, seeds,
//! an exact enumeration oracle, and plant-mutating invalidations.
//!
//! Debug builds additionally cross-check every ledger build against a
//! from-scratch naive build inside `owan-core` (`debug_assert_eq!`),
//! so running this suite under `cargo test` exercises far more equality
//! checks than the explicit asserts below.

mod common;

use common::{context, fixture, fixture_on, scarce_network};
use owan::core::anneal::compute_neighbor;
use owan::core::{
    anneal_observed, anneal_parallel, anneal_parallel_pooled, anneal_with_cache,
    assign_rates_reference, assign_rates_with, build_topology, build_topology_cached,
    build_topology_observed, default_topology, repair_spare_ports, AnnealConfig,
    CircuitBuildConfig, CoreTelemetry, EnergyCache, EnergyContext, OwanConfig, OwanEngine,
    RateAssignConfig, RateInputs, RateOutcome, RateScratch, SchedulingPolicy, SlotInput, Topology,
    TrafficEngineer, Transfer,
};
use owan::obs::Recorder;
use owan::optical::{FiberPlant, OpticalParams};
use owan::oracle::anneal_gap;
use owan::topo::Network;
use owan_bench::{net_by_name, workload_for, Scale};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The cached fast path must be bit-identical to the naive reference on
/// every benchmark network, across 20 seeds each (seeds vary both the
/// workload and the annealing walk).
#[test]
fn cached_anneal_is_bit_identical_to_naive() {
    for net_name in ["internet2", "isp", "interdc"] {
        for seed in 0..20u64 {
            let (net, transfers, initial) = fixture(net_name, seed);
            let fiber_dist = net.plant.fiber_distance_matrix();
            let ctx = context(&net, &fiber_dist, &transfers);
            let config = AnnealConfig {
                max_iterations: 25,
                seed,
                ..Default::default()
            };
            let telemetry = CoreTelemetry::disabled();
            let mut cache = EnergyCache::new();
            let fast = anneal_with_cache(&ctx, &initial, &config, Some(&mut cache), &telemetry);
            let naive = anneal_with_cache(&ctx, &initial, &config, None, &telemetry);
            assert_eq!(
                fast.topology, naive.topology,
                "{net_name} seed {seed}: cached topology diverged"
            );
            assert_eq!(
                fast.energy_gbps().to_bits(),
                naive.energy_gbps().to_bits(),
                "{net_name} seed {seed}: cached energy diverged"
            );
            assert_eq!(fast.iterations, naive.iterations);
            assert_eq!(
                fast.initial_energy_gbps.to_bits(),
                naive.initial_energy_gbps.to_bits()
            );
        }
    }
}

/// Algorithm 2 as it was first written: list the links, expand nothing,
/// walk the cumulative multiplicities of the list to the unit drawn. The
/// annealer's `compute_neighbor` walks the matrix rows instead; the
/// RNG-to-move mapping must be this one.
fn neighbor_by_link_list(s: &Topology, rng: &mut StdRng) -> Option<Topology> {
    let links = s.links();
    let total = links.iter().map(|&(_, _, m)| m as usize).sum::<usize>();
    if total < 2 {
        return None;
    }
    let unit_at = |idx: usize| -> (usize, usize) {
        let mut rem = idx;
        for &(u, v, m) in &links {
            if rem < m as usize {
                return (u, v);
            }
            rem -= m as usize;
        }
        unreachable!("index {idx} beyond {total} link units");
    };
    for _attempt in 0..64 {
        let i = rng.random_range(0..total);
        let j = rng.random_range(0..total);
        if i == j {
            continue;
        }
        let (mut u, mut v) = unit_at(i);
        let (mut p, mut q) = unit_at(j);
        if rng.random::<bool>() {
            std::mem::swap(&mut u, &mut v);
        }
        if rng.random::<bool>() {
            std::mem::swap(&mut p, &mut q);
        }
        if u == p || v == q {
            continue;
        }
        let mut t = s.clone();
        t.remove_links(u, v, 1);
        t.remove_links(p, q, 1);
        t.add_links(u, p, 1);
        t.add_links(v, q, 1);
        return Some(t);
    }
    None
}

/// 10 000 draws a network from two generators in lockstep: the same moves,
/// and the same number of draws consumed (or the next move would differ).
/// Every tenth move is taken, so the walk leaves the default topology.
#[test]
fn neighbor_moves_keep_the_rng_to_move_mapping() {
    for net_name in ["internet2", "isp", "interdc"] {
        let (_, _, mut current) = fixture(net_name, 0);
        let mut by_rows = StdRng::seed_from_u64(17);
        let mut by_list = StdRng::seed_from_u64(17);
        for draw in 0..10_000 {
            let got = compute_neighbor(&current, &mut by_rows);
            let want = neighbor_by_link_list(&current, &mut by_list);
            assert_eq!(got, want, "{net_name} draw {draw}");
            if let (0, Some(next)) = (draw % 10, got) {
                current = next;
            }
        }
    }
}

/// `anneal_parallel` with one chain is the sequential search, exactly.
#[test]
fn parallel_single_chain_equals_sequential() {
    for seed in [0u64, 7, 19] {
        let (net, transfers, initial) = fixture("isp", seed);
        let fiber_dist = net.plant.fiber_distance_matrix();
        let ctx = context(&net, &fiber_dist, &transfers);
        let config = AnnealConfig {
            max_iterations: 25,
            seed,
            ..Default::default()
        };
        let telemetry = CoreTelemetry::disabled();
        let seq = anneal_observed(&ctx, &initial, &config, &telemetry);
        let par = anneal_parallel(&ctx, &initial, &config, 1, &telemetry);
        assert_eq!(seq.topology, par.topology);
        assert_eq!(seq.energy_gbps().to_bits(), par.energy_gbps().to_bits());
    }
}

/// Multi-chain annealing is deterministic: two four-chain runs agree
/// bit-for-bit regardless of thread scheduling.
#[test]
fn parallel_multi_chain_is_deterministic() {
    let (net, transfers, initial) = fixture("internet2", 3);
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = context(&net, &fiber_dist, &transfers);
    let config = AnnealConfig {
        max_iterations: 25,
        seed: 3,
        ..Default::default()
    };
    let telemetry = CoreTelemetry::disabled();
    let a = anneal_parallel(&ctx, &initial, &config, 4, &telemetry);
    let b = anneal_parallel(&ctx, &initial, &config, 4, &telemetry);
    assert_eq!(a.topology, b.topology);
    assert_eq!(a.energy_gbps().to_bits(), b.energy_gbps().to_bits());
}

/// The evaluation pool's worker count is a pure scheduling knob: the same
/// four-chain search through 1, 2, and 8 workers (inline, under-, and
/// over-subscribed relative to the chains) returns the identical winner,
/// bit for bit, and matches the machine-sized default.
#[test]
fn eval_pool_worker_count_never_changes_the_plan() {
    let (net, transfers, initial) = fixture("isp", 13);
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = context(&net, &fiber_dist, &transfers);
    let config = AnnealConfig {
        max_iterations: 25,
        seed: 13,
        ..Default::default()
    };
    let telemetry = CoreTelemetry::disabled();
    let chains = 4;
    let run = |workers: Option<usize>| {
        let mut caches: Vec<EnergyCache> = (0..chains).map(|_| EnergyCache::new()).collect();
        anneal_parallel_pooled(
            &ctx,
            &initial,
            &config,
            chains,
            &mut caches,
            workers,
            &telemetry,
        )
    };
    let reference = run(Some(1));
    for workers in [Some(2), Some(8), None] {
        let r = run(workers);
        assert_eq!(
            reference.topology, r.topology,
            "workers {workers:?}: pooled topology diverged from inline"
        );
        assert_eq!(
            reference.energy_gbps().to_bits(),
            r.energy_gbps().to_bits(),
            "workers {workers:?}: pooled energy diverged from inline"
        );
        assert_eq!(reference.iterations, r.iterations);
    }
}

/// Differential against the exact oracle: the oracle's annealing gap is
/// measured on the cached search, and on an enumerable instance its
/// heuristic result must be the naive reference's, bit for bit (the cache
/// may make the search faster, never different).
#[test]
fn oracle_gap_is_unchanged_by_the_cache() {
    let params = OpticalParams {
        wavelength_capacity_gbps: 10.0,
        wavelengths_per_fiber: 8,
        ..Default::default()
    };
    let mut plant = FiberPlant::new(params);
    for i in 0..4 {
        plant.add_site(&format!("S{i}"), 2, 2);
    }
    for i in 0..4 {
        plant.add_fiber(i, (i + 1) % 4, 300.0);
    }
    let mk = |id: usize, src: usize, dst: usize| Transfer {
        id,
        src,
        dst,
        volume_gbits: 400.0,
        remaining_gbits: 400.0,
        arrival_s: 0.0,
        deadline_s: None,
        starved_slots: 0,
    };
    let transfers = vec![mk(0, 0, 1), mk(1, 2, 3), mk(2, 1, 2)];
    let fiber_dist = plant.fiber_distance_matrix();
    let ctx = EnergyContext {
        plant: &plant,
        fiber_dist: &fiber_dist,
        transfers: &transfers,
        policy: SchedulingPolicy::ShortestJobFirst,
        slot_len_s: 300.0,
        circuit_config: CircuitBuildConfig::default(),
        rate_config: RateAssignConfig::default(),
        prof: owan::prof::Profiler::disabled(),
    };
    let initial = default_topology(&plant);
    let config = AnnealConfig {
        max_iterations: 60,
        seed: 11,
        ..Default::default()
    };
    let gap = anneal_gap(&ctx, &initial, &config).expect("instance is enumerable");
    let naive = anneal_with_cache(&ctx, &initial, &config, None, &CoreTelemetry::disabled());
    assert_eq!(
        gap.heuristic_gbps.to_bits(),
        naive.energy_gbps().to_bits(),
        "cache changed the heuristic result"
    );
}

/// Plant invalidation: degrading an amplifier between slots (the chaos
/// fault model shrinks a fiber's usable band) must flush the plant-scoped
/// cache layers — and each slot's plan must still be the naive reference's
/// on that slot's inputs: the engine's repaired start topology, the plant
/// as it stands, and the engine's per-slot seed.
#[test]
fn plant_degradation_flushes_and_stays_equivalent() {
    // The ISP, not Internet2: there a 25-iteration walk ends on the same
    // plan whatever the seed, and a wrong per-slot seed would pass.
    let (net, transfers, initial) = fixture("isp", 5);
    let config = OwanConfig {
        anneal: AnnealConfig {
            max_iterations: 25,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut engine = OwanEngine::new(initial, config);
    // Plans slot `slot` on the engine and on the naive reference, from the
    // topology the engine holds, and checks the two agree bit for bit.
    let plan_both = |engine: &mut OwanEngine, plant: &FiberPlant, slot: u64| {
        let fiber_dist = plant.fiber_distance_matrix();
        let mut start = engine.current_topology().clone();
        repair_spare_ports(plant, &mut start, &transfers, &fiber_dist);
        let input = SlotInput {
            transfers: &transfers,
            slot_len_s: 300.0,
            now_s: 300.0 * slot as f64,
        };
        let plan = engine.plan_slot(plant, &input);

        let ctx = EnergyContext {
            plant,
            ..context(&net, &fiber_dist, &transfers)
        };
        let seed = config
            .anneal
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(slot);
        let cfg = AnnealConfig {
            seed,
            ..config.anneal
        };
        let naive = anneal_with_cache(&ctx, &start, &cfg, None, &CoreTelemetry::disabled());
        assert_eq!(
            plan.topology, naive.outcome.built.achieved,
            "slot {slot}: plan diverged from the naive reference"
        );
        assert_eq!(
            plan.throughput_gbps.to_bits(),
            naive.energy_gbps().to_bits(),
            "slot {slot}: throughput diverged from the naive reference"
        );
    };

    let mut plant = net.plant.clone();
    plan_both(&mut engine, &plant, 0);
    assert_eq!(engine.energy_caches()[0].stats.flushes, 0);

    // Degrade one fiber's amplifier: usable wavelengths shrink, the plant
    // fingerprint moves, and the stale plant tables must go.
    let cap = plant.usable_wavelengths(0).saturating_sub(2).max(1);
    plant.set_fiber_wavelength_cap(0, Some(cap));
    plan_both(&mut engine, &plant, 1);
    assert!(
        engine.energy_caches()[0].stats.flushes >= 1,
        "degradation did not flush the plant-scoped cache layers"
    );
}

/// The rate kernel against the pass it replaced, on every achieved
/// topology a seeded ISP slot loop evaluates: each slot walks 30 neighbor
/// moves from its topology, builds the circuits of each and runs both
/// passes on what was achieved, in one scratch for the whole loop; the
/// best plan then runs for a slot, so later slots see drained volumes,
/// starved transfers and fewer of them. Paths, rates and throughput must
/// be equal bit for bit (`crates/core/tests/rate_kernel.rs` has the
/// synthetic sweep; this is the controller's own input distribution).
#[test]
fn rate_kernel_equals_reference_on_every_topology_of_an_isp_slot_loop() {
    const SLOT_S: f64 = 300.0;
    let scale = Scale {
        duration_s: 1800.0,
        max_requests: 60,
        seed: 11,
        ..Scale::quick()
    };
    let net = net_by_name("isp");
    let mut transfers: Vec<Transfer> = workload_for(&net, 1.5, Some(2.0), &scale)
        .iter()
        .enumerate()
        .map(|(i, r)| Transfer::from_request(i, r))
        .collect();
    assert!(transfers.len() >= 50, "{} transfers", transfers.len());
    let fiber_dist = net.plant.fiber_distance_matrix();
    let theta = net.plant.params().wavelength_capacity_gbps;
    let config = RateAssignConfig::default();
    let telemetry = CoreTelemetry::disabled();
    let mut rng = StdRng::seed_from_u64(11);
    let mut scratch = RateScratch::default();
    let mut current = net.static_topology.clone();
    let (mut replayed, mut multi_hop) = (0, 0);

    for slot in 0..6 {
        let policy = [
            SchedulingPolicy::ShortestJobFirst,
            SchedulingPolicy::EarliestDeadlineFirst,
        ][slot % 2];
        let inputs = RateInputs::new(&transfers, policy, SLOT_S, &config, &telemetry);
        let mut best: Option<(Topology, RateOutcome)> = None;
        for _ in 0..30 {
            let Some(candidate) = compute_neighbor(&current, &mut rng) else {
                break;
            };
            let achieved = build_topology(
                &net.plant,
                &candidate,
                &fiber_dist,
                &CircuitBuildConfig::default(),
            )
            .achieved;
            let want = assign_rates_reference(&achieved, theta, &inputs, &config);
            let got =
                assign_rates_with(&achieved, theta, &inputs, &config, &mut scratch, &telemetry);
            // Rates are positive and finite, so `==` on them is equality
            // of bits; the throughput is compared as bits outright.
            assert_eq!(got, want, "slot {slot}");
            assert_eq!(
                got.throughput_gbps.to_bits(),
                want.throughput_gbps.to_bits(),
                "slot {slot}: throughput"
            );
            multi_hop += want
                .allocations
                .iter()
                .flat_map(|a| &a.paths)
                .filter(|(path, _)| path.len() > 3)
                .count();
            replayed += 1;
            if best
                .as_ref()
                .is_none_or(|(_, b)| want.throughput_gbps >= b.throughput_gbps)
            {
                current = candidate;
                best = Some((achieved, want));
            }
        }
        let (_, plan) = best.expect("the ISP topology has neighbors");
        for t in &mut transfers {
            match plan.allocation_for(t.id) {
                Some(a) => {
                    t.remaining_gbits = (t.remaining_gbits - a.total_rate() * SLOT_S).max(0.0);
                    t.starved_slots = 0;
                }
                None => t.starved_slots += 1,
            }
        }
        transfers.retain(|t| !t.is_complete());
    }
    assert_eq!(replayed, 180);
    assert!(
        multi_hop > replayed,
        "the loop must load the plant past its direct links: {multi_hop} paths of 3+ hops"
    );
}

/// What one fast-path build of `desired` did, by the circuit counters:
/// `(circuits.built, circuits.wavelength_failures)` — after checking that
/// the naive build lit the same circuits and counted the same.
fn build_census(net: &Network, desired: &Topology, relay_candidates: usize) -> (u64, u64) {
    let fiber_dist = net.plant.fiber_distance_matrix();
    let config = CircuitBuildConfig { relay_candidates };
    let counts = |r: &Recorder| {
        [
            "circuits.built",
            "circuits.wavelength_failures",
            "circuits.shortest_path_calls",
        ]
        .map(|name| r.counter(name).get())
    };
    let fast_rec = Recorder::enabled();
    let mut cache = EnergyCache::new();
    let fast = build_topology_cached(
        &net.plant,
        desired,
        &fiber_dist,
        &config,
        &mut cache,
        &CoreTelemetry::new(&fast_rec),
    );
    let naive_rec = Recorder::enabled();
    let naive = build_topology_observed(
        &net.plant,
        desired,
        &fiber_dist,
        &config,
        &CoreTelemetry::new(&naive_rec),
    );
    assert_eq!(fast, naive, "{}: k={relay_candidates}", net.name);
    let [built, failures, _] = counts(&fast_rec);
    assert_eq!(
        counts(&fast_rec),
        counts(&naive_rec),
        "{}: the fast path tries the candidates the naive path tries",
        net.name
    );
    (built, failures)
}

/// The shipped plants are generously provisioned: every provisioning
/// attempt of the suites above (and of the controller benchmark) lights
/// its *first* relay candidate, so candidates 2..k — the lazily resumed
/// part of the relay search — would go untested. Here wavelengths and
/// regenerators are scarce: the ISP and inter-DC plants cut to 1–3
/// wavelengths a fiber and 1–2 regenerators a site, plus the stressed line
/// of the relay-candidate ablation; annealed fast vs naive over 12 seeds
/// each, bit-identical (debug builds also check every build and every
/// search against its reference).
///
/// The census proves the runs are not vacuous, from the two circuit
/// counters alone: build a topology with `k` and with `k'` candidates per
/// attempt. If no attempt at `k = 4` lit a candidate past the first, the
/// `k = 1` build makes the same decisions and lights as many circuits — so
/// a different `circuits.built` means a circuit was lit on candidate ≥ 2.
/// If no attempt at `k = 4` tried and failed all four, a fifth candidate
/// is never asked for and the `k = 5` build counts the same — so a
/// different `(built, wavelength_failures)` means an attempt exhausted all
/// `relay_candidates`.
#[test]
fn scarce_wavelengths_exercise_later_candidates() {
    const SEEDS: u64 = 12;
    let k = CircuitBuildConfig::default().relay_candidates;
    for family in ["isp", "interdc", "stressed"] {
        let (mut lit_later, mut exhausted) = (0, 0);
        let walk = Recorder::enabled();
        for seed in 0..SEEDS {
            let (net, transfers, initial) = fixture_on(scarce_network(family, seed), seed);
            let fiber_dist = net.plant.fiber_distance_matrix();
            let ctx = context(&net, &fiber_dist, &transfers);
            let config = AnnealConfig {
                max_iterations: 25,
                seed,
                ..Default::default()
            };
            let mut cache = EnergyCache::new();
            let fast = anneal_with_cache(
                &ctx,
                &initial,
                &config,
                Some(&mut cache),
                &CoreTelemetry::new(&walk),
            );
            let naive =
                anneal_with_cache(&ctx, &initial, &config, None, &CoreTelemetry::disabled());
            assert_eq!(fast.topology, naive.topology, "{family} seed {seed}");
            assert_eq!(
                fast.energy_gbps().to_bits(),
                naive.energy_gbps().to_bits(),
                "{family} seed {seed}"
            );
            assert_eq!(fast.outcome, naive.outcome, "{family} seed {seed}");
            assert!(cache.stats.delta_pairs_reused > 0, "{family} seed {seed}");
            assert!(cache.stats.delta_pairs_rebuilt > 0, "{family} seed {seed}");

            for desired in [&initial, &fast.topology] {
                let at_k = build_census(&net, desired, k);
                lit_later += u32::from(build_census(&net, desired, 1).0 != at_k.0);
                exhausted += u32::from(build_census(&net, desired, k + 1) != at_k);
            }
        }
        // The annealing walks themselves met blocked candidates, and the
        // topologies they started from and ended on show both cases.
        let failures = walk.counter("circuits.wavelength_failures").get();
        let built = walk.counter("circuits.built").get();
        assert!(failures > 0 && built > 0, "{family}: {failures} / {built}");
        assert!(
            lit_later > 0,
            "{family}: no circuit was lit on a candidate past the first"
        );
        assert!(
            exhausted > 0,
            "{family}: no attempt tried and failed all {k} candidates"
        );
    }
}
