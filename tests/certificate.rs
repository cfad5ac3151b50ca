//! The relay-path certificate against the searches it skips.
//!
//! A delta build takes the accepted build's relay path for an attempt, no
//! search run, when the certificate proves it is the attempt's first draw
//! under the live free-regenerator vector, and stops a pair, no search
//! run, where the accepted build drew no path and no site of the pair's
//! relay domain gained regenerators. With `audit_certificates` set (and
//! in every debug build) each such skip runs the search it skipped and
//! panics unless the search draws the same path at the same cost bits, or
//! nothing. This suite sets it and anneals on scarce plants — wavelengths
//! and regenerators short, so vectors diverge, later candidates light and
//! pairs run dry — on random scarce plants, and on the benchmark
//! networks, comparing every run with the naive reference too. The
//! second run on each cache starts from the first run's winner, as a slot
//! loop does, and resumes its first evaluation from that winner's build.

mod common;

use common::{context, fixture_on, scarce_network};
use owan::core::{
    anneal_with_cache, default_topology, AnnealConfig, CoreTelemetry, EnergyCache, EnergyCacheStats,
};
use owan::obs::Recorder;
use owan::optical::{FiberPlant, OpticalParams};
use owan::topo::Network;
use owan_bench::net_by_name;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEEDS: u64 = 6;

/// Two audited runs of `iterations` on one cache, each equal to the naive
/// reference; returns the cache's counters.
fn audited_runs(net: Network, seed: u64, iterations: usize) -> EnergyCacheStats {
    let (net, transfers, initial) = fixture_on(net, seed);
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = context(&net, &fiber_dist, &transfers);
    let recorder = Recorder::enabled();
    let telemetry = CoreTelemetry::new(&recorder);
    let mut cache = EnergyCache::new();
    cache.audit_certificates = true;
    let mut start = initial;
    for run in 0..2u64 {
        let config = AnnealConfig {
            max_iterations: iterations,
            seed: seed * 2 + run,
            ..Default::default()
        };
        let fast = anneal_with_cache(&ctx, &start, &config, Some(&mut cache), &telemetry);
        let naive = anneal_with_cache(&ctx, &start, &config, None, &CoreTelemetry::disabled());
        let tag = format!("{} seed {seed} run {run}", net.name);
        assert_eq!(fast.topology, naive.topology, "{tag}");
        assert_eq!(fast.outcome, naive.outcome, "{tag}");
        // The next run starts where this one ended, as a slot loop does.
        start = fast.topology;
    }
    let s = cache.stats;
    assert_eq!(
        s.certificates_audited,
        s.relay_certified + s.relay_certified_dry,
        "{}: every certified draw and stop was audited",
        net.name
    );
    assert_eq!(
        recorder.counter("circuits.relay_certified").get(),
        s.relay_certified + s.relay_certified_dry,
        "{}: the counter counts both",
        net.name
    );
    s
}

/// A random plant of 6–13 sites: a ring plus random chords, 1–3
/// wavelengths a fiber, 0–2 regenerators and 2–4 router ports a site,
/// and a reach of one to three ring hops.
fn random_scarce(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let n = rng.random_range(6..14usize);
    let mut plant = FiberPlant::new(OpticalParams {
        wavelength_capacity_gbps: 10.0,
        wavelengths_per_fiber: rng.random_range(1..4u32),
        optical_reach_km: rng.random_range(450.0..1_300.0),
        ..Default::default()
    });
    for i in 0..n {
        let ports = rng.random_range(2..5u32);
        plant.add_site(&format!("R{i}"), ports, rng.random_range(0..3u32));
    }
    for i in 0..n {
        plant.add_fiber(i, (i + 1) % n, rng.random_range(250.0..450.0));
    }
    for _ in 0..n / 2 {
        let a = rng.random_range(0..n);
        let b = (a + rng.random_range(2..n - 1)) % n;
        plant.add_fiber(a, b, rng.random_range(300.0..900.0));
    }
    Network {
        name: format!("random{seed}"),
        static_topology: default_topology(&plant),
        plant,
    }
}

/// The families' counters, summed.
fn family(nets: impl Fn(u64) -> Network, iterations: usize) -> EnergyCacheStats {
    let mut total = EnergyCacheStats::default();
    for seed in 0..SEEDS {
        total.merge(&audited_runs(nets(seed), seed, iterations));
    }
    total
}

#[test]
fn certified_draws_equal_the_searches_they_skip_on_scarce_plants() {
    let mut dry = 0;
    for name in ["isp", "interdc", "stressed"] {
        let s = family(|seed| scarce_network(name, seed), 25);
        assert!(s.relay_certified > 0, "{name}: nothing certified");
        assert!(s.delta_builds > 0, "{name}");
        dry += s.relay_certified_dry;
    }
    let random = family(random_scarce, 25);
    assert!(
        random.relay_certified > 0,
        "random plants: nothing certified"
    );
    dry += random.relay_certified_dry;
    assert!(dry > 0, "no pair was stopped on the certificate");
}

#[test]
fn certified_draws_equal_the_searches_they_skip_on_the_benchmark_networks() {
    for name in ["internet2", "isp", "interdc"] {
        let s = family(|_| net_by_name(name), 15);
        assert!(s.relay_certified > 0, "{name}: nothing certified");
        // One full build a cache: the second run resumed from the first
        // one's winner, and neither rebuilt its winner to finish.
        assert_eq!(s.full_builds, SEEDS, "{name}");
    }
}
