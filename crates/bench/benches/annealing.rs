//! Criterion benches for the Owan optimization kernels: ComputeEnergy
//! (Algorithm 3) and the full simulated-annealing search (Algorithm 1).

use criterion::{criterion_group, criterion_main, Criterion};
use owan_bench::scale::{net_by_name, workload_for, Scale};
use owan_core::{
    anneal, compute_energy, AnnealConfig, CircuitBuildConfig, EnergyContext, RateAssignConfig,
    SchedulingPolicy, Transfer,
};
use std::hint::black_box;

fn setup(net_name: &str) -> (owan_topo::Network, Vec<Transfer>, Vec<Vec<f64>>) {
    let net = net_by_name(net_name);
    let scale = Scale {
        max_requests: 60,
        ..Scale::quick()
    };
    let transfers: Vec<Transfer> = workload_for(&net, 1.0, None, &scale)
        .iter()
        .enumerate()
        .map(|(i, r)| Transfer::from_request(i, r))
        .collect();
    let fd = net.plant.fiber_distance_matrix();
    (net, transfers, fd)
}

fn bench_energy(c: &mut Criterion) {
    for name in ["internet2", "interdc"] {
        let (net, transfers, fd) = setup(name);
        let ctx = EnergyContext {
            plant: &net.plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 300.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: owan_core::Profiler::disabled(),
        };
        c.bench_function(format!("compute_energy/{name}"), |b| {
            b.iter(|| compute_energy(black_box(&ctx), &net.static_topology))
        });
    }
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("anneal");
    group.sample_size(10);
    for name in ["internet2", "interdc"] {
        let (net, transfers, fd) = setup(name);
        let ctx = EnergyContext {
            plant: &net.plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 300.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: owan_core::Profiler::disabled(),
        };
        let cfg = AnnealConfig {
            max_iterations: 50,
            ..Default::default()
        };
        group.bench_function(format!("50_iters/{name}"), |b| {
            b.iter(|| anneal(black_box(&ctx), &net.static_topology, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_energy, bench_search);
criterion_main!(benches);
