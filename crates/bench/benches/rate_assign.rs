//! Criterion bench for Algorithm 3's rate-assignment step.

use criterion::{criterion_group, criterion_main, Criterion};
use owan_bench::scale::{net_by_name, workload_for, Scale};
use owan_core::{
    anneal, assign_rates, assign_rates_with, AnnealConfig, CircuitBuildConfig, CoreTelemetry,
    EnergyContext, RateAssignConfig, RateScratch, SchedulingPolicy, Transfer,
};
use std::hint::black_box;

fn bench_rate_assign(c: &mut Criterion) {
    for name in ["internet2", "isp"] {
        let net = net_by_name(name);
        let scale = Scale {
            max_requests: 120,
            ..Scale::quick()
        };
        let transfers: Vec<Transfer> = workload_for(&net, 1.5, None, &scale)
            .iter()
            .enumerate()
            .map(|(i, r)| Transfer::from_request(i, r))
            .collect();
        let theta = net.plant.params().wavelength_capacity_gbps;
        c.bench_function(format!("assign_rates/{name}"), |b| {
            b.iter(|| {
                assign_rates(
                    black_box(&net.static_topology),
                    theta,
                    &transfers,
                    SchedulingPolicy::ShortestJobFirst,
                    300.0,
                    &RateAssignConfig::default(),
                )
            })
        });
    }
}

/// The pass as the annealer runs it: an *annealed* 40-site ISP topology
/// (links where the demand is, many saturated after the first rounds)
/// under at least 50 transfers — once through the public entry point,
/// which builds its inputs and buffers per call, and once as an
/// evaluation does, on the run's inputs in reused buffers.
fn bench_loaded_isp(c: &mut Criterion) {
    let net = net_by_name("isp");
    let scale = Scale {
        max_requests: 60,
        ..Scale::quick()
    };
    let transfers: Vec<Transfer> = workload_for(&net, 1.5, None, &scale)
        .iter()
        .enumerate()
        .map(|(i, r)| Transfer::from_request(i, r))
        .collect();
    assert!(transfers.len() >= 50, "{} transfers", transfers.len());
    let fd = net.plant.fiber_distance_matrix();
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
        max_iterations: 100,
        ..Default::default()
    };
    let annealed = anneal(&ctx, &net.static_topology, &cfg)
        .outcome
        .built
        .achieved;
    let theta = net.plant.params().wavelength_capacity_gbps;

    c.bench_function("assign_rates/isp_annealed", |b| {
        b.iter(|| {
            assign_rates(
                black_box(&annealed),
                theta,
                &transfers,
                ctx.policy,
                ctx.slot_len_s,
                &ctx.rate_config,
            )
        })
    });
    let telemetry = CoreTelemetry::disabled();
    let inputs = ctx.rate_inputs(&telemetry);
    let mut scratch = RateScratch::default();
    c.bench_function("assign_rates_with/isp_annealed", |b| {
        b.iter(|| {
            assign_rates_with(
                black_box(&annealed),
                theta,
                &inputs,
                &ctx.rate_config,
                &mut scratch,
                &telemetry,
            )
        })
    });
}

criterion_group!(benches, bench_rate_assign, bench_loaded_isp);
criterion_main!(benches);
