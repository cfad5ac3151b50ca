//! Fixtures shared by the fast-path suites (`fastpath.rs`, `ledger.rs`,
//! `eval_allocations.rs`): the benchmark networks with a small transfer
//! set, and the plants on which wavelengths and regenerators are scarce.
#![allow(dead_code)] // each suite uses its own subset

use owan::core::{
    default_topology, CircuitBuildConfig, EnergyContext, RateAssignConfig, SchedulingPolicy,
    Topology, Transfer,
};
use owan::optical::{FiberPlant, OpticalParams};
use owan::topo::Network;
use owan_bench::{net_by_name, workload_for, Scale};

/// A small fixed-size fixture: network, transfers, and initial topology.
pub fn fixture(net_name: &str, seed: u64) -> (Network, Vec<Transfer>, Topology) {
    fixture_on(net_by_name(net_name), seed)
}

/// [`fixture`] on a network the caller made.
pub fn fixture_on(net: Network, seed: u64) -> (Network, Vec<Transfer>, Topology) {
    let scale = Scale {
        duration_s: 900.0,
        max_requests: 10,
        seed,
        ..Scale::quick()
    };
    let reqs = workload_for(&net, 1.0, None, &scale);
    let transfers: Vec<Transfer> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Transfer::from_request(i, r))
        .collect();
    let initial = if net.static_topology.total_links() > 0 {
        net.static_topology.clone()
    } else {
        default_topology(&net.plant)
    };
    (net, transfers, initial)
}

pub fn context<'a>(
    net: &'a Network,
    fiber_dist: &'a [Vec<f64>],
    transfers: &'a [Transfer],
) -> EnergyContext<'a> {
    EnergyContext {
        plant: &net.plant,
        fiber_dist,
        transfers,
        policy: SchedulingPolicy::ShortestJobFirst,
        slot_len_s: 300.0,
        circuit_config: CircuitBuildConfig::default(),
        rate_config: RateAssignConfig::default(),
        prof: owan::prof::Profiler::disabled(),
    }
}

/// `plant` with `wavelengths` per fiber and `regens(site)` regenerators a
/// site; everything else (sites, ports, fibers, reach) kept.
pub fn scarce(plant: &FiberPlant, wavelengths: u32, regens: impl Fn(usize) -> u32) -> FiberPlant {
    let mut p = FiberPlant::new(OpticalParams {
        wavelengths_per_fiber: wavelengths,
        ..*plant.params()
    });
    for (i, site) in plant.sites().iter().enumerate() {
        p.add_site(&site.name, site.router_ports, regens(i));
    }
    for f in plant.fibers() {
        p.add_fiber(f.a, f.b, f.length_km);
    }
    p
}

/// The stressed plant of `ablations.rs`'s relay-candidate ablation: a line
/// of eight sites with a sparse express row, two wavelengths a fiber, two
/// regenerators a site, and long links that all need relays and compete
/// for the same middle fibers.
pub fn stressed_line() -> Network {
    let mut plant = FiberPlant::new(OpticalParams {
        wavelength_capacity_gbps: 10.0,
        wavelengths_per_fiber: 2,
        optical_reach_km: 1_100.0,
        ..Default::default()
    });
    let n = 8;
    for i in 0..n {
        plant.add_site(&format!("L{i}"), 6, 2);
    }
    for i in 0..n - 1 {
        plant.add_fiber(i, i + 1, 500.0);
    }
    plant.add_fiber(0, 2, 950.0);
    plant.add_fiber(2, 5, 1_050.0);
    plant.add_fiber(5, 7, 980.0);
    let mut desired = Topology::empty(n);
    desired.add_links(0, 5, 2);
    desired.add_links(1, 6, 2);
    desired.add_links(2, 7, 2);
    desired.add_links(0, 7, 1);
    desired.add_links(3, 4, 2);
    Network {
        name: "stressed".into(),
        plant,
        static_topology: desired,
    }
}

/// The scarce plants: the ISP and inter-DC plants cut to 1–3 wavelengths a
/// fiber and 1–2 regenerators a site (both varying with `seed`), or the
/// stressed line (`"stressed"`).
pub fn scarce_network(family: &str, seed: u64) -> Network {
    match family {
        "stressed" => stressed_line(),
        name => {
            let net = net_by_name(name);
            let plant = scarce(&net.plant, 1 + (seed % 3) as u32, |site| {
                1 + ((site as u64 + seed) % 2) as u32
            });
            Network { plant, ..net }
        }
    }
}
