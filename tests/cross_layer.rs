//! Cross-layer integration tests: every plan an engine emits must be
//! realizable — network-layer rates within circuit capacities, Owan
//! topologies actually buildable in the optical layer, and consecutive
//! Owan states updatable by the consistent scheduler.

use owan::core::{build_topology, CircuitBuildConfig, SlotInput, Transfer, TransferRequest};
use owan::sim::plan_is_feasible;
use owan::sim::runner::{make_engine, EngineKind, RunnerConfig};
use owan::topo::{internet2_testbed, internet2_wan, Network};
use owan::update::{plan_consistent, NetworkDelta, OpKind, UpdateParams};
use owan::workload::{generate, WorkloadConfig};

fn transfers_for(net: &Network, n: usize) -> Vec<Transfer> {
    let mut wl = WorkloadConfig::testbed(1.0, 42);
    wl.duration_s = 600.0;
    let reqs: Vec<TransferRequest> = generate(net, &wl).into_iter().take(n).collect();
    reqs.iter()
        .enumerate()
        .map(|(i, r)| Transfer::from_request(i, r))
        .collect()
}

#[test]
fn every_engine_emits_feasible_plans() {
    let net = internet2_testbed();
    let theta = net.plant.params().wavelength_capacity_gbps;
    let transfers = transfers_for(&net, 12);
    let cfg = RunnerConfig {
        anneal_iterations: 80,
        ..Default::default()
    };
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
        let mut engine = make_engine(kind, &net, &cfg);
        let plan = engine.plan_slot(
            &net.plant,
            &SlotInput {
                transfers: &transfers,
                slot_len_s: 300.0,
                now_s: 0.0,
            },
        );
        plan_is_feasible(&plan, theta).unwrap_or_else(|e| panic!("{kind:?} infeasible: {e}"));
    }
}

#[test]
fn owan_topologies_are_optically_buildable() {
    // The plan's topology is the *achieved* one; rebuilding its circuits
    // from scratch on the same plant must succeed in full.
    let net = internet2_wan();
    let transfers = transfers_for(&net, 10);
    let cfg = RunnerConfig {
        anneal_iterations: 80,
        ..Default::default()
    };
    let mut engine = make_engine(EngineKind::Owan, &net, &cfg);
    let fd = net.plant.fiber_distance_matrix();
    for slot in 0..3 {
        let plan = engine.plan_slot(
            &net.plant,
            &SlotInput {
                transfers: &transfers,
                slot_len_s: 300.0,
                now_s: slot as f64 * 300.0,
            },
        );
        let built = build_topology(
            &net.plant,
            &plan.topology,
            &fd,
            &CircuitBuildConfig::default(),
        );
        assert_eq!(
            built.achieved, plan.topology,
            "slot {slot}: achieved topology must be rebuildable verbatim"
        );
        built.optical.check_invariants(&net.plant).unwrap();
        assert!(plan.topology.ports_feasible(&net.plant));
    }
}

#[test]
fn consecutive_owan_states_update_consistently() {
    let net = internet2_testbed();
    let transfers = transfers_for(&net, 12);
    let cfg = RunnerConfig {
        anneal_iterations: 80,
        ..Default::default()
    };
    let mut engine = make_engine(EngineKind::Owan, &net, &cfg);
    let half = transfers.len() / 2;
    let plan1 = engine.plan_slot(
        &net.plant,
        &SlotInput {
            transfers: &transfers[..half],
            slot_len_s: 300.0,
            now_s: 0.0,
        },
    );
    let plan2 = engine.plan_slot(
        &net.plant,
        &SlotInput {
            transfers: &transfers[half..],
            slot_len_s: 300.0,
            now_s: 300.0,
        },
    );
    let delta = NetworkDelta::from_plans(
        &plan1.topology,
        &plan1.allocations,
        &plan2.topology,
        &plan2.allocations,
        net.plant.params().wavelengths_per_fiber,
    );
    let params = UpdateParams {
        theta_gbps: net.plant.params().wavelength_capacity_gbps,
        circuit_time_s: net.plant.params().circuit_reconfig_time_s,
        path_time_s: 0.1,
    };
    let plan = plan_consistent(&delta, &params);
    assert_eq!(plan.ops.len(), delta.op_count(), "every op scheduled");
    // The schedule respects the circuit→path dependency: no AddPath whose
    // links gained circuits starts before those setups complete.
    for op in &plan.ops {
        if let OpKind::AddPath(i) = op.kind {
            let p = &delta.added_paths[i];
            for w in p.nodes.windows(2) {
                let needed_setups: Vec<_> = plan
                    .ops
                    .iter()
                    .filter(|o| {
                        matches!(o.kind, OpKind::SetupCircuit(j)
                        if {
                            let c = &delta.added_circuits[j];
                            (c.u == w[0] && c.v == w[1]) || (c.u == w[1] && c.v == w[0])
                        })
                    })
                    .collect();
                // If this link needed new circuits AND had none before, the
                // path cannot start before the first setup completes.
                let had_before = delta.initial_circuits(w[0], w[1]);
                if had_before == 0 && !needed_setups.is_empty() {
                    let earliest_setup_end = needed_setups
                        .iter()
                        .map(|o| o.end_s)
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        op.start_s >= earliest_setup_end - 1e-9,
                        "path installed before its circuit was lit"
                    );
                }
            }
        }
    }
    // Update stays bounded: a handful of circuit times, not minutes.
    assert!(plan.makespan_s <= 10.0 * params.circuit_time_s + 5.0);
}

#[test]
fn workspace_umbrella_reexports_work() {
    // The `owan` facade exposes every subsystem.
    let _ = owan::graph::Graph::new(3);
    let _ = owan::optical::OpticalParams::default();
    let _ = owan::solver::LinearProgram::maximize(1);
    let _ = owan::topo::internet2_testbed();
    let _ = owan::core::Topology::empty(4);
    let _ = owan::update::UpdateParams::default();
    let _ = owan::sim::SimConfig::default();
}
