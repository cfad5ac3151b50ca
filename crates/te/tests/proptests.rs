//! Property tests for the baseline TE engines: every engine, on random
//! topologies and transfer sets, must emit plans that are link-capacity
//! feasible, demand-respecting, and routed over real paths of the fixed
//! topology.

use owan_core::{SchedulingPolicy, SlotInput, SlotPlan, Topology, TrafficEngineer, Transfer};
use owan_optical::{FiberPlant, OpticalParams};
use owan_te::{
    AmoebaConfig, AmoebaTe, MaxFlowTe, MaxMinFractTe, RateOnlyTe, RoutingRateTe, SwanTe,
    TempusConfig, TempusTe,
};
use proptest::prelude::*;

const THETA: f64 = 10.0;
const SLOT: f64 = 50.0;

fn plant(n: usize) -> FiberPlant {
    let mut p = FiberPlant::new(OpticalParams {
        wavelength_capacity_gbps: THETA,
        wavelengths_per_fiber: 8,
        ..Default::default()
    });
    for i in 0..n {
        p.add_site(&format!("S{i}"), 4, 1);
    }
    for i in 0..n {
        p.add_fiber(i, (i + 1) % n, 100.0);
    }
    p
}

/// `(site count, extra topology links, (src, dst, size, deadline) demands)`.
type Case = (
    usize,
    Vec<(usize, usize)>,
    Vec<(usize, usize, u32, Option<u32>)>,
);

fn arb_case() -> impl Strategy<Value = Case> {
    (4usize..8).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 3..10),
            proptest::collection::vec(
                (0..n, 0..n, 1u32..800, proptest::option::of(1u32..40)),
                1..10,
            ),
        )
    })
}

fn topology(n: usize, pairs: &[(usize, usize)]) -> Topology {
    let mut t = Topology::empty(n);
    // Ring for connectivity plus the random extras (capped at port count 4).
    for i in 0..n {
        t.add_links(i, (i + 1) % n, 1);
    }
    for &(u, v) in pairs {
        if u != v && t.degree(u) < 4 && t.degree(v) < 4 {
            t.add_links(u, v, 1);
        }
    }
    t
}

fn transfers(specs: &[(usize, usize, u32, Option<u32>)]) -> Vec<Transfer> {
    specs
        .iter()
        .enumerate()
        .filter(|(_, &(s, d, _, _))| s != d)
        .map(|(i, &(s, d, vol, dl))| Transfer {
            id: i,
            src: s,
            dst: d,
            volume_gbits: vol as f64,
            remaining_gbits: vol as f64,
            arrival_s: 0.0,
            deadline_s: dl.map(|x| x as f64 * 10.0),
            starved_slots: 0,
        })
        .collect()
}

fn check_plan(plan: &SlotPlan, ts: &[Transfer], engine: &str) -> Result<(), TestCaseError> {
    // Feasibility.
    owan_sim::plan_is_feasible(plan, THETA)
        .map_err(|e| TestCaseError::fail(format!("{engine}: {e}")))?;
    for a in &plan.allocations {
        let t = ts
            .iter()
            .find(|t| t.id == a.transfer)
            .ok_or_else(|| TestCaseError::fail(format!("{engine}: unknown transfer")))?;
        prop_assert!(
            a.total_rate() <= t.demand_rate_gbps(SLOT) + 1e-6,
            "{engine}: rate above demand"
        );
        for (path, r) in &a.paths {
            prop_assert!(*r > 0.0);
            prop_assert_eq!(path[0], t.src);
            prop_assert_eq!(*path.last().unwrap(), t.dst);
            for w in path.windows(2) {
                prop_assert!(
                    plan.topology.multiplicity(w[0], w[1]) > 0,
                    "{engine}: path uses a non-existent link"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_emit_valid_plans((n, pairs, specs) in arb_case()) {
        let p = plant(n);
        let topo = topology(n, &pairs);
        let ts = transfers(&specs);
        let input = SlotInput { transfers: &ts, slot_len_s: SLOT, now_s: 0.0 };

        let mut engines: Vec<Box<dyn TrafficEngineer>> = vec![
            Box::new(MaxFlowTe::new(topo.clone(), THETA, 3)),
            Box::new(MaxMinFractTe::new(topo.clone(), THETA, 3)),
            Box::new(SwanTe::new(topo.clone(), THETA, 3)),
            Box::new(TempusTe::new(topo.clone(), THETA, 3, TempusConfig::default())),
            Box::new(AmoebaTe::new(topo.clone(), THETA, 3, AmoebaConfig::default())),
            Box::new(RateOnlyTe::new(topo.clone(), THETA)),
            Box::new(RoutingRateTe::new(topo.clone(), THETA, SchedulingPolicy::ShortestJobFirst)),
        ];
        for e in engines.iter_mut() {
            let plan = e.plan_slot(&p, &input);
            check_plan(&plan, &ts, e.name())?;
        }
    }

    #[test]
    fn maxflow_dominates_on_total_throughput((n, pairs, specs) in arb_case()) {
        // MaxFlow solves the LP exactly; no other fixed-topology engine on
        // the same tunnels can beat its total.
        let p = plant(n);
        let topo = topology(n, &pairs);
        let ts = transfers(&specs);
        let input = SlotInput { transfers: &ts, slot_len_s: SLOT, now_s: 0.0 };
        let mut maxflow = MaxFlowTe::new(topo.clone(), THETA, 3);
        let best = maxflow.plan_slot(&p, &input).throughput_gbps;
        let mut swan = SwanTe::new(topo.clone(), THETA, 3);
        let mut maxmin = MaxMinFractTe::new(topo.clone(), THETA, 3);
        prop_assert!(swan.plan_slot(&p, &input).throughput_gbps <= best + 1e-6);
        prop_assert!(maxmin.plan_slot(&p, &input).throughput_gbps <= best + 1e-6);
    }

    #[test]
    fn swan_floor_is_max_min_fair((n, pairs, specs) in arb_case()) {
        // SWAN's first iterations guarantee every commodity at least the
        // MaxMinFract α fraction... approximately: its minimum served
        // fraction must be no worse than half the exact max-min α (the
        // approximation factor of the geometric ceiling schedule).
        let p = plant(n);
        let topo = topology(n, &pairs);
        let ts = transfers(&specs);
        if ts.is_empty() {
            return Ok(());
        }
        let input = SlotInput { transfers: &ts, slot_len_s: SLOT, now_s: 0.0 };
        let mut swan = SwanTe::new(topo.clone(), THETA, 3);
        let mut maxmin = MaxMinFractTe::new(topo.clone(), THETA, 3);
        let sp = swan.plan_slot(&p, &input);
        let mp = maxmin.plan_slot(&p, &input);
        let frac = |plan: &SlotPlan, t: &Transfer| {
            plan.allocations
                .iter()
                .find(|a| a.transfer == t.id)
                .map(|a| a.total_rate())
                .unwrap_or(0.0)
                / t.demand_rate_gbps(SLOT)
        };
        let alpha_exact = ts.iter().map(|t| frac(&mp, t)).fold(f64::INFINITY, f64::min);
        let alpha_swan = ts.iter().map(|t| frac(&sp, t)).fold(f64::INFINITY, f64::min);
        prop_assert!(
            alpha_swan >= alpha_exact / 2.0 - 1e-6,
            "swan min fraction {alpha_swan} vs exact {alpha_exact}"
        );
    }
}
