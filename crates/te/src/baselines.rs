//! The three fixed-topology, single-slot LP baselines of §5.1:
//!
//! * **MaxFlow** — "uses linear programming to maximize the total
//!   throughput for each time slot";
//! * **MaxMinFract** — "maximize the minimal fraction that a transfer can
//!   be served at each time slot";
//! * **SWAN** — "maximize the throughput while achieving approximate
//!   max-min fairness for each time slot" (the iterated-LP scheme of the
//!   SWAN paper).

use crate::fixed::{FixedContext, LpTally};
use owan_core::{Recorder, SlotInput, SlotPlan, Topology, TrafficEngineer};
use owan_optical::FiberPlant;

/// MaxFlow baseline.
pub struct MaxFlowTe {
    ctx: FixedContext,
    lp: LpTally,
}

impl MaxFlowTe {
    /// Creates the engine over a fixed topology with `k` tunnels per pair.
    pub fn new(topology: Topology, theta: f64, k: usize) -> Self {
        MaxFlowTe {
            ctx: FixedContext::new(topology, theta, k),
            lp: LpTally::default(),
        }
    }
}

impl TrafficEngineer for MaxFlowTe {
    fn name(&self) -> &str {
        "MaxFlow"
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let (mcf, tunnels) = self.ctx.build_mcf(input.transfers, input.slot_len_s);
        let sol = mcf.max_throughput();
        self.lp.solved(sol.pivots, sol.rows);
        self.lp.end_slot();
        let allocations = self.ctx.allocations_from(input.transfers, &tunnels, &sol);
        SlotPlan {
            topology: self.ctx.topology().clone(),
            throughput_gbps: allocations.iter().map(|a| a.total_rate()).sum(),
            allocations,
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.lp.recorder = recorder;
    }
}

/// MaxMinFract baseline.
pub struct MaxMinFractTe {
    ctx: FixedContext,
    lp: LpTally,
}

impl MaxMinFractTe {
    /// Creates the engine over a fixed topology with `k` tunnels per pair.
    pub fn new(topology: Topology, theta: f64, k: usize) -> Self {
        MaxMinFractTe {
            ctx: FixedContext::new(topology, theta, k),
            lp: LpTally::default(),
        }
    }
}

impl TrafficEngineer for MaxMinFractTe {
    fn name(&self) -> &str {
        "MaxMinFract"
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let (mcf, tunnels) = self.ctx.build_mcf(input.transfers, input.slot_len_s);
        let (_alpha, sol) = mcf.max_min_fraction();
        // No rows: nothing was routable and no LP was solved.
        if sol.rows > 0 {
            self.lp.solved(sol.pivots, sol.rows);
        }
        self.lp.end_slot();
        let allocations = self.ctx.allocations_from(input.transfers, &tunnels, &sol);
        SlotPlan {
            topology: self.ctx.topology().clone(),
            throughput_gbps: allocations.iter().map(|a| a.total_rate()).sum(),
            allocations,
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.lp.recorder = recorder;
    }
}

/// SWAN baseline: approximate max-min fairness via a geometric sequence of
/// throughput-maximizing LPs with per-commodity rate floors and ceilings.
pub struct SwanTe {
    ctx: FixedContext,
    /// Geometric growth factor of the fraction ceiling per iteration
    /// (the SWAN paper's `α`; 2 in their evaluation).
    growth: f64,
    lp: LpTally,
}

impl SwanTe {
    /// Creates the engine over a fixed topology with `k` tunnels per pair.
    pub fn new(topology: Topology, theta: f64, k: usize) -> Self {
        SwanTe {
            ctx: FixedContext::new(topology, theta, k),
            growth: 2.0,
            lp: LpTally::default(),
        }
    }
}

impl TrafficEngineer for SwanTe {
    fn name(&self) -> &str {
        "SWAN"
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let (mcf, tunnels) = self.ctx.build_mcf(input.transfers, input.slot_len_s);
        let n = input.transfers.len();
        let demands: Vec<f64> = (0..n).map(|f| mcf.demand(f)).collect();
        let max_demand = demands.iter().fold(0.0_f64, |a, &b| a.max(b));

        let mut floor = vec![0.0; n];
        let mut last = None;
        if max_demand > 0.0 {
            // One program for the slot; only the bounds move between solves.
            let mut bounded = mcf.bounded();
            // Fraction ceilings: alpha, alpha*growth, … up to 1.
            let mut alpha = 1.0 / 16.0;
            loop {
                let ceil: Vec<f64> = demands.iter().map(|&d| (alpha * d).min(d)).collect();
                match bounded.solve(&floor, &ceil) {
                    Some(sol) => {
                        self.lp.solved(sol.pivots, sol.rows);
                        floor = (0..n).map(|f| sol.commodity_rate(f)).collect();
                        last = Some(sol);
                    }
                    None => break, // numerically stuck; keep the last solution
                }
                if alpha >= 1.0 {
                    break;
                }
                alpha = (alpha * self.growth).min(1.0);
            }
        }
        self.lp.end_slot();

        match last {
            Some(sol) => {
                let allocations = self.ctx.allocations_from(input.transfers, &tunnels, &sol);
                SlotPlan {
                    topology: self.ctx.topology().clone(),
                    throughput_gbps: allocations.iter().map(|a| a.total_rate()).sum(),
                    allocations,
                }
            }
            None => SlotPlan {
                topology: self.ctx.topology().clone(),
                throughput_gbps: 0.0,
                allocations: Vec::new(),
            },
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.lp.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_core::Transfer;
    use owan_optical::OpticalParams;

    fn square() -> Topology {
        let mut t = Topology::empty(4);
        t.add_links(0, 1, 1);
        t.add_links(0, 2, 1);
        t.add_links(1, 3, 1);
        t.add_links(2, 3, 1);
        t
    }

    fn plant() -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams::default());
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 2, 0);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 100.0);
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

    fn run(engine: &mut dyn TrafficEngineer, transfers: &[Transfer]) -> SlotPlan {
        let p = plant();
        engine.plan_slot(
            &p,
            &SlotInput {
                transfers,
                slot_len_s: 1.0,
                now_s: 0.0,
            },
        )
    }

    #[test]
    fn maxflow_saturates_square() {
        let theta = 100.0;
        let mut e = MaxFlowTe::new(square(), theta, 4);
        // One transfer 0->3 with huge demand: both 2-hop paths usable,
        // total 200 Gbps.
        let ts = vec![transfer(0, 0, 3, 1e6)];
        let plan = run(&mut e, &ts);
        assert!(
            (plan.throughput_gbps - 200.0).abs() < 1e-4,
            "{}",
            plan.throughput_gbps
        );
    }

    #[test]
    fn maxflow_can_starve_minority() {
        // MaxFlow maximizes total; with a shared bottleneck it may starve
        // a flow. Just verify total optimality here.
        let mut e = MaxFlowTe::new(square(), 10.0, 4);
        let ts = vec![transfer(0, 0, 1, 1e6), transfer(1, 0, 3, 1e6)];
        let plan = run(&mut e, &ts);
        assert!(plan.throughput_gbps >= 20.0 - 1e-6);
    }

    #[test]
    fn maxmin_serves_everyone() {
        let mut e = MaxMinFractTe::new(square(), 10.0, 4);
        let ts = vec![
            transfer(0, 0, 3, 30.0),
            transfer(1, 1, 2, 30.0),
            transfer(2, 0, 1, 30.0),
        ];
        let plan = run(&mut e, &ts);
        for t in &ts {
            let a = plan.allocations.iter().find(|a| a.transfer == t.id);
            assert!(a.is_some(), "transfer {} starved by MaxMinFract", t.id);
        }
    }

    #[test]
    fn swan_beats_maxmin_on_throughput() {
        // A classic case: one long flow competing with two short flows.
        let mk_ts = || {
            vec![
                transfer(0, 0, 3, 1e5),
                transfer(1, 0, 1, 1e5),
                transfer(2, 2, 3, 1e5),
            ]
        };
        let mut swan = SwanTe::new(square(), 10.0, 4);
        let mut maxmin = MaxMinFractTe::new(square(), 10.0, 4);
        let sp = run(&mut swan, &mk_ts());
        let mp = run(&mut maxmin, &mk_ts());
        assert!(
            sp.throughput_gbps >= mp.throughput_gbps - 1e-6,
            "SWAN {} vs MaxMinFract {}",
            sp.throughput_gbps,
            mp.throughput_gbps
        );
    }

    #[test]
    fn swan_is_work_conserving_after_fairness() {
        let mut swan = SwanTe::new(square(), 10.0, 4);
        let ts = vec![transfer(0, 0, 3, 1e6)];
        let plan = run(&mut swan, &ts);
        // A single flow should get everything MaxFlow would give it.
        assert!(
            (plan.throughput_gbps - 20.0).abs() < 1e-4,
            "{}",
            plan.throughput_gbps
        );
    }

    #[test]
    fn empty_slot_is_fine() {
        for mut e in [
            Box::new(MaxFlowTe::new(square(), 10.0, 4)) as Box<dyn TrafficEngineer>,
            Box::new(MaxMinFractTe::new(square(), 10.0, 4)),
            Box::new(SwanTe::new(square(), 10.0, 4)),
        ] {
            let plan = run(e.as_mut(), &[]);
            assert_eq!(plan.throughput_gbps, 0.0);
            assert!(plan.allocations.is_empty());
        }
    }

    #[test]
    fn names() {
        assert_eq!(MaxFlowTe::new(square(), 1.0, 1).name(), "MaxFlow");
        assert_eq!(MaxMinFractTe::new(square(), 1.0, 1).name(), "MaxMinFract");
        assert_eq!(SwanTe::new(square(), 1.0, 1).name(), "SWAN");
    }
}
