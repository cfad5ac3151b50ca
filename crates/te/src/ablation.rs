//! Control-level ablations for the "breakdown of gains" experiment
//! (Figure 10(c)).
//!
//! The paper compares three levels of control:
//!
//! * **rate** — the system "cannot reconfigure the network-layer topology,
//!   nor can it change routing. It can only adjust the sending rates":
//!   every transfer is pinned to its single shortest path on the fixed
//!   topology and receives a TCP-like max-min fair share of it (no
//!   central scheduling — water-filling across competing transfers)
//!   ([`RateOnlyTe`]);
//! * **+rout.** — routing *and* rates on the fixed topology, "similar to
//!   line 15-25 in Algorithm 3" ([`RoutingRateTe`]);
//! * **+topo.** — full Owan (`owan_core::OwanEngine`).

use crate::fixed::FixedContext;
use owan_core::{
    assign_rates, Allocation, RateAssignConfig, SchedulingPolicy, SlotInput, SlotPlan, Topology,
    TrafficEngineer,
};
use owan_optical::FiberPlant;

/// Rate-only control: fixed topology, fixed single-path routing, TCP-like
/// max-min fair rates (progressive water-filling). No scheduling control:
/// this is what a WAN without central TE gives bulk transfers.
pub struct RateOnlyTe {
    ctx: FixedContext,
}

impl RateOnlyTe {
    /// Creates the engine over a fixed topology. It takes no scheduling
    /// policy: fair sharing has no ordering.
    pub fn new(topology: Topology, theta: f64) -> Self {
        RateOnlyTe {
            ctx: FixedContext::new(topology, theta, 1),
        }
    }
}

impl TrafficEngineer for RateOnlyTe {
    fn name(&self) -> &str {
        "rate"
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        const EPS: f64 = 1e-9;
        let mut residual = self.ctx.capacities();

        // Pin every transfer to its single shortest path.
        struct Pinned {
            idx: usize,
            path: Vec<usize>,
            links: Vec<usize>,
            rate: f64,
            demand: f64,
            frozen: bool,
        }
        let mut pinned: Vec<Pinned> = Vec::new();
        for (idx, t) in input.transfers.iter().enumerate() {
            let demand = t.demand_rate_gbps(input.slot_len_s);
            if demand <= EPS {
                continue;
            }
            if let Some(path) = self.ctx.paths(t.src, t.dst).first().cloned() {
                let links = self.ctx.path_links(&path);
                pinned.push(Pinned {
                    idx,
                    path,
                    links,
                    rate: 0.0,
                    demand,
                    frozen: false,
                });
            }
        }

        // Progressive filling: raise all unfrozen rates uniformly until a
        // link saturates or a demand is met; freeze and repeat.
        loop {
            let unfrozen: Vec<usize> = (0..pinned.len()).filter(|&i| !pinned[i].frozen).collect();
            if unfrozen.is_empty() {
                break;
            }
            // Per-link count of unfrozen users.
            let mut users = vec![0usize; residual.len()];
            for &i in &unfrozen {
                for &l in &pinned[i].links {
                    users[l] += 1;
                }
            }
            // Largest uniform increment every unfrozen transfer can take.
            let mut delta = f64::INFINITY;
            for (l, &n) in users.iter().enumerate() {
                if n > 0 {
                    delta = delta.min(residual[l] / n as f64);
                }
            }
            for &i in &unfrozen {
                delta = delta.min(pinned[i].demand - pinned[i].rate);
            }
            if !delta.is_finite() {
                break;
            }
            let delta = delta.max(0.0);
            for &i in &unfrozen {
                pinned[i].rate += delta;
                for &l in &pinned[i].links {
                    residual[l] -= delta;
                }
            }
            // Freeze satisfied transfers and users of saturated links.
            for &i in &unfrozen {
                let p = &pinned[i];
                let saturated =
                    p.rate + EPS >= p.demand || p.links.iter().any(|&l| residual[l] <= EPS);
                if saturated {
                    pinned[i].frozen = true;
                }
            }
            if delta <= EPS {
                // No progress possible for anyone left.
                for &i in &unfrozen {
                    pinned[i].frozen = true;
                }
            }
        }

        let mut allocations = Vec::new();
        let mut throughput = 0.0;
        for p in pinned {
            if p.rate > EPS {
                throughput += p.rate;
                allocations.push(Allocation {
                    transfer: input.transfers[p.idx].id,
                    paths: vec![(p.path, p.rate)],
                });
            }
        }
        SlotPlan {
            topology: self.ctx.topology().clone(),
            allocations,
            throughput_gbps: throughput,
        }
    }
}

/// Routing + rate control on a fixed topology: Algorithm 3's rate
/// assignment (multi-path, shortest-length-first) without the optical step.
pub struct RoutingRateTe {
    topology: Topology,
    theta: f64,
    policy: SchedulingPolicy,
    rate_config: RateAssignConfig,
}

impl RoutingRateTe {
    /// Creates the engine over a fixed topology.
    pub fn new(topology: Topology, theta: f64, policy: SchedulingPolicy) -> Self {
        RoutingRateTe {
            topology,
            theta,
            policy,
            rate_config: RateAssignConfig::default(),
        }
    }
}

impl TrafficEngineer for RoutingRateTe {
    fn name(&self) -> &str {
        "+rout."
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let rates = assign_rates(
            &self.topology,
            self.theta,
            input.transfers,
            self.policy,
            input.slot_len_s,
            &self.rate_config,
        );
        SlotPlan {
            topology: self.topology.clone(),
            throughput_gbps: rates.throughput_gbps,
            allocations: rates.allocations,
        }
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
        p.add_fiber(0, 1, 100.0);
        p.add_fiber(1, 2, 100.0);
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
    fn rate_only_single_path() {
        let mut e = RateOnlyTe::new(square(), 10.0);
        let ts = vec![transfer(0, 0, 3, 1e6)];
        let p = plant();
        let plan = e.plan_slot(
            &p,
            &SlotInput {
                transfers: &ts,
                slot_len_s: 1.0,
                now_s: 0.0,
            },
        );
        // Only one (shortest) path is used: 10 Gbps, not 20.
        assert!((plan.throughput_gbps - 10.0).abs() < 1e-6);
        assert_eq!(plan.allocations[0].paths.len(), 1);
    }

    #[test]
    fn routing_adds_multipath_gain() {
        let mut rate_only = RateOnlyTe::new(square(), 10.0);
        let mut routing = RoutingRateTe::new(square(), 10.0, SchedulingPolicy::ShortestJobFirst);
        let ts = vec![transfer(0, 0, 3, 1e6)];
        let p = plant();
        let input = SlotInput {
            transfers: &ts,
            slot_len_s: 1.0,
            now_s: 0.0,
        };
        let a = rate_only.plan_slot(&p, &input);
        let b = routing.plan_slot(&p, &input);
        assert!(
            b.throughput_gbps > a.throughput_gbps + 5.0,
            "+rout. {} must beat rate-only {}",
            b.throughput_gbps,
            a.throughput_gbps
        );
    }

    #[test]
    fn names() {
        assert_eq!(RateOnlyTe::new(square(), 1.0).name(), "rate");
        assert_eq!(
            RoutingRateTe::new(square(), 1.0, SchedulingPolicy::ShortestJobFirst).name(),
            "+rout."
        );
    }
}
