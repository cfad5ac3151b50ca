//! Amoeba baseline [Zhang et al., EuroSys 2015].
//!
//! Amoeba performs *deadline admission control*: when a transfer arrives it
//! tries to reserve enough future capacity, possibly rescheduling the
//! flexible parts of earlier reservations; transfers that fit are
//! guaranteed, others are rejected ("adjust previous allocation when new
//! transfers arrive", §5.1).
//!
//! This implementation re-plans the full reservation table each slot (which
//! subsumes rescheduling): transfers are processed EDF-first over a future
//! slot grid of residual link capacities; a transfer is *admitted* if its
//! remaining volume fits before its deadline, greedily earliest-slot-first
//! over its tunnels. Admitted transfers keep their reservations; the rest
//! are served best-effort with whatever slot-0 capacity remains.

use crate::fixed::FixedContext;
use owan_core::{Allocation, SlotInput, SlotPlan, Topology, TrafficEngineer};
use owan_optical::FiberPlant;

/// Amoeba configuration.
#[derive(Debug, Clone, Copy)]
pub struct AmoebaConfig {
    /// Maximum future slots in the reservation grid.
    pub max_horizon_slots: usize,
    /// Tunnels per transfer.
    pub paths_per_transfer: usize,
}

impl Default for AmoebaConfig {
    fn default() -> Self {
        AmoebaConfig {
            max_horizon_slots: 64,
            paths_per_transfer: 3,
        }
    }
}

/// The Amoeba engine.
pub struct AmoebaTe {
    ctx: FixedContext,
    config: AmoebaConfig,
}

impl AmoebaTe {
    /// Creates the engine over a fixed topology.
    pub fn new(topology: Topology, theta: f64, k: usize, config: AmoebaConfig) -> Self {
        AmoebaTe {
            ctx: FixedContext::new(topology, theta, k),
            config,
        }
    }
}

impl TrafficEngineer for AmoebaTe {
    fn name(&self) -> &str {
        "Amoeba"
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let topology = self.ctx.topology().clone();
        if input.transfers.is_empty() {
            return SlotPlan {
                topology,
                allocations: Vec::new(),
                throughput_gbps: 0.0,
            };
        }

        let caps = self.ctx.capacities();
        let slot = input.slot_len_s;
        let now = input.now_s;

        // Horizon: up to the latest deadline, capped.
        let latest = input
            .transfers
            .iter()
            .filter_map(|t| t.deadline_s)
            .fold(now + slot, f64::max);
        let horizon =
            (((latest - now) / slot).ceil() as usize).clamp(1, self.config.max_horizon_slots);

        // Residual volume per (slot, link), Gb.
        let n_links = caps.len();
        let mut residual: Vec<f64> = (0..horizon)
            .flat_map(|_| caps.iter().map(|&c| c * slot))
            .collect();

        // EDF order; deadline-less transfers go last (best-effort class).
        let mut order: Vec<usize> = (0..input.transfers.len()).collect();
        order.sort_by(|&a, &b| {
            let da = input.transfers[a].deadline_s.unwrap_or(f64::INFINITY);
            let db = input.transfers[b].deadline_s.unwrap_or(f64::INFINITY);
            da.total_cmp(&db).then(a.cmp(&b))
        });

        // slot0_alloc[f] = (site path, volume in slot 0) pairs.
        let mut slot0_alloc: Vec<Vec<(Vec<usize>, f64)>> = vec![Vec::new(); input.transfers.len()];

        let mut best_effort: Vec<usize> = Vec::new();
        for &i in &order {
            let t = &input.transfers[i];
            let tunnels = self.ctx.tunnels(t.src, t.dst);
            let k = tunnels.sites.len().min(self.config.paths_per_transfer);
            if k == 0 {
                continue;
            }
            let (paths, link_paths) = (&tunnels.sites[..k], &tunnels.links[..k]);

            // Slots usable before the deadline (the slot containing the
            // deadline is usable pro rata).
            let usable_slots = match t.deadline_s {
                Some(d) => ((d - now) / slot).clamp(0.0, horizon as f64),
                None => {
                    best_effort.push(i);
                    continue;
                }
            };
            let full_slots = usable_slots.floor() as usize;
            let partial = usable_slots - full_slots as f64;

            // Tentatively allocate earliest-first; commit only if it fits.
            let mut tentative: Vec<(usize, usize, f64)> = Vec::new(); // (slot, path, vol)
            let mut need = t.remaining_gbits;
            'slots: for s in 0..horizon {
                if need <= 1e-9 {
                    break;
                }
                let slot_fraction = if s < full_slots {
                    1.0
                } else if s == full_slots && partial > 0.0 {
                    partial
                } else {
                    break 'slots;
                };
                for (p, lp) in link_paths.iter().enumerate() {
                    if need <= 1e-9 {
                        break;
                    }
                    let avail = lp
                        .iter()
                        .map(|&l| residual[s * n_links + l])
                        .fold(f64::INFINITY, f64::min)
                        * slot_fraction;
                    let take = need.min(avail.max(0.0));
                    if take > 1e-9 {
                        tentative.push((s, p, take));
                        for &l in lp {
                            residual[s * n_links + l] -= take;
                        }
                        need -= take;
                    }
                }
            }

            if need <= 1e-6 {
                // Admitted: keep the reservations; this slot's share is
                // whatever landed in slot 0.
                slot0_alloc[i] = tentative
                    .iter()
                    .filter(|&&(s, _, _)| s == 0)
                    .map(|&(_, p, vol)| (paths[p].clone(), vol))
                    .collect();
            } else {
                // Rejected: roll back and serve best-effort later.
                for &(s, p, vol) in &tentative {
                    for &l in &link_paths[p] {
                        residual[s * n_links + l] += vol;
                    }
                }
                best_effort.push(i);
            }
        }

        // Best-effort: fill remaining slot-0 capacity EDF-first.
        for &i in &best_effort {
            let t = &input.transfers[i];
            let tunnels = self.ctx.tunnels(t.src, t.dst);
            let mut need = t.remaining_gbits;
            for (p, lp) in tunnels
                .sites
                .iter()
                .zip(&tunnels.links)
                .take(self.config.paths_per_transfer)
            {
                if need <= 1e-9 {
                    break;
                }
                let avail = lp
                    .iter()
                    .map(|&l| residual[l])
                    .fold(f64::INFINITY, f64::min);
                let take = need.min(avail.max(0.0));
                if take > 1e-9 {
                    for &l in lp {
                        residual[l] -= take;
                    }
                    need -= take;
                    slot0_alloc[i].push((p.clone(), take));
                }
            }
        }

        // Emit allocations: volumes in slot 0 → rates.
        let mut allocations = Vec::new();
        for (i, t) in input.transfers.iter().enumerate() {
            let paths: Vec<(Vec<usize>, f64)> = slot0_alloc[i]
                .iter()
                .map(|(p, vol)| (p.clone(), vol / slot))
                .filter(|&(_, r)| r > 1e-9)
                .collect();
            if !paths.is_empty() {
                allocations.push(Allocation {
                    transfer: t.id,
                    paths,
                });
            }
        }
        crate::fixed::enforce_capacity(&mut allocations, &topology, self.ctx.theta());
        let throughput_gbps = allocations.iter().map(|a| a.total_rate()).sum();
        SlotPlan {
            topology,
            allocations,
            throughput_gbps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_core::Transfer;
    use owan_optical::OpticalParams;

    fn line() -> Topology {
        let mut t = Topology::empty(3);
        t.add_links(0, 1, 1);
        t.add_links(1, 2, 1);
        t
    }

    fn plant() -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams::default());
        for i in 0..3 {
            p.add_site(&format!("S{i}"), 2, 0);
        }
        p.add_fiber(0, 1, 100.0);
        p.add_fiber(1, 2, 100.0);
        p
    }

    fn transfer(id: usize, gbits: f64, deadline: Option<f64>) -> Transfer {
        Transfer {
            id,
            src: 0,
            dst: 2,
            volume_gbits: gbits,
            remaining_gbits: gbits,
            arrival_s: 0.0,
            deadline_s: deadline,
            starved_slots: 0,
        }
    }

    fn plan(ts: &[Transfer]) -> SlotPlan {
        let mut e = AmoebaTe::new(line(), 10.0, 3, AmoebaConfig::default());
        let p = plant();
        e.plan_slot(
            &p,
            &SlotInput {
                transfers: ts,
                slot_len_s: 10.0,
                now_s: 0.0,
            },
        )
    }

    #[test]
    fn feasible_transfer_admitted_entirely_in_first_slot() {
        // 50 Gb due at t=100 over a 10 Gbps path: earliest-first packs the
        // whole volume into slot 0 (100 Gb capacity), i.e. 5 Gbps for 10 s.
        let p = plan(&[transfer(0, 50.0, Some(100.0))]);
        assert!(
            (p.throughput_gbps - 5.0).abs() < 1e-6,
            "{}",
            p.throughput_gbps
        );
    }

    #[test]
    fn infeasible_transfer_still_served_best_effort() {
        // 1000 Gb due at t=20: impossible (max 20 Gb by then) → rejected by
        // admission control but given leftover slot-0 capacity.
        let p = plan(&[transfer(0, 1_000.0, Some(20.0))]);
        assert!(p.throughput_gbps > 0.0, "best-effort service expected");
    }

    #[test]
    fn admitted_transfer_squeezes_out_infeasible_one() {
        // t1 (feasible, earlier deadline) is processed first and reserves
        // what it needs; t0's huge demand cannot evict it.
        let ts = vec![
            transfer(0, 1_000.0, Some(200.0)),
            transfer(1, 100.0, Some(150.0)),
        ];
        let p = plan(&ts);
        let r1 = p
            .allocations
            .iter()
            .find(|a| a.transfer == 1)
            .map(|a| a.total_rate())
            .unwrap_or(0.0);
        assert!(r1 > 0.0, "the feasible EDF-first transfer gets capacity");
    }

    #[test]
    fn deadline_less_transfers_ride_best_effort() {
        let ts = vec![transfer(0, 40.0, Some(50.0)), transfer(1, 500.0, None)];
        let p = plan(&ts);
        let total: f64 = p.allocations.iter().map(|a| a.total_rate()).sum();
        assert!(total <= 10.0 + 1e-6, "single end-to-end path");
        assert!(total > 9.0, "leftover capacity is not wasted");
    }

    #[test]
    fn empty_input() {
        let p = plan(&[]);
        assert_eq!(p.throughput_gbps, 0.0);
    }
}
