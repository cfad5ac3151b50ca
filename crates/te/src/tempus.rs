//! Tempus baseline [Kandula et al., SIGCOMM 2014].
//!
//! Tempus plans deadline traffic *across future time slots*: it "first
//! maximizes the minimal fraction a transfer can be served across all time
//! slots and then maximizes the total number of bytes that can be satisfied"
//! (§5.1). This implementation solves a bucketed time-expanded LP each
//! slot:
//!
//! * the horizon from `now` to the latest deadline is partitioned into the
//!   current slot plus up to `max_buckets - 1` coarser buckets at deadline
//!   quantiles (bucketing keeps the LP small; see DESIGN.md §4);
//! * variables are volumes per (transfer, tunnel, bucket), restricted to
//!   buckets that end before the transfer's deadline;
//! * LP 1 maximizes the minimum delivered-by-deadline fraction `α`;
//! * LP 2 pins `α` and maximizes total on-time volume;
//! * the bucket-0 volumes become the slot's rates.

use crate::fixed::{enforce_capacity, FixedContext, LpTally};
use owan_core::{Allocation, Recorder, SlotInput, SlotPlan, Topology, TrafficEngineer};
use owan_optical::FiberPlant;
use owan_solver::{LinearProgram, LpOutcome};

/// Tempus configuration.
#[derive(Debug, Clone, Copy)]
pub struct TempusConfig {
    /// Total buckets in the time-expanded LP (including the current slot).
    pub max_buckets: usize,
    /// Tunnels per transfer considered by the LP.
    pub paths_per_transfer: usize,
    /// Most-urgent transfers planned by the LP per slot (EDF order); the
    /// rest wait. Bounds the LP size.
    pub max_planned_transfers: usize,
}

impl Default for TempusConfig {
    fn default() -> Self {
        TempusConfig {
            max_buckets: 4,
            paths_per_transfer: 2,
            max_planned_transfers: 150,
        }
    }
}

/// The Tempus engine.
pub struct TempusTe {
    ctx: FixedContext,
    config: TempusConfig,
    lp: LpTally,
}

impl TempusTe {
    /// Creates the engine over a fixed topology.
    pub fn new(topology: Topology, theta: f64, k: usize, config: TempusConfig) -> Self {
        TempusTe {
            ctx: FixedContext::new(topology, theta, k),
            config,
            lp: LpTally::default(),
        }
    }

    fn empty_plan(&self) -> SlotPlan {
        SlotPlan {
            topology: self.ctx.topology().clone(),
            allocations: Vec::new(),
            throughput_gbps: 0.0,
        }
    }
}

impl TrafficEngineer for TempusTe {
    fn name(&self) -> &str {
        "Tempus"
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        if input.transfers.is_empty() {
            return self.empty_plan();
        }

        // EDF-ordered planning set.
        let mut order: Vec<usize> = (0..input.transfers.len()).collect();
        order.sort_by(|&a, &b| {
            let da = input.transfers[a].deadline_s.unwrap_or(f64::INFINITY);
            let db = input.transfers[b].deadline_s.unwrap_or(f64::INFINITY);
            da.total_cmp(&db).then(a.cmp(&b))
        });
        order.truncate(self.config.max_planned_transfers);

        // Bucket boundaries: [now, now+slot) then quantiles of deadlines.
        let now = input.now_s;
        let slot_end = now + input.slot_len_s;
        let mut deadlines: Vec<f64> = order
            .iter()
            .filter_map(|&i| input.transfers[i].deadline_s)
            .filter(|&d| d > slot_end)
            .collect();
        deadlines.sort_by(f64::total_cmp);
        let mut bounds = vec![now, slot_end];
        if let Some(&max_d) = deadlines.last() {
            let extra = self.config.max_buckets.saturating_sub(1);
            for b in 1..=extra {
                let q = b as f64 / extra as f64;
                let idx = (((deadlines.len() - 1) as f64) * q).round() as usize;
                let v = deadlines[idx].max(bounds[bounds.len() - 1] + 1.0);
                if v > *bounds.last().expect("non-empty") {
                    bounds.push(v);
                }
            }
            let last = *bounds.last().expect("non-empty");
            if max_d > last {
                *bounds.last_mut().expect("non-empty") = max_d;
            }
        }
        let buckets: Vec<(f64, f64)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();

        // One variable (a volume, Gb) per transfer, tunnel and eligible
        // bucket. The same pass files each variable under every row it
        // appears in: the (link, bucket) capacity rows of its tunnel's
        // links (a tunnel is loopless, so once per row) and its transfer's
        // volume row. Variables are numbered in creation order, so each
        // row lists them in increasing order.
        let caps = self.ctx.capacities();
        let mut lp = LinearProgram::maximize(0);
        let mut link_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); caps.len() * buckets.len()];
        let mut transfer_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); order.len()];
        // slot0[f_pos][p]: the bucket-0 variable of tunnel `p`.
        let mut slot0: Vec<Vec<usize>> = Vec::with_capacity(order.len());
        for (f_pos, &i) in order.iter().enumerate() {
            let t = &input.transfers[i];
            let tunnels = self.ctx.tunnels(t.src, t.dst);
            let deadline = t.deadline_s.unwrap_or(f64::INFINITY);
            let mut first_vars = Vec::new();
            for links in tunnels.links.iter().take(self.config.paths_per_transfer) {
                for (b, &(_, end)) in buckets.iter().enumerate() {
                    // A bucket is eligible if it ends by the deadline (the
                    // first bucket is always eligible — partial credit is
                    // resolved by the simulator's mid-slot completion).
                    if b == 0 || end <= deadline + 1e-9 {
                        let var = lp.add_var();
                        if b == 0 {
                            first_vars.push(var);
                        }
                        for &l in links {
                            link_rows[l * buckets.len() + b].push((var, 1.0));
                        }
                        transfer_rows[f_pos].push((var, 1.0));
                    }
                }
            }
            slot0.push(first_vars);
        }

        // Link-capacity rows per bucket (volume units: Gb).
        for (l, &cap) in caps.iter().enumerate() {
            for (b, &(start, end)) in buckets.iter().enumerate() {
                let coeffs = &link_rows[l * buckets.len() + b];
                if !coeffs.is_empty() {
                    lp.add_le(coeffs, cap * (end - start));
                }
            }
        }
        // Per-transfer volume ceilings.
        for (coeffs, &i) in transfer_rows.iter().zip(&order) {
            if !coeffs.is_empty() {
                lp.add_le(coeffs, input.transfers[i].remaining_gbits);
            }
        }

        // LP 1: maximize the minimum delivered fraction α (the variable
        // after the last volume).
        let alpha = lp.add_var();
        lp.set_objective(alpha, 1.0);
        lp.add_le(&[(alpha, 1.0)], 1.0);
        for (mut coeffs, &i) in transfer_rows.into_iter().zip(&order) {
            let t = &input.transfers[i];
            if t.volume_gbits <= 0.0 || coeffs.is_empty() {
                continue;
            }
            let already = t.volume_gbits - t.remaining_gbits;
            coeffs.push((alpha, -t.volume_gbits));
            lp.add_ge(&coeffs, -already);
        }
        let Some(sol1) = lp.solve().optimal() else {
            self.lp.end_slot();
            return self.empty_plan();
        };
        self.lp.solved(sol1.iterations, lp.n_constraints());
        let alpha_star = sol1.x[alpha].clamp(0.0, 1.0);

        // LP 2: pin α, maximize total on-time volume.
        let mut lp2 = lp;
        lp2.set_objective(alpha, 0.0);
        lp2.add_ge(&[(alpha, 1.0)], (alpha_star - 1e-6).max(0.0));
        for volume in 0..alpha {
            lp2.set_objective(volume, 1.0);
        }
        let x = match lp2.solve() {
            LpOutcome::Optimal(s) => {
                self.lp.solved(s.iterations, lp2.n_constraints());
                s.x
            }
            _ => sol1.x,
        };
        self.lp.end_slot();

        // Bucket-0 volumes become this slot's rates.
        let mut allocations: Vec<Allocation> = Vec::new();
        let slot = input.slot_len_s;
        for (first_vars, &i) in slot0.iter().zip(&order) {
            let t = &input.transfers[i];
            let tunnels = self.ctx.tunnels(t.src, t.dst);
            let mut paths: Vec<(Vec<usize>, f64)> = Vec::new();
            for (p, &var) in first_vars.iter().enumerate() {
                let rate = x[var] / slot;
                if rate > 1e-9 {
                    paths.push((tunnels.sites[p].clone(), rate));
                }
            }
            if !paths.is_empty() {
                allocations.push(Allocation {
                    transfer: t.id,
                    paths,
                });
            }
        }
        enforce_capacity(&mut allocations, self.ctx.topology(), self.ctx.theta());
        let throughput_gbps = allocations.iter().map(|a| a.total_rate()).sum();
        SlotPlan {
            topology: self.ctx.topology().clone(),
            allocations,
            throughput_gbps,
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

    fn transfer(id: usize, gbits: f64, deadline: f64) -> Transfer {
        Transfer {
            id,
            src: 0,
            dst: 2,
            volume_gbits: gbits,
            remaining_gbits: gbits,
            arrival_s: 0.0,
            deadline_s: Some(deadline),
            starved_slots: 0,
        }
    }

    fn plan(ts: &[Transfer]) -> SlotPlan {
        let mut e = TempusTe::new(line(), 10.0, 2, TempusConfig::default());
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
    fn single_urgent_transfer_gets_full_rate() {
        // 100 Gb due in 10 s over a 10 Gbps path: infeasible but Tempus
        // still pushes the full rate.
        let p = plan(&[transfer(0, 100.0, 10.0)]);
        assert!(p.throughput_gbps > 9.0, "{}", p.throughput_gbps);
    }

    #[test]
    fn urgent_beats_lazy_on_shared_link() {
        // Two transfers share the 10 Gbps path; one due next slot, one due
        // much later. The urgent one gets the current slot's capacity.
        let ts = vec![transfer(0, 100.0, 10.0), transfer(1, 100.0, 10_000.0)];
        let p = plan(&ts);
        let urgent = p
            .allocations
            .iter()
            .find(|a| a.transfer == 0)
            .map(|a| a.total_rate())
            .unwrap_or(0.0);
        let lazy = p
            .allocations
            .iter()
            .find(|a| a.transfer == 1)
            .map(|a| a.total_rate())
            .unwrap_or(0.0);
        assert!(
            urgent > lazy,
            "urgent {urgent} should outrank lazy {lazy} in the current slot"
        );
    }

    #[test]
    fn max_min_fraction_shares_across_equals() {
        // Two identical transfers with achievable deadlines: both should be
        // planned to completion (α = 1).
        let ts = vec![transfer(0, 40.0, 100.0), transfer(1, 40.0, 100.0)];
        let p = plan(&ts);
        // Current slot capacity is 100 Gb >= 80 Gb total, so both finish
        // this slot at rate 4 each — any split with both nonzero is fine.
        let total: f64 = p.allocations.iter().map(|a| a.total_rate()).sum();
        assert!(total * 10.0 >= 79.9, "total volume {total}");
    }

    #[test]
    fn empty_input_ok() {
        let p = plan(&[]);
        assert_eq!(p.throughput_gbps, 0.0);
    }

    #[test]
    fn rates_respect_capacity() {
        let ts: Vec<Transfer> = (0..5)
            .map(|i| transfer(i, 500.0, 50.0 + 100.0 * i as f64))
            .collect();
        let p = plan(&ts);
        let total: f64 = p.allocations.iter().map(|a| a.total_rate()).sum();
        assert!(total <= 10.0 + 1e-6, "one 10 Gbps path end to end: {total}");
    }
}
