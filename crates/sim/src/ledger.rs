//! The slot ledger: the run's per-transfer accounting, written once.
//!
//! Every slot loop — [`simulate`](crate::simulate),
//! [`run_controller`](crate::run_controller) and `owan_chaos::run_chaos` —
//! moves its transfers forward through one [`SlotLedger`]. It owns the
//! live transfers, their [`CompletionRecord`]s and the makespan, and it is
//! the only code that books a slot's delivery (§3.1: each transfer moves
//! at its allocated rate) and counts unserved slots (§3.2's starvation
//! guard reads them). The loops still differ in which steps they call:
//!
//! | step | `simulate` | `run_controller` | `run_chaos` |
//! |---|---|---|---|
//! | [`SlotLedger::deliver`] factor | rate efficiency | transition scale | transition scale |
//! | [`SlotLedger::settle_dust`] | yes | no | no |
//! | [`SlotLedger::count_starved`] | yes | no | yes |
//!
//! Those differences are known accounting errors kept bit for bit until
//! one change fixes them together (ROADMAP, re-baselining item).
//!
//! The per-transfer rows of the probes' slot record are built here too,
//! so every tier reads the numbers the delivery step booked.

use owan_core::{Allocation, SlotPlan, Transfer, TransferRequest};
use owan_scope::TransferRow;
use serde::{Deserialize, Serialize};

const EPS: f64 = 1e-9;

/// Transfers whose remaining volume falls below this floor (1e-6 Gb = 125
/// bytes) are counted complete at the end of the slot. LP-based engines
/// leave numerical dust of this order; without the floor a sub-byte
/// residue can starve forever below the allocators' rate thresholds.
const COMPLETION_FLOOR_GBITS: f64 = 1e-6;

/// Per-transfer outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// Transfer id (index into the request list).
    pub id: usize,
    /// Total volume, gigabits.
    pub volume_gbits: f64,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Deadline, if any.
    pub deadline_s: Option<f64>,
    /// Completion time (absolute seconds), or `None` if unfinished when
    /// the simulation ended.
    pub completion_s: Option<f64>,
    /// Gigabits delivered before the deadline (equals `volume_gbits` when
    /// the transfer met its deadline; meaningful only if a deadline is set).
    pub gbits_by_deadline: f64,
}

impl CompletionRecord {
    /// Completion time relative to arrival, if finished.
    pub fn completion_time_s(&self) -> Option<f64> {
        self.completion_s.map(|c| c - self.arrival_s)
    }

    /// True if the transfer finished before its deadline.
    pub fn met_deadline(&self) -> bool {
        match (self.completion_s, self.deadline_s) {
            (Some(c), Some(d)) => c <= d + EPS,
            _ => false,
        }
    }
}

/// What one [`SlotLedger::deliver`] call moved, Gb. The two differ in the
/// last bits on a partial delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The volume booked: `rate · δ`, or the whole remainder when the
    /// transfer completes (the controller loops' delivered series).
    pub booked_gbits: f64,
    /// `remaining_before − remaining_after` (the chaos background series
    /// and the slot record's rows).
    pub drained_gbits: f64,
}

/// The run's transfers, their completion records and the makespan.
#[derive(Debug)]
pub struct SlotLedger {
    transfers: Vec<Transfer>,
    records: Vec<CompletionRecord>,
    makespan_s: f64,
}

impl SlotLedger {
    /// Every request as an undelivered transfer, ids in request order.
    pub fn new(requests: &[TransferRequest]) -> Self {
        SlotLedger {
            transfers: requests
                .iter()
                .enumerate()
                .map(|(id, r)| Transfer::from_request(id, r))
                .collect(),
            records: requests
                .iter()
                .enumerate()
                .map(|(id, r)| CompletionRecord {
                    id,
                    volume_gbits: r.volume_gbits,
                    arrival_s: r.arrival_s,
                    deadline_s: r.deadline_s,
                    completion_s: None,
                    gbits_by_deadline: 0.0,
                })
                .collect(),
            makespan_s: 0.0,
        }
    }

    /// The live transfers, indexed by id.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Admission at `now`: the transfers that arrived and are incomplete,
    /// and whether an incomplete one has yet to arrive.
    pub fn admit(&self, now: f64) -> (Vec<Transfer>, bool) {
        let active = self
            .transfers
            .iter()
            .filter(|t| t.arrival_s <= now + EPS && !t.is_complete())
            .cloned()
            .collect();
        let pending = self
            .transfers
            .iter()
            .any(|t| t.arrival_s > now + EPS && !t.is_complete());
        (active, pending)
    }

    /// Books transfer `id`'s delivery over the slot `[now, now + δ)` at
    /// `rate_alloc · factor`; `None` (nothing booked) when that rate is
    /// not positive.
    ///
    /// Volume before the deadline is credited pro rata. A transfer whose
    /// *allocated* rate covers its remaining volume finishes this slot;
    /// `factor` (rate efficiency, or the update transition's scale) only
    /// moves the finish instant, up to `1/factor` later. Modelling the
    /// under-delivered sliver this way avoids the unphysical geometric
    /// tail a demand-capped allocator would otherwise produce.
    pub fn deliver(
        &mut self,
        id: usize,
        rate_alloc: f64,
        factor: f64,
        now: f64,
        slot_len_s: f64,
    ) -> Option<Delivery> {
        let rate = rate_alloc * factor;
        if rate <= EPS {
            return None;
        }
        let t = &mut self.transfers[id];
        let rec = &mut self.records[id];
        let before = t.remaining_gbits;
        if let Some(d) = t.deadline_s {
            if d > now {
                let usable = (d - now).min(slot_len_s);
                let by_deadline = (rate * usable).min(t.remaining_gbits);
                rec.gbits_by_deadline = (rec.gbits_by_deadline + by_deadline).min(t.volume_gbits);
            }
        }
        let booked_gbits = if rate_alloc * slot_len_s + EPS >= t.remaining_gbits {
            let finish = now + t.remaining_gbits / rate;
            t.remaining_gbits = 0.0;
            rec.completion_s = Some(finish);
            self.makespan_s = self.makespan_s.max(finish);
            before
        } else {
            let vol = rate * slot_len_s;
            t.remaining_gbits -= vol;
            vol
        };
        Some(Delivery {
            booked_gbits,
            drained_gbits: before - t.remaining_gbits,
        })
    }

    /// The completion floor: an incomplete transfer left with less than
    /// `COMPLETION_FLOOR_GBITS` completes at the end of the slot.
    pub fn settle_dust(&mut self, now: f64, slot_len_s: f64) {
        for (t, rec) in self.transfers.iter_mut().zip(&mut self.records) {
            if !t.is_complete() && t.remaining_gbits < COMPLETION_FLOOR_GBITS {
                t.remaining_gbits = 0.0;
                let finish = now + slot_len_s;
                rec.completion_s = Some(finish);
                self.makespan_s = self.makespan_s.max(finish);
            }
        }
    }

    /// The starvation guard's input: every arrived, incomplete transfer
    /// `got_rate` marks unserved waits one more slot, a served one none.
    /// Returns the queue depth (the unserved count).
    pub fn count_starved(&mut self, now: f64, got_rate: &[bool]) -> usize {
        let mut queue_depth = 0;
        for (t, &served) in self.transfers.iter_mut().zip(got_rate) {
            if t.arrival_s <= now + EPS && !t.is_complete() {
                if served {
                    t.starved_slots = 0;
                } else {
                    t.starved_slots += 1;
                    queue_depth += 1;
                }
            }
        }
        queue_depth
    }

    /// The records and the makespan: the last completion, or `end_s` when
    /// some transfer never finished.
    pub fn finish(self, end_s: f64) -> (Vec<CompletionRecord>, f64) {
        let mut makespan_s = self.makespan_s;
        if !self.records.iter().all(|r| r.completion_s.is_some()) {
            makespan_s = makespan_s.max(end_s);
        }
        (self.records, makespan_s)
    }

    /// The slot record's transfer rows, in booking order: one per
    /// allocation of `plan` (the order delivery booked them), then one per
    /// active transfer the plan left out. `delivered` is each transfer's
    /// drained volume this slot, by id; `live_rate(i, alloc)` is the rate
    /// allocation `i` actually carried (what survived blackholes).
    pub fn transfer_rows(
        &self,
        active: &[Transfer],
        plan: &SlotPlan,
        delivered: &[f64],
        live_rate: impl Fn(usize, &Allocation) -> f64,
    ) -> Vec<TransferRow> {
        let row =
            |id: usize, rate: f64, live: f64, delivered_gbits: f64, active: bool| TransferRow {
                id,
                rate_gbps: rate,
                live_rate_gbps: live,
                delivered_gbits,
                remaining_gbits: self.transfers[id].remaining_gbits,
                completion_s: self.records[id].completion_s,
                active,
            };
        let mut unbooked = vec![false; self.transfers.len()];
        for t in active {
            unbooked[t.id] = true;
        }
        let mut rows = Vec::with_capacity(plan.allocations.len() + active.len());
        for (i, alloc) in plan.allocations.iter().enumerate() {
            let id = alloc.transfer;
            let is_active = std::mem::take(&mut unbooked[id]);
            rows.push(row(
                id,
                alloc.total_rate(),
                live_rate(i, alloc),
                delivered[id],
                is_active,
            ));
        }
        for t in active {
            if unbooked[t.id] {
                rows.push(row(t.id, 0.0, 0.0, 0.0, true));
            }
        }
        rows
    }
}

/// Number of incomplete deadline transfers in `view` that cannot finish
/// by their deadline at the rate `plan` allocates them (a transfer with no
/// allocation and a live deadline is always at risk; one whose deadline
/// already passed with volume remaining counts too).
pub fn at_risk_count<'a>(
    view: impl IntoIterator<Item = &'a Transfer>,
    plan: &SlotPlan,
    now_s: f64,
) -> usize {
    view.into_iter()
        .filter(|t| !t.is_complete())
        .filter(|t| {
            let Some(deadline) = t.deadline_s else {
                return false;
            };
            let rate = plan
                .allocations
                .iter()
                .find(|a| a.transfer == t.id)
                .map_or(0.0, Allocation::total_rate);
            let horizon = (deadline - now_s).max(0.0);
            rate * horizon + EPS < t.remaining_gbits
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(volume_gbits: f64, arrival_s: f64, deadline_s: Option<f64>) -> TransferRequest {
        TransferRequest {
            src: 0,
            dst: 1,
            volume_gbits,
            arrival_s,
            deadline_s,
        }
    }

    #[test]
    fn admission_splits_active_from_pending() {
        let ledger = SlotLedger::new(&[request(10.0, 0.0, None), request(10.0, 300.0, None)]);
        let (active, pending) = ledger.admit(0.0);
        assert_eq!(active.len(), 1);
        assert!(pending);
        let (active, pending) = ledger.admit(300.0);
        assert_eq!(active.len(), 2);
        assert!(!pending);
    }

    #[test]
    fn partial_delivery_books_rate_times_slot_and_credits_the_deadline() {
        let mut ledger = SlotLedger::new(&[request(1_000.0, 0.0, Some(50.0))]);
        let d = ledger.deliver(0, 1.0, 1.0, 0.0, 100.0).unwrap();
        assert_eq!(d.booked_gbits, 100.0);
        assert_eq!(d.drained_gbits, 100.0);
        assert_eq!(ledger.transfers()[0].remaining_gbits, 900.0);
        let (records, makespan) = ledger.finish(100.0);
        assert_eq!(records[0].gbits_by_deadline, 50.0);
        assert_eq!(records[0].completion_s, None);
        assert_eq!(makespan, 100.0, "unfinished: the makespan is the run end");
    }

    #[test]
    fn completion_keys_off_the_allocated_rate_and_factor_moves_the_finish() {
        let mut ledger = SlotLedger::new(&[request(50.0, 0.0, None)]);
        let d = ledger.deliver(0, 0.5, 0.5, 0.0, 100.0).unwrap();
        assert_eq!(d.booked_gbits, 50.0, "the whole remainder");
        assert_eq!(d.drained_gbits, 50.0);
        let (records, makespan) = ledger.finish(100.0);
        assert_eq!(records[0].completion_s, Some(200.0));
        assert_eq!(makespan, 200.0);
    }

    #[test]
    fn a_rate_too_small_to_serve_books_nothing() {
        let mut ledger = SlotLedger::new(&[request(50.0, 0.0, None)]);
        assert_eq!(ledger.deliver(0, 1.0, 0.0, 0.0, 100.0), None);
        assert_eq!(ledger.transfers()[0].remaining_gbits, 50.0);
    }

    #[test]
    fn dust_below_the_floor_completes_at_slot_end() {
        let mut ledger = SlotLedger::new(&[request(100.0, 0.0, None), request(100.0, 0.0, None)]);
        // 100 Gb less 5e-7 Gb: a residue above `is_complete`'s 1e-9 but
        // under the floor.
        ledger.deliver(0, (100.0 - 5e-7) / 300.0, 1.0, 0.0, 300.0);
        let residue = ledger.transfers()[0].remaining_gbits;
        assert!(
            residue > 1e-9 && residue < COMPLETION_FLOOR_GBITS,
            "{residue}"
        );
        ledger.settle_dust(0.0, 300.0);
        assert!(ledger.transfers()[0].is_complete());
        assert!(!ledger.transfers()[1].is_complete());
        let (records, _) = ledger.finish(300.0);
        assert_eq!(records[0].completion_s, Some(300.0));
        assert_eq!(records[1].completion_s, None);
    }

    #[test]
    fn transfer_rows_follow_the_plan_then_the_left_out() {
        let mut ledger = SlotLedger::new(&[
            request(100.0, 0.0, None),
            request(100.0, 0.0, None),
            request(100.0, 0.0, None),
            request(50.0, 0.0, None),
        ]);
        // Transfer 3 finished in the first slot, but a path the update
        // failed to remove still carries it.
        ledger.deliver(3, 1.0, 1.0, 0.0, 100.0);
        let (active, _) = ledger.admit(100.0);
        let alloc = |transfer: usize, rate: f64| Allocation {
            transfer,
            paths: vec![(vec![0, 1], rate)],
        };
        let plan = SlotPlan {
            topology: owan_core::Topology::empty(2),
            allocations: vec![alloc(2, 0.5), alloc(3, 0.25), alloc(0, 1.0)],
            throughput_gbps: 1.75,
        };
        let live = |i: usize, a: &Allocation| if i == 1 { 0.0 } else { a.total_rate() };
        let rows = ledger.transfer_rows(&active, &plan, &[0.0; 4], live);
        let ids: Vec<usize> = rows.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3, 0, 1], "booking order");
        assert!(!rows[1].active && rows[1].live_rate_gbps == 0.0);
        assert!(rows[3].active && rows[3].queued());
        let rec = owan_scope::SlotRecord {
            transfers: rows,
            ..Default::default()
        };
        let admitted: Vec<usize> = rec.by_id().iter().map(|&i| rec.transfers[i].id).collect();
        assert_eq!(admitted, vec![0, 1, 2], "admission order");
    }

    #[test]
    fn starvation_counts_arrived_unserved_transfers() {
        let mut ledger = SlotLedger::new(&[
            request(100.0, 0.0, None),
            request(100.0, 0.0, None),
            request(100.0, 600.0, None),
        ]);
        assert_eq!(ledger.count_starved(0.0, &[true, false, false]), 1);
        assert_eq!(ledger.count_starved(300.0, &[false, false, false]), 2);
        let starved: Vec<u32> = ledger.transfers().iter().map(|t| t.starved_slots).collect();
        assert_eq!(starved, vec![1, 2, 0]);
    }
}
