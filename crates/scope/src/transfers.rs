//! Per-transfer lifecycle tracking: the state machine behind
//! `owan-cli transfers`.
//!
//! Each transfer moves submitted → admitted → active →
//! completed | expired | deadline-missed. The tracker reads every
//! active transfer's row of each [`SlotRecord`] and accumulates, per
//! transfer: delivered Gb attributed per path, queue positions,
//! preemption count (had a rate, then lost it while unfinished),
//! remaining deadline slack, and a full per-slot trace for `--trace ID`.

use crate::{path_label, SlotRecord};
use owan_core::{SlotPlan, TransferRequest};
use std::collections::BTreeMap;

const EPS: f64 = 1e-9;

/// Final (or current) state of a tracked transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferState {
    /// Submitted but its arrival time never passed during the run.
    Submitted,
    /// Admitted (arrival passed) but never allocated any rate.
    Admitted,
    /// Allocated rate in some slot and still unfinished.
    Active,
    /// Finished, and met its deadline if it had one.
    Completed,
    /// Finished or unfinished past its deadline.
    DeadlineMissed,
    /// Unfinished when the run ended (no deadline violated).
    Expired,
}

impl TransferState {
    /// Stable lowercase label (used in tables and dumps).
    pub fn label(&self) -> &'static str {
        match self {
            TransferState::Submitted => "submitted",
            TransferState::Admitted => "admitted",
            TransferState::Active => "active",
            TransferState::Completed => "completed",
            TransferState::DeadlineMissed => "deadline-missed",
            TransferState::Expired => "expired",
        }
    }
}

/// Per-slot trace entry kept for `--trace ID`.
#[derive(Debug, Clone)]
pub struct SlotTrace {
    /// Slot index.
    pub slot: usize,
    /// Slot start, seconds.
    pub now_s: f64,
    /// Allocated rate, Gbps.
    pub rate_gbps: f64,
    /// Delivered this slot, Gb.
    pub delivered_gbits: f64,
    /// Remaining after the slot, Gb.
    pub remaining_gbits: f64,
    /// Queue position (`None` if served).
    pub queue_pos: Option<usize>,
    /// Deadline slack at slot end: time to deadline minus time to finish
    /// at the current rate (`None` without a deadline or a rate).
    pub slack_s: Option<f64>,
    /// Paths used this slot with delivered share.
    pub paths: Vec<(String, f64)>,
}

/// Everything tracked about one transfer.
#[derive(Debug, Clone)]
pub struct TrackedTransfer {
    /// Transfer id (index into the request list).
    pub id: usize,
    /// Ingress site.
    pub src: usize,
    /// Egress site.
    pub dst: usize,
    /// Requested volume, Gb.
    pub volume_gbits: f64,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Deadline, if any.
    pub deadline_s: Option<f64>,
    /// First slot the transfer was admitted (arrival passed).
    pub admitted_slot: Option<usize>,
    /// First slot the transfer was allocated rate.
    pub first_served_slot: Option<usize>,
    /// Completion time, if it finished.
    pub completion_s: Option<f64>,
    /// Total delivered across slots, Gb.
    pub delivered_gbits: f64,
    /// Remaining at the last observation, Gb.
    pub remaining_gbits: f64,
    /// Times the transfer went served → queued while unfinished.
    pub preemptions: u32,
    /// Slots in which the transfer was allocated rate.
    pub slots_served: u32,
    /// Slots spent queued (admitted, zero rate).
    pub slots_queued: u32,
    /// Delivered Gb per path label, across the run.
    pub delivered_by_path: BTreeMap<String, f64>,
    /// Last observed deadline slack.
    pub last_slack_s: Option<f64>,
    /// Full per-slot history.
    pub history: Vec<SlotTrace>,
    had_rate_last_slot: bool,
}

impl TrackedTransfer {
    fn new(id: usize, req: &TransferRequest) -> Self {
        TrackedTransfer {
            id,
            src: req.src,
            dst: req.dst,
            volume_gbits: req.volume_gbits,
            arrival_s: req.arrival_s,
            deadline_s: req.deadline_s,
            admitted_slot: None,
            first_served_slot: None,
            completion_s: None,
            delivered_gbits: 0.0,
            remaining_gbits: req.volume_gbits,
            preemptions: 0,
            slots_served: 0,
            slots_queued: 0,
            delivered_by_path: BTreeMap::new(),
            last_slack_s: None,
            history: Vec::new(),
            had_rate_last_slot: false,
        }
    }

    /// Final state given the run ended at `end_s`.
    pub fn state(&self, end_s: f64) -> TransferState {
        match self.completion_s {
            Some(done) => match self.deadline_s {
                Some(deadline) if done > deadline + 1e-9 => TransferState::DeadlineMissed,
                _ => TransferState::Completed,
            },
            None => {
                if let Some(deadline) = self.deadline_s {
                    if deadline < end_s {
                        return TransferState::DeadlineMissed;
                    }
                }
                match (self.admitted_slot, self.first_served_slot) {
                    (None, _) => TransferState::Submitted,
                    (Some(_), None) => TransferState::Admitted,
                    (Some(_), Some(_)) => {
                        if self.remaining_gbits > 1e-9 {
                            TransferState::Expired
                        } else {
                            TransferState::Active
                        }
                    }
                }
            }
        }
    }
}

/// Tracks every transfer of a run (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TransferTracker {
    transfers: Vec<TrackedTransfer>,
    end_s: f64,
}

impl TransferTracker {
    /// Registers the run's request list; call once before the slot loop.
    pub fn begin_run(&mut self, requests: &[TransferRequest]) {
        self.transfers = requests
            .iter()
            .enumerate()
            .map(|(id, r)| TrackedTransfer::new(id, r))
            .collect();
        self.end_s = 0.0;
    }

    /// Feeds one slot: `order` holds the indices of `rec`'s active rows
    /// in ascending transfer id ([`SlotRecord::by_id`]), and queue
    /// positions count along it. A served row's delivered volume splits
    /// over its allocation's paths (row `i` of `rec` is allocation `i` of
    /// `plan`) pro rata by path rate.
    pub(crate) fn observe_slot(&mut self, rec: &SlotRecord, order: &[usize], plan: &SlotPlan) {
        let (slot, now_s, slot_len_s) = (rec.slot, rec.now_s, rec.slot_len_s);
        self.end_s = self.end_s.max(now_s + slot_len_s);
        let mut queued = 0usize;
        for &i in order {
            let row = &rec.transfers[i];
            let served = !row.queued();
            let queue_pos = (!served).then(|| {
                queued += 1;
                queued - 1
            });
            let Some(t) = self.transfers.get_mut(row.id) else {
                continue;
            };
            let paths: Vec<(String, f64)> = match plan.allocations.get(i) {
                Some(alloc) if served && row.delivered_gbits > 0.0 => {
                    debug_assert_eq!(alloc.transfer, row.id, "rows follow the plan's allocations");
                    alloc
                        .paths
                        .iter()
                        .filter(|(_, r)| *r > EPS)
                        .map(|(p, r)| (path_label(p), row.delivered_gbits * r / row.rate_gbps))
                        .collect()
                }
                _ => Vec::new(),
            };
            t.admitted_slot.get_or_insert(slot);
            if served {
                t.first_served_slot.get_or_insert(slot);
                t.slots_served += 1;
            } else {
                t.slots_queued += 1;
                if t.had_rate_last_slot && row.remaining_gbits > EPS {
                    t.preemptions += 1;
                }
            }
            t.had_rate_last_slot = served;
            t.delivered_gbits += row.delivered_gbits;
            t.remaining_gbits = row.remaining_gbits;
            if row.completion_s.is_some() {
                t.completion_s = row.completion_s;
            }
            for (path, gb) in &paths {
                *t.delivered_by_path.entry(path.clone()).or_insert(0.0) += gb;
            }
            let slack_s = match (t.deadline_s, served) {
                (Some(deadline), true) => {
                    let finish = row
                        .completion_s
                        .unwrap_or(now_s + slot_len_s + row.remaining_gbits / row.rate_gbps);
                    Some(deadline - finish)
                }
                (Some(deadline), false) => {
                    // Queued: slack is simply time left to the deadline.
                    Some(deadline - (now_s + slot_len_s))
                }
                (None, _) => None,
            };
            t.last_slack_s = slack_s;
            t.history.push(SlotTrace {
                slot,
                now_s,
                rate_gbps: row.rate_gbps,
                delivered_gbits: row.delivered_gbits,
                remaining_gbits: row.remaining_gbits,
                queue_pos,
                slack_s,
                paths,
            });
        }
    }

    /// All tracked transfers, by id.
    pub fn transfers(&self) -> &[TrackedTransfer] {
        &self.transfers
    }

    /// One transfer, if tracked.
    pub fn transfer(&self, id: usize) -> Option<&TrackedTransfer> {
        self.transfers.get(id)
    }

    /// Simulation end time observed so far.
    pub fn end_s(&self) -> f64 {
        self.end_s
    }

    /// Total delivered across every transfer, Gb.
    pub fn total_delivered_gbits(&self) -> f64 {
        self.transfers.iter().map(|t| t.delivered_gbits).sum()
    }

    /// Renders the `owan-cli transfers` table: one row per transfer plus
    /// a totals line that cross-checks per-transfer delivered volume.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>4}  {:<15}  {:>4}  {:>4}  {:>10}  {:>10}  {:>9}  {:>10}  {:>9}  {:>5}  {:>5}  {:>6}\n",
            "id", "state", "src", "dst", "volume_gb", "delivered", "arrival",
            "completed", "slack_s", "slots", "queue", "preempt"
        ));
        for t in &self.transfers {
            let state = t.state(self.end_s);
            let completed = t
                .completion_s
                .map_or("-".to_string(), |c| format!("{c:.1}"));
            let slack = match (state, t.deadline_s, t.completion_s) {
                (_, Some(d), Some(c)) => format!("{:.1}", d - c),
                (_, Some(_), None) => t
                    .last_slack_s
                    .map_or("-".to_string(), |s| format!("{s:.1}")),
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{:>4}  {:<15}  {:>4}  {:>4}  {:>10.2}  {:>10.2}  {:>9.1}  {:>10}  {:>9}  {:>5}  {:>5}  {:>6}\n",
                t.id,
                state.label(),
                t.src,
                t.dst,
                t.volume_gbits,
                t.delivered_gbits,
                t.arrival_s,
                completed,
                slack,
                t.slots_served,
                t.slots_queued,
                t.preemptions,
            ));
        }
        let volume: f64 = self.transfers.iter().map(|t| t.volume_gbits).sum();
        let delivered = self.total_delivered_gbits();
        let remaining: f64 = self.transfers.iter().map(|t| t.remaining_gbits).sum();
        out.push_str(&format!(
            "total: {} transfers, {volume:.2} Gb requested, {delivered:.2} Gb delivered, {remaining:.2} Gb remaining\n",
            self.transfers.len(),
        ));
        out
    }

    /// Renders the per-slot trace of one transfer (`--trace ID`).
    pub fn render_trace(&self, id: usize) -> Option<String> {
        let t = self.transfer(id)?;
        let mut out = String::new();
        out.push_str(&format!(
            "transfer {}: {} -> {}, {:.2} Gb, arrival {:.1}s{}\n",
            t.id,
            t.src,
            t.dst,
            t.volume_gbits,
            t.arrival_s,
            t.deadline_s
                .map_or(String::new(), |d| format!(", deadline {d:.1}s")),
        ));
        out.push_str(&format!("state: {}\n", t.state(self.end_s).label()));
        out.push_str(&format!(
            "{:>5}  {:>9}  {:>9}  {:>10}  {:>10}  {:>6}  {:>9}  paths\n",
            "slot", "start_s", "rate_gbps", "delivered", "remaining", "queue", "slack_s"
        ));
        for h in &t.history {
            let queue = h.queue_pos.map_or("-".to_string(), |q| q.to_string());
            let slack = h.slack_s.map_or("-".to_string(), |s| format!("{s:.1}"));
            let paths = if h.paths.is_empty() {
                "-".to_string()
            } else {
                h.paths
                    .iter()
                    .map(|(p, gb)| format!("{p}:{gb:.2}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            out.push_str(&format!(
                "{:>5}  {:>9.1}  {:>9.3}  {:>10.3}  {:>10.3}  {:>6}  {:>9}  {}\n",
                h.slot,
                h.now_s,
                h.rate_gbps,
                h.delivered_gbits,
                h.remaining_gbits,
                queue,
                slack,
                paths,
            ));
        }
        if !t.delivered_by_path.is_empty() {
            out.push_str("delivered by path:\n");
            for (path, gb) in &t.delivered_by_path {
                out.push_str(&format!("  {path}: {gb:.3} Gb\n"));
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransferRow;
    use owan_core::{Allocation, Topology};

    fn req(volume: f64, arrival: f64, deadline: Option<f64>) -> TransferRequest {
        TransferRequest {
            src: 0,
            dst: 1,
            volume_gbits: volume,
            arrival_s: arrival,
            deadline_s: deadline,
        }
    }

    fn row(id: usize, rate: f64, delivered: f64, remaining: f64) -> TransferRow {
        TransferRow {
            id,
            rate_gbps: rate,
            live_rate_gbps: rate,
            delivered_gbits: delivered,
            remaining_gbits: remaining,
            completion_s: None,
            active: true,
        }
    }

    /// Slot `slot` (100 s long) with `row` allocated its rate on path 0-1.
    fn observe(tr: &mut TransferTracker, slot: usize, row: TransferRow) {
        let plan = SlotPlan {
            topology: Topology::empty(2),
            allocations: vec![Allocation {
                transfer: row.id,
                paths: vec![(vec![0, 1], row.rate_gbps)],
            }],
            throughput_gbps: row.rate_gbps,
        };
        let rec = SlotRecord {
            slot,
            now_s: slot as f64 * 100.0,
            slot_len_s: 100.0,
            transfers: vec![row],
            ..SlotRecord::default()
        };
        tr.observe_slot(&rec, &rec.by_id(), &plan);
    }

    #[test]
    fn lifecycle_reaches_completed() {
        let mut tr = TransferTracker::default();
        tr.begin_run(&[req(100.0, 0.0, None)]);
        observe(&mut tr, 0, row(0, 0.5, 50.0, 50.0));
        let mut done = row(0, 0.5, 50.0, 0.0);
        done.completion_s = Some(200.0);
        observe(&mut tr, 1, done);
        let t = tr.transfer(0).unwrap();
        assert_eq!(t.state(tr.end_s()), TransferState::Completed);
        assert!((t.delivered_gbits - 100.0).abs() < 1e-9);
        assert_eq!(t.slots_served, 2);
        assert_eq!(t.preemptions, 0);
        assert!((t.delivered_by_path["0-1"] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn preemption_counts_served_then_queued() {
        let mut tr = TransferTracker::default();
        tr.begin_run(&[req(100.0, 0.0, None)]);
        observe(&mut tr, 0, row(0, 0.5, 50.0, 50.0));
        observe(&mut tr, 1, row(0, 0.0, 0.0, 50.0));
        observe(&mut tr, 2, row(0, 0.5, 50.0, 0.1));
        observe(&mut tr, 3, row(0, 0.0, 0.0, 0.1));
        let t = tr.transfer(0).unwrap();
        assert_eq!(t.preemptions, 2);
        assert_eq!(t.slots_queued, 2);
    }

    #[test]
    fn never_admitted_is_submitted_and_unserved_is_admitted() {
        let mut tr = TransferTracker::default();
        tr.begin_run(&[req(10.0, 1e9, None), req(10.0, 0.0, None)]);
        observe(&mut tr, 0, row(1, 0.0, 0.0, 10.0));
        assert_eq!(
            tr.transfer(0).unwrap().state(tr.end_s()),
            TransferState::Submitted
        );
        assert_eq!(
            tr.transfer(1).unwrap().state(tr.end_s()),
            TransferState::Admitted
        );
    }

    #[test]
    fn deadline_missed_when_run_passes_deadline() {
        let mut tr = TransferTracker::default();
        tr.begin_run(&[req(100.0, 0.0, Some(150.0))]);
        observe(&mut tr, 0, row(0, 0.1, 10.0, 90.0));
        observe(&mut tr, 1, row(0, 0.1, 10.0, 80.0));
        assert_eq!(
            tr.transfer(0).unwrap().state(tr.end_s()),
            TransferState::DeadlineMissed
        );
    }

    #[test]
    fn table_and_trace_render() {
        let mut tr = TransferTracker::default();
        tr.begin_run(&[req(100.0, 0.0, Some(500.0))]);
        let mut done = row(0, 1.0, 100.0, 0.0);
        done.completion_s = Some(100.0);
        observe(&mut tr, 0, done);
        let table = tr.render_table();
        assert!(table.contains("completed"));
        assert!(table.contains("total: 1 transfers"));
        let trace = tr.render_trace(0).unwrap();
        assert!(trace.contains("transfer 0"));
        assert!(trace.contains("0-1:100.00"));
        assert!(tr.render_trace(9).is_none());
    }
}
