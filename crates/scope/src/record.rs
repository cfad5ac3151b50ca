//! The per-slot record: everything a slot loop reports about one slot,
//! built once and read by every probe: the obs gauges and `slot` event,
//! `owan-sim`'s per-slot telemetry, the scope (this crate) and the why
//! tier.
//!
//! The loop hands the scope `&SlotRecord` plus the slot's plan, then moves
//! the record into the why recorder, which keeps it for attribution.

/// Numerical tolerance shared with the slot loops.
const EPS: f64 = 1e-9;

/// One transfer's slot, as the delivery step booked it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferRow {
    /// Transfer id (index into the request list).
    pub id: usize,
    /// Rate the slot's plan allocated, Gbps (0 when the plan left the
    /// transfer out).
    pub rate_gbps: f64,
    /// The allocated rate that survived undetected cuts, Gbps (equal to
    /// `rate_gbps` without faults).
    pub live_rate_gbps: f64,
    /// Volume delivered this slot, Gb.
    pub delivered_gbits: f64,
    /// Remaining volume after the slot, Gb.
    pub remaining_gbits: f64,
    /// Completion instant if the transfer has finished (this slot or
    /// earlier), absolute seconds.
    pub completion_s: Option<f64>,
    /// Admitted and incomplete at slot start. `false` only for an
    /// allocation that outlived its transfer (the chaos loop keeps the
    /// paths of an aborted path removal).
    pub active: bool,
}

impl TransferRow {
    /// True when the plan allocated the transfer no rate this slot.
    pub fn queued(&self) -> bool {
        self.rate_gbps <= EPS
    }
}

/// Everything the slot loop reports once per slot.
///
/// Stage durations are differences of the obs recorder's stage totals
/// across the slot (zero with the recorder off); the scope turns them
/// into nested spans (anneal ⊃ circuits+rates, and
/// update after planning, all inside the slot span).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: usize,
    /// Slot start, sim seconds.
    pub now_s: f64,
    /// Slot length, sim seconds.
    pub slot_len_s: f64,
    /// Recorder-clock ns at slot-processing start.
    pub start_ns: u64,
    /// Recorder-clock ns at slot-processing end.
    pub end_ns: u64,
    /// Recorder-clock ns when planning started.
    pub plan_start_ns: u64,
    /// Wall time of the engine's `plan_slot` call, ns.
    pub plan_ns: u64,
    /// Annealing duration inside planning, ns.
    pub anneal_ns: u64,
    /// Circuit-construction duration inside annealing, ns.
    pub circuits_ns: u64,
    /// Rate-allocation duration inside annealing, ns.
    pub rates_ns: u64,
    /// Network-update duration after planning, ns.
    pub update_ns: u64,
    /// Update operations scheduled into the slot.
    pub update_ops: usize,
    /// Total allocated throughput, Gbps.
    pub throughput_gbps: f64,
    /// Active transfers at slot start.
    pub active_transfers: usize,
    /// Zero-rate queue depth.
    pub queue_depth: usize,
    /// Deadline transfers that cannot finish in time at current rates.
    pub at_risk: usize,
    /// Fraction of the slot delivering after the reconfiguration window
    /// (`1.0` when transitions are free, as in the idealized simulator).
    pub transition_scale: f64,
    /// True when an attack wave injected traffic this slot.
    pub attack_active: bool,
    /// Failures the controller believes in (detected), stable labels.
    pub believed_down: Vec<String>,
    /// Failures actually present in the plant.
    pub actual_down: Vec<String>,
    /// Deterministic fault/event labels for this slot.
    pub events: Vec<String>,
    /// One row per allocation of the slot's plan, in plan order (the
    /// order delivery booked them, which keeps the why tier's blackhole
    /// ledger bit-exact), then one per active transfer the plan left out,
    /// in id order. [`SlotRecord::by_id`] derives the admission order.
    pub transfers: Vec<TransferRow>,
}

impl SlotRecord {
    /// Indices into [`SlotRecord::transfers`] of the active rows, in
    /// ascending transfer id — the order the loop admitted them in.
    pub fn by_id(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.transfers.len())
            .filter(|&i| self.transfers[i].active)
            .collect();
        order.sort_by_key(|&i| self.transfers[i].id);
        order
    }
}
