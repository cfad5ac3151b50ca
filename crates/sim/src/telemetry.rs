//! Per-slot controller telemetry.
//!
//! The simulator and controller publish two views of the same run:
//!
//! * metrics in the attached [`Recorder`](owan_obs::Recorder) — the
//!   `stage.slot` span around each slot, gauges for the latest
//!   active-transfer count, queue depth, at-risk count and throughput,
//!   and one `slot` event per slot;
//! * a structured [`SlotTelemetry`] row per slot, returned inside the
//!   result, splitting each slot's planning wall time into the annealing /
//!   circuit-building / rate-assignment / update-scheduling stages.
//!
//! The per-stage splits work because recorder handles are shared by name:
//! the sim resolves the same `stage.anneal` (etc.) counters the engine's
//! core telemetry writes, and differences of `total_ns` across a slot give
//! that slot's share. The handle bundle itself is generated by
//! [`owan_obs::telemetry_bundle!`]; only the slot-row plumbing is
//! hand-written.

use owan_core::telemetry::names as core_names;
use owan_obs::{telemetry_bundle, Value};
use owan_update::UpdateTelemetry;
use serde::{Deserialize, Serialize};

/// Metric names emitted by the simulator/controller loop.
pub mod names {
    /// Span around one whole controller slot (plan + update + delivery).
    pub const STAGE_SLOT: &str = "stage.slot";
    /// Per-slot event carrying the [`super::SlotTelemetry`] fields.
    pub const EVENT_SLOT: &str = "slot";
    /// Latest slot's admitted-and-unfinished transfer count.
    pub const GAUGE_ACTIVE: &str = "slot.active_transfers";
    /// Latest slot's queue depth (active transfers allocated no rate).
    pub const GAUGE_QUEUE: &str = "slot.queue_depth";
    /// Latest slot's allocated throughput, Gbps.
    pub const GAUGE_THROUGHPUT: &str = "slot.throughput_gbps";
    /// Latest slot's count of deadline transfers that cannot finish in
    /// time at their currently allocated rate.
    pub const GAUGE_AT_RISK: &str = "slot.at_risk";
}

/// One slot of the controller loop, captured when a recording
/// [`Recorder`](owan_obs::Recorder) is attached (`None` in results
/// otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotTelemetry {
    /// Slot index.
    pub slot: usize,
    /// Slot start, absolute seconds.
    pub start_s: f64,
    /// Transfers admitted and unfinished at slot start.
    pub active_transfers: usize,
    /// Active transfers that received no allocation this slot (the
    /// starvation guard's wait queue).
    pub queue_depth: usize,
    /// Deadline transfers that cannot finish by their deadline at the
    /// rate this slot's plan allocates them.
    pub at_risk: usize,
    /// Wall time of the engine's `plan_slot` call.
    pub plan_ns: u64,
    /// Share of `plan_ns` inside the annealing loop.
    pub anneal_ns: u64,
    /// Share spent building optical circuits (inside annealing).
    pub circuits_ns: u64,
    /// Share spent assigning rates (inside annealing).
    pub rates_ns: u64,
    /// Wall time scheduling the slot-to-slot network update.
    pub update_ns: u64,
    /// Operations in the slot's update schedule.
    pub update_ops: usize,
    /// Allocated throughput, Gbps.
    pub throughput_gbps: f64,
}

telemetry_bundle! {
    /// Pre-resolved recorder handles for the simulation loop. The anneal /
    /// circuits / rates stages are read-only views onto the counters the
    /// engine's core telemetry writes (shared by name).
    pub(crate) struct SimTelemetry {
        /// Span around one whole controller slot.
        pub slot_stage: stage = names::STAGE_SLOT,
        /// Nested update-planner bundle (shares the recorder).
        pub update: bundle(UpdateTelemetry),
        /// Read-only view of the engine's annealing span.
        pub anneal: stage = core_names::STAGE_ANNEAL,
        /// Read-only view of the engine's circuit-construction span.
        pub circuits: stage = core_names::STAGE_CIRCUITS,
        /// Read-only view of the engine's rate-assignment span.
        pub rates: stage = core_names::STAGE_RATES,
        /// Latest active-transfer count.
        pub active_gauge: gauge = names::GAUGE_ACTIVE,
        /// Latest queue depth.
        pub queue_gauge: gauge = names::GAUGE_QUEUE,
        /// Latest allocated throughput.
        pub throughput_gauge: gauge = names::GAUGE_THROUGHPUT,
        /// Latest at-risk deadline-transfer count.
        pub at_risk_gauge: gauge = names::GAUGE_AT_RISK,
    }
}

impl SimTelemetry {
    /// Stage totals right now, for before/after slot differencing.
    pub fn stage_marks(&self) -> StageMarks {
        StageMarks {
            anneal_ns: self.anneal.total_ns(),
            circuits_ns: self.circuits.total_ns(),
            rates_ns: self.rates.total_ns(),
            update_ns: self.update.update.total_ns(),
        }
    }

    /// Publishes a finished slot: gauges, the `slot` event, and the
    /// structured row (which the caller appends to the result).
    pub fn publish_slot(&self, row: &SlotTelemetry) {
        self.active_gauge.set(row.active_transfers as f64);
        self.queue_gauge.set(row.queue_depth as f64);
        self.throughput_gauge.set(row.throughput_gbps);
        self.at_risk_gauge.set(row.at_risk as f64);
        self.recorder.event(
            names::EVENT_SLOT,
            &[
                ("slot", Value::from(row.slot)),
                ("start_s", Value::from(row.start_s)),
                ("active_transfers", Value::from(row.active_transfers)),
                ("queue_depth", Value::from(row.queue_depth)),
                ("at_risk", Value::from(row.at_risk)),
                ("plan_ns", Value::from(row.plan_ns)),
                ("anneal_ns", Value::from(row.anneal_ns)),
                ("circuits_ns", Value::from(row.circuits_ns)),
                ("rates_ns", Value::from(row.rates_ns)),
                ("update_ns", Value::from(row.update_ns)),
                ("update_ops", Value::from(row.update_ops)),
                ("throughput_gbps", Value::from(row.throughput_gbps)),
            ],
        );
    }
}

/// Snapshot of the core/update stage totals at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageMarks {
    pub anneal_ns: u64,
    pub circuits_ns: u64,
    pub rates_ns: u64,
    pub update_ns: u64,
}

impl StageMarks {
    /// Elapsed stage time since `earlier`, as the four per-slot fields.
    pub fn since(&self, earlier: &StageMarks) -> (u64, u64, u64, u64) {
        (
            self.anneal_ns - earlier.anneal_ns,
            self.circuits_ns - earlier.circuits_ns,
            self.rates_ns - earlier.rates_ns,
            self.update_ns - earlier.update_ns,
        )
    }
}
