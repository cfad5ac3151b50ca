//! Per-slot controller telemetry.
//!
//! The simulator and controller publish two views of the same run:
//!
//! * metrics in the attached [`Recorder`](owan_obs::Recorder) — the
//!   `stage.slot` span around each slot, gauges for the latest
//!   active-transfer count, queue depth, at-risk count and throughput,
//!   and one `slot` event per slot;
//! * one [`SlotRecord`] per slot, returned inside the result, whose
//!   stage fields split the slot's planning wall time into the
//!   annealing / circuit-building / rate-assignment / update-scheduling
//!   stages.
//!
//! The per-stage splits work because recorder handles are shared by name:
//! [`StageSplit`] resolves the same `stage.anneal` (etc.) counters the
//! engine's core telemetry writes, and differences of `total_ns` across a
//! slot give that slot's share. Both probed slot loops read the split
//! through it. The handle bundles themselves are generated by
//! [`owan_obs::telemetry_bundle!`].

use owan_core::telemetry::names as core_names;
use owan_obs::{telemetry_bundle, Value};
use owan_scope::SlotRecord;
use owan_update::UpdateTelemetry;

/// Metric names emitted by the simulator/controller loop.
pub mod names {
    /// Span around one whole controller slot (plan + update + delivery).
    pub const STAGE_SLOT: &str = "stage.slot";
    /// Per-slot event carrying the [`super::SlotRecord`] header fields.
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

telemetry_bundle! {
    /// Read-only views of the engine's annealing, circuit-construction
    /// and rate-assignment spans (shared by name with the engine's core
    /// telemetry): the stage split of a slot record.
    pub struct StageSplit {
        /// The engine's annealing span.
        pub anneal: stage = core_names::STAGE_ANNEAL,
        /// The engine's circuit-construction span (inside annealing).
        pub circuits: stage = core_names::STAGE_CIRCUITS,
        /// The engine's rate-assignment span (inside annealing).
        pub rates: stage = core_names::STAGE_RATES,
    }
}

impl StageSplit {
    /// The anneal, circuits and rates totals now, ns.
    pub fn totals(&self) -> [u64; 3] {
        [
            self.anneal.total_ns(),
            self.circuits.total_ns(),
            self.rates.total_ns(),
        ]
    }

    /// Time each stage gained since `before` (an earlier
    /// [`Self::totals`]), ns.
    pub fn since(&self, before: [u64; 3]) -> [u64; 3] {
        let now = self.totals();
        std::array::from_fn(|i| now[i] - before[i])
    }
}

telemetry_bundle! {
    /// Pre-resolved recorder handles for the simulation loop.
    pub(crate) struct SimTelemetry {
        /// Span around one whole controller slot.
        pub slot_stage: stage = names::STAGE_SLOT,
        /// Nested update-planner bundle (shares the recorder).
        pub update: bundle(UpdateTelemetry),
        /// The engine's stage split.
        pub stages: bundle(StageSplit),
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
    /// Publishes a finished slot: gauges and the `slot` event.
    pub fn publish_slot(&self, rec: &SlotRecord) {
        self.active_gauge.set(rec.active_transfers as f64);
        self.queue_gauge.set(rec.queue_depth as f64);
        self.throughput_gauge.set(rec.throughput_gbps);
        self.at_risk_gauge.set(rec.at_risk as f64);
        self.recorder.event(
            names::EVENT_SLOT,
            &[
                ("slot", Value::from(rec.slot)),
                ("start_s", Value::from(rec.now_s)),
                ("active_transfers", Value::from(rec.active_transfers)),
                ("queue_depth", Value::from(rec.queue_depth)),
                ("at_risk", Value::from(rec.at_risk)),
                ("plan_ns", Value::from(rec.plan_ns)),
                ("anneal_ns", Value::from(rec.anneal_ns)),
                ("circuits_ns", Value::from(rec.circuits_ns)),
                ("rates_ns", Value::from(rec.rates_ns)),
                ("update_ns", Value::from(rec.update_ns)),
                ("update_ops", Value::from(rec.update_ops)),
                ("throughput_gbps", Value::from(rec.throughput_gbps)),
            ],
        );
    }
}
