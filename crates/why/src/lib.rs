//! `owan-why`: causal attribution and SLO burn-rate monitors — the
//! fourth observability tier.
//!
//! The three collection tiers answer *what* happened (`owan-obs`
//! counters), *in what order* (`owan-scope` slot timelines and flight
//! dumps), and *where the time went* (`owan-prof` region trees). This
//! crate answers *why*: why did transfer 17 miss its deadline, which
//! subsystem ate its slack, and is the run currently burning through its
//! deadline SLO. It adds **no new probes**: its input is the one
//! per-slot [`SlotRecord`] the slot loop builds for the scope tier — the
//! slot header, the slot's fault labels and one row per transfer — which
//! the loop moves into the why recorder after the scope has read it, plus
//! the profiler's region tree for the hottest-region lines:
//!
//! * a per-transfer **attribution engine** ([`attribute`]) that
//!   decomposes each transfer's in-system wall time into named buckets —
//!   queue wait, reconfiguration downtime, rate starvation vs its
//!   max-min fair share, blackhole/fault loss, attack-induced
//!   preemption — proven to partition wall time by a proptest (the same
//!   discipline as the cache-miss taxonomy);
//! * online **SLO monitors** ([`slo`]): deadline-miss burn rate over a
//!   sliding window, p99 slot-planning latency, and delivered-Gb
//!   deficit vs promise, which trip the existing flight-recorder freeze
//!   so dumps are self-explaining;
//! * report rendering for `owan-cli explain <transfer-id>` and
//!   `owan-cli slo`.
//!
//! Like the lower tiers, a [`WhyRecorder`] is an `Option<Arc<...>>`:
//! the disabled default makes every hook an early return, so the slot
//! loops pay nothing when attribution is off.

mod attribution;
mod report;
pub mod slo;

pub use attribution::{
    attribute, split_slot, Buckets, SlotBucketRow, SlotSplit, TransferAttribution,
};
pub use report::{render_explain, render_slo, ProfRegionShare};
pub use slo::{SloConfig, SloReport};

use owan_core::TransferRequest;
use owan_obs::{telemetry_bundle, Recorder};
use owan_prof::ProfSnapshot;
use owan_scope::SlotRecord;
use report::prof_regions;
use std::sync::{Arc, Mutex};

/// Numerical tolerance shared with the slot loops.
pub const EPS: f64 = 1e-9;

/// Configuration for an enabled why recorder.
#[derive(Debug, Clone, Default)]
pub struct WhyConfig {
    /// SLO monitor thresholds and windows.
    pub slo: SloConfig,
}

telemetry_bundle! {
    /// Tier-4's own counters on the shared obs recorder, so the SLO
    /// monitors are themselves observable (and documented in the
    /// DESIGN.md counter table like every other family).
    pub struct WhyTelemetry {
        /// Deadline transfers that completed in time.
        pub deadline_met: counter = "slo.deadline_met",
        /// Deadline transfers whose deadline passed unfinished.
        pub deadline_missed: counter = "slo.deadline_missed",
        /// SLO monitors that crossed their threshold (freezes fired).
        pub trips: counter = "slo.trips",
        /// Latest deadline-miss burn rate over the sliding window.
        pub burn_gauge: gauge = "slo.burn_rate",
    }
}

/// Static facts about one transfer, taken from the request list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferInfo {
    /// Transfer id.
    pub id: usize,
    /// Total volume, Gb.
    pub volume_gbits: f64,
    /// Arrival time, absolute seconds.
    pub arrival_s: f64,
    /// Deadline, if any, absolute seconds.
    pub deadline_s: Option<f64>,
}

#[derive(Debug, Default)]
struct WhyState {
    transfers: Vec<TransferInfo>,
    slots: Vec<SlotRecord>,
    slo: slo::SloState,
    tripped: Option<(&'static str, usize)>,
    prof_regions: Vec<ProfRegionShare>,
}

#[derive(Debug)]
struct WhyInner {
    config: WhyConfig,
    telem: WhyTelemetry,
    state: Mutex<WhyState>,
}

/// Handle to the tier-4 collector (see crate docs). Cloning shares the
/// underlying state; the disabled default is inert.
#[derive(Debug, Clone, Default)]
pub struct WhyRecorder {
    inner: Option<Arc<WhyInner>>,
}

impl WhyRecorder {
    /// The inert recorder: every method returns immediately.
    pub fn disabled() -> Self {
        WhyRecorder::default()
    }

    /// A collecting recorder. `recorder` hosts tier-4's own counters
    /// (`slo.*`); pass a disabled one to skip them.
    pub fn enabled(config: WhyConfig, recorder: &Recorder) -> Self {
        WhyRecorder {
            inner: Some(Arc::new(WhyInner {
                telem: WhyTelemetry::new(recorder),
                config,
                state: Mutex::new(WhyState::default()),
            })),
        }
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, WhyState>> {
        let inner = self.inner.as_ref()?;
        Some(inner.state.lock().expect("why state poisoned"))
    }

    /// Registers the run's request list and clears prior run state.
    pub fn begin_run(&self, requests: &[TransferRequest]) {
        let Some(mut state) = self.lock() else {
            return;
        };
        *state = WhyState::default();
        state.transfers = requests
            .iter()
            .enumerate()
            .map(|(id, r)| TransferInfo {
                id,
                volume_gbits: r.volume_gbits,
                arrival_s: r.arrival_s,
                deadline_s: r.deadline_s,
            })
            .collect();
        let window = self
            .inner
            .as_ref()
            .map(|i| i.config.slo.clone())
            .unwrap_or_default();
        state.slo = slo::SloState::new(window, state.transfers.len());
    }

    /// Feeds one slot: retains the record for attribution and advances
    /// the online SLO monitors. The record's rows must be in its booking
    /// order ([`SlotRecord::transfers`]): the blackhole ledger sums them
    /// in that order. Returns the anomaly reason the first
    /// time a monitor trips (`slo.deadline_burn`, `slo.plan_p99`,
    /// `slo.deficit`) — the slot loop forwards it to
    /// `ScopeRecorder::anomaly` so the existing flight-recorder freeze
    /// fires with a self-explaining reason.
    pub fn observe_slot(&self, record: SlotRecord) -> Option<&'static str> {
        let inner = self.inner.as_ref()?;
        let mut guard = inner.state.lock().expect("why state poisoned");
        let state = &mut *guard;
        let slot = record.slot;
        let trip = state
            .slo
            .observe_slot(&record, &state.transfers, &inner.telem);
        state.slots.push(record);
        if let Some(reason) = trip {
            if state.tripped.is_none() {
                state.tripped = Some((reason, slot));
                inner.telem.trips.incr();
                return Some(reason);
            }
        }
        None
    }

    /// Keeps the tier-3 profiler's hottest regions for the report.
    pub fn attach_prof(&self, snapshot: &ProfSnapshot) {
        if let Some(mut state) = self.lock() {
            state.prof_regions = prof_regions(snapshot);
        }
    }

    /// The first tripped SLO monitor, if any: `(reason, slot)`.
    pub fn tripped(&self) -> Option<(&'static str, usize)> {
        self.lock()?.tripped
    }

    /// Runs the attribution engine over the retained records. `None`
    /// when disabled.
    pub fn report(&self) -> Option<WhyReport> {
        let inner = self.inner.as_ref()?;
        let state = inner.state.lock().expect("why state poisoned");
        let run_end_s = state.slots.last().map_or(0.0, |s| s.now_s + s.slot_len_s);
        let transfers = attribute(&state.transfers, &state.slots, run_end_s);
        // The Gb ledger replicates the chaos runner's accumulation
        // order exactly (slot-major, allocation order, same EPS guard)
        // so it compares bit-for-bit against `ChaosStats`.
        let mut total_blackhole_gbits = 0.0;
        for slot in &state.slots {
            for s in &slot.transfers {
                let lost = (s.rate_gbps - s.live_rate_gbps).max(0.0)
                    * slot.transition_scale
                    * slot.slot_len_s;
                if lost > EPS {
                    total_blackhole_gbits += lost;
                }
            }
        }
        Some(WhyReport {
            transfers,
            total_blackhole_gbits,
            run_end_s,
            slo: state.slo.report(state.tripped),
            records: state.slots.clone(),
            prof_regions: state.prof_regions.clone(),
        })
    }
}

/// The attributed view of one run.
#[derive(Debug, Clone)]
pub struct WhyReport {
    /// Per-transfer attributions, ordered by id.
    pub transfers: Vec<TransferAttribution>,
    /// Total Gb lost to blackholes, accumulated in the chaos runner's
    /// booking order (bit-exact against `ChaosStats::blackhole_gbits`).
    pub total_blackhole_gbits: f64,
    /// End of the last observed slot, absolute seconds.
    pub run_end_s: f64,
    /// Final SLO monitor state.
    pub slo: SloReport,
    /// Every observed slot's record, in slot order: what the attributions
    /// were computed from.
    pub records: Vec<SlotRecord>,
    /// Hottest prof regions by self time (at most twelve), empty without
    /// an attached profiler.
    pub prof_regions: Vec<ProfRegionShare>,
}

impl WhyReport {
    /// The attribution for one transfer id.
    pub fn transfer(&self, id: usize) -> Option<&TransferAttribution> {
        self.transfers.iter().find(|t| t.id == id)
    }

    /// The transfer with the worst deadline slack (most-negative first;
    /// transfers without deadlines rank by longest in-system wall time
    /// and only when no deadline transfer exists).
    pub fn worst_slack(&self) -> Option<&TransferAttribution> {
        let with_deadline = self
            .transfers
            .iter()
            .filter(|t| t.slack_s.is_some())
            .min_by(|a, b| {
                a.slack_s
                    .unwrap_or(f64::INFINITY)
                    .partial_cmp(&b.slack_s.unwrap_or(f64::INFINITY))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        with_deadline.or_else(|| {
            self.transfers.iter().max_by(|a, b| {
                a.wall_s
                    .partial_cmp(&b.wall_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_scope::TransferRow;

    fn request(volume: f64, arrival: f64, deadline: Option<f64>) -> TransferRequest {
        TransferRequest {
            src: 0,
            dst: 1,
            volume_gbits: volume,
            arrival_s: arrival,
            deadline_s: deadline,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let why = WhyRecorder::disabled();
        assert!(!why.is_enabled());
        why.begin_run(&[request(100.0, 0.0, None)]);
        let row = TransferRow {
            id: 0,
            rate_gbps: 1.0,
            live_rate_gbps: 1.0,
            delivered_gbits: 300.0,
            remaining_gbits: 0.0,
            completion_s: Some(300.0),
            active: true,
        };
        let trip = why.observe_slot(SlotRecord {
            slot: 0,
            slot_len_s: 300.0,
            plan_ns: 1,
            transition_scale: 1.0,
            throughput_gbps: 1.0,
            transfers: vec![row],
            ..SlotRecord::default()
        });
        assert!(trip.is_none());
        assert!(why.report().is_none());
        assert!(why.tripped().is_none());
    }

    #[test]
    fn enabled_recorder_attributes_a_simple_run() {
        let rec = Recorder::enabled();
        let why = WhyRecorder::enabled(WhyConfig::default(), &rec);
        why.begin_run(&[request(300.0, 0.0, Some(600.0))]);
        for slot in 0..2 {
            let now = slot as f64 * 300.0;
            let done = slot == 1;
            let row = TransferRow {
                id: 0,
                rate_gbps: 0.5,
                live_rate_gbps: 0.5,
                delivered_gbits: 150.0,
                remaining_gbits: if done { 0.0 } else { 150.0 },
                completion_s: done.then_some(600.0),
                active: true,
            };
            why.observe_slot(SlotRecord {
                slot,
                now_s: now,
                slot_len_s: 300.0,
                plan_ns: 100,
                transition_scale: 1.0,
                throughput_gbps: 0.5,
                transfers: vec![row],
                ..SlotRecord::default()
            });
        }
        let report = why.report().unwrap();
        assert_eq!(report.records.len(), 2);
        let t = report.transfer(0).unwrap();
        assert!((t.wall_s - 600.0).abs() < 1e-9);
        assert!((t.buckets.sum_s() - t.wall_s).abs() < 1e-6);
        assert!(t.buckets.serving_s > 0.0);
        assert_eq!(report.worst_slack().unwrap().id, 0);
        // Met its deadline exactly at 600 s.
        assert_eq!(rec.snapshot().counters.get("slo.deadline_met"), Some(&1));
    }
}
