//! Online SLO monitors: deadline-miss burn rate over a sliding window,
//! p99 slot-planning latency, and delivered-Gb deficit vs promise.
//!
//! The monitors run inside [`crate::WhyRecorder::observe_slot`] and are
//! deliberately cheap (a few deques and one sort per slot over a small
//! window). When a configured threshold trips, the slot loop forwards
//! the returned reason to `ScopeRecorder::anomaly`, so the **existing**
//! flight-recorder freeze fires and the dump's `anomaly,` line explains
//! itself (`slo.deadline_burn`, `slo.plan_p99`, `slo.deficit`). Every
//! threshold defaults to `None`: monitors always *measure*, they only
//! *trip* when the run opts in.

use crate::{TransferInfo, WhyTelemetry, EPS};
use owan_scope::SlotRecord;
use std::collections::VecDeque;

/// Trip reason for the deadline-miss burn-rate monitor.
pub const TRIP_DEADLINE_BURN: &str = "slo.deadline_burn";
/// Trip reason for the p99 slot-planning latency monitor.
pub const TRIP_PLAN_P99: &str = "slo.plan_p99";
/// Trip reason for the delivered-Gb deficit monitor.
pub const TRIP_DEFICIT: &str = "slo.deficit";

/// Monitor thresholds and window sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Slots in the deadline-outcome sliding window.
    pub burn_window_slots: usize,
    /// Trip when `misses / outcomes` in the window reaches this
    /// fraction (`None`: never trip).
    pub burn_threshold: Option<f64>,
    /// Minimum outcomes in the window before the burn rate counts —
    /// keeps one early miss from reading as a 100% burn.
    pub burn_min_outcomes: usize,
    /// Trip when windowed p99 planning latency exceeds this (`None`:
    /// never trip).
    pub plan_p99_ms: Option<f64>,
    /// Slots in the planning-latency window.
    pub plan_window_slots: usize,
    /// Minimum latency observations before the p99 monitor may trip.
    pub plan_min_samples: usize,
    /// Trip when the pro-rata delivery deficit exceeds this many Gb
    /// (`None`: never trip).
    pub deficit_gbits: Option<f64>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            burn_window_slots: 8,
            burn_threshold: None,
            burn_min_outcomes: 3,
            plan_p99_ms: None,
            plan_window_slots: 32,
            plan_min_samples: 8,
            deficit_gbits: None,
        }
    }
}

/// Rolling monitor state. Created per run by the why recorder.
#[derive(Debug, Default)]
pub(crate) struct SloState {
    config: SloConfig,
    /// Per-transfer "outcome already counted" latch.
    decided: Vec<bool>,
    /// Cumulative Gb delivered per transfer.
    delivered: Vec<f64>,
    /// `(met, missed)` per slot, newest last.
    outcomes: VecDeque<(u32, u32)>,
    /// Planning wall times, newest last, ns.
    plan_ns: VecDeque<u64>,
    met: u64,
    missed: u64,
    burn_rate: f64,
    plan_p99_ms: f64,
    deficit_gbits: f64,
}

impl SloState {
    pub(crate) fn new(config: SloConfig, transfers: usize) -> Self {
        SloState {
            config,
            decided: vec![false; transfers],
            delivered: vec![0.0; transfers],
            ..SloState::default()
        }
    }

    /// Advances every monitor by one slot; returns the first tripped
    /// reason, if any.
    pub(crate) fn observe_slot(
        &mut self,
        rec: &SlotRecord,
        transfers: &[TransferInfo],
        telem: &WhyTelemetry,
    ) -> Option<&'static str> {
        let slot_end = rec.now_s + rec.slot_len_s;
        let mut met_now = 0u32;
        let mut missed_now = 0u32;
        // Completions first, so a transfer finishing in the same slot
        // its deadline falls in is judged by its completion instant.
        for row in &rec.transfers {
            let Some(done) = row.completion_s else {
                continue;
            };
            let Some(flag) = self.decided.get_mut(row.id) else {
                continue;
            };
            if *flag {
                continue;
            }
            *flag = true;
            if let Some(deadline) = transfers.get(row.id).and_then(|t| t.deadline_s) {
                if done <= deadline + EPS {
                    met_now += 1;
                    telem.deadline_met.incr();
                } else {
                    missed_now += 1;
                    telem.deadline_missed.incr();
                }
            }
        }
        for row in &rec.transfers {
            if let Some(d) = self.delivered.get_mut(row.id) {
                *d += row.delivered_gbits;
            }
        }
        // Then expiries: any undecided deadline now in the past missed.
        for t in transfers {
            let Some(deadline) = t.deadline_s else {
                continue;
            };
            let Some(flag) = self.decided.get_mut(t.id) else {
                continue;
            };
            if !*flag && deadline <= slot_end + EPS {
                *flag = true;
                missed_now += 1;
                telem.deadline_missed.incr();
            }
        }
        self.met += u64::from(met_now);
        self.missed += u64::from(missed_now);

        self.outcomes.push_back((met_now, missed_now));
        while self.outcomes.len() > self.config.burn_window_slots.max(1) {
            self.outcomes.pop_front();
        }
        let (w_met, w_missed) = self.outcomes.iter().fold((0u64, 0u64), |(m, x), &(a, b)| {
            (m + u64::from(a), x + u64::from(b))
        });
        let w_outcomes = w_met + w_missed;
        self.burn_rate = if w_outcomes as usize >= self.config.burn_min_outcomes.max(1) {
            w_missed as f64 / w_outcomes as f64
        } else {
            0.0
        };
        telem.burn_gauge.set(self.burn_rate);

        self.plan_ns.push_back(rec.plan_ns);
        while self.plan_ns.len() > self.config.plan_window_slots.max(1) {
            self.plan_ns.pop_front();
        }
        self.plan_p99_ms = windowed_p99_ms(&self.plan_ns);

        // Pro-rata promise: each deadline transfer owes `volume` by its
        // deadline, accrued linearly from arrival; deficit is promised
        // minus delivered so far, floored at zero.
        let mut promised = 0.0;
        let mut delivered = 0.0;
        for t in transfers {
            let Some(deadline) = t.deadline_s else {
                continue;
            };
            let span = deadline - t.arrival_s;
            let due_frac = if span <= EPS {
                1.0
            } else {
                ((slot_end - t.arrival_s) / span).clamp(0.0, 1.0)
            };
            if slot_end + EPS < t.arrival_s {
                continue;
            }
            promised += t.volume_gbits * due_frac;
            delivered += self.delivered.get(t.id).copied().unwrap_or(0.0);
        }
        self.deficit_gbits = (promised - delivered).max(0.0);

        if let Some(threshold) = self.config.burn_threshold {
            if self.burn_rate + EPS >= threshold {
                return Some(TRIP_DEADLINE_BURN);
            }
        }
        if let Some(threshold) = self.config.plan_p99_ms {
            if self.plan_ns.len() >= self.config.plan_min_samples.max(1)
                && self.plan_p99_ms > threshold
            {
                return Some(TRIP_PLAN_P99);
            }
        }
        if let Some(threshold) = self.config.deficit_gbits {
            if self.deficit_gbits > threshold {
                return Some(TRIP_DEFICIT);
            }
        }
        None
    }

    pub(crate) fn report(&self, tripped: Option<(&'static str, usize)>) -> SloReport {
        SloReport {
            deadline_met: self.met,
            deadline_missed: self.missed,
            burn_rate: self.burn_rate,
            burn_window_slots: self.config.burn_window_slots,
            burn_threshold: self.config.burn_threshold,
            plan_p99_ms: self.plan_p99_ms,
            plan_p99_threshold_ms: self.config.plan_p99_ms,
            deficit_gbits: self.deficit_gbits,
            deficit_threshold_gbits: self.config.deficit_gbits,
            tripped: tripped.map(|(reason, slot)| (reason.to_string(), slot)),
        }
    }
}

fn windowed_p99_ms(window: &VecDeque<u64>) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = window.iter().copied().collect();
    sorted.sort_unstable();
    // Nearest-rank p99 (matches how the plan-latency gate will be read:
    // "99% of slots planned faster than this").
    let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e6
}

/// Final monitor readings for `owan-cli slo` and the why report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Deadline transfers that finished in time.
    pub deadline_met: u64,
    /// Deadline transfers that did not.
    pub deadline_missed: u64,
    /// Burn rate over the last window (`misses / outcomes`).
    pub burn_rate: f64,
    /// Window size the burn rate was computed over, slots.
    pub burn_window_slots: usize,
    /// Configured burn threshold, if any.
    pub burn_threshold: Option<f64>,
    /// Windowed p99 planning latency, ms.
    pub plan_p99_ms: f64,
    /// Configured p99 threshold, if any.
    pub plan_p99_threshold_ms: Option<f64>,
    /// Final pro-rata delivery deficit, Gb.
    pub deficit_gbits: f64,
    /// Configured deficit threshold, if any.
    pub deficit_threshold_gbits: Option<f64>,
    /// `(reason, slot)` of the first trip, if any monitor fired.
    pub tripped: Option<(String, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_scope::TransferRow;

    fn info(id: usize, volume: f64, arrival: f64, deadline: Option<f64>) -> TransferInfo {
        TransferInfo {
            id,
            volume_gbits: volume,
            arrival_s: arrival,
            deadline_s: deadline,
        }
    }

    fn obs(slot: usize, slot_len: f64, plan_ns: u64, rows: &[TransferRow]) -> SlotRecord {
        SlotRecord {
            slot,
            now_s: slot as f64 * slot_len,
            slot_len_s: slot_len,
            plan_ns,
            transition_scale: 1.0,
            throughput_gbps: 1.0,
            transfers: rows.to_vec(),
            ..SlotRecord::default()
        }
    }

    fn done_sample(id: usize, at: f64) -> TransferRow {
        TransferRow {
            id,
            rate_gbps: 1.0,
            live_rate_gbps: 1.0,
            delivered_gbits: 10.0,
            remaining_gbits: 0.0,
            completion_s: Some(at),
            active: true,
        }
    }

    #[test]
    fn burn_rate_trips_after_min_outcomes() {
        let config = SloConfig {
            burn_threshold: Some(0.5),
            burn_min_outcomes: 3,
            ..SloConfig::default()
        };
        let transfers: Vec<TransferInfo> =
            (0..4).map(|id| info(id, 10.0, 0.0, Some(50.0))).collect();
        let mut state = SloState::new(config, transfers.len());
        let telem = WhyTelemetry::disabled();
        // Slot 0 ends at 100 s: all four deadlines (50 s) expire at
        // once, but only one completed in time.
        let samples = [done_sample(0, 40.0)];
        let trip = state.observe_slot(&obs(0, 100.0, 10, &samples), &transfers, &telem);
        assert_eq!(trip, Some(TRIP_DEADLINE_BURN));
        assert_eq!(state.met, 1);
        assert_eq!(state.missed, 3);
        assert!((state.burn_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_miss_below_min_outcomes_does_not_trip() {
        let config = SloConfig {
            burn_threshold: Some(0.5),
            burn_min_outcomes: 3,
            ..SloConfig::default()
        };
        let transfers = vec![info(0, 10.0, 0.0, Some(50.0))];
        let mut state = SloState::new(config, 1);
        let telem = WhyTelemetry::disabled();
        let trip = state.observe_slot(&obs(0, 100.0, 10, &[]), &transfers, &telem);
        assert_eq!(trip, None);
        assert_eq!(state.missed, 1);
        assert_eq!(state.burn_rate, 0.0); // below min outcomes
    }

    #[test]
    fn outcomes_age_out_of_the_window() {
        let config = SloConfig {
            burn_window_slots: 2,
            burn_threshold: None,
            burn_min_outcomes: 1,
            ..SloConfig::default()
        };
        // One transfer misses early, then nothing: after the window
        // slides past the miss, burn returns to 0.
        let transfers = vec![info(0, 10.0, 0.0, Some(50.0))];
        let mut state = SloState::new(config, 1);
        let telem = WhyTelemetry::disabled();
        state.observe_slot(&obs(0, 100.0, 10, &[]), &transfers, &telem);
        assert!(state.burn_rate > 0.0);
        state.observe_slot(&obs(1, 100.0, 10, &[]), &transfers, &telem);
        state.observe_slot(&obs(2, 100.0, 10, &[]), &transfers, &telem);
        assert_eq!(state.burn_rate, 0.0);
        assert_eq!(state.missed, 1); // lifetime total unchanged
    }

    #[test]
    fn plan_p99_trips_only_with_enough_samples() {
        let config = SloConfig {
            plan_p99_ms: Some(1.0),
            plan_min_samples: 3,
            ..SloConfig::default()
        };
        let transfers = Vec::new();
        let mut state = SloState::new(config, 0);
        let telem = WhyTelemetry::disabled();
        let slow = 5_000_000; // 5 ms
        assert_eq!(
            state.observe_slot(&obs(0, 100.0, slow, &[]), &transfers, &telem),
            None
        );
        assert_eq!(
            state.observe_slot(&obs(1, 100.0, slow, &[]), &transfers, &telem),
            None
        );
        assert_eq!(
            state.observe_slot(&obs(2, 100.0, slow, &[]), &transfers, &telem),
            Some(TRIP_PLAN_P99)
        );
        assert!((state.plan_p99_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn deficit_tracks_pro_rata_promise() {
        let config = SloConfig {
            deficit_gbits: Some(30.0),
            ..SloConfig::default()
        };
        // 100 Gb due by 200 s, arriving at 0: slot 0 (ends 100 s)
        // promises 50 Gb. Delivering 10 leaves a 40 Gb deficit > 30.
        let transfers = vec![info(0, 100.0, 0.0, Some(200.0))];
        let mut state = SloState::new(config, 1);
        let telem = WhyTelemetry::disabled();
        let samples = [TransferRow {
            id: 0,
            rate_gbps: 0.1,
            live_rate_gbps: 0.1,
            delivered_gbits: 10.0,
            remaining_gbits: 90.0,
            completion_s: None,
            active: true,
        }];
        let trip = state.observe_slot(&obs(0, 100.0, 10, &samples), &transfers, &telem);
        assert_eq!(trip, Some(TRIP_DEFICIT));
        assert!((state.deficit_gbits - 40.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_counts_outcomes() {
        let rec = owan_obs::Recorder::enabled();
        let telem = WhyTelemetry::new(&rec);
        let transfers = vec![
            info(0, 10.0, 0.0, Some(500.0)),
            info(1, 10.0, 0.0, Some(50.0)),
        ];
        let mut state = SloState::new(SloConfig::default(), 2);
        let samples = [done_sample(0, 90.0)];
        state.observe_slot(&obs(0, 100.0, 10, &samples), &transfers, &telem);
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("slo.deadline_met"), Some(&1));
        assert_eq!(snap.counters.get("slo.deadline_missed"), Some(&1));
        assert!(snap.gauges.contains_key("slo.burn_rate"));
    }
}
