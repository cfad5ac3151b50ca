//! Attack scheduling and recovery measurement.
//!
//! An [`AttackTimeline`] composes adversarial demand waves (generated in
//! `owan_workload::attack`) with a background workload into one request
//! list for the hardened runner: attack arrivals snap to slot boundaries
//! so waves act as slot-indexed demand deltas, and the merged list is
//! sorted under a total order, making composition insensitive to both
//! wave order and attack-vs-fault assembly order. [`run_attack`] then
//! drives the scenario twice — a quiet fault-free baseline on the
//! background alone, and the attacked run with faults and op faults
//! injected — and distills [`RecoveryMetrics`]: how many slots until the
//! controller restores the configured fraction of fault-free background
//! delivery, how much was lost for good, and how hot the victim links ran.

use crate::fault::FaultEvent;
use crate::inject::OpFaultModel;
use crate::runner::{run_chaos_probed, AuditHook, ChaosConfig, ChaosResult};
use crate::telemetry::AttackTelemetry;
use owan_core::{TrafficEngineer, TransferRequest};
use owan_optical::{FiberPlant, SiteId};
use owan_sim::Probes;
use owan_workload::attack::AttackWave;

const EPS: f64 = 1e-9;

/// A schedule of attack waves, composable with a background workload and
/// a fault timeline into one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackTimeline {
    waves: Vec<AttackWave>,
}

/// The merged scenario an [`AttackTimeline`] produces: the request list
/// for the runner plus per-request adversarial flags, aligned by index.
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedScenario {
    /// Background and attack requests merged under a total order.
    pub requests: Vec<TransferRequest>,
    /// `attack_flags[i]` is true when `requests[i]` is adversarial.
    pub attack_flags: Vec<bool>,
}

impl AttackTimeline {
    /// Builds a timeline from waves in any order; the stored schedule is
    /// canonical (sorted by onset, then label).
    pub fn new(mut waves: Vec<AttackWave>) -> Self {
        waves.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then(a.kind.label().cmp(b.kind.label()))
                .then(a.injected_gbits.total_cmp(&b.injected_gbits))
        });
        AttackTimeline { waves }
    }

    /// The scheduled waves, in canonical order.
    pub fn waves(&self) -> &[AttackWave] {
        &self.waves
    }

    /// Earliest wave onset, seconds (`None` for an empty timeline).
    pub fn onset_s(&self) -> Option<f64> {
        self.waves
            .iter()
            .map(|w| w.start_s)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Union of every wave's victim links, deduplicated and sorted.
    pub fn victim_links(&self) -> Vec<(SiteId, SiteId)> {
        let mut links: Vec<(SiteId, SiteId)> = self
            .waves
            .iter()
            .flat_map(|w| w.victim_links.iter().copied())
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// Total adversarial volume across all waves, gigabits.
    pub fn injected_gbits(&self) -> f64 {
        self.waves.iter().map(|w| w.injected_gbits).sum()
    }

    /// Slots (of length `slot_len_s`, within `max_slots`) during which at
    /// least one wave is actively injecting.
    pub fn active_slots(&self, slot_len_s: f64, max_slots: usize) -> u64 {
        (0..max_slots)
            .filter(|&s| {
                let t0 = s as f64 * slot_len_s;
                let t1 = t0 + slot_len_s;
                self.waves
                    .iter()
                    .any(|w| w.start_s < t1 - EPS && w.end_s > t0 + EPS)
            })
            .count() as u64
    }

    /// Merges the attack waves into `background` as slot-indexed demand
    /// deltas: every attack arrival snaps down to its slot boundary, and
    /// the combined list sorts under a total order (arrival, src, dst,
    /// volume, background-first). Composition therefore commutes — any
    /// wave order, and any attack-vs-fault assembly order, yields the
    /// same scenario.
    pub fn compose(&self, background: &[TransferRequest], slot_len_s: f64) -> ComposedScenario {
        assert!(slot_len_s > 0.0);
        let mut tagged: Vec<(TransferRequest, bool)> =
            background.iter().map(|r| (r.clone(), false)).collect();
        for w in &self.waves {
            for r in &w.requests {
                let mut r = r.clone();
                r.arrival_s = (r.arrival_s / slot_len_s).floor() * slot_len_s;
                tagged.push((r, true));
            }
        }
        tagged.sort_by(|(a, fa), (b, fb)| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
                .then(a.volume_gbits.total_cmp(&b.volume_gbits))
                .then(fa.cmp(fb))
        });
        let (requests, attack_flags) = tagged.into_iter().unzip();
        ComposedScenario {
            requests,
            attack_flags,
        }
    }
}

/// Recovery measurement distilled from a baseline/attacked run pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryMetrics {
    /// Slot index of the earliest attack onset.
    pub onset_slot: usize,
    /// Slots from onset until cumulative background delivery is restored
    /// to the target fraction of the fault-free baseline *and stays
    /// there* to the end of the run. `None` when it never recovers.
    pub time_to_restore_slots: Option<usize>,
    /// Post-onset slots in the restored state.
    pub restored_slots: u64,
    /// Background volume the attack destroyed for good: baseline minus
    /// attacked background delivery, gigabits (floored at zero).
    pub residual_loss_gbits: f64,
    /// Peak utilization observed across the victim links.
    pub peak_victim_util: f64,
    /// Total adversarial volume injected, gigabits.
    pub injected_gbits: f64,
    /// The restore target as a fraction of baseline delivery.
    pub restore_fraction: f64,
}

/// Outcome of [`run_attack`]: both runs plus the recovery metrics.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Fault-free, attack-free run of the background workload.
    pub baseline: ChaosResult,
    /// The attacked (and optionally faulted) run of the merged scenario.
    pub attacked: ChaosResult,
    /// Recovery measurement comparing the two.
    pub metrics: RecoveryMetrics,
}

/// Drives one adversarial scenario through the hardened runner and
/// measures recovery.
///
/// Two runs share the engine factory: a quiet baseline (background
/// requests only, no faults, no probes) and the attacked run (attack
/// timeline composed in, `events`/`op_faults` injected, victim links
/// tracked, every slot offered to `audit`, reporting into `probes`).
/// `restore_fraction` sets the recovery bar (the headline metric uses
/// 0.9). Attack counters land on the probes' recorder under
/// `chaos.attack.*`.
#[allow(clippy::too_many_arguments)]
pub fn run_attack(
    plant: &FiberPlant,
    background: &[TransferRequest],
    timeline: &AttackTimeline,
    make_engine: &mut dyn FnMut(&FiberPlant) -> Box<dyn TrafficEngineer>,
    config: &ChaosConfig,
    restore_fraction: f64,
    events: &[FaultEvent],
    op_faults: &OpFaultModel,
    probes: &Probes,
    audit: Option<&mut AuditHook>,
) -> Result<AttackOutcome, String> {
    assert!(restore_fraction > 0.0 && restore_fraction <= 1.0);
    let baseline_cfg = ChaosConfig {
        attack_flags: Vec::new(),
        victim_links: Vec::new(),
        ..config.clone()
    };
    let baseline = run_chaos_probed(
        plant,
        background,
        make_engine,
        &baseline_cfg,
        &[],
        &OpFaultModel::none(),
        &Probes::default(),
        None,
    )?;

    let composed = timeline.compose(background, config.slot_len_s);
    let attacked_cfg = ChaosConfig {
        attack_flags: composed.attack_flags.clone(),
        victim_links: timeline.victim_links(),
        ..config.clone()
    };
    let attacked = run_chaos_probed(
        plant,
        &composed.requests,
        make_engine,
        &attacked_cfg,
        events,
        op_faults,
        probes,
        audit,
    )?;

    let metrics = recovery_metrics(
        &baseline,
        &attacked,
        timeline,
        config.slot_len_s,
        restore_fraction,
    );

    let telem = AttackTelemetry::new(&probes.recorder);
    telem.waves.add(timeline.waves().len() as u64);
    telem
        .active_slots
        .add(timeline.active_slots(config.slot_len_s, attacked.delivered_series.len()));
    telem
        .injected_gbits
        .add(timeline.injected_gbits().round() as u64);
    telem
        .victim_links
        .add(attacked_cfg.victim_links.len() as u64);
    telem.restored_slots.add(metrics.restored_slots);

    Ok(AttackOutcome {
        baseline,
        attacked,
        metrics,
    })
}

/// Compares the attacked run's background delivery against the
/// fault-free baseline, cumulative slot by slot.
pub fn recovery_metrics(
    baseline: &ChaosResult,
    attacked: &ChaosResult,
    timeline: &AttackTimeline,
    slot_len_s: f64,
    restore_fraction: f64,
) -> RecoveryMetrics {
    let onset_s = timeline.onset_s().unwrap_or(0.0);
    let onset_slot = (onset_s / slot_len_s).floor() as usize;

    // Cumulative series over the attacked run's horizon; the baseline
    // holds at its total once it finishes early.
    let horizon = attacked.background_series.len();
    let mut cum_base = Vec::with_capacity(horizon);
    let mut acc = 0.0;
    for s in 0..horizon {
        acc += baseline.delivered_series.get(s).map_or(0.0, |&(_, g)| g);
        cum_base.push(acc);
    }
    let mut cum_attacked = Vec::with_capacity(horizon);
    let mut acc = 0.0;
    for &(_, g) in &attacked.background_series {
        acc += g;
        cum_attacked.push(acc);
    }

    // Restored = cumulative background at or above the target fraction of
    // the baseline's cumulative delivery. Sustained restore scans from
    // the end: the earliest post-onset slot after which every slot holds.
    let restored = |s: usize| -> bool { cum_attacked[s] + EPS >= restore_fraction * cum_base[s] };
    let mut sustained_from: Option<usize> = None;
    for s in (onset_slot.min(horizon)..horizon).rev() {
        if restored(s) {
            sustained_from = Some(s);
        } else {
            break;
        }
    }
    let time_to_restore_slots = sustained_from.map(|s| s - onset_slot.min(s));
    let restored_slots = (onset_slot.min(horizon)..horizon)
        .filter(|&s| restored(s))
        .count() as u64;

    let residual_loss_gbits = (baseline.delivered_gbits - attacked.background_gbits).max(0.0);
    let peak_victim_util = attacked
        .victim_util_series
        .iter()
        .map(|&(_, u)| u)
        .fold(0.0, f64::max);

    RecoveryMetrics {
        onset_slot,
        time_to_restore_slots,
        restored_slots,
        residual_loss_gbits,
        peak_victim_util,
        injected_gbits: timeline.injected_gbits(),
        restore_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_workload::attack::{AttackKind, AttackWave};

    fn wave(kind: AttackKind, start_s: f64, reqs: Vec<TransferRequest>) -> AttackWave {
        let injected = reqs.iter().map(|r| r.volume_gbits).sum();
        AttackWave {
            kind,
            start_s,
            end_s: start_s + 600.0,
            requests: reqs,
            victim_fibers: vec![0],
            victim_links: vec![(0, 1)],
            injected_gbits: injected,
        }
    }

    fn req(src: usize, dst: usize, vol: f64, arrival: f64) -> TransferRequest {
        TransferRequest {
            src,
            dst,
            volume_gbits: vol,
            arrival_s: arrival,
            deadline_s: None,
        }
    }

    #[test]
    fn compose_snaps_attack_arrivals_to_slot_boundaries() {
        let tl = AttackTimeline::new(vec![wave(
            AttackKind::Coremelt,
            450.0,
            vec![req(0, 1, 100.0, 450.0), req(2, 3, 50.0, 899.0)],
        )]);
        let composed = tl.compose(&[req(1, 2, 10.0, 123.0)], 300.0);
        for (r, &flag) in composed.requests.iter().zip(&composed.attack_flags) {
            if flag {
                assert_eq!(r.arrival_s % 300.0, 0.0, "attack arrival off-slot");
            } else {
                assert_eq!(r.arrival_s, 123.0, "background arrival must not move");
            }
        }
        assert_eq!(composed.requests.len(), 3);
    }

    #[test]
    fn compose_is_wave_order_insensitive() {
        let a = wave(AttackKind::Coremelt, 600.0, vec![req(0, 1, 100.0, 600.0)]);
        let b = wave(AttackKind::FlashCrowd, 300.0, vec![req(2, 3, 70.0, 310.0)]);
        let bg = vec![req(1, 2, 10.0, 0.0), req(3, 4, 20.0, 500.0)];
        let ab = AttackTimeline::new(vec![a.clone(), b.clone()]).compose(&bg, 300.0);
        let ba = AttackTimeline::new(vec![b, a]).compose(&bg, 300.0);
        assert_eq!(ab, ba);
    }

    #[test]
    fn recovery_metrics_detect_restore_and_loss() {
        let tl = AttackTimeline::new(vec![wave(
            AttackKind::Coremelt,
            300.0,
            vec![req(0, 1, 1000.0, 300.0)],
        )]);
        let series = |vals: &[f64]| -> Vec<(f64, f64)> {
            vals.iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 * 300.0, v))
                .collect()
        };
        let base = ChaosResult {
            completions: Vec::new(),
            delivered_series: series(&[10.0, 10.0, 10.0, 10.0]),
            delivered_gbits: 40.0,
            background_series: series(&[10.0, 10.0, 10.0, 10.0]),
            background_gbits: 40.0,
            victim_util_series: series(&[0.0; 4]),
            makespan_s: 1200.0,
            update_ops: 0,
            transition_loss_gbits: 0.0,
            stats: Default::default(),
            slots: 4,
        };
        // Attacked: slot 1 collapses, slots 2.. catch back up past 90%.
        let attacked = ChaosResult {
            background_series: series(&[10.0, 2.0, 16.0, 10.0]),
            background_gbits: 38.0,
            victim_util_series: series(&[0.2, 1.0, 0.7, 0.4]),
            delivered_series: series(&[10.0, 2.0, 16.0, 10.0]),
            delivered_gbits: 38.0,
            ..base.clone()
        };
        let m = recovery_metrics(&base, &attacked, &tl, 300.0, 0.9);
        assert_eq!(m.onset_slot, 1);
        // Slot 1: cum 12 < 0.9·20 → not restored. Slot 2: cum 28 ≥ 0.9·30
        // → restored; slot 3: cum 38 ≥ 0.9·40 → sustained.
        assert_eq!(m.time_to_restore_slots, Some(1));
        assert_eq!(m.restored_slots, 2);
        assert!((m.residual_loss_gbits - 2.0).abs() < 1e-9);
        assert!((m.peak_victim_util - 1.0).abs() < 1e-9);
    }
}
