//! The per-transfer attribution engine: decomposes each transfer's
//! in-system wall time into named buckets that provably partition it.
//!
//! The taxonomy (all values in seconds of wall time):
//!
//! | bucket       | meaning                                              |
//! |--------------|------------------------------------------------------|
//! | `serving`    | receiving rate, no identified impairment             |
//! | `queue_wait` | active but unallocated, before first service         |
//! | `preempted`  | active but unallocated during an attack wave, after  |
//! |              | having been served — attack-induced preemption       |
//! | `reconfig`   | parked behind the slot's circuit teardown/setup      |
//! |              | window (`1 − transition_scale` of the slot)          |
//! | `blackhole`  | rate share lost to undetected cuts (`full − live`)   |
//! | `starved`    | served below the slot's equal-share reference rate — |
//! |              | the max-min fair share proxy `throughput / actives`  |
//! | `stalled`    | in-system time in slots with no sample at all        |
//! |              | (pre-arrival-slot residue, planner failure slots)    |
//!
//! Within one slot the first six buckets sum *exactly* (up to FP
//! rounding) to the transfer's overlap with that slot; `stalled` is the
//! run-level complement, so the seven buckets partition wall time by
//! construction. The proptest below pins both facts the same way the
//! cache-miss taxonomy's partition proof does.

use crate::{TransferInfo, EPS};
use owan_scope::{SlotRecord, TransferRow};

/// Per-slot decomposition of one transfer's overlap with the slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlotSplit {
    /// Unimpaired service time.
    pub serving_s: f64,
    /// Unallocated, never served before.
    pub queue_wait_s: f64,
    /// Unallocated during an attack wave after prior service.
    pub preempted_s: f64,
    /// Reconfiguration downtime share.
    pub reconfig_s: f64,
    /// Blackhole/fault loss share.
    pub blackhole_s: f64,
    /// Below-fair-share starvation.
    pub starved_s: f64,
}

impl SlotSplit {
    /// Sum of every component.
    pub fn sum_s(&self) -> f64 {
        self.serving_s
            + self.queue_wait_s
            + self.preempted_s
            + self.reconfig_s
            + self.blackhole_s
            + self.starved_s
    }
}

/// Run-level bucket totals for one transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Buckets {
    /// Unimpaired service time.
    pub serving_s: f64,
    /// Queue wait before first service.
    pub queue_wait_s: f64,
    /// Attack-induced preemption.
    pub preempted_s: f64,
    /// Reconfiguration downtime.
    pub reconfig_s: f64,
    /// Blackhole/fault loss.
    pub blackhole_s: f64,
    /// Rate starvation vs fair share.
    pub starved_s: f64,
    /// In-system time outside any observed sample.
    pub stalled_s: f64,
}

impl Buckets {
    /// Sum of every bucket — equals the transfer's in-system wall time.
    pub fn sum_s(&self) -> f64 {
        self.serving_s
            + self.queue_wait_s
            + self.preempted_s
            + self.reconfig_s
            + self.blackhole_s
            + self.starved_s
            + self.stalled_s
    }

    fn add(&mut self, split: &SlotSplit) {
        self.serving_s += split.serving_s;
        self.queue_wait_s += split.queue_wait_s;
        self.preempted_s += split.preempted_s;
        self.reconfig_s += split.reconfig_s;
        self.blackhole_s += split.blackhole_s;
        self.starved_s += split.starved_s;
    }

    /// `(name, seconds)` pairs in report order.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("serving", self.serving_s),
            ("queue_wait", self.queue_wait_s),
            ("preempted", self.preempted_s),
            ("reconfig", self.reconfig_s),
            ("blackhole", self.blackhole_s),
            ("starved", self.starved_s),
            ("stalled", self.stalled_s),
        ]
    }
}

/// One per-slot row of an attribution (kept for the `explain` table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotBucketRow {
    /// Slot index.
    pub slot: usize,
    /// Slot start, absolute seconds.
    pub now_s: f64,
    /// The transfer's overlap with the slot, seconds.
    pub overlap_s: f64,
    /// The decomposition of that overlap.
    pub split: SlotSplit,
}

/// The full attribution of one transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferAttribution {
    /// Transfer id.
    pub id: usize,
    /// Arrival, absolute seconds.
    pub arrival_s: f64,
    /// Completion instant, if the transfer finished.
    pub completion_s: Option<f64>,
    /// Deadline, if any.
    pub deadline_s: Option<f64>,
    /// `deadline − (completion or run end)`: negative means late.
    pub slack_s: Option<f64>,
    /// In-system wall time: `(completion or run end) − arrival`.
    pub wall_s: f64,
    /// Gb delivered over the run.
    pub delivered_gbits: f64,
    /// Requested volume, Gb.
    pub volume_gbits: f64,
    /// The partitioning bucket totals.
    pub buckets: Buckets,
    /// Per-slot detail, observed slots only.
    pub rows: Vec<SlotBucketRow>,
}

/// Decomposes `overlap_s` seconds of one transfer's presence in `slot`.
///
/// `served_before` is whether the transfer received any allocation in
/// an earlier slot — it separates attack preemption from plain queue
/// wait. The six components always sum to `overlap_s` (up to FP
/// rounding) and are individually non-negative.
pub fn split_slot(
    overlap_s: f64,
    sample: &TransferRow,
    slot: &SlotRecord,
    served_before: bool,
) -> SlotSplit {
    let mut split = SlotSplit::default();
    if overlap_s <= 0.0 {
        return split;
    }
    let full = sample.rate_gbps;
    if sample.queued() {
        if slot.attack_active && served_before {
            split.preempted_s = overlap_s;
        } else {
            split.queue_wait_s = overlap_s;
        }
        return split;
    }
    let live = sample.live_rate_gbps.clamp(0.0, full);
    let scale = slot.transition_scale.clamp(0.0, 1.0);
    // The slot's wall time splits along what the rate was multiplied
    // by: (1 − scale) was reconfiguration downtime, the surviving part
    // splits by the live/full rate ratio.
    split.reconfig_s = overlap_s * (1.0 - scale);
    split.blackhole_s = overlap_s * scale * ((full - live) / full);
    let rated_s = overlap_s * scale * (live / full);
    // Fair-share reference: the slot's equal split of total allocated
    // throughput across active transfers (a max-min fair share proxy —
    // exact max-min shares depend on per-path bottlenecks the plan no
    // longer exposes, and equal-share is the lower bound max-min
    // guarantees every unbottlenecked transfer).
    let actives = slot.transfers.len();
    let fair = if actives > 0 {
        slot.throughput_gbps / actives as f64
    } else {
        0.0
    };
    if fair > EPS && full + EPS < fair {
        split.starved_s = rated_s * (1.0 - full / fair);
    }
    split.serving_s = rated_s - split.starved_s;
    split
}

/// Runs the attribution engine over every transfer.
///
/// `run_end_s` caps the in-system window of unfinished transfers. The
/// returned vector is ordered by transfer id and covers every request,
/// including ones that never became active (pure `stalled`).
pub fn attribute(
    transfers: &[TransferInfo],
    slots: &[SlotRecord],
    run_end_s: f64,
) -> Vec<TransferAttribution> {
    transfers
        .iter()
        .map(|t| attribute_one(t, slots, run_end_s))
        .collect()
}

fn attribute_one(info: &TransferInfo, slots: &[SlotRecord], run_end_s: f64) -> TransferAttribution {
    // Completion instant: the first sample that carries one.
    let completion_s = slots.iter().find_map(|slot| {
        slot.transfers
            .iter()
            .find(|s| s.id == info.id)
            .and_then(|s| s.completion_s)
    });
    let end_s = completion_s.unwrap_or(run_end_s).max(info.arrival_s);
    let wall_s = end_s - info.arrival_s;
    let mut buckets = Buckets::default();
    let mut rows = Vec::new();
    let mut delivered_gbits = 0.0;
    let mut observed_s = 0.0;
    let mut served_before = false;
    for slot in slots {
        let slot_end = slot.now_s + slot.slot_len_s;
        let overlap_s = (slot_end.min(end_s) - slot.now_s.max(info.arrival_s)).max(0.0);
        let Some(sample) = slot.transfers.iter().find(|s| s.id == info.id) else {
            continue; // in-system but unobserved: lands in `stalled`
        };
        delivered_gbits += sample.delivered_gbits;
        if overlap_s > 0.0 {
            let split = split_slot(overlap_s, sample, slot, served_before);
            buckets.add(&split);
            observed_s += overlap_s;
            rows.push(SlotBucketRow {
                slot: slot.slot,
                now_s: slot.now_s,
                overlap_s,
                split,
            });
        }
        if !sample.queued() {
            served_before = true;
        }
    }
    buckets.stalled_s = (wall_s - observed_s).max(0.0);
    TransferAttribution {
        id: info.id,
        arrival_s: info.arrival_s,
        completion_s,
        deadline_s: info.deadline_s,
        slack_s: info.deadline_s.map(|d| d - end_s),
        wall_s,
        delivered_gbits,
        volume_gbits: info.volume_gbits,
        buckets,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(
        idx: usize,
        len: f64,
        scale: f64,
        attack: bool,
        transfers: Vec<TransferRow>,
    ) -> SlotRecord {
        let throughput = transfers.iter().map(|s| s.rate_gbps).sum();
        SlotRecord {
            slot: idx,
            now_s: idx as f64 * len,
            slot_len_s: len,
            plan_ns: 100,
            transition_scale: scale,
            throughput_gbps: throughput,
            attack_active: attack,
            transfers,
            ..SlotRecord::default()
        }
    }

    fn sample(id: usize, full: f64, live: f64) -> TransferRow {
        TransferRow {
            id,
            rate_gbps: full,
            live_rate_gbps: live,
            delivered_gbits: live * 300.0,
            remaining_gbits: 1.0,
            completion_s: None,
            active: true,
        }
    }

    #[test]
    fn fault_free_full_rate_is_pure_serving() {
        let slots = vec![slot(0, 300.0, 1.0, false, vec![sample(0, 2.0, 2.0)])];
        let info = TransferInfo {
            id: 0,
            volume_gbits: 600.0,
            arrival_s: 0.0,
            deadline_s: None,
        };
        let attr = attribute(&[info], &slots, 300.0);
        let b = &attr[0].buckets;
        assert!((b.serving_s - 300.0).abs() < 1e-9, "{b:?}");
        assert!(b.queue_wait_s == 0.0 && b.blackhole_s == 0.0 && b.stalled_s == 0.0);
    }

    #[test]
    fn reconfig_and_blackhole_split_by_scale_and_live_ratio() {
        // scale 0.8 → 20% reconfig; live/full = 0.5 → half the rest lost.
        let slots = vec![slot(0, 100.0, 0.8, false, vec![sample(0, 2.0, 1.0)])];
        let info = TransferInfo {
            id: 0,
            volume_gbits: 1000.0,
            arrival_s: 0.0,
            deadline_s: None,
        };
        let attr = attribute(&[info], &slots, 100.0);
        let b = &attr[0].buckets;
        assert!((b.reconfig_s - 20.0).abs() < 1e-9);
        assert!((b.blackhole_s - 40.0).abs() < 1e-9);
        assert!((b.serving_s - 40.0).abs() < 1e-9);
    }

    #[test]
    fn queued_during_attack_after_service_is_preemption() {
        let slots = vec![
            slot(0, 100.0, 1.0, false, vec![sample(7, 1.0, 1.0)]),
            slot(1, 100.0, 1.0, true, vec![sample(7, 0.0, 0.0)]),
        ];
        let info = TransferInfo {
            id: 7,
            volume_gbits: 500.0,
            arrival_s: 0.0,
            deadline_s: None,
        };
        let attr = attribute(&[info], &slots, 200.0);
        let b = &attr[0].buckets;
        assert!((b.preempted_s - 100.0).abs() < 1e-9, "{b:?}");
        assert_eq!(b.queue_wait_s, 0.0);
    }

    #[test]
    fn queued_before_first_service_is_queue_wait_even_under_attack() {
        let slots = vec![slot(0, 100.0, 1.0, true, vec![sample(3, 0.0, 0.0)])];
        let info = TransferInfo {
            id: 3,
            volume_gbits: 500.0,
            arrival_s: 0.0,
            deadline_s: None,
        };
        let attr = attribute(&[info], &slots, 100.0);
        assert!((attr[0].buckets.queue_wait_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn starvation_measures_shortfall_vs_equal_share() {
        // Two actives, throughput 4 → fair share 2. Transfer 0 gets 1.
        let slots = vec![slot(
            0,
            100.0,
            1.0,
            false,
            vec![sample(0, 1.0, 1.0), sample(1, 3.0, 3.0)],
        )];
        let infos = [
            TransferInfo {
                id: 0,
                volume_gbits: 500.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferInfo {
                id: 1,
                volume_gbits: 500.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
        ];
        let attr = attribute(&infos, &slots, 100.0);
        let b0 = &attr[0].buckets;
        // 1 − full/fair = 1 − 1/2 = 0.5 of its 100 s.
        assert!((b0.starved_s - 50.0).abs() < 1e-9, "{b0:?}");
        assert!((b0.serving_s - 50.0).abs() < 1e-9);
        // The over-share transfer is never starved.
        assert_eq!(attr[1].buckets.starved_s, 0.0);
    }

    #[test]
    fn unobserved_in_system_time_is_stalled() {
        // Arrives at 0 but only sampled in slot 1 of [100, 200).
        let slots = vec![
            slot(0, 100.0, 1.0, false, Vec::new()),
            slot(1, 100.0, 1.0, false, vec![sample(0, 1.0, 1.0)]),
        ];
        let info = TransferInfo {
            id: 0,
            volume_gbits: 500.0,
            arrival_s: 0.0,
            deadline_s: Some(150.0),
        };
        let attr = attribute(&[info], &slots, 200.0);
        let a = &attr[0];
        assert!((a.buckets.stalled_s - 100.0).abs() < 1e-9);
        assert!((a.wall_s - 200.0).abs() < 1e-9);
        assert!((a.slack_s.unwrap() + 50.0).abs() < 1e-9);
    }

    #[test]
    fn completion_truncates_the_window() {
        let mut s0 = sample(0, 2.0, 2.0);
        s0.completion_s = Some(150.0);
        s0.remaining_gbits = 0.0;
        let slots = vec![
            slot(0, 300.0, 1.0, false, vec![s0]),
            slot(1, 300.0, 1.0, false, Vec::new()),
        ];
        let info = TransferInfo {
            id: 0,
            volume_gbits: 300.0,
            arrival_s: 0.0,
            deadline_s: Some(200.0),
        };
        let attr = attribute(&[info], &slots, 600.0);
        let a = &attr[0];
        assert_eq!(a.completion_s, Some(150.0));
        assert!((a.wall_s - 150.0).abs() < 1e-9);
        assert!((a.buckets.sum_s() - 150.0).abs() < 1e-9);
        assert!((a.slack_s.unwrap() - 50.0).abs() < 1e-9);
    }

    mod partition {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        struct GenSample {
            id: usize,
            full: f64,
            live_frac: f64,
            queued: bool,
            completes: bool,
        }

        fn gen_sample(ids: usize) -> impl Strategy<Value = GenSample> {
            (
                0..ids,
                0.0f64..5.0,
                0.0f64..1.2, // deliberately exceeds 1 to exercise the clamp
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(id, full, live_frac, queued, completes)| GenSample {
                    id,
                    full,
                    live_frac,
                    queued,
                    completes,
                })
        }

        #[derive(Debug, Clone)]
        struct GenSlot {
            scale: f64,
            attack: bool,
            samples: Vec<GenSample>,
        }

        fn gen_slot(ids: usize) -> impl Strategy<Value = GenSlot> {
            (
                0.0f64..1.0,
                any::<bool>(),
                proptest::collection::vec(gen_sample(ids), 0..5),
            )
                .prop_map(|(scale, attack, samples)| GenSlot {
                    scale,
                    attack,
                    samples,
                })
        }

        fn build(
            slots_in: &[GenSlot],
            ids: usize,
            slot_len: f64,
        ) -> (Vec<TransferInfo>, Vec<SlotRecord>, f64) {
            let slots: Vec<SlotRecord> = slots_in
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    // One sample per id at most, allocation order by first occurrence.
                    let mut seen = std::collections::BTreeSet::new();
                    // A queued transfer is one the plan allocated no rate.
                    let rows: Vec<TransferRow> = g
                        .samples
                        .iter()
                        .filter(|s| seen.insert(s.id))
                        .map(|s| {
                            let full = if s.queued { 0.0 } else { s.full };
                            TransferRow {
                                id: s.id,
                                rate_gbps: full,
                                live_rate_gbps: full * s.live_frac,
                                delivered_gbits: full * s.live_frac * slot_len,
                                remaining_gbits: if s.completes { 0.0 } else { 1.0 },
                                completion_s: s.completes.then_some((i as f64 + 0.5) * slot_len),
                                active: true,
                            }
                        })
                        .collect();
                    let throughput = rows.iter().map(|s| s.rate_gbps).sum();
                    SlotRecord {
                        slot: i,
                        now_s: i as f64 * slot_len,
                        slot_len_s: slot_len,
                        plan_ns: 42,
                        transition_scale: g.scale,
                        throughput_gbps: throughput,
                        attack_active: g.attack,
                        transfers: rows,
                        ..SlotRecord::default()
                    }
                })
                .collect();
            let run_end = slots_in.len() as f64 * slot_len;
            let infos = (0..ids)
                .map(|id| TransferInfo {
                    id,
                    volume_gbits: 100.0,
                    arrival_s: (id as f64 * 37.0) % run_end.max(1.0),
                    deadline_s: (id % 2 == 0).then_some(run_end * 0.7),
                })
                .collect();
            (infos, slots, run_end)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every per-slot split partitions the overlap exactly, and
            /// the run-level buckets partition in-system wall time.
            #[test]
            fn buckets_partition_wall_time(
                gen_slots in proptest::collection::vec(gen_slot(4), 1..10),
            ) {
                let (infos, slots, run_end) = build(&gen_slots, 4, 120.0);
                // A transfer that completed keeps its truncated window
                // only if the completion sample is the first one seen;
                // later samples for the same id are fine — attribution
                // takes the first completion.
                for attr in attribute(&infos, &slots, run_end) {
                    for row in &attr.rows {
                        let sum = row.split.sum_s();
                        prop_assert!(
                            (sum - row.overlap_s).abs() <= 1e-9 * row.overlap_s.max(1.0),
                            "slot split {sum} != overlap {} for {row:?}",
                            row.overlap_s
                        );
                        for (name, v) in [
                            ("serving", row.split.serving_s),
                            ("queue_wait", row.split.queue_wait_s),
                            ("preempted", row.split.preempted_s),
                            ("reconfig", row.split.reconfig_s),
                            ("blackhole", row.split.blackhole_s),
                            ("starved", row.split.starved_s),
                        ] {
                            prop_assert!(v >= 0.0, "negative {name}: {v}");
                        }
                    }
                    let total = attr.buckets.sum_s();
                    prop_assert!(attr.buckets.stalled_s >= 0.0);
                    prop_assert!(
                        (total - attr.wall_s).abs() <= 1e-6 * attr.wall_s.max(1.0),
                        "buckets {total} != wall {} for transfer {}",
                        attr.wall_s,
                        attr.id
                    );
                }
            }
        }
    }
}
