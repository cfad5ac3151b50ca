//! Text rendering for `owan-cli explain` and `owan-cli slo`.
//!
//! Both renderers follow the CLI's `key,value` line convention so CI
//! jobs can grep them. `render_explain` ends with a machine-checkable
//! `partition,ok` (or `partition,BROKEN`) footer asserting that the
//! bucket table sums to the transfer's in-system wall time.

use crate::{TransferAttribution, WhyReport};
use owan_prof::ProfSnapshot;

/// How many prof regions a report keeps, hottest self time first.
const PROF_REGIONS_KEPT: usize = 12;

/// A prof region's share of run wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfRegionShare {
    /// `a;b;c` region path, root first.
    pub path: String,
    /// Completed entries.
    pub calls: u64,
    /// Wall time, children included, ns.
    pub total_ns: u64,
    /// Wall time, children excluded, ns.
    pub self_ns: u64,
    /// `self_ns` as a fraction of the root total (0 when no roots).
    pub share: f64,
}

/// The hottest regions of a profiler snapshot by self time (at most
/// [`PROF_REGIONS_KEPT`], none with zero self time). Regions are
/// run-scoped: per-slot prof spans stay in the Chrome trace.
pub(crate) fn prof_regions(snapshot: &ProfSnapshot) -> Vec<ProfRegionShare> {
    let root_total = snapshot.root_total_ns();
    let mut by_self: Vec<usize> = (0..snapshot.nodes.len()).collect();
    by_self.sort_by(|&a, &b| {
        snapshot.nodes[b]
            .self_ns
            .cmp(&snapshot.nodes[a].self_ns)
            .then(a.cmp(&b))
    });
    by_self
        .into_iter()
        .take(PROF_REGIONS_KEPT)
        .map(|i| (i, &snapshot.nodes[i]))
        .take_while(|(_, node)| node.self_ns > 0)
        .map(|(i, node)| ProfRegionShare {
            path: snapshot.path(i).join(";"),
            calls: node.calls,
            total_ns: node.total_ns,
            self_ns: node.self_ns,
            share: if root_total > 0 {
                node.self_ns as f64 / root_total as f64
            } else {
                0.0
            },
        })
        .collect()
}

/// Relative tolerance for the partition footer.
const PARTITION_TOL: f64 = 1e-6;

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| format!("{x:.3}"))
}

/// Renders the attribution table for one transfer, with the fault
/// instants and hottest prof regions that overlap its lifetime.
/// Returns `None` when the report has no such transfer id.
pub fn render_explain(report: &WhyReport, id: usize) -> Option<String> {
    let attr = report.transfer(id)?;
    let mut out = String::new();
    render_attribution(&mut out, attr);

    // Fault labels of the slots inside the transfer's in-system window.
    let end_s = attr.completion_s.unwrap_or(report.run_end_s);
    let mut fault_lines = 0;
    for rec in &report.records {
        let slot_end = rec.now_s + rec.slot_len_s;
        if slot_end <= attr.arrival_s || rec.now_s >= end_s {
            continue;
        }
        for label in &rec.events {
            out.push_str(&format!("fault,{},{label}\n", rec.slot));
            fault_lines += 1;
        }
    }
    if fault_lines == 0 {
        out.push_str("fault,none\n");
    }
    for region in &report.prof_regions {
        out.push_str(&format!(
            "prof_region,{},{:.1},{:.4}\n",
            region.path,
            region.self_ns as f64 / 1e6,
            region.share
        ));
    }

    let sum = attr.buckets.sum_s();
    let ok = (sum - attr.wall_s).abs() <= PARTITION_TOL * attr.wall_s.max(1.0);
    out.push_str(&format!("partition,{}\n", if ok { "ok" } else { "BROKEN" }));
    Some(out)
}

fn render_attribution(out: &mut String, attr: &TransferAttribution) {
    out.push_str(&format!("transfer,{}\n", attr.id));
    out.push_str(&format!("arrival_s,{:.3}\n", attr.arrival_s));
    out.push_str(&format!("completion_s,{}\n", fmt_opt(attr.completion_s)));
    out.push_str(&format!("deadline_s,{}\n", fmt_opt(attr.deadline_s)));
    out.push_str(&format!("slack_s,{}\n", fmt_opt(attr.slack_s)));
    out.push_str(&format!("wall_s,{:.3}\n", attr.wall_s));
    out.push_str(&format!("volume_gbits,{:.3}\n", attr.volume_gbits));
    out.push_str(&format!("delivered_gbits,{:.3}\n", attr.delivered_gbits));
    let wall = attr.wall_s.max(f64::MIN_POSITIVE);
    for (name, seconds) in attr.buckets.named() {
        out.push_str(&format!(
            "bucket,{name},{seconds:.3},{:.4}\n",
            seconds / wall
        ));
    }
}

/// Renders the SLO monitor state as `key,value` lines.
pub fn render_slo(report: &WhyReport) -> String {
    let slo = &report.slo;
    let mut out = String::new();
    out.push_str(&format!("slots,{}\n", report.records.len()));
    out.push_str(&format!("deadline_met,{}\n", slo.deadline_met));
    out.push_str(&format!("deadline_missed,{}\n", slo.deadline_missed));
    out.push_str(&format!("burn_rate,{:.4}\n", slo.burn_rate));
    out.push_str(&format!("burn_window_slots,{}\n", slo.burn_window_slots));
    out.push_str(&format!("burn_threshold,{}\n", fmt_opt(slo.burn_threshold)));
    out.push_str(&format!("plan_p99_ms,{:.4}\n", slo.plan_p99_ms));
    out.push_str(&format!(
        "plan_p99_threshold_ms,{}\n",
        fmt_opt(slo.plan_p99_threshold_ms)
    ));
    out.push_str(&format!("deficit_gbits,{:.3}\n", slo.deficit_gbits));
    out.push_str(&format!(
        "deficit_threshold_gbits,{}\n",
        fmt_opt(slo.deficit_threshold_gbits)
    ));
    out.push_str(&format!(
        "blackhole_gbits,{:.3}\n",
        report.total_blackhole_gbits
    ));
    match &slo.tripped {
        Some((reason, slot)) => out.push_str(&format!("tripped,{reason},{slot}\n")),
        None => out.push_str("tripped,none\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Buckets, SloReport, TransferAttribution, WhyReport};
    use owan_scope::SlotRecord;

    fn report_with(transfers: Vec<TransferAttribution>) -> WhyReport {
        WhyReport {
            transfers,
            total_blackhole_gbits: 0.0,
            run_end_s: 600.0,
            slo: SloReport {
                deadline_met: 1,
                deadline_missed: 0,
                burn_rate: 0.0,
                burn_window_slots: 8,
                burn_threshold: Some(0.5),
                plan_p99_ms: 0.25,
                plan_p99_threshold_ms: None,
                deficit_gbits: 0.0,
                deficit_threshold_gbits: None,
                tripped: None,
            },
            records: vec![SlotRecord::default(); 2],
            prof_regions: Vec::new(),
        }
    }

    fn attr(id: usize, wall: f64, serving: f64) -> TransferAttribution {
        TransferAttribution {
            id,
            arrival_s: 0.0,
            completion_s: Some(wall),
            deadline_s: Some(wall + 10.0),
            slack_s: Some(10.0),
            wall_s: wall,
            delivered_gbits: 100.0,
            volume_gbits: 100.0,
            buckets: Buckets {
                serving_s: serving,
                stalled_s: wall - serving,
                ..Buckets::default()
            },
            rows: Vec::new(),
        }
    }

    #[test]
    fn explain_reports_partition_ok() {
        let report = report_with(vec![attr(3, 500.0, 400.0)]);
        let text = render_explain(&report, 3).unwrap();
        assert!(text.contains("transfer,3\n"), "{text}");
        assert!(text.contains("bucket,serving,400.000,0.8000"), "{text}");
        assert!(text.contains("fault,none\n"));
        assert!(text.ends_with("partition,ok\n"), "{text}");
        assert!(render_explain(&report, 99).is_none());
    }

    #[test]
    fn explain_flags_broken_partition() {
        let mut bad = attr(0, 500.0, 400.0);
        bad.buckets.stalled_s = 0.0; // buckets now sum to 400 ≠ 500
        let report = report_with(vec![bad]);
        let text = render_explain(&report, 0).unwrap();
        assert!(text.ends_with("partition,BROKEN\n"), "{text}");
    }

    #[test]
    fn slo_report_renders_every_monitor() {
        let report = report_with(Vec::new());
        let text = render_slo(&report);
        for key in [
            "slots,2",
            "deadline_met,1",
            "deadline_missed,0",
            "burn_rate,0.0000",
            "burn_threshold,0.500",
            "plan_p99_ms,0.2500",
            "plan_p99_threshold_ms,none",
            "deficit_gbits,0.000",
            "blackhole_gbits,0.000",
            "tripped,none",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn prof_regions_ranked_by_self_time() {
        let clock = std::sync::Arc::new(owan_obs::ManualClock::new());
        let prof = owan_prof::Profiler::with_clock(clock.clone());
        {
            let _outer = prof.region("slot");
            {
                let _inner = prof.region("anneal");
                clock.advance_ns(3_000_000);
            }
            clock.advance_ns(1_000_000);
        }
        let regions = prof_regions(&prof.snapshot());
        assert!(!regions.is_empty());
        assert_eq!(regions[0].path, "slot;anneal");
        assert!(regions[0].share > 0.5);
    }
}
