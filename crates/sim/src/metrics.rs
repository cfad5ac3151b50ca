//! Evaluation metrics (§5.1 "Performance metrics").
//!
//! Deadline-unconstrained traffic: transfer completion time (average, 95th
//! percentile, CDF, per-size bins) and makespan. Deadline-constrained:
//! percentage of transfers meeting deadlines and percentage of bytes
//! finishing before deadlines. *Factor of improvement* = the alternative's
//! metric divided by Owan's.

use crate::ledger::CompletionRecord;
use crate::sim::SimResult;

/// Size bins used by Figures 7(b)/(e)/(h) and 9(c)/(f)/(i): the smallest
/// third of transfers, the middle third, and the largest third.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeBin {
    /// Smallest third by volume.
    Small,
    /// Middle third.
    Middle,
    /// Largest third.
    Large,
    /// Every transfer.
    All,
}

impl SizeBin {
    /// The bins in display order.
    pub const BINS: [SizeBin; 4] = [
        SizeBin::Small,
        SizeBin::Middle,
        SizeBin::Large,
        SizeBin::All,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SizeBin::Small => "Small",
            SizeBin::Middle => "Middle",
            SizeBin::Large => "Large",
            SizeBin::All => "All",
        }
    }
}

/// Splits completion records into size bins. Returns, for each record
/// index, which bin it belongs to (All is implicit).
pub fn size_bins(records: &[CompletionRecord]) -> Vec<SizeBin> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by(|&a, &b| {
        records[a]
            .volume_gbits
            .total_cmp(&records[b].volume_gbits)
            .then(a.cmp(&b))
    });
    let n = records.len();
    let mut bins = vec![SizeBin::All; n];
    for (rank, &idx) in order.iter().enumerate() {
        bins[idx] = if rank * 3 < n {
            SizeBin::Small
        } else if rank * 3 < 2 * n {
            SizeBin::Middle
        } else {
            SizeBin::Large
        };
    }
    bins
}

/// Completion times (seconds, relative to arrival) of the records in `bin`.
/// Unfinished transfers are excluded (they have no completion time).
pub fn completion_times(result: &SimResult, bin: SizeBin) -> Vec<f64> {
    let bins = size_bins(&result.completions);
    result
        .completions
        .iter()
        .enumerate()
        .filter(|&(i, _)| bin == SizeBin::All || bins[i] == bin)
        .filter_map(|(_, c)| c.completion_time_s())
        .collect()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`-th percentile (0–100) by nearest-rank; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Empirical CDF of `xs` as `(value, fraction <= value)` points.
pub fn cdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Factor of improvement of `ours` over `theirs` on a lower-is-better
/// metric: `theirs / ours` (> 1 means we win). Returns infinity when ours
/// is zero and theirs is not.
pub fn improvement_factor(ours: f64, theirs: f64) -> f64 {
    if ours <= 0.0 {
        if theirs <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        theirs / ours
    }
}

/// Percentage (0–100) of transfers that met their deadline, among those
/// that have one.
pub fn pct_deadlines_met(result: &SimResult, bin: SizeBin) -> f64 {
    let bins = size_bins(&result.completions);
    let eligible: Vec<&CompletionRecord> = result
        .completions
        .iter()
        .enumerate()
        .filter(|&(i, c)| c.deadline_s.is_some() && (bin == SizeBin::All || bins[i] == bin))
        .map(|(_, c)| c)
        .collect();
    if eligible.is_empty() {
        return 100.0;
    }
    let met = eligible.iter().filter(|c| c.met_deadline()).count();
    100.0 * met as f64 / eligible.len() as f64
}

/// Percentage (0–100) of bytes delivered before their transfer's deadline,
/// among deadline-carrying transfers.
pub fn pct_bytes_by_deadline(result: &SimResult) -> f64 {
    let mut total = 0.0;
    let mut on_time = 0.0;
    for c in &result.completions {
        if c.deadline_s.is_some() {
            total += c.volume_gbits;
            on_time += c.gbits_by_deadline;
        }
    }
    if total <= 0.0 {
        100.0
    } else {
        100.0 * on_time / total
    }
}

/// Mean and p95 of completion time for one result and bin — the pair every
/// Figure 7 panel reports.
pub fn summary(result: &SimResult, bin: SizeBin) -> (f64, f64) {
    let xs = completion_times(result, bin);
    (mean(&xs), percentile(&xs, 95.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, volume: f64, ct: Option<f64>, deadline: Option<f64>) -> CompletionRecord {
        CompletionRecord {
            id,
            volume_gbits: volume,
            arrival_s: 0.0,
            deadline_s: deadline,
            completion_s: ct,
            gbits_by_deadline: match (ct, deadline) {
                (Some(c), Some(d)) if c <= d => volume,
                (_, Some(_)) => volume / 2.0,
                _ => 0.0,
            },
        }
    }

    fn result(completions: Vec<CompletionRecord>) -> SimResult {
        SimResult {
            engine: "test".into(),
            completions,
            makespan_s: 0.0,
            throughput_series: Vec::new(),
            slots: 0,
            telemetry: None,
            plan_error: None,
        }
    }

    #[test]
    fn mean_and_percentile() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(mean(&xs), 22.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 95.0), 100.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn cdf_monotone_ending_at_one() {
        let c = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], (1.0, 1.0 / 3.0));
        assert_eq!(c.last().unwrap().1, 1.0);
    }

    #[test]
    fn bins_split_in_thirds() {
        let recs: Vec<CompletionRecord> = (0..9)
            .map(|i| record(i, (i + 1) as f64, Some(1.0), None))
            .collect();
        let bins = size_bins(&recs);
        assert_eq!(bins.iter().filter(|&&b| b == SizeBin::Small).count(), 3);
        assert_eq!(bins.iter().filter(|&&b| b == SizeBin::Middle).count(), 3);
        assert_eq!(bins.iter().filter(|&&b| b == SizeBin::Large).count(), 3);
        assert_eq!(bins[0], SizeBin::Small);
        assert_eq!(bins[8], SizeBin::Large);
    }

    #[test]
    fn improvement_factors() {
        assert_eq!(improvement_factor(1.0, 4.45), 4.45);
        assert_eq!(improvement_factor(0.0, 0.0), 1.0);
        assert!(improvement_factor(0.0, 5.0).is_infinite());
    }

    #[test]
    fn deadline_percentages() {
        let r = result(vec![
            record(0, 10.0, Some(5.0), Some(10.0)),  // met
            record(1, 10.0, Some(20.0), Some(10.0)), // missed
            record(2, 10.0, None, Some(10.0)),       // never finished
            record(3, 10.0, Some(5.0), None),        // no deadline: excluded
        ]);
        assert!((pct_deadlines_met(&r, SizeBin::All) - 100.0 / 3.0).abs() < 1e-9);
        // Bytes: 10 + 5 + 5 of 30.
        assert!((pct_bytes_by_deadline(&r) - 100.0 * 20.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn all_deadlines_met_when_none_exist() {
        let r = result(vec![record(0, 10.0, Some(5.0), None)]);
        assert_eq!(pct_deadlines_met(&r, SizeBin::All), 100.0);
        assert_eq!(pct_bytes_by_deadline(&r), 100.0);
    }

    #[test]
    fn unfinished_excluded_from_completion_times() {
        let r = result(vec![
            record(0, 10.0, Some(5.0), None),
            record(1, 10.0, None, None),
        ]);
        assert_eq!(completion_times(&r, SizeBin::All).len(), 1);
    }
}
