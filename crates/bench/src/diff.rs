//! Differential perf reports: `owan-cli perf diff A.json B.json`.
//!
//! Compares two `bench_anneal` JSON reports phase by phase, with
//! noise-aware thresholds — short quick-scale walls jitter by tens of
//! percent run to run, so each metric carries both a relative threshold
//! and an absolute noise floor below which differences are ignored.
//! Reports at different scales are refused outright (the workloads are
//! not commensurable); different core counts only warn, but mark the
//! chain-scaling rows untrustworthy.
//!
//! Also home to the append-only history record `bench_anneal --out`
//! drops into `BENCH_history.jsonl`: one line of JSON per benchmark run,
//! stamped with commit/cores/scale so regressions can be bisected
//! across time without re-running old commits.

use crate::perf::{json_number, json_string, AnnealBenchReport};

/// Which direction of change counts as a regression for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Wall times: more seconds in B than A is a regression.
    LowerIsBetter,
    /// Rates: fewer evals/slots per second in B than A is a regression.
    HigherIsBetter,
}

/// One metric's verdict in a differential report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved in the good direction past the threshold.
    Improved,
    /// Moved in the bad direction past the threshold.
    Regressed,
    /// Within the threshold, or below the noise floor.
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unchanged => "~",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct PhaseDelta {
    /// JSON key of the metric.
    pub key: &'static str,
    /// Value in report A (the baseline side).
    pub a: f64,
    /// Value in report B (the candidate side).
    pub b: f64,
    /// `b / a` (1.0 when `a` is zero).
    pub ratio: f64,
    /// Which way is better.
    pub direction: Direction,
    /// The noise-aware verdict.
    pub verdict: Verdict,
}

/// A full differential report between two benchmark JSON files.
#[derive(Debug, Clone)]
pub struct PerfDiff {
    /// Scale label both reports share.
    pub scale: String,
    /// Commits of the two reports (may be "unknown").
    pub commit_a: String,
    /// See `commit_a`.
    pub commit_b: String,
    /// Per-metric verdicts, in the fixed metric order.
    pub rows: Vec<PhaseDelta>,
    /// Non-fatal comparability caveats (core-count mismatch, metrics
    /// missing from an older report, ...).
    pub warnings: Vec<String>,
}

/// `(key, direction, absolute noise floor)` for every compared metric.
/// Walls below their floor in *both* reports are too short to compare —
/// scheduler jitter dominates. Overhead fractions use an absolute floor
/// in fraction points for the same reason.
const METRICS: &[(&str, Direction, f64)] = &[
    ("naive_wall_s", Direction::LowerIsBetter, 0.02),
    ("fast_wall_s", Direction::LowerIsBetter, 0.02),
    ("naive_evals_per_s", Direction::HigherIsBetter, 0.0),
    ("fast_evals_per_s", Direction::HigherIsBetter, 0.0),
    ("pipeline_naive_wall_s", Direction::LowerIsBetter, 0.02),
    ("pipeline_fast_wall_s", Direction::LowerIsBetter, 0.02),
    ("pipeline_obs_wall_s", Direction::LowerIsBetter, 0.02),
    ("pipeline_scope_wall_s", Direction::LowerIsBetter, 0.02),
    ("pipeline_prof_wall_s", Direction::LowerIsBetter, 0.02),
    ("pipeline_slots_per_s", Direction::HigherIsBetter, 0.0),
    ("chains_seq_wall_s", Direction::LowerIsBetter, 0.02),
    ("chains_par_wall_s", Direction::LowerIsBetter, 0.02),
];

/// Overhead fractions compared by absolute delta, not ratio: they sit
/// near zero where ratios explode. `(key, regression floor in points)`,
/// calibrated at [`REFERENCE_THRESHOLD`]: a wider `--threshold` widens
/// these floors proportionally, so a CI job that tolerates 150% wall
/// jitter doesn't gate on ±3-point overhead jitter.
const OVERHEADS: &[(&str, f64)] = &[("scope_overhead", 0.02), ("prof_overhead", 0.02)];

/// The relative threshold the overhead floors are calibrated against.
/// Thresholds below it keep the calibrated floor (never twitchier).
const REFERENCE_THRESHOLD: f64 = 0.15;

/// The chain-scaling keys that stop being comparable across core counts.
const CORE_SENSITIVE: &[&str] = &["chains_seq_wall_s", "chains_par_wall_s"];

/// Compares two benchmark reports. `threshold` is the relative change
/// (fraction, e.g. `0.15`) a metric must move in the bad direction to be
/// called a regression; improvements use the same bar. Returns `Err` when
/// the reports are not comparable at all (different scales, missing
/// scale keys, unparseable files).
pub fn perf_diff(a_json: &str, b_json: &str, threshold: f64) -> Result<PerfDiff, String> {
    let scale_a = json_string(a_json, "scale").ok_or("report A is missing \"scale\"")?;
    let scale_b = json_string(b_json, "scale").ok_or("report B is missing \"scale\"")?;
    if scale_a != scale_b {
        return Err(format!(
            "scale mismatch: A is \"{scale_a}\", B is \"{scale_b}\" — \
             reports at different scales are not comparable"
        ));
    }
    let mut warnings = Vec::new();
    let cores_a = json_number(a_json, "cores");
    let cores_b = json_number(b_json, "cores");
    let cores_differ = match (cores_a, cores_b) {
        (Some(a), Some(b)) if a != b => {
            warnings.push(format!(
                "core-count mismatch: A ran on {} cores, B on {} — \
                 chain-scaling rows marked unchanged",
                a as usize, b as usize
            ));
            true
        }
        _ => false,
    };

    let mut rows = Vec::new();
    for &(key, direction, floor) in METRICS {
        let (Some(a), Some(b)) = (json_number(a_json, key), json_number(b_json, key)) else {
            warnings.push(format!("\"{key}\" missing from one report — skipped"));
            continue;
        };
        let ratio = if a.abs() > f64::EPSILON { b / a } else { 1.0 };
        let below_noise = a < floor && b < floor;
        let incomparable = cores_differ && CORE_SENSITIVE.contains(&key);
        let verdict = if below_noise || incomparable {
            Verdict::Unchanged
        } else {
            let worse = match direction {
                Direction::LowerIsBetter => ratio > 1.0 + threshold,
                Direction::HigherIsBetter => ratio < 1.0 - threshold,
            };
            let better = match direction {
                Direction::LowerIsBetter => ratio < 1.0 - threshold,
                Direction::HigherIsBetter => ratio > 1.0 + threshold,
            };
            if worse {
                Verdict::Regressed
            } else if better {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        };
        rows.push(PhaseDelta {
            key,
            a,
            b,
            ratio,
            direction,
            verdict,
        });
    }
    for &(key, floor) in OVERHEADS {
        let (Some(a), Some(b)) = (json_number(a_json, key), json_number(b_json, key)) else {
            warnings.push(format!("\"{key}\" missing from one report — skipped"));
            continue;
        };
        let floor = floor * (threshold / REFERENCE_THRESHOLD).max(1.0);
        let delta = b - a;
        let verdict = if delta > floor {
            Verdict::Regressed
        } else if delta < -floor {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        rows.push(PhaseDelta {
            key,
            a,
            b,
            ratio: if a.abs() > f64::EPSILON { b / a } else { 1.0 },
            direction: Direction::LowerIsBetter,
            verdict,
        });
    }

    let unknown = || "unknown".to_string();
    Ok(PerfDiff {
        scale: scale_a,
        commit_a: json_string(a_json, "commit").unwrap_or_else(unknown),
        commit_b: json_string(b_json, "commit").unwrap_or_else(unknown),
        rows,
        warnings,
    })
}

impl PerfDiff {
    /// True when any metric regressed past its threshold — the `--gate`
    /// exit condition.
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// Renders the human-readable diff table.
    pub fn format_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf diff ({}): A={} B={}",
            self.scale, self.commit_a, self.commit_b
        );
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>8}  verdict",
            "metric", "A", "B", "B/A"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:>12.4} {:>12.4} {:>7.2}x  {}",
                r.key,
                r.a,
                r.b,
                r.ratio,
                r.verdict.label()
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        out
    }
}

/// One line of `BENCH_history.jsonl`: the durable subset of a benchmark
/// report, stamped for later bisection. Single-line JSON, newline
/// included, so the file stays `jsonl` under blind appends.
pub fn history_record(report: &AnnealBenchReport, unix_ts: u64) -> String {
    format!(
        concat!(
            "{{\"ts\": {}, \"commit\": \"{}\", \"scale\": \"{}\", ",
            "\"cores\": {}, \"chains\": {}, \"iterations\": {}, ",
            "\"fast_evals_per_s\": {:.2}, \"eval_speedup\": {:.2}, ",
            "\"pipeline_fast_wall_s\": {:.6}, \"pipeline_speedup\": {:.2}, ",
            "\"scope_overhead\": {:.4}, \"prof_overhead\": {:.4}, ",
            "\"chains_speedup\": {:.2}, \"chains_utilization\": {:.2}, ",
            "\"evals\": {}}}\n"
        ),
        unix_ts,
        report.commit,
        report.scale,
        report.cores,
        report.chains,
        report.iterations,
        report.fast_evals_per_s,
        report.eval_speedup,
        report.pipeline_fast_wall_s,
        report.pipeline_speedup,
        report.scope_overhead,
        report.prof_overhead,
        report.chains_speedup,
        report.chains_utilization,
        report.evals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scale: &str, fast_wall: f64, cores: usize) -> String {
        format!(
            concat!(
                "{{\n\"scale\": \"{scale}\",\n\"commit\": \"aaa\",\n",
                "\"cores\": {cores},\n",
                "\"naive_wall_s\": 1.0,\n\"fast_wall_s\": {fw:.6},\n",
                "\"naive_evals_per_s\": 100.0,\n\"fast_evals_per_s\": {rate:.2},\n",
                "\"pipeline_naive_wall_s\": 2.0,\n\"pipeline_fast_wall_s\": 1.0,\n",
                "\"pipeline_obs_wall_s\": 1.0,\n\"pipeline_scope_wall_s\": 1.02,\n",
                "\"pipeline_prof_wall_s\": 1.01,\n\"pipeline_slots_per_s\": 6.0,\n",
                "\"chains_seq_wall_s\": 1.0,\n\"chains_par_wall_s\": 0.5,\n",
                "\"scope_overhead\": 0.02,\n\"prof_overhead\": 0.01\n}}\n"
            ),
            scale = scale,
            cores = cores,
            fw = fast_wall,
            rate = 100.0 / fast_wall,
        )
    }

    #[test]
    fn identical_reports_are_unchanged() {
        let a = sample("quick", 0.25, 4);
        let diff = perf_diff(&a, &a, 0.15).unwrap();
        assert!(!diff.has_regressions());
        assert!(diff.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(diff.warnings.is_empty());
    }

    #[test]
    fn slowdown_past_threshold_regresses_and_gates() {
        let a = sample("quick", 0.25, 4);
        let b = sample("quick", 0.50, 4); // 2x slower fast path
        let diff = perf_diff(&a, &b, 0.15).unwrap();
        assert!(diff.has_regressions());
        let row = diff.rows.iter().find(|r| r.key == "fast_wall_s").unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        // The derived rate regressed too (HigherIsBetter direction).
        let rate = diff
            .rows
            .iter()
            .find(|r| r.key == "fast_evals_per_s")
            .unwrap();
        assert_eq!(rate.verdict, Verdict::Regressed);
        // And the reverse diff reads as an improvement, not a regression.
        let rev = perf_diff(&b, &a, 0.15).unwrap();
        assert!(!rev.has_regressions());
        assert!(rev.rows.iter().any(|r| r.verdict == Verdict::Improved));
    }

    #[test]
    fn wide_threshold_widens_the_overhead_floor_proportionally() {
        let a = sample("quick", 0.25, 4);
        // prof_overhead 0.01 → 0.06: past the calibrated 0.02 floor, but
        // inside the 0.2-point floor a 1.5 threshold buys.
        let b =
            sample("quick", 0.25, 4).replace("\"prof_overhead\": 0.01", "\"prof_overhead\": 0.06");
        let tight = perf_diff(&a, &b, 0.15).unwrap();
        let row = |d: &PerfDiff| {
            d.rows
                .iter()
                .find(|r| r.key == "prof_overhead")
                .unwrap()
                .verdict
        };
        assert_eq!(row(&tight), Verdict::Regressed);
        let wide = perf_diff(&a, &b, 1.5).unwrap();
        assert_eq!(row(&wide), Verdict::Unchanged);
        // Sub-reference thresholds keep the calibrated floor instead of
        // shrinking it into the noise.
        let c =
            sample("quick", 0.25, 4).replace("\"prof_overhead\": 0.01", "\"prof_overhead\": 0.025");
        let twitchy = perf_diff(&a, &c, 0.01).unwrap();
        assert_eq!(row(&twitchy), Verdict::Unchanged);
    }

    #[test]
    fn scale_mismatch_is_refused() {
        let a = sample("quick", 0.25, 4);
        let b = sample("full", 0.25, 4);
        let err = perf_diff(&a, &b, 0.15).unwrap_err();
        assert!(err.contains("scale mismatch"), "{err}");
    }

    #[test]
    fn core_mismatch_warns_and_neutralizes_chain_rows() {
        let a = sample("quick", 0.25, 1);
        // Make the chain rows differ wildly; the core mismatch must mask them.
        let b = sample("quick", 0.25, 8)
            .replace("\"chains_par_wall_s\": 0.5", "\"chains_par_wall_s\": 5.0");
        let diff = perf_diff(&a, &b, 0.15).unwrap();
        assert!(!diff.has_regressions());
        assert!(diff.warnings.iter().any(|w| w.contains("core-count")));
        let row = diff
            .rows
            .iter()
            .find(|r| r.key == "chains_par_wall_s")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Unchanged);
    }

    #[test]
    fn missing_keys_skip_with_warning() {
        let a = sample("quick", 0.25, 4);
        let b = a.replace(
            "\"prof_overhead\": 0.01\n",
            "\"prof_overhead_renamed\": 0.01\n",
        );
        let diff = perf_diff(&a, &b, 0.15).unwrap();
        assert!(diff
            .warnings
            .iter()
            .any(|w| w.contains("prof_overhead") && w.contains("skipped")));
        assert!(!diff.rows.iter().any(|r| r.key == "prof_overhead"));
    }

    #[test]
    fn overhead_regression_uses_absolute_points() {
        let a = sample("quick", 0.25, 4);
        let b = a.replace("\"prof_overhead\": 0.01", "\"prof_overhead\": 0.06");
        let diff = perf_diff(&a, &b, 0.15).unwrap();
        let row = diff.rows.iter().find(|r| r.key == "prof_overhead").unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        // 0.01 -> 0.025 is a 2.5x ratio but only 1.5 points: noise.
        let c = a.replace("\"prof_overhead\": 0.01", "\"prof_overhead\": 0.025");
        let diff = perf_diff(&a, &c, 0.15).unwrap();
        let row = diff.rows.iter().find(|r| r.key == "prof_overhead").unwrap();
        assert_eq!(row.verdict, Verdict::Unchanged);
    }

    #[test]
    fn history_record_is_single_line_jsonl() {
        let report = AnnealBenchReport {
            scale: "quick".into(),
            commit: "abc1234".into(),
            iterations: 10,
            chains: 2,
            cores: 4,
            naive_wall_s: 1.0,
            naive_evals_per_s: 100.0,
            naive_shortest_path_calls: 1_000,
            fast_wall_s: 0.25,
            fast_evals_per_s: 400.0,
            fast_shortest_path_calls: 100,
            shortest_path_reduction: 10.0,
            eval_speedup: 4.0,
            evals: 43,
            pipeline_naive_wall_s: 2.0,
            pipeline_fast_wall_s: 1.0,
            pipeline_speedup: 2.0,
            pipeline_obs_wall_s: 1.01,
            pipeline_scope_wall_s: 1.02,
            scope_overhead: 0.02,
            pipeline_prof_wall_s: 1.03,
            prof_overhead: 0.02,
            pipeline_slots: 6,
            pipeline_slots_per_s: 6.0,
            chains_seq_wall_s: 1.0,
            chains_par_wall_s: 0.5,
            chains_speedup: 2.0,
            chains_busy_s: 0.9,
            chains_concurrency: 1.8,
            chains_utilization: 2.0,
            warnings: Vec::new(),
        };
        let line = history_record(&report, 1_700_000_000);
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1, "must be one line");
        assert_eq!(json_number(&line, "ts"), Some(1_700_000_000.0));
        assert_eq!(json_string(&line, "commit").as_deref(), Some("abc1234"));
        assert_eq!(json_number(&line, "fast_evals_per_s"), Some(400.0));
        assert_eq!(json_number(&line, "evals"), Some(43.0));
    }
}
