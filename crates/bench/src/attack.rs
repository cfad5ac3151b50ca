//! The adversarial-traffic recovery benchmark behind `BENCH_attack.json`.
//!
//! Two attack scenarios on the 40-site ISP backbone — a short-path
//! **coremelt** against the two max-betweenness fibers and a sustained
//! **flash crowd** into the best-connected site — each driven through the
//! hardened chaos runner under three engines: the annealed Owan
//! controller and the fixed-topology MaxFlow and SWAN baselines. Every
//! attacked slot is audited with both oracle invariant checkers; a
//! violation fails the benchmark rather than producing numbers.
//!
//! Per (scenario, engine) cell the report records the headline recovery
//! metrics: time-to-restore-90%-delivered (slots from attack onset until
//! cumulative background delivery is back to 90% of the engine's own
//! fault-free baseline *and stays there*; `-1` when it never recovers),
//! residual background loss in gigabits, and peak victim-link
//! utilization. Output is a flat JSON object so the CI smoke job can grep
//! a single key against the checked-in baseline without a JSON parser.

use crate::scale::{net_by_name, workload_for, Scale};
use owan_chaos::{restartable_owan, run_attack, AttackTimeline, ChaosConfig, OpFaultModel};
use owan_core::{TrafficEngineer, TransferRequest};
use owan_oracle::InvariantAudit;
use owan_sim::runner::{make_engine, EngineKind, RunnerConfig};
use owan_sim::Probes;
use owan_topo::Network;
use owan_workload::attack::{coremelt, flash_crowd, CoremeltConfig, FlashCrowdConfig};

/// One (scenario, engine) cell of the recovery matrix.
#[derive(Debug, Clone)]
pub struct AttackBenchRow {
    /// Attack scenario slug (`coremelt` or `flashcrowd`).
    pub scenario: String,
    /// Engine slug (`owan`, `maxflow`, `swan`).
    pub engine: String,
    /// The engine's own fault-free delivery, gigabits.
    pub baseline_delivered_gbits: f64,
    /// Background delivery under attack, gigabits.
    pub attacked_background_gbits: f64,
    /// Baseline minus attacked background delivery, floored at zero.
    pub residual_loss_gbits: f64,
    /// Slots from onset to sustained ≥90% cumulative restore; `None`
    /// when the run never recovers.
    pub time_to_restore_slots: Option<usize>,
    /// Post-onset slots spent in the restored state.
    pub restored_slots: u64,
    /// Peak utilization observed on the victim links.
    pub peak_victim_util: f64,
    /// Adversarial volume injected, gigabits.
    pub injected_gbits: f64,
    /// Slots the oracle audited (every planned slot of the attacked run).
    pub slots_audited: usize,
}

/// Everything one benchmark run measured. Field names match the JSON keys
/// (`{scenario}_{engine}_{metric}` per cell).
#[derive(Debug, Clone)]
pub struct AttackBenchReport {
    /// Scale label ("quick" or "full").
    pub scale: String,
    /// Git commit the benchmark binary was built from.
    pub commit: String,
    /// Evaluation network name.
    pub net: String,
    /// Horizon, slots.
    pub slots: usize,
    /// Slot length, seconds.
    pub slot_len_s: f64,
    /// Annealing iterations per slot (owan cells).
    pub iterations: usize,
    /// Background transfers in the workload.
    pub transfers: usize,
    /// Attack onset, seconds.
    pub onset_s: f64,
    /// The recovery matrix, scenario-major.
    pub rows: Vec<AttackBenchRow>,
}

impl AttackBenchReport {
    /// Serializes as flat JSON: run parameters, then one
    /// `{scenario}_{engine}_{metric}` key per cell metric.
    /// `time_to_restore_slots` is `-1` when the run never recovered.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut kv = |key: &str, val: String| {
            s.push_str(&format!("  \"{key}\": {val},\n"));
        };
        kv("scale", format!("\"{}\"", self.scale));
        kv("commit", format!("\"{}\"", self.commit));
        kv("net", format!("\"{}\"", self.net));
        kv("slots", self.slots.to_string());
        kv("slot_len_s", format!("{:.0}", self.slot_len_s));
        kv("iterations", self.iterations.to_string());
        kv("transfers", self.transfers.to_string());
        kv("onset_s", format!("{:.0}", self.onset_s));
        for r in &self.rows {
            let cell = format!("{}_{}", r.scenario, r.engine);
            kv(
                &format!("{cell}_time_to_restore_slots"),
                r.time_to_restore_slots
                    .map_or_else(|| "-1".to_string(), |t| t.to_string()),
            );
            kv(
                &format!("{cell}_residual_loss_gbits"),
                format!("{:.0}", r.residual_loss_gbits),
            );
            kv(
                &format!("{cell}_baseline_delivered_gbits"),
                format!("{:.0}", r.baseline_delivered_gbits),
            );
            kv(
                &format!("{cell}_attacked_background_gbits"),
                format!("{:.0}", r.attacked_background_gbits),
            );
            kv(
                &format!("{cell}_restored_slots"),
                r.restored_slots.to_string(),
            );
            kv(
                &format!("{cell}_peak_victim_util"),
                format!("{:.3}", r.peak_victim_util),
            );
            kv(
                &format!("{cell}_injected_gbits"),
                format!("{:.0}", r.injected_gbits),
            );
            kv(
                &format!("{cell}_slots_audited"),
                r.slots_audited.to_string(),
            );
        }
        // Drop the trailing comma and close.
        if s.ends_with(",\n") {
            s.truncate(s.len() - 2);
            s.push('\n');
        }
        s.push_str("}\n");
        s
    }
}

/// The attack horizon in slots for a scale (shorter than the chaos
/// horizon: recovery is visible within a couple dozen slots).
fn attack_slots(scale: &Scale) -> usize {
    if scale.max_requests == usize::MAX {
        24
    } else {
        16
    }
}

fn background(net: &Network, scale: &Scale) -> Vec<TransferRequest> {
    let mut reqs = workload_for(net, 0.4, None, scale);
    let cap = if scale.max_requests == usize::MAX {
        120
    } else {
        scale.max_requests
    };
    reqs.truncate(cap);
    reqs
}

/// Runs one (scenario, engine) cell: `run_attack` with every slot of the
/// attacked run audited by `check_plan`/`check_timeline`. Panics on an
/// invariant violation — a benchmark must not report numbers from a run
/// the oracle rejected.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    net: &Network,
    requests: &[TransferRequest],
    timeline: &AttackTimeline,
    kind: EngineKind,
    scenario: &str,
    engine: &str,
    scale: &Scale,
    slots: usize,
) -> AttackBenchRow {
    let config = ChaosConfig {
        slot_len_s: scale.slot_len_s,
        max_slots: slots,
        ..Default::default()
    };
    let runner_cfg = RunnerConfig {
        anneal_iterations: scale.anneal_iterations,
        seed: scale.seed.wrapping_add(1),
        ..Default::default()
    };
    let owan = restartable_owan(scale.anneal_iterations, scale.seed);
    let mut factory = |p: &owan_optical::FiberPlant| -> Box<dyn TrafficEngineer> {
        if kind == EngineKind::Owan {
            owan(p)
        } else {
            make_engine(kind, net, &runner_cfg)
        }
    };

    let probes = Probes::default();
    let mut audit = InvariantAudit::new(&probes);
    let outcome = run_attack(
        &net.plant,
        requests,
        timeline,
        &mut factory,
        &config,
        0.9,
        &[],
        &OpFaultModel::none(),
        &probes,
        Some(&mut |a| audit.check(a)),
    )
    .unwrap_or_else(|e| panic!("{scenario}/{engine}: oracle rejected the run: {e}"));

    AttackBenchRow {
        scenario: scenario.to_string(),
        engine: engine.to_string(),
        baseline_delivered_gbits: outcome.baseline.delivered_gbits,
        attacked_background_gbits: outcome.attacked.background_gbits,
        residual_loss_gbits: outcome.metrics.residual_loss_gbits,
        time_to_restore_slots: outcome.metrics.time_to_restore_slots,
        restored_slots: outcome.metrics.restored_slots,
        peak_victim_util: outcome.metrics.peak_victim_util,
        injected_gbits: outcome.metrics.injected_gbits,
        slots_audited: audit.plans_checked,
    }
}

/// Runs the full recovery matrix on the ISP backbone and returns the
/// report. `label` names the scale in the output (`"quick"`/`"full"`).
pub fn bench_attack(scale: &Scale, label: &str) -> AttackBenchReport {
    let net = net_by_name("isp");
    let slots = attack_slots(scale);
    let onset = 4.0 * scale.slot_len_s;
    let requests = background(&net, scale);

    // Coremelt: the default short-path flood against the two
    // max-betweenness fibers.
    let cm = CoremeltConfig::new(scale.seed, onset, 6.0 * scale.slot_len_s);
    let coremelt_tl = AttackTimeline::new(vec![coremelt(&net.plant, &cm)]);
    // Flash crowd: a sustained many-to-one surge — 12 sources holding an
    // aggregate 60 Tbps-scale demand on the victim through the horizon.
    let mut fc = FlashCrowdConfig::new(scale.seed, onset);
    fc.sources = 12;
    fc.peak_gbps = 60_000.0;
    fc.hold_s = (slots as f64 - 8.0).max(4.0) * scale.slot_len_s;
    let flash_tl = AttackTimeline::new(vec![flash_crowd(&net.plant, &fc)]);

    let engines = [
        ("owan", EngineKind::Owan),
        ("maxflow", EngineKind::MaxFlow),
        ("swan", EngineKind::Swan),
    ];
    let mut rows = Vec::new();
    for (scenario, tl) in [("coremelt", &coremelt_tl), ("flashcrowd", &flash_tl)] {
        for (engine, kind) in engines {
            eprintln!("bench_attack: {scenario}/{engine} ...");
            rows.push(run_cell(
                &net, &requests, tl, kind, scenario, engine, scale, slots,
            ));
        }
    }

    AttackBenchReport {
        scale: label.to_string(),
        commit: git_commit(),
        net: "isp".to_string(),
        slots,
        slot_len_s: scale.slot_len_s,
        iterations: scale.anneal_iterations,
        transfers: requests.len(),
        onset_s: onset,
        rows,
    }
}

/// Gates a fresh report against a checked-in baseline.
///
/// Unlike the timing benchmarks, every number here comes from a seeded
/// deterministic simulation, so the gate is exact: each cell's
/// `time_to_restore_slots` must match the baseline integer-for-integer
/// and `residual_loss_gbits` to the rounding the JSON carries. A
/// mismatch means the recovery behavior itself changed — which is the
/// event this baseline exists to catch.
pub fn check_attack_against_baseline(
    report: &AttackBenchReport,
    baseline_json: &str,
) -> Result<String, String> {
    let base_scale = json_string(baseline_json, "scale").ok_or("baseline is missing scale")?;
    if base_scale != report.scale {
        return Err(format!(
            "scale mismatch: report is \"{}\" but baseline is \"{base_scale}\" — \
             regenerate the baseline at the same scale",
            report.scale
        ));
    }
    let mut summary = String::new();
    for r in &report.rows {
        let cell = format!("{}_{}", r.scenario, r.engine);
        let ttr_key = format!("{cell}_time_to_restore_slots");
        let loss_key = format!("{cell}_residual_loss_gbits");
        let base_ttr = json_number(baseline_json, &ttr_key)
            .ok_or_else(|| format!("baseline is missing {ttr_key}"))?;
        let base_loss = json_number(baseline_json, &loss_key)
            .ok_or_else(|| format!("baseline is missing {loss_key}"))?;
        let fresh_ttr = r.time_to_restore_slots.map_or(-1.0, |t| t as f64);
        if fresh_ttr != base_ttr {
            return Err(format!(
                "{ttr_key} changed: baseline {base_ttr}, fresh {fresh_ttr} \
                 (-1 means never restored)"
            ));
        }
        if (r.residual_loss_gbits - base_loss).abs() > 0.5 {
            return Err(format!(
                "{loss_key} changed: baseline {base_loss:.0}, fresh {:.0}",
                r.residual_loss_gbits
            ));
        }
        summary.push_str(&format!(
            "  {cell}: ttr {} loss {:.0} Gb (matches baseline)\n",
            r.time_to_restore_slots
                .map_or_else(|| "never".to_string(), |t| t.to_string()),
            r.residual_loss_gbits
        ));
    }
    Ok(summary)
}

/// The short git commit hash of the working tree, or `"unknown"` when git
/// or the checkout is unavailable (e.g. a source tarball build).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Extracts a numeric value from a flat JSON object by key. Intentionally
/// minimal — the baseline file is machine-written by this module.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Extracts a string value from a flat JSON object by key (same minimal
/// contract as [`json_number`]).
fn json_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_flat_and_greppable() {
        let report = AttackBenchReport {
            scale: "quick".into(),
            commit: "abc123".into(),
            net: "isp".into(),
            slots: 16,
            slot_len_s: 300.0,
            iterations: 30,
            transfers: 60,
            onset_s: 1200.0,
            rows: vec![AttackBenchRow {
                scenario: "coremelt".into(),
                engine: "owan".into(),
                baseline_delivered_gbits: 1000.0,
                attacked_background_gbits: 950.0,
                residual_loss_gbits: 50.0,
                time_to_restore_slots: Some(3),
                restored_slots: 9,
                peak_victim_util: 1.0,
                injected_gbits: 5000.0,
                slots_audited: 16,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"coremelt_owan_time_to_restore_slots\": 3"));
        assert!(json.contains("\"coremelt_owan_residual_loss_gbits\": 50"));
        assert!(json_number(&json, "coremelt_owan_peak_victim_util").is_some());
        assert!(!json.contains(",\n}"), "no trailing comma");
    }

    #[test]
    fn never_restored_serializes_as_minus_one() {
        let report = AttackBenchReport {
            scale: "quick".into(),
            commit: "abc123".into(),
            net: "isp".into(),
            slots: 16,
            slot_len_s: 300.0,
            iterations: 30,
            transfers: 60,
            onset_s: 1200.0,
            rows: vec![AttackBenchRow {
                scenario: "flashcrowd".into(),
                engine: "maxflow".into(),
                baseline_delivered_gbits: 1000.0,
                attacked_background_gbits: 500.0,
                residual_loss_gbits: 500.0,
                time_to_restore_slots: None,
                restored_slots: 0,
                peak_victim_util: 1.0,
                injected_gbits: 5000.0,
                slots_audited: 16,
            }],
        };
        let json = report.to_json();
        assert_eq!(
            json_number(&json, "flashcrowd_maxflow_time_to_restore_slots"),
            Some(-1.0)
        );
    }
}
