//! The binary end to end, at `--quick` size: every metric is emitted once
//! with its unit, plan-quality metrics are a function of the seed alone,
//! and the traced pass reproduces the untraced plans.

use owan_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use owan_benchmark::report::{parse_result, Outcome, DETERMINISTIC};
use owan_benchmark::workloads::WORKLOADS;
use std::process::Command;

fn run(workload: &str, seed: u64, trace: bool) -> (Outcome, String) {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/traces");
    let output = Command::new(env!("CARGO_BIN_EXE_owan-benchmark"))
        .args(["--workload", workload, "--quick", "--out", out_dir])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(output.status.success(), "{workload} seed {seed}:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let outcome = parse_result(last).unwrap_or_else(|| panic!("unparseable result: {last}"));
    assert!(outcome.correct && outcome.failed == 0 && outcome.attempted >= 1);
    (outcome, stdout)
}

fn assert_emits_exactly(outcome: &Outcome, line: &str, defs: &[MetricDef]) {
    assert_eq!(outcome.metrics.len(), defs.len());
    for d in defs {
        let (_, unit) = outcome
            .metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("{} missing", d.name));
        assert_eq!(unit, d.unit, "{}", d.name);
        assert_eq!(
            line.matches(&format!("\"{}\":", d.name)).count(),
            1,
            "{} must appear once",
            d.name
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_once() {
    for w in &WORKLOADS {
        let (outcome, stdout) = run(w.name, 3, false);
        assert_emits_exactly(&outcome, stdout.lines().last().unwrap(), &END_TO_END);
        for d in &END_TO_END {
            let v = outcome.value(d.name);
            // A one-set smoke run cannot support p90; it says so instead
            // of inventing one.
            if d.name == "slot_plan_ms_p90" && v.is_nan() {
                assert!(stdout.contains("refused: slot_plan_ms_p90"));
                continue;
            }
            // The result line carries numbers only, so without deadlines
            // the two fractions read their vacuous 1, never a measurement.
            if !w.deadlines && d.name.contains("deadline") {
                assert_eq!(v, 1.0, "{} {}", w.name, d.name);
                continue;
            }
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, d.name);
        }
    }
}

#[test]
fn plan_quality_is_a_function_of_the_seed_alone() {
    let w = "interdc_edf_churn";
    let (a, out_a) = run(w, 5, false);
    let (b, out_b) = run(w, 5, false);
    let (c, out_c) = run(w, 6, false);
    let digest = |s: &str| {
        s.lines()
            .find(|l| l.contains("plan digest"))
            .expect("digest line")
            .to_string()
    };
    assert_eq!(digest(&out_a), digest(&out_b));
    assert_ne!(digest(&out_a), digest(&out_c));
    for name in DETERMINISTIC {
        assert_eq!(
            a.value(name).to_bits(),
            b.value(name).to_bits(),
            "{name} differs between two runs of one seed"
        );
    }
    assert!(
        DETERMINISTIC
            .iter()
            .any(|n| a.value(n).to_bits() != c.value(n).to_bits()),
        "another seed gave the same plans"
    );
    // Timings are measured, not computed: they never repeat exactly.
    assert_ne!(a.value("setup_s").to_bits(), b.value("setup_s").to_bits());
}

#[test]
fn traced_pass_emits_the_ledger_and_reproduces_the_plans() {
    // One workload through `run_controller`, one through `run_chaos`.
    for w in ["interdc_edf_churn", "isp_faults_owan"] {
        let (outcome, stdout) = run(w, 4, true);
        assert_emits_exactly(&outcome, stdout.lines().last().unwrap(), &PER_LAYER);
        assert!(stdout.contains("  match"), "digest line:\n{stdout}");
        for d in &PER_LAYER {
            assert!(outcome.value(d.name).is_finite(), "{w} {}", d.name);
        }
        let trace = std::fs::read_to_string(format!(
            "{}/traces/trace_{w}.json",
            env!("CARGO_TARGET_TMPDIR")
        ))
        .expect("span file");
        for name in [
            "\"slot\"",
            "\"plan\"",
            "\"replay\"",
            "\"core.anneal\"",
            "\"update.schedule\"",
        ] {
            assert!(trace.contains(name), "{w}: no {name} span");
        }
    }
}
