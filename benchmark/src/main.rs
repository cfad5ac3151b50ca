//! Command line of the Owan controller benchmark. See `README.md`.

use owan_benchmark::engines::Tracing;
use owan_benchmark::layers::{self, LayerInputs};
use owan_benchmark::metrics::{
    self, highest_supported_percentile, manifest_json, overhead_cell, percentile, result_json,
    Values, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use owan_benchmark::report::{self, Outcome, DETERMINISTIC};
use owan_benchmark::spans::{layer_table, to_json, Spans};
use owan_benchmark::workloads::{
    run_once, workload_by_name, RunOutcome, Workload, QUICK_ITERATIONS, WORKLOADS,
};
use owan_obs::Recorder;
use owan_sim::metrics as sim_metrics;
use owan_sim::SimResult;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "\
owan-benchmark: the Owan controller benchmark

  one run (what BENCHMARK.json's command invokes):
    --workload NAME   isp_sjf_owan | isp_edf_lp | interdc_edf_churn | isp_faults_owan
    --seed N          picks the run's request sets from the workload's pool (default 42)
    --seconds S       sizes the run: S x the workload's calibrated seeds per second (default 20)
    --trace 0|1       0: end-to-end metrics, tracing off; 1: the traced pass and the layer ledger
    --quick           one request set, 30 annealing iterations (CI smoke)
    --out DIR         where trace_<workload>.json goes (default benchmark/out)
  the last line of stdout is the result as one JSON object.

  the whole set, each run in its own process:
    (no --workload) [--seed N] [--seconds S] [--quick]
    --repeat-check [--seed N] [--seconds S] [--quick]
                      runs the untraced set twice; fails if an end-to-end metric
                      differs by more than its bound or a plan-quality metric differs at all
  --manifest          prints BENCHMARK.json as generated from the metric tables
";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    repeat_check: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        out: None,
        repeat_check: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            "--manifest" => a.manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("owan-benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        print!("{}", manifest_json(&workloads));
        return ExitCode::SUCCESS;
    }
    if args.repeat_check {
        return repeat_check(&args);
    }
    match &args.workload {
        Some(name) => match workload_by_name(name) {
            Some(w) => {
                let ok = if args.trace {
                    traced_pass(w, &args)
                } else {
                    untraced_pass(w, &args)
                };
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            None => {
                eprintln!("owan-benchmark: unknown workload '{name}'\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => run_all(&args),
    }
}

/// The request sets of one run.
fn seeds(w: &Workload, args: &Args) -> Vec<u64> {
    let n = if args.quick {
        1
    } else {
        ((args.seconds * w.seeds_per_second).round() as u64).max(w.min_seeds)
    };
    w.request_sets(args.seed, n as usize)
}

fn iterations(w: &Workload, args: &Args) -> usize {
    if args.quick {
        QUICK_ITERATIONS
    } else {
        w.anneal_iterations
    }
}

/// Plan latency samples of a run set, milliseconds.
fn plan_samples_ms(runs: &[RunOutcome]) -> Vec<f64> {
    runs.iter()
        .flat_map(RunOutcome::plan_samples_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

fn combined_digest(runs: &[RunOutcome]) -> u64 {
    runs.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, r| {
        (acc ^ r.digest().0).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn print_failures(runs: &[RunOutcome]) {
    for r in runs {
        if let Some(why) = &r.failure {
            println!("  FAILED {:?} on set {}: {why}", r.engine, r.seed);
        }
    }
}

fn print_metrics(defs: &[metrics::MetricDef], values: &Values) {
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(f64::NAN);
        println!("  {:<40} {:>16.6} {}", d.name, v, d.unit);
    }
}

/// The end-to-end pass: tracing off, nothing added to the repository's
/// slot loops but the decorator's two clock reads per slot.
fn untraced_pass(w: &Workload, args: &Args) -> bool {
    let iters = iterations(w, args);
    let seeds = seeds(w, args);
    let started = Instant::now();
    let mut runs = Vec::new();
    for &seed in &seeds {
        for &engine in w.engines {
            runs.push(run_once(w, engine, seed, iters, None));
        }
    }
    let wall = started.elapsed().as_secs_f64();

    let samples = plan_samples_ms(&runs);
    let slots: usize = runs.iter().map(RunOutcome::slots).sum();
    let failed: usize = runs.iter().map(|r| r.failed_slots).sum();
    let loop_wall: f64 = runs.iter().map(|r| r.loop_wall_s).sum();
    let pooled = SimResult {
        engine: w.name.to_string(),
        completions: runs.iter().flat_map(|r| r.completions.clone()).collect(),
        makespan_s: 0.0,
        throughput_series: Vec::new(),
        slots,
        telemetry: None,
        plan_error: None,
    };
    let (avg_ct, p95_ct) = sim_metrics::summary(&pooled, sim_metrics::SizeBin::All);
    let per_run = |f: fn(&RunOutcome) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };

    let mut v = Values::new();
    let mut unsupported = Vec::new();
    v.insert(
        "setup_s",
        metrics::median(&per_run(|r| r.setup_s)).unwrap_or(f64::NAN),
    );
    for (name, p) in [("slot_plan_ms_p50", 50.0), ("slot_plan_ms_p90", 90.0)] {
        v.insert(
            name,
            percentile(&samples, p).unwrap_or_else(|e| {
                unsupported.push(format!(
                    "{name}: {} samples, {} beyond",
                    e.samples, e.beyond
                ));
                f64::NAN
            }),
        );
    }
    v.insert("slots_per_s", slots as f64 / loop_wall.max(1e-9));
    v.insert(
        "delivered_gbit_per_cpu_s",
        runs.iter().map(|r| r.delivered_gbits).sum::<f64>()
            / runs.iter().map(|r| r.cpu_s).sum::<f64>().max(1e-9),
    );
    v.insert("avg_completion_s", avg_ct);
    v.insert("p95_completion_s", p95_ct);
    v.insert("makespan_s", sim_metrics::mean(&per_run(|r| r.makespan_s)));
    v.insert(
        "transition_loss_gbit",
        sim_metrics::mean(&per_run(|r| r.transition_loss_gbits)),
    );
    v.insert(
        "deadline_met_frac",
        sim_metrics::pct_deadlines_met(&pooled, sim_metrics::SizeBin::All) / 100.0,
    );
    v.insert(
        "bytes_by_deadline_frac",
        sim_metrics::pct_bytes_by_deadline(&pooled) / 100.0,
    );
    v.insert("peak_rss_mb", metrics::peak_rss_mb().unwrap_or(f64::NAN));

    // A tail percentile the sample cannot support invalidates a full run;
    // `--quick` is a smoke run and reports it as missing instead.
    let correct = failed == 0 && (args.quick || unsupported.is_empty());

    println!(
        "workload {}  seed {}  request sets {}  runs {}  iterations {}  wall {:.2}s  tracing off",
        w.name,
        args.seed,
        seeds.len(),
        runs.len(),
        iters,
        wall
    );
    println!(
        "  plan samples {} (highest supported percentile: {})",
        samples.len(),
        highest_supported_percentile(samples.len())
            .map_or_else(|| "none".to_string(), |p| format!("p{p:.0}"))
    );
    println!("  plan digest {:016x}", combined_digest(&runs));
    println!("  ops_attempted {slots}  ops_failed {failed}");
    for u in &unsupported {
        println!("  refused: {u}");
    }
    print_failures(&runs);
    print_metrics(&END_TO_END, &v);
    if !w.deadlines {
        println!("  no request has a deadline: the two deadline fractions read 1 and say nothing");
    }
    println!(
        "{}",
        result_json(correct, slots.max(1), failed, &END_TO_END, &v)
    );
    correct
}

fn out_dir(args: &Args) -> PathBuf {
    args.out.clone().unwrap_or_else(|| {
        if std::path::Path::new("benchmark/Cargo.toml").exists() {
            PathBuf::from("benchmark/out")
        } else {
            PathBuf::from("out")
        }
    })
}

/// The traced pass: a third of the request sets under the span recorder
/// with every slot audited by the oracle, run 0 also with tracing off
/// before and after (digest and overhead reference), then the layer
/// replays.
fn traced_pass(w: &Workload, args: &Args) -> bool {
    let iters = iterations(w, args);
    let all_seeds = seeds(w, args);
    let started = Instant::now();
    let untraced0 = run_once(w, w.engines[0], all_seeds[0], iters, None);
    let seeds = &all_seeds[..all_seeds.len().div_ceil(3)];

    let spans = Spans::default();
    let recorder = Recorder::enabled();
    let mut traced = Vec::new();
    for &seed in seeds {
        for &engine in w.engines {
            let trace = Tracing {
                spans: spans.clone(),
                recorder: recorder.clone(),
                run: traced.len() as u32,
            };
            traced.push(run_once(w, engine, seed, iters, Some(&trace)));
        }
    }
    let untraced0_again = run_once(w, w.engines[0], seeds[0], iters, None);
    let digest_ok =
        traced[0].digest() == untraced0.digest() && untraced0_again.digest() == untraced0.digest();

    let report = layers::measure(&LayerInputs {
        workload: w,
        iterations: iters,
        untraced0: &untraced0,
        untraced0_again: &untraced0_again,
        traced: &traced,
        spans: &spans,
    });

    let slots: usize = traced.iter().map(RunOutcome::slots).sum();
    let failed: usize =
        traced.iter().map(|r| r.failed_slots).sum::<usize>() + report.violations.len();
    // Dust slots are audited too, so there may be more audits than ops.
    let audited_all = report.audited_slots >= slots;
    let correct = digest_ok && failed == 0 && audited_all;

    let all_spans = spans.snapshot();
    let dir = out_dir(args);
    let path = dir.join(format!("trace_{}.json", w.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, to_json(w.name, args.seed, &all_spans)));

    println!(
        "workload {}  seed {}  traced runs {}  iterations {}  wall {:.2}s  tracing on",
        w.name,
        args.seed,
        traced.len(),
        iters,
        started.elapsed().as_secs_f64()
    );
    println!(
        "  plan digest run 0: untraced {:016x}  traced {:016x}  {}",
        untraced0.digest().0,
        traced[0].digest().0,
        if digest_ok { "match" } else { "MISMATCH" }
    );
    println!(
        "  ops_attempted {slots}  ops_failed {failed}  audited slots {}",
        report.audited_slots
    );
    print_failures(&traced);
    for v in report.violations.iter().take(8) {
        println!("  VIOLATION {v}");
    }
    match &written {
        Ok(()) => println!("  {} spans -> {}", all_spans.len(), path.display()),
        Err(e) => println!("  could not write {}: {e}", path.display()),
    }
    println!(
        "  {:<26} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, row) in layer_table(&all_spans) {
        println!(
            "  {:<26} {:>8} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    print_metrics(&PER_LAYER, &report.values);
    for tier in ["obs", "scope", "prof", "why"] {
        let get = |suffix: &str| {
            let name = format!("{tier}.overhead_{suffix}");
            report
                .values
                .get(name.as_str())
                .copied()
                .unwrap_or(f64::NAN)
        };
        println!(
            "  {tier}.overhead: {}",
            overhead_cell(get("frac"), get("mad"))
        );
    }
    println!(
        "  bench.trace_overhead: {}",
        overhead_cell(
            report.values["bench.trace_overhead_frac"],
            report.values["bench.trace_overhead_noise"]
        )
    );
    println!(
        "{}",
        result_json(
            correct && written.is_ok(),
            slots.max(1),
            failed,
            &PER_LAYER,
            &report.values
        )
    );
    correct && written.is_ok()
}

/// Runs one workload in a child process and parses its result line.
fn child(w: &Workload, args: &Args, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let outcome = report::parse_result(last).ok_or_else(|| {
        format!(
            "{}: no result line (exit {:?})",
            w.name,
            output.status.code()
        )
    })?;
    if !output.status.success() || !outcome.correct {
        return Err(format!(
            "{}: run failed (exit {:?}, correct {})",
            w.name,
            output.status.code(),
            outcome.correct
        ));
    }
    Ok(outcome)
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for trace in [false, true] {
        for w in &WORKLOADS {
            if let Err(e) = child(w, args, trace) {
                eprintln!("owan-benchmark: {e}");
                ok = false;
            }
            println!();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn repeat_check(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        let pair = (child(w, args, false), child(w, args, false));
        let (a, b) = match pair {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("owan-benchmark: {e}");
                ok = false;
                continue;
            }
        };
        println!("repeat-check {}", w.name);
        for d in &END_TO_END {
            let (x, y) = (a.value(d.name), b.value(d.name));
            let verdict = if DETERMINISTIC.contains(&d.name) {
                if x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()) {
                    "bit-equal".to_string()
                } else {
                    ok = false;
                    "DIFFERS (plans changed between two runs of one commit)".to_string()
                }
            } else {
                let worse = (y - x).abs() / x.min(y);
                if worse <= d.bound || (x.is_nan() && y.is_nan()) {
                    format!(
                        "{:+.2}% (bound {:.0}%)",
                        100.0 * (y / x - 1.0),
                        100.0 * d.bound
                    )
                } else {
                    ok = false;
                    format!(
                        "{:+.2}% EXCEEDS bound {:.0}%",
                        100.0 * (y / x - 1.0),
                        100.0 * d.bound
                    )
                }
            };
            println!("  {:<28} {:>16.6} {:>16.6}  {verdict}", d.name, x, y);
        }
    }
    if ok {
        println!("repeat-check passed");
        ExitCode::SUCCESS
    } else {
        println!("repeat-check FAILED");
        ExitCode::FAILURE
    }
}
