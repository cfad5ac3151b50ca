//! The region profiler must observe, never perturb — disabled it changes
//! no simulation outcome, enabled it still reproduces the same plans and
//! its miss-attribution counters must account for every single cache
//! miss. Through the binary, the profiler flags write their outputs, and
//! a flag a command never reads exits 2 instead of being silently dropped.

use std::process::Command;

use owan::core::{Profiler, TransferRequest};
use owan::obs::Recorder;
use owan::sim::runner::{make_engine, run_engine, EngineKind, RunnerConfig};
use owan::sim::{simulate_probed, Probes, SimConfig, SimResult};
use owan::topo::isp::ISP_SITES;
use owan::topo::{isp_backbone, Network};
use owan::workload::{generate, WorkloadConfig};

fn fast_runner(iters: usize) -> RunnerConfig {
    RunnerConfig {
        sim: SimConfig {
            slot_len_s: 300.0,
            max_slots: 400,
            ..Default::default()
        },
        anneal_iterations: iters,
        seed: 11,
        ..Default::default()
    }
}

fn run_owan(net: &Network, requests: &[TransferRequest], probes: &Probes) -> SimResult {
    let cfg = fast_runner(40);
    let mut engine = make_engine(EngineKind::Owan, net, &cfg);
    simulate_probed(&net.plant, requests, engine.as_mut(), &cfg.sim, probes)
}

fn isp_workload(load: f64, take: usize) -> (Network, Vec<TransferRequest>) {
    let net = isp_backbone(42);
    let mut cfg = WorkloadConfig::simulation(load, 42);
    cfg.duration_s = 3_000.0;
    let requests: Vec<_> = generate(&net, &cfg).into_iter().take(take).collect();
    (net, requests)
}

/// A disabled profiler must not change a single simulation outcome.
#[test]
fn disabled_profiler_is_zero_perturbation() {
    let (net, requests) = isp_workload(0.6, 8);
    let plain = run_engine(EngineKind::Owan, &net, &requests, &fast_runner(40));
    let profiled = run_owan(&net, &requests, &Probes::default());
    assert_eq!(plain.makespan_s, profiled.makespan_s);
    assert_eq!(plain.slots, profiled.slots);
    assert_eq!(plain.throughput_series, profiled.throughput_series);
    for (a, b) in plain.completions.iter().zip(&profiled.completions) {
        assert_eq!(a.completion_s, b.completion_s);
    }
}

/// An enabled profiler still reproduces the same plans, and its region
/// tree covers the whole pipeline: slot → plan_slot → anneal → eval →
/// circuits/rates, plus update. The folded-stack export is well-formed
/// `path;to;leaf <self_ns>` lines over those same regions.
#[test]
fn enabled_profiler_preserves_results_and_exports_folded_stacks() {
    let (net, requests) = isp_workload(0.6, 8);
    let plain = run_engine(EngineKind::Owan, &net, &requests, &fast_runner(40));
    // Recorder enabled so the telemetry-only update-scheduling stage runs
    // and its region shows up; observed runs are result-identical.
    let probes = Probes {
        recorder: Recorder::enabled(),
        prof: Profiler::enabled(),
        ..Default::default()
    };
    let profiled = run_owan(&net, &requests, &probes);
    let prof = probes.prof;
    assert_eq!(plain.makespan_s, profiled.makespan_s);
    assert_eq!(plain.throughput_series, profiled.throughput_series);

    let snap = prof.snapshot();
    let names: Vec<&str> = snap.nodes.iter().map(|n| n.name.as_str()).collect();
    for required in [
        "slot",
        "plan_slot",
        "anneal",
        "eval",
        "circuits",
        "rates",
        "update",
    ] {
        assert!(
            names.contains(&required),
            "region tree is missing {required:?} (got {names:?})"
        );
    }
    // Self time can never exceed total time, and calls are non-zero for
    // every node that exists.
    for node in &snap.nodes {
        assert!(node.self_ns <= node.total_ns, "{}", node.name);
        assert!(node.calls > 0, "{}", node.name);
    }

    let mut folded = Vec::new();
    snap.write_folded(&mut folded).unwrap();
    let text = String::from_utf8(folded).unwrap();
    assert!(!text.is_empty());
    for line in text.lines() {
        let (path, value) = line.rsplit_once(' ').expect("`path value` shape");
        assert!(!path.is_empty());
        assert!(path.starts_with("slot"), "all stacks root at slot: {line}");
        value.parse::<u64>().expect("self-time must be integer ns");
    }
    assert!(
        text.lines().any(|l| l.contains("slot;plan_slot;anneal")),
        "expected the anneal stack in the folded output:\n{text}"
    );
}

/// On the Fig-10 network (40-site ISP backbone) every cache miss must be
/// attributed to exactly one reason: the `anneal.cache_miss.<reason>`
/// counters sum to `anneal.cache_miss`, and a dominant cause exists.
#[test]
fn isp_fig10_cache_misses_are_fully_attributed() {
    assert_eq!(ISP_SITES, 40, "Fig-10 backbone must have 40 sites");
    let (net, requests) = isp_workload(0.6, 10);
    let probes = Probes {
        recorder: Recorder::enabled(),
        ..Default::default()
    };
    let result = run_owan(&net, &requests, &probes);
    assert!(result.all_completed(), "ISP run left transfers unfinished");

    let snap = probes.recorder.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let total = counter("anneal.cache_miss");
    assert!(total > 0, "run recorded no cache misses at all");
    let attributed: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("anneal.cache_miss."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(
        attributed, total,
        "per-reason counters must account for 100% of misses"
    );
    // With the fast path on, no eval should fall through uncached.
    assert_eq!(counter("anneal.cache_miss.uncached"), 0);
    // A dominant cause must be nameable from the counters alone.
    let dominant = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("anneal.cache_miss."))
        .max_by_key(|(_, v)| **v)
        .expect("at least one reason counter");
    assert!(*dominant.1 > 0, "dominant cause {} is zero", dominant.0);
}

// ---------------------------------------------------------------- CLI --

fn owan_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_owan-cli"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A flag no command reads exits 2 naming it, before anything runs: a
/// retired flag or a typo (`--iter` for `--iters`, which would silently run
/// the default 150 iterations) is never dropped without a word. The same
/// command line without it runs and exits 0.
#[test]
fn cli_rejects_flags_it_never_reads() {
    let run = [
        "--net",
        "internet2",
        "--duration",
        "600",
        "--max-requests",
        "2",
        "--iters",
        "5",
    ];
    let chaos = ["chaos", "--net", "internet2", "--slots", "2"];
    // (a command line, what is appended to it); the first appended word is
    // the flag that must be named.
    let cases: [(&[&str], &[&str]); 5] = [
        // The removed switch that selected the naive annealing backend.
        (&run, &[concat!("--no-", "fastpath")]),
        (&run[..6], &["--iter", "5"]),
        (&chaos, &["--bogus"]),
        (&["verify", "--seeds", "1"], &["--net-name", "isp"]),
        // `--slots` is a chaos option; without `--chaos` explain reads none.
        (&["explain", "--max-requests", "2"], &["--slots", "3"]),
    ];
    for (args, extra) in cases {
        let out = owan_cli().args(args).args(extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag '{}'", extra[0])),
            "{args:?} {extra:?}: {stderr}"
        );
    }
    let out = owan_cli().args(run).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--prof FILE` writes a folded-stack file and `--prof-report` prints
/// the region tree, end to end through the binary.
#[test]
fn prof_flags_write_folded_stacks_and_print_the_region_tree() {
    let dir = temp_dir("owan_prof_cli_run");
    let folded = dir.join("profile.folded");
    let _ = std::fs::remove_file(&folded);

    let run_args = [
        "--net",
        "internet2",
        "--load",
        "0.5",
        "--duration",
        "1200",
        "--max-requests",
        "4",
        "--iters",
        "10",
    ];
    let out = owan_cli()
        .args(run_args)
        .arg("--prof")
        .arg(&folded)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&folded).unwrap();
    assert!(
        text.lines().any(|l| l.starts_with("slot")),
        "folded stacks must root at slot:\n{text}"
    );
    for line in text.lines() {
        let (_, value) = line.rsplit_once(' ').unwrap();
        value.parse::<u64>().expect("self-time must be integer ns");
    }

    let out = owan_cli()
        .args(run_args)
        .arg("--prof-report")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for required in ["slot", "plan_slot", "anneal"] {
        assert!(stdout.contains(required), "{stdout}");
    }
}
