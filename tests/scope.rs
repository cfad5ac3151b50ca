//! The flight recorder must observe, never perturb — and everything it
//! emits (Chrome traces, transfer accounting, flight dumps) must be
//! internally consistent and reproducible.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;

use owan::chaos::{restartable_owan, run_chaos_probed, seeded_scenario, ChaosConfig, OpFaultModel};
use owan::core::TransferRequest;
use owan::obs::Recorder;
use owan::scope::{jsonv, FlightDump, MetricsServer, ScopeConfig, ScopeRecorder};
use owan::sim::runner::{make_engine, run_engine, EngineKind, RunnerConfig};
use owan::sim::{simulate_probed, Probes, SimConfig, SimResult};
use owan::topo::isp::ISP_SITES;
use owan::topo::{internet2_testbed, isp_backbone, Network};
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

/// The Fig-10 network (40-site ISP backbone) run under the scope must
/// export a valid Chrome trace: parseable JSON, properly nested B/E
/// pairs, and spans from all five subsystems.
#[test]
fn isp_fig10_run_exports_valid_nested_chrome_trace() {
    assert_eq!(ISP_SITES, 40, "Fig-10 backbone must have 40 sites");
    let (net, requests) = isp_workload(0.6, 10);
    let probes = Probes {
        recorder: Recorder::enabled(),
        scope: ScopeRecorder::enabled(ScopeConfig::default()),
        ..Default::default()
    };
    let result = run_owan(&net, &requests, &probes);
    assert!(result.all_completed(), "ISP run left transfers unfinished");

    let mut raw: Vec<u8> = Vec::new();
    let snapshot = probes.recorder.snapshot();
    probes
        .scope
        .export_chrome_trace(Some(&snapshot), &mut raw)
        .unwrap();
    let text = String::from_utf8(raw).unwrap();
    let doc = jsonv::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .expect("trace must have a traceEvents key")
        .as_arr()
        .expect("traceEvents must be an array")
        .to_vec();
    assert!(!events.is_empty());

    // B/E events must pair like a well-formed bracket sequence, and an
    // E must close the B that opened it (same name and category).
    let mut stack: Vec<(String, String)> = Vec::new();
    let mut cats: BTreeSet<String> = BTreeSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    for ev in &events {
        let ph = ev.get("ph").unwrap().as_str().unwrap().to_string();
        let cat = ev.get("cat").unwrap().as_str().unwrap().to_string();
        let name = ev.get("name").unwrap().as_str().unwrap().to_string();
        let ts = ev.get("ts").unwrap().as_f64().unwrap();
        assert!(ts >= 0.0);
        match ph.as_str() {
            "B" => {
                // Children start no earlier than their parent opened.
                assert!(ts + 1e-9 >= last_ts.max(0.0) || stack.is_empty() || ts >= 0.0);
                stack.push((name.clone(), cat.clone()));
                last_ts = ts;
            }
            "E" => {
                let (open_name, open_cat) = stack.pop().expect("E without matching B");
                assert_eq!(open_name, name, "E closes a different span than it opened");
                assert_eq!(open_cat, cat);
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
        cats.insert(cat);
    }
    assert!(stack.is_empty(), "unclosed B spans: {stack:?}");
    for required in ["sim", "anneal", "circuits", "rates", "update"] {
        assert!(
            cats.contains(required),
            "trace is missing subsystem {required:?} (got {cats:?})"
        );
    }
}

/// Every transfer's tracked delivered volume must account for its full
/// requested volume (delivered + remaining = volume), and the tracker's
/// aggregate must equal the per-transfer sum.
#[test]
fn transfer_accounting_matches_aggregate_to_float_tolerance() {
    let (net, requests) = isp_workload(0.6, 12);
    let probes = Probes {
        recorder: Recorder::enabled(),
        scope: ScopeRecorder::enabled(ScopeConfig::default()),
        ..Default::default()
    };
    let result = run_owan(&net, &requests, &probes);
    let scope = probes.scope;

    let tracker = scope.tracker_snapshot().unwrap();
    assert_eq!(tracker.transfers().len(), requests.len());
    let mut sum = 0.0;
    for (t, req) in tracker.transfers().iter().zip(&requests) {
        let accounted = t.delivered_gbits + t.remaining_gbits;
        assert!(
            (accounted - req.volume_gbits).abs() < 1e-6 * req.volume_gbits.max(1.0),
            "transfer {}: delivered {} + remaining {} != volume {}",
            t.id,
            t.delivered_gbits,
            t.remaining_gbits,
            req.volume_gbits
        );
        if result.completions[t.id].completion_s.is_some() {
            assert!(
                (t.delivered_gbits - req.volume_gbits).abs() < 1e-6 * req.volume_gbits.max(1.0),
                "completed transfer {} delivered {} of {}",
                t.id,
                t.delivered_gbits,
                req.volume_gbits
            );
        }
        sum += t.delivered_gbits;
    }
    let total = scope.total_delivered_gbits();
    assert!(
        (total - sum).abs() < 1e-6 * sum.max(1.0),
        "aggregate {total} != per-transfer sum {sum}"
    );
    assert!(total > 0.0);
}

/// A disabled scope must not change a single simulation outcome.
#[test]
fn disabled_scope_is_zero_perturbation() {
    let (net, requests) = isp_workload(0.6, 8);
    let plain = run_engine(EngineKind::Owan, &net, &requests, &fast_runner(40));
    let traced = run_owan(&net, &requests, &Probes::default());
    assert_eq!(plain.makespan_s, traced.makespan_s);
    assert_eq!(plain.slots, traced.slots);
    assert_eq!(plain.throughput_series, traced.throughput_series);
    for (a, b) in plain.completions.iter().zip(&traced.completions) {
        assert_eq!(a.completion_s, b.completion_s);
    }
}

fn chaos_scope_run(seed: u64) -> (ScopeRecorder, Result<(), String>) {
    let net = internet2_testbed();
    let requests = generate(&net, &WorkloadConfig::testbed(0.5, seed));
    let plant = net.plant;
    let config = ChaosConfig {
        slot_len_s: 300.0,
        max_slots: 16,
        // Longer than the horizon: the mid-run fiber cut stays undetected
        // and blackholes live circuits, triggering the anomaly dump.
        detection_delay_s: 400.0,
        ..Default::default()
    };
    let events = seeded_scenario(&plant, seed, 300.0 * 16.0);
    let op_faults = OpFaultModel {
        seed,
        timeout_prob: 0.1,
        fail_prob: 0.05,
    };
    let scope = ScopeRecorder::enabled(ScopeConfig::default());
    scope.set_meta("mode", "chaos");
    scope.set_meta("net", "internet2");
    scope.set_meta("seed", seed);
    let probes = Probes {
        scope,
        ..Default::default()
    };
    let outcome = run_chaos_probed(
        &plant,
        &requests,
        &mut restartable_owan(30, seed),
        &config,
        &events,
        &op_faults,
        &probes,
        None,
    )
    .map(|_| ());
    (probes.scope, outcome)
}

/// An undetected fiber cut must freeze the flight ring into a dump, and
/// two same-seed runs must produce byte-identical dump files.
#[test]
fn chaos_flight_dump_is_byte_deterministic() {
    let (first, outcome) = chaos_scope_run(42);
    outcome.expect("chaos run failed");
    let (second, _) = chaos_scope_run(42);

    let a = first
        .dump_text()
        .expect("undetected cut must trigger a dump");
    let b = second.dump_text().expect("second run must dump too");
    assert_eq!(a, b, "same-seed dumps differ");

    let dump = FlightDump::from_text(&a).expect("dump must parse");
    assert_eq!(dump.reason, "blackhole.undetected_cut");
    assert!(!dump.frames.is_empty());
    assert_eq!(dump.meta["net"], "internet2");
}

/// End to end through the binary: `chaos --scope-dump` writes a dump that
/// `verify --replay` reconstructs, re-runs under the invariant audit, and
/// accepts byte for byte.
#[test]
fn flight_dump_replays_through_verify_cli() {
    let dir = std::env::temp_dir().join("owan_scope_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dump_path = dir.join("flight.dump");
    let _ = std::fs::remove_file(&dump_path);

    let chaos = Command::new(env!("CARGO_BIN_EXE_owan-cli"))
        .args([
            "chaos",
            "--net",
            "internet2",
            "--seed",
            "42",
            "--load",
            "0.5",
            "--slots",
            "16",
            "--iters",
            "30",
            "--detect",
            "400",
            "--scope-dump",
        ])
        .arg(&dump_path)
        .output()
        .expect("chaos run failed to start");
    let stdout = String::from_utf8_lossy(&chaos.stdout);
    assert!(chaos.status.success(), "chaos run failed: {stdout}");
    assert!(stdout.contains("scope_dumped,yes"), "no dump: {stdout}");
    assert!(dump_path.exists());

    let verify = Command::new(env!("CARGO_BIN_EXE_owan-cli"))
        .args(["verify", "--replay"])
        .arg(&dump_path)
        .output()
        .expect("verify failed to start");
    let stdout = String::from_utf8_lossy(&verify.stdout);
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert!(
        verify.status.success(),
        "verify --replay rejected the dump: {stdout} {stderr}"
    );
    assert!(stdout.contains("OK"), "unexpected verify output: {stdout}");
}

/// A `--scope-dump` path the dump cannot be written to is an error: the
/// command names the path and the OS error and exits 1, instead of
/// claiming a dump it never wrote.
#[test]
fn unwritable_flight_dump_path_fails_the_command() {
    let dir = std::env::temp_dir().join("owan_scope_cli_missing_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let dump_path = dir.join("x.dump");
    let chaos = Command::new(env!("CARGO_BIN_EXE_owan-cli"))
        .args([
            "chaos",
            "--net",
            "internet2",
            "--seed",
            "42",
            "--slots",
            "16",
            "--iters",
            "20",
            "--detect",
            "400",
            "--scope-dump",
        ])
        .arg(&dump_path)
        .output()
        .expect("chaos run failed to start");
    let stderr = String::from_utf8_lossy(&chaos.stderr);
    assert_eq!(chaos.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "cannot write --scope-dump file '{}'",
            dump_path.display()
        )),
        "{stderr}"
    );
    assert!(stderr.contains("os error"), "{stderr}");
    assert!(!stderr.contains("flight dump written"), "{stderr}");
    assert!(!dump_path.exists());
}

/// Flight dumps checked in under `tests/data/`, written by an earlier
/// build of `owan-cli chaos --scope-dump` (one blackhole anomaly, one SLO
/// trip carrying `sigma` and `slo_*` keys), must still replay byte for
/// byte: this pins the dump's metadata format across changes to either
/// side of it.
#[test]
fn checked_in_flight_dumps_replay_through_verify_cli() {
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    for name in ["chaos_internet2.dump", "slo_burn_internet2.dump"] {
        let verify = Command::new(env!("CARGO_BIN_EXE_owan-cli"))
            .args(["verify", "--replay"])
            .arg(data.join(name))
            .output()
            .expect("verify failed to start");
        let stdout = String::from_utf8_lossy(&verify.stdout);
        let stderr = String::from_utf8_lossy(&verify.stderr);
        assert!(
            verify.status.success(),
            "verify --replay rejected {name}: {stdout} {stderr}"
        );
        assert!(
            stdout.contains("replayed exactly"),
            "{name}: unexpected verify output: {stdout}"
        );
    }
}

/// The live endpoint serves the run's counters over plain HTTP.
#[test]
fn metrics_endpoint_serves_run_counters() {
    let recorder = Recorder::enabled();
    recorder.counter("anneal.accepted").add(7);
    let server = MetricsServer::spawn("127.0.0.1:0", recorder.clone()).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"));
    assert!(response.contains("owan_anneal_accepted 7"));
    server.shutdown();
}
