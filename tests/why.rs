//! Tier-4 (`owan-why`) acceptance tests: the attribution buckets must
//! partition wall time on the paper's Fig-10 network, the blackhole
//! bucket must agree bit-for-bit with the chaos runner's loss ledger,
//! and a disabled why recorder must never perturb a run.

use owan::chaos::{restartable_owan, run_chaos_probed, seeded_scenario, ChaosConfig, OpFaultModel};
use owan::core::TransferRequest;
use owan::obs::Recorder;
use owan::scope::{ScopeConfig, ScopeRecorder};
use owan::sim::runner::{make_engine, run_engine, EngineKind, RunnerConfig};
use owan::sim::{simulate_probed, Probes, SimConfig, SimResult};
use owan::topo::isp::ISP_SITES;
use owan::topo::{internet2_testbed, isp_backbone, Network};
use owan::why::{render_explain, render_slo, SloConfig, WhyConfig, WhyRecorder, WhyReport};
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

fn isp_deadline_workload(load: f64, take: usize) -> (Network, Vec<TransferRequest>) {
    let net = isp_backbone(42);
    let mut cfg = WorkloadConfig::simulation(load, 42).with_deadlines(300.0, 1.5);
    cfg.duration_s = 3_000.0;
    let requests: Vec<_> = generate(&net, &cfg).into_iter().take(take).collect();
    (net, requests)
}

fn assert_partition(report: &WhyReport) {
    assert!(!report.transfers.is_empty());
    for attr in &report.transfers {
        let sum = attr.buckets.sum_s();
        assert!(
            (sum - attr.wall_s).abs() <= 1e-6 * attr.wall_s.max(1.0),
            "transfer {}: buckets sum {} != wall {} (buckets {:?})",
            attr.id,
            sum,
            attr.wall_s,
            attr.buckets
        );
        for (name, value) in attr.buckets.named() {
            assert!(value >= 0.0, "transfer {}: bucket {name} negative", attr.id);
        }
    }
}

/// Fig-10 acceptance: on the 40-site ISP backbone with a deadline
/// workload, every transfer's seven buckets partition its in-system wall
/// time, and `render_explain` agrees (`partition,ok` footer).
#[test]
fn fig10_isp_buckets_partition_wall_time() {
    assert_eq!(ISP_SITES, 40, "Fig-10 backbone must have 40 sites");
    let (net, requests) = isp_deadline_workload(0.6, 12);
    let recorder = Recorder::enabled();
    let probes = Probes {
        why: WhyRecorder::enabled(WhyConfig::default(), &recorder),
        recorder,
        ..Default::default()
    };
    let result = run_owan(&net, &requests, &probes);
    assert!(result.all_completed(), "ISP run left transfers unfinished");
    let report = probes
        .why
        .report()
        .expect("enabled why recorder yields a report");
    assert_eq!(report.transfers.len(), requests.len());
    assert_partition(&report);

    // No faults in a plain sim run: nothing may be blamed on the plant.
    assert_eq!(report.total_blackhole_gbits, 0.0);
    for attr in &report.transfers {
        assert_eq!(attr.buckets.blackhole_s, 0.0);
        assert_eq!(attr.buckets.preempted_s, 0.0);
    }

    // Completed transfers must show serving time, and the rendered
    // explanation must confirm the partition for every transfer.
    for attr in &report.transfers {
        assert!(attr.completion_s.is_some());
        assert!(
            attr.buckets.serving_s > 0.0,
            "transfer {} never served",
            attr.id
        );
        let text = render_explain(&report, attr.id).expect("known id renders");
        assert!(
            text.contains("partition,ok"),
            "transfer {}: explain footer broken:\n{text}",
            attr.id
        );
    }

    // worst_slack prefers deadline transfers and ranks by slack.
    let worst = report.worst_slack().expect("non-empty report");
    assert!(worst.slack_s.is_some());
    for attr in &report.transfers {
        if let (Some(w), Some(s)) = (worst.slack_s, attr.slack_s) {
            assert!(w <= s + 1e-9);
        }
    }
}

fn chaos_why_run(seed: u64) -> (owan::chaos::ChaosResult, WhyReport) {
    let net = internet2_testbed();
    let requests = generate(&net, &WorkloadConfig::testbed(0.5, seed));
    let plant = net.plant;
    let config = ChaosConfig {
        slot_len_s: 300.0,
        max_slots: 16,
        // Longer than the horizon: the mid-run fiber cut stays
        // undetected and blackholes live circuits, so the ledger and the
        // blackhole bucket both see real loss.
        detection_delay_s: 400.0,
        ..Default::default()
    };
    let events = seeded_scenario(&plant, seed, 300.0 * 16.0);
    let op_faults = OpFaultModel {
        seed,
        timeout_prob: 0.1,
        fail_prob: 0.05,
    };
    let recorder = Recorder::enabled();
    let probes = Probes {
        why: WhyRecorder::enabled(WhyConfig::default(), &recorder),
        recorder,
        ..Default::default()
    };
    let result = run_chaos_probed(
        &plant,
        &requests,
        &mut restartable_owan(30, seed),
        &config,
        &events,
        &op_faults,
        &probes,
        None,
    )
    .expect("chaos run failed");
    let report = probes
        .why
        .report()
        .expect("enabled why recorder yields a report");
    (result, report)
}

/// The why report's blackhole ledger is computed from the same per-slot
/// samples with the same expression and iteration order the chaos runner
/// uses to book `ChaosStats::blackhole_gbits` — so the two f64 totals
/// must be *identical*, not merely close.
#[test]
fn blackhole_bucket_matches_chaos_ledger_exactly() {
    let (result, report) = chaos_why_run(42);
    assert!(
        result.stats.blackhole_gbits > 0.0,
        "seed 42 must blackhole traffic for this test to bite"
    );
    assert_eq!(
        report.total_blackhole_gbits, result.stats.blackhole_gbits,
        "why ledger diverged from the chaos runner's booking"
    );
    // And the per-transfer buckets still partition under faults.
    assert_partition(&report);
    let blamed: f64 = report.transfers.iter().map(|t| t.buckets.blackhole_s).sum();
    assert!(
        blamed > 0.0,
        "loss booked but no transfer blames a blackhole"
    );
}

/// A disabled why recorder must not change a single simulation outcome,
/// and an enabled one must not either (observe, never perturb).
#[test]
fn why_recorder_is_zero_perturbation() {
    let (net, requests) = isp_deadline_workload(0.6, 8);
    let plain = run_engine(EngineKind::Owan, &net, &requests, &fast_runner(40));
    for why in [
        WhyRecorder::disabled(),
        WhyRecorder::enabled(WhyConfig::default(), &Recorder::enabled()),
    ] {
        let probes = Probes {
            why,
            ..Default::default()
        };
        let explained = run_owan(&net, &requests, &probes);
        assert_eq!(plain.makespan_s, explained.makespan_s);
        assert_eq!(plain.slots, explained.slots);
        assert_eq!(plain.throughput_series, explained.throughput_series);
        for (a, b) in plain.completions.iter().zip(&explained.completions) {
            assert_eq!(a.completion_s, b.completion_s);
        }
    }
}

/// FNV-1a, 64 bit: a stable digest for the golden streams below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A recorder on a clock that never moves, so every ns field of every
/// stream (spans, stage histograms, event timestamps, planning latency)
/// is zero and the streams are byte-deterministic.
fn frozen_recorder() -> Recorder {
    Recorder::with_clock(std::sync::Arc::new(owan::obs::ManualClock::new()))
}

/// Scope and why on, the profiler off (its region shares read wall time).
fn golden_probes(recorder: Recorder, slo: SloConfig) -> Probes {
    let scope = ScopeRecorder::enabled(ScopeConfig {
        flight_slots: 64,
        dump_path: None,
    });
    scope.set_meta("net", "internet2");
    Probes {
        why: WhyRecorder::enabled(WhyConfig { slo }, &recorder),
        recorder,
        scope,
        ..Default::default()
    }
}

/// Every stream the scope and why tiers emit for one run, digested.
fn stream_digests(probes: &Probes, transfers: usize) -> [(&'static str, u64); 7] {
    let snapshot = probes.recorder.snapshot();
    let mut trace = Vec::new();
    probes
        .scope
        .export_chrome_trace(Some(&snapshot), &mut trace)
        .unwrap();
    let mut obs = Vec::new();
    snapshot.write_jsonl(&mut obs).unwrap();
    let report = probes.why.report().expect("why is on");
    let explain: String = (0..transfers)
        .map(|id| render_explain(&report, id).expect("every id renders"))
        .collect();
    let mut tracker = probes.scope.render_transfers().expect("scope is on");
    for id in 0..transfers {
        tracker.push_str(&probes.scope.render_transfer_trace(id).expect("tracked"));
    }
    let dump = probes.scope.dump_text().expect("the run freezes a dump");
    [
        ("flight_dump", fnv1a(dump.as_bytes())),
        ("chrome_trace", fnv1a(&trace)),
        ("obs_jsonl", fnv1a(&obs)),
        ("explain", fnv1a(explain.as_bytes())),
        ("slo", fnv1a(render_slo(&report).as_bytes())),
        ("tracker", fnv1a(tracker.as_bytes())),
        ("blackhole_bits", report.total_blackhole_gbits.to_bits()),
    ]
}

/// Pins, byte for byte, what the scope and why tiers emit for one
/// `simulate_probed` run and one `run_chaos_probed` run on internet2
/// with σ = 1.5 deadlines: the flight dump, the Chrome trace, the obs
/// JSONL, `render_explain` for every transfer, `render_slo`, the
/// tracker's table and per-transfer traces, and the blackhole ledger's
/// bits. The recorder's clock is frozen, so no field reads wall time.
#[test]
fn scope_and_why_streams_are_pinned() {
    let net = internet2_testbed();
    let requests = generate(
        &net,
        &WorkloadConfig::testbed(0.5, 42).with_deadlines(300.0, 1.5),
    );
    // A burn-rate threshold low enough to trip, so the fault-free run
    // freezes a dump too.
    let slo = SloConfig {
        burn_threshold: Some(0.2),
        ..SloConfig::default()
    };

    let probes = golden_probes(frozen_recorder(), slo.clone());
    run_owan(&net, &requests, &probes);
    let sim = stream_digests(&probes, requests.len());

    let config = ChaosConfig {
        slot_len_s: 300.0,
        max_slots: 16,
        detection_delay_s: 400.0,
        ..Default::default()
    };
    let events = seeded_scenario(&net.plant, 42, 300.0 * 16.0);
    let op_faults = OpFaultModel {
        seed: 42,
        timeout_prob: 0.1,
        fail_prob: 0.05,
    };
    let probes = golden_probes(frozen_recorder(), slo);
    run_chaos_probed(
        &net.plant,
        &requests,
        &mut restartable_owan(30, 42),
        &config,
        &events,
        &op_faults,
        &probes,
        None,
    )
    .expect("chaos run failed");
    let chaos = stream_digests(&probes, requests.len());

    assert_eq!(sim, SIM_GOLDEN, "simulate_probed streams moved");
    assert_eq!(chaos, CHAOS_GOLDEN, "run_chaos_probed streams moved");
}

/// The pinned digests: a change that moves one changes what a tier emits.
const SIM_GOLDEN: [(&str, u64); 7] = [
    ("flight_dump", 0x17383d6a7a6482d2),
    ("chrome_trace", 0xac493bb0dfc4f614),
    ("obs_jsonl", 0x830b83e4a55a3522),
    ("explain", 0xed39a6e1d2e00c83),
    ("slo", 0x5301e5f40f55999),
    ("tracker", 0xec3bdd9ba98fc7a2),
    ("blackhole_bits", 0x0),
];

const CHAOS_GOLDEN: [(&str, u64); 7] = [
    ("flight_dump", 0x5a6bd5b6e0cdfecf),
    ("chrome_trace", 0x17d0fedbf4387555),
    ("obs_jsonl", 0x53174fcd00691fef),
    ("explain", 0xd9eed273dc1a6628),
    ("slo", 0x8c6c151b046419c4),
    ("tracker", 0xb245b2775f1189cc),
    ("blackhole_bits", 0x40bbfc3429e710b8),
];
