//! Telemetry must observe, never perturb: recording a run may not change
//! a single planning decision, and the recorder's own primitives must
//! measure exactly what the injected clock says.

use std::sync::Arc;

use owan::core::engine::{OwanConfig, OwanEngine, SlotInput, TrafficEngineer};
use owan::core::types::Transfer;
use owan::core::AnnealConfig;
use owan::obs::{ManualClock, Recorder};
use owan::sim::runner::{make_engine, run_engine, EngineKind, RunnerConfig};
use owan::sim::{simulate_probed, Probes, SimConfig};
use owan::topo::internet2_testbed;
use owan::why::{WhyConfig, WhyRecorder};
use owan::workload::{generate, WorkloadConfig};

fn small_workload() -> (owan::topo::Network, Vec<owan::core::TransferRequest>) {
    let net = internet2_testbed();
    let mut cfg = WorkloadConfig::testbed(0.5, 7);
    cfg.duration_s = 1_200.0;
    let requests: Vec<_> = generate(&net, &cfg).into_iter().take(6).collect();
    (net, requests)
}

fn fast_runner() -> RunnerConfig {
    RunnerConfig {
        sim: SimConfig {
            slot_len_s: 300.0,
            max_slots: 200,
            ..Default::default()
        },
        anneal_iterations: 50,
        seed: 11,
        ..Default::default()
    }
}

/// The Owan engine, slot by slot: a recording recorder and the no-op
/// recorder must produce bit-identical `SlotPlan`s from the same seed.
#[test]
fn recording_does_not_change_slot_plans() {
    let (net, requests) = small_workload();
    let owan_cfg = OwanConfig {
        anneal: AnnealConfig {
            max_iterations: 50,
            seed: 11,
            ..Default::default()
        },
        ..Default::default()
    };
    let initial = net.static_topology.clone();
    let mut observed = OwanEngine::new(initial.clone(), owan_cfg);
    observed.set_recorder(Recorder::enabled());
    let mut plain = OwanEngine::new(initial, owan_cfg);

    let transfers: Vec<Transfer> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| Transfer::from_request(id, r))
        .collect();
    for slot in 0..4 {
        let input = SlotInput {
            transfers: &transfers,
            slot_len_s: 300.0,
            now_s: slot as f64 * 300.0,
        };
        let a = observed.plan_slot(&net.plant, &input);
        let b = plain.plan_slot(&net.plant, &input);
        assert_eq!(a, b, "slot {slot} diverged under telemetry");
    }

    // The LP baselines count their LP work per slot and emit it only when
    // someone listens; listening must not move a rate either.
    for kind in [EngineKind::Swan, EngineKind::Tempus] {
        let recorder = Recorder::enabled();
        let mut observed = make_engine(kind, &net, &fast_runner());
        observed.set_recorder(recorder.clone());
        let mut plain = make_engine(kind, &net, &fast_runner());
        for slot in 0..4 {
            let input = SlotInput {
                transfers: &transfers,
                slot_len_s: 300.0,
                now_s: slot as f64 * 300.0,
            };
            let a = observed.plan_slot(&net.plant, &input);
            let b = plain.plan_slot(&net.plant, &input);
            assert_eq!(a, b, "{kind:?} slot {slot} diverged under telemetry");
        }
        let counters = recorder.snapshot().counters;
        // SWAN: five bounded LPs a slot; Tempus: the fraction LP and the
        // volume LP.
        let per_slot = if kind == EngineKind::Swan { 5 } else { 2 };
        assert_eq!(counters["lp.solves"], 4 * per_slot, "{kind:?}");
        assert!(counters["lp.pivots"] >= counters["lp.solves"], "{kind:?}");
        assert!(counters["lp.rows"] > counters["lp.solves"], "{kind:?}");
    }
}

/// Whole-run determinism on Internet2: same seed, recording vs. no-op
/// recorder, identical results (the telemetry field aside).
#[test]
fn recording_does_not_change_simulation_results() {
    let (net, requests) = small_workload();
    let cfg = fast_runner();
    let probes = Probes {
        recorder: Recorder::enabled(),
        ..Default::default()
    };
    let mut engine = make_engine(EngineKind::Owan, &net, &cfg);
    let observed = simulate_probed(&net.plant, &requests, engine.as_mut(), &cfg.sim, &probes);
    let recorder = probes.recorder;
    let plain = run_engine(EngineKind::Owan, &net, &requests, &cfg);

    assert_eq!(observed.completions, plain.completions);
    assert_eq!(observed.throughput_series, plain.throughput_series);
    assert_eq!(observed.makespan_s, plain.makespan_s);
    assert_eq!(observed.slots, plain.slots);
    assert!(plain.telemetry.is_none());

    // The observed run carries one slot record per planned slot, with the
    // stage splits nested inside the measured planning time and one row
    // per active transfer.
    let rows = observed.telemetry.as_ref().expect("telemetry rows");
    assert_eq!(rows.len(), observed.throughput_series.len());
    for (slot, row) in rows.iter().enumerate() {
        assert_eq!(row.slot, slot);
        assert!(row.anneal_ns <= row.plan_ns, "{row:?}");
        assert!(row.circuits_ns + row.rates_ns <= row.anneal_ns, "{row:?}");
        assert_eq!(
            (row.now_s, row.throughput_gbps),
            observed.throughput_series[row.slot]
        );
        assert_eq!(row.by_id().len(), row.active_transfers, "{row:?}");
    }
    // And the recorder saw the whole pipeline.
    let snap = recorder.snapshot();
    for stage in [
        "stage.slot",
        "stage.anneal",
        "stage.circuits",
        "stage.rates",
        "stage.update",
    ] {
        assert!(
            snap.counters
                .get(&format!("{stage}.calls"))
                .copied()
                .unwrap_or(0)
                > 0,
            "{stage} never ran"
        );
    }
    assert!(snap.counters["anneal.iterations"] > 0);
}

/// One run with the recorder and the why recorder on: the result's
/// per-slot telemetry and the why report's records are the same records.
#[test]
fn telemetry_and_why_records_are_one_shape() {
    let (net, requests) = small_workload();
    let cfg = fast_runner();
    let recorder = Recorder::with_clock(Arc::new(ManualClock::new()));
    let probes = Probes {
        why: WhyRecorder::enabled(WhyConfig::default(), &recorder),
        recorder,
        ..Default::default()
    };
    let mut engine = make_engine(EngineKind::Owan, &net, &cfg);
    let result = simulate_probed(&net.plant, &requests, engine.as_mut(), &cfg.sim, &probes);
    let telemetry = result.telemetry.expect("the recorder is on");
    assert!(!telemetry.is_empty());
    assert_eq!(telemetry, probes.why.report().expect("why is on").records);
}

/// Span nesting under a [`ManualClock`]: a parent span's duration covers
/// its children plus its own time; `cancel` discards a span entirely.
#[test]
fn manual_clock_span_nesting() {
    let clock = Arc::new(ManualClock::new());
    let recorder = Recorder::with_clock(clock.clone());
    let parent = recorder.stage("parent");
    let child = recorder.stage("child");

    {
        let _outer = parent.enter();
        clock.advance_ns(5_000_000);
        {
            let _inner = child.enter();
            clock.advance_ns(2_000_000);
        }
        clock.advance_ns(1_000_000);
    }
    child.enter().cancel();

    assert_eq!(child.total_ns(), 2_000_000);
    assert_eq!(parent.total_ns(), 8_000_000);
    let snap = recorder.snapshot();
    assert_eq!(snap.counters["parent.calls"], 1);
    assert_eq!(
        snap.counters["child.calls"], 1,
        "cancelled span must not count"
    );
}

/// Histogram bucket boundaries are inclusive on the upper bound, with one
/// overflow bucket past the last bound.
#[test]
fn histogram_bucket_boundaries() {
    let recorder = Recorder::enabled();
    let hist = recorder.histogram("lat", &[1.0, 10.0]);
    hist.observe(0.5); // <= 1.0
    hist.observe(1.0); // boundary: still the first bucket
    hist.observe(1.0 + 1e-9); // > 1.0: second bucket
    hist.observe(10.0); // boundary: second bucket
    hist.observe(11.0); // overflow
    let snap = recorder.snapshot().histograms["lat"].clone();
    assert_eq!(snap.counts, vec![2, 2, 1]);
    assert_eq!(snap.total, 5);
    assert!((snap.sum - 23.5).abs() < 1e-6);
    assert!((snap.mean() - 4.7).abs() < 1e-6);
}

/// Every exported line is a self-contained JSON object (checked
/// structurally: object delimiters, quoting, and no raw control bytes —
/// CI parses the CLI's export with a real JSON parser on top of this).
#[test]
fn jsonl_export_is_line_structured() {
    let recorder = Recorder::enabled();
    recorder.counter("c").add(3);
    recorder.gauge("g").set(2.5);
    recorder.histogram("h", &[1.0]).observe(0.5);
    recorder.event("e", &[("msg", "with \"quotes\" and\nnewline".into())]);
    let mut out: Vec<u8> = Vec::new();
    recorder.snapshot().write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    for line in lines {
        assert!(line.starts_with("{\"type\":\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(
            line.bytes().all(|b| b >= 0x20),
            "control byte leaked unescaped: {line:?}"
        );
        let quotes = line.chars().filter(|&c| c == '"').count();
        assert_eq!(quotes % 2, 0, "unbalanced quotes: {line}");
    }
}
