//! Owan's plans are pinned: a short seeded controller loop on the ISP
//! backbone (SJF) and on the inter-DC network (moving hotspots, EDF) must
//! emit plans the oracle accepts and whose paths and rate *bits* equal the
//! recorded ones. A change to the annealer or to Algorithm 3 that is meant
//! to be a pure speed-up keeps both digests; anything that moves an accept
//! decision, a circuit, a path or a rate moves one.
//!
//! The loop also accounts for the annealer's work: every iteration either
//! scores a neighbor or takes an identity move (a neighbor equal to the
//! current topology, accepted at the current energy unscored), and each
//! slot's run scores its initial state once. The totals of that work —
//! relay Dijkstras, hop-level BFS passes, rate paths examined, scored and
//! identity moves — are pinned too.

mod common;

use common::Audited;
use owan::core::SchedulingPolicy;
use owan::obs::Recorder;
use owan::sim::controller::{run_controller, ControllerConfig};
use owan::sim::runner::{make_engine, EngineKind, RunnerConfig};
use owan::topo::{inter_dc, isp_backbone, Network};
use owan::workload::{generate, WorkloadConfig};

const SLOT_LEN_S: f64 = 300.0;
const MAX_SLOTS: usize = 6;

/// One pinned loop: the network, its request set and the Owan tunables.
struct Scenario {
    name: &'static str,
    net: Network,
    workload: WorkloadConfig,
    policy: SchedulingPolicy,
    iterations: usize,
    /// The plan digest recorded before the rate rounds 1–2 lost their hop
    /// levels and identity moves their evaluation.
    pinned: u64,
    /// The work the loop does, pinned beside the plans: a change meant as
    /// a pure speed-up runs the same searches and the same BFS passes,
    /// each for less.
    work: Work,
}

/// Exact counter totals of one scenario's loop.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    shortest_path_calls: u64,
    hop_levels: u64,
    paths_examined: u64,
    cache_miss: u64,
    identity_moves: u64,
}

fn isp_sjf() -> Scenario {
    let mut workload = WorkloadConfig::simulation(1.0, 1);
    workload.duration_s = 3_600.0;
    Scenario {
        name: "isp sjf",
        net: isp_backbone(7),
        workload,
        policy: SchedulingPolicy::ShortestJobFirst,
        iterations: 30,
        pinned: 0x097d_3c69_7cb9_4f45,
        work: Work {
            shortest_path_calls: 1_786,
            hop_levels: 9_278,
            paths_examined: 5_068,
            cache_miss: 163,
            identity_moves: 7,
        },
    }
}

fn interdc_edf_hotspots() -> Scenario {
    let mut workload = WorkloadConfig::simulation(1.5, 1)
        .with_hotspots()
        .with_deadlines(SLOT_LEN_S, 10.0);
    workload.duration_s = 3_600.0;
    Scenario {
        name: "interdc edf hotspots",
        net: inter_dc(7),
        workload,
        policy: SchedulingPolicy::EarliestDeadlineFirst,
        iterations: 60,
        pinned: 0xcc89_f051_6597_25fb,
        work: Work {
            shortest_path_calls: 1_340,
            hop_levels: 7_107,
            paths_examined: 8_853,
            cache_miss: 259,
            identity_moves: 61,
        },
    }
}

/// Runs `s` and returns its plan digest and its recorder.
fn run(s: &Scenario) -> (u64, Recorder) {
    let requests = generate(&s.net, &s.workload);
    let cfg = RunnerConfig {
        anneal_iterations: s.iterations,
        seed: 1,
        policy: s.policy,
        ..Default::default()
    };
    let recorder = Recorder::enabled();
    let mut inner = make_engine(EngineKind::Owan, &s.net, &cfg);
    inner.set_recorder(recorder.clone());
    let mut engine = Audited::new(inner);
    let result = run_controller(
        &s.net.plant,
        &requests,
        &mut engine,
        &ControllerConfig {
            slot_len_s: SLOT_LEN_S,
            max_slots: MAX_SLOTS,
            ..Default::default()
        },
    );
    assert!(
        result.plan_error.is_none(),
        "{}: {:?}",
        s.name,
        result.plan_error
    );
    assert_eq!(engine.planned_slots, MAX_SLOTS, "{}: every slot", s.name);
    assert!(
        engine.allocations >= 50,
        "{}: only {} allocations — the loop is not exercising the rate step",
        s.name,
        engine.allocations
    );
    (engine.digest, recorder)
}

#[test]
fn owan_plans_are_oracle_clean_and_bit_pinned() {
    for s in [isp_sjf(), interdc_edf_hotspots()] {
        let (got, recorder) = run(&s);
        assert_eq!(
            got, s.pinned,
            "{}: plan digest {got:#018x} != pinned {:#018x}",
            s.name, s.pinned
        );

        let snap = recorder.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let (evals, identity) = (
            counter("anneal.cache_miss"),
            counter("anneal.identity_moves"),
        );
        assert_eq!(
            evals + identity,
            counter("anneal.iterations") + MAX_SLOTS as u64,
            "{}: an iteration scores a neighbor or takes an identity move",
            s.name
        );
        assert!(identity > 0, "{}: the loop draws identity moves", s.name);
        assert!(
            counter("rates.hop_levels") > 0,
            "{}: rounds ≥ 3 ran",
            s.name
        );
        let work = Work {
            shortest_path_calls: counter("circuits.shortest_path_calls"),
            hop_levels: counter("rates.hop_levels"),
            paths_examined: counter("rates.paths_examined"),
            cache_miss: evals,
            identity_moves: identity,
        };
        assert_eq!(work, s.work, "{}: the loop's work moved", s.name);
    }
}
