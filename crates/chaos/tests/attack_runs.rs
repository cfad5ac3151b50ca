//! End-to-end adversarial runs: coremelt and flash-crowd waves composed
//! with fault timelines, driven through the hardened controller, with
//! recovery measured against the fault-free baseline.

use owan_chaos::{run_attack, AttackTimeline, ChaosConfig, FaultEvent, FaultKind, OpFaultModel};
use owan_core::{default_topology, OwanConfig, OwanEngine, TrafficEngineer, TransferRequest};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_sim::Probes;
use owan_workload::attack::{coremelt, flash_crowd, CoremeltConfig, FlashCrowdConfig};
use owan_workload::{generate, WorkloadConfig};

fn testbed() -> owan_topo::Network {
    owan_topo::internet2_testbed()
}

fn background(net: &owan_topo::Network) -> Vec<TransferRequest> {
    let mut cfg = WorkloadConfig::testbed(0.4, 42);
    cfg.duration_s = 1_800.0;
    generate(net, &cfg).into_iter().take(10).collect()
}

fn make_factory() -> impl FnMut(&FiberPlant) -> Box<dyn TrafficEngineer> {
    |p: &FiberPlant| {
        let cfg = OwanConfig {
            anneal: owan_core::AnnealConfig {
                max_iterations: 40,
                seed: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        Box::new(OwanEngine::new(default_topology(p), cfg)) as Box<dyn TrafficEngineer>
    }
}

fn config(max_slots: usize) -> ChaosConfig {
    ChaosConfig {
        slot_len_s: 300.0,
        max_slots,
        detection_delay_s: 30.0,
        ..Default::default()
    }
}

#[test]
fn coremelt_run_tracks_background_and_victims() {
    let net = testbed();
    let bg = background(&net);
    let mut cm = CoremeltConfig::new(5, 600.0, 1_200.0);
    cm.intensity = 0.8;
    let timeline = AttackTimeline::new(vec![coremelt(&net.plant, &cm)]);
    let probes = Probes {
        recorder: Recorder::enabled(),
        ..Default::default()
    };
    let mut factory = make_factory();
    let outcome = run_attack(
        &net.plant,
        &bg,
        &timeline,
        &mut factory,
        &config(24),
        0.9,
        &[],
        &OpFaultModel::none(),
        &probes,
        None,
    )
    .expect("attack run");

    // Background accounting: the attacked run's background series must
    // never exceed its full delivered series, and the baseline carries
    // no attack traffic at all.
    for (bgs, all) in outcome
        .attacked
        .background_series
        .iter()
        .zip(&outcome.attacked.delivered_series)
    {
        assert!(bgs.1 <= all.1 + 1e-9);
    }
    assert_eq!(
        outcome.baseline.background_gbits,
        outcome.baseline.delivered_gbits
    );
    assert!(outcome.metrics.injected_gbits > 0.0);
    assert!(outcome.metrics.peak_victim_util > 0.0, "victims saw load");
    assert_eq!(outcome.metrics.onset_slot, 2);

    let snap = probes.recorder.snapshot();
    assert_eq!(snap.counters.get("chaos.attack.waves"), Some(&1));
    assert!(snap.counters.get("chaos.attack.injected_gbits").copied() > Some(0));
    assert!(snap.counters.get("chaos.attack.victim_links").copied() > Some(0));
    assert!(snap.counters.contains_key("chaos.attack.active_slots"));
}

#[test]
fn flash_crowd_composes_with_a_fiber_cut() {
    let net = testbed();
    let bg = background(&net);
    let mut fc = FlashCrowdConfig::new(9, 600.0);
    fc.sources = 3;
    let timeline = AttackTimeline::new(vec![flash_crowd(&net.plant, &fc)]);
    let events = vec![
        FaultEvent::at(900.0, FaultKind::FiberCut(0)),
        FaultEvent::at(1_800.0, FaultKind::FiberRepaired(0)),
    ];
    let mut factory = make_factory();
    let outcome = run_attack(
        &net.plant,
        &bg,
        &timeline,
        &mut factory,
        &config(24),
        0.9,
        &events,
        &OpFaultModel::none(),
        &Probes::default(),
        None,
    )
    .expect("attack+fault run");
    assert!(outcome.attacked.stats.faults_detected >= 2);
    assert!(outcome.attacked.background_gbits > 0.0);
    // Every background transfer is small enough to finish inside the
    // horizon even under the surge; residual loss stays bounded.
    assert!(
        outcome.metrics.residual_loss_gbits <= outcome.baseline.delivered_gbits,
        "loss cannot exceed the baseline"
    );
}

#[test]
fn attack_runs_are_deterministic_per_seed() {
    let net = testbed();
    let bg = background(&net);
    let timeline = AttackTimeline::new(vec![
        coremelt(&net.plant, &CoremeltConfig::new(5, 600.0, 1_200.0)),
        flash_crowd(&net.plant, &FlashCrowdConfig::new(5, 900.0)),
    ]);
    let run = || {
        let mut factory = make_factory();
        run_attack(
            &net.plant,
            &bg,
            &timeline,
            &mut factory,
            &config(20),
            0.9,
            &[],
            &OpFaultModel::none(),
            &Probes::default(),
            None,
        )
        .expect("attack run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.attacked.delivered_series, b.attacked.delivered_series);
    assert_eq!(a.attacked.background_series, b.attacked.background_series);
    assert_eq!(a.attacked.victim_util_series, b.attacked.victim_util_series);
    assert_eq!(a.metrics, b.metrics);
}
