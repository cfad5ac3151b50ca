//! End-to-end chaos runs: the hardened controller against cuts, repairs,
//! degradation, op faults, and crashes.

use owan_chaos::{
    run_chaos, seeded_scenario, ChaosConfig, ChaosResult, FaultEvent, FaultKind, OpFaultModel,
};
use owan_core::{default_topology, OwanConfig, OwanEngine, TrafficEngineer, TransferRequest};
use owan_obs::Recorder;
use owan_optical::{FiberPlant, OpticalParams};
use owan_update::RetryPolicy;

fn plant() -> FiberPlant {
    let params = OpticalParams {
        wavelength_capacity_gbps: 10.0,
        wavelengths_per_fiber: 8,
        circuit_reconfig_time_s: 4.0,
        ..Default::default()
    };
    let mut p = FiberPlant::new(params);
    for i in 0..5 {
        p.add_site(&format!("S{i}"), 3, 1);
    }
    for i in 0..5 {
        p.add_fiber(i, (i + 1) % 5, 250.0);
    }
    // A chord so a single cut never partitions the plant.
    p.add_fiber(0, 2, 400.0);
    p
}

fn requests() -> Vec<TransferRequest> {
    vec![
        TransferRequest {
            src: 0,
            dst: 2,
            volume_gbits: 60_000.0,
            arrival_s: 0.0,
            deadline_s: None,
        },
        TransferRequest {
            src: 1,
            dst: 3,
            volume_gbits: 40_000.0,
            arrival_s: 0.0,
            deadline_s: None,
        },
        TransferRequest {
            src: 4,
            dst: 2,
            volume_gbits: 30_000.0,
            arrival_s: 600.0,
            deadline_s: None,
        },
    ]
}

fn make_factory() -> impl FnMut(&FiberPlant) -> Box<dyn TrafficEngineer> {
    |p: &FiberPlant| {
        Box::new(OwanEngine::new(default_topology(p), OwanConfig::default()))
            as Box<dyn TrafficEngineer>
    }
}

fn config() -> ChaosConfig {
    ChaosConfig {
        slot_len_s: 300.0,
        max_slots: 200,
        detection_delay_s: 30.0,
        ..Default::default()
    }
}

fn run(events: &[FaultEvent], faults: &OpFaultModel) -> ChaosResult {
    let mut factory = make_factory();
    run_chaos(
        &plant(),
        &requests(),
        &mut factory,
        &config(),
        events,
        faults,
        &Recorder::disabled(),
        None,
    )
    .expect("chaos run")
}

#[test]
fn quiet_run_completes_everything() {
    let res = run(&[], &OpFaultModel::none());
    assert!(res.all_completed(), "completions: {:?}", res.completions);
    assert_eq!(res.stats.crashes, 0);
    assert_eq!(res.stats.op_aborts, 0);
    assert_eq!(res.stats.blackhole_paths, 0);
}

#[test]
fn cut_plus_repair_still_completes() {
    let events = vec![
        FaultEvent::at(100.0, FaultKind::FiberCut(1)),
        FaultEvent::at(400.0, FaultKind::FiberRepaired(1)),
    ];
    let res = run(&events, &OpFaultModel::none());
    assert!(res.all_completed(), "completions: {:?}", res.completions);
    assert!(res.stats.faults_detected >= 2);
}

#[test]
fn mixed_seeded_scenario_completes_with_surviving_endpoints() {
    // The acceptance scenario: cut + amp degradation + op faults +
    // controller crash + repairs, all from one seed.
    let p = plant();
    let mut events = seeded_scenario(&p, 0xC4A05, 1_500.0);
    // Keep endpoints alive: drop any site-down of a transfer endpoint.
    let endpoints = [0usize, 1, 2, 3, 4];
    events.retain(|e| match e.kind {
        FaultKind::SiteDown(s) | FaultKind::SiteUp(s) => !endpoints.contains(&s),
        _ => true,
    });
    let faults = OpFaultModel {
        seed: 0xC4A05,
        timeout_prob: 0.08,
        fail_prob: 0.05,
    };
    let res = run(&events, &faults);
    assert!(res.all_completed(), "completions: {:?}", res.completions);
    assert!(res.stats.crashes >= 1, "stats: {:?}", res.stats);
    assert!(res.stats.faults_detected >= 2, "stats: {:?}", res.stats);
}

#[test]
fn chaos_run_is_deterministic() {
    let p = plant();
    let events = seeded_scenario(&p, 7, 1_500.0);
    let faults = OpFaultModel {
        seed: 7,
        timeout_prob: 0.1,
        fail_prob: 0.1,
    };
    let a = run(&events, &faults);
    let b = run(&events, &faults);
    assert_eq!(a.delivered_series, b.delivered_series);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.makespan_s, b.makespan_s);
    let ca: Vec<_> = a.completions.iter().map(|c| c.completion_s).collect();
    let cb: Vec<_> = b.completions.iter().map(|c| c.completion_s).collect();
    assert_eq!(ca, cb);
}

#[test]
fn op_faults_delay_but_do_not_strand() {
    let faults = OpFaultModel {
        seed: 3,
        timeout_prob: 0.25,
        fail_prob: 0.15,
    };
    let clean = run(&[], &OpFaultModel::none());
    let faulty = run(&[], &faults);
    assert!(
        faulty.all_completed(),
        "completions: {:?}",
        faulty.completions
    );
    assert!(
        faulty.stats.op_retries > 0 || faulty.stats.op_timeouts > 0,
        "stats: {:?}",
        faulty.stats
    );
    assert!(faulty.makespan_s + 1e-6 >= clean.makespan_s);
}

#[test]
fn undetected_cut_blackholes_traffic() {
    // Cut strikes mid-slot; detection takes two full slots, so at least
    // one slot runs dark paths.
    let cfg = ChaosConfig {
        slot_len_s: 300.0,
        max_slots: 200,
        detection_delay_s: 600.0,
        ..Default::default()
    };
    // Cut both ways out of site 0's likely paths (ring edge 0–1 and the
    // 0–2 chord); 4–0 survives so everything still completes once the
    // cuts are detected and the controller replans.
    let events = vec![
        FaultEvent::at(350.0, FaultKind::FiberCut(0)),
        FaultEvent::at(350.0, FaultKind::FiberCut(5)),
    ];
    let mut factory = make_factory();
    let res = run_chaos(
        &plant(),
        &requests(),
        &mut factory,
        &cfg,
        &events,
        &OpFaultModel::none(),
        &Recorder::disabled(),
        None,
    )
    .expect("chaos run");
    assert!(
        res.stats.blackhole_paths > 0,
        "expected blackholed paths, stats: {:?}",
        res.stats
    );
    assert!(res.stats.blackhole_gbits > 0.0);
    assert!(res.all_completed(), "completions: {:?}", res.completions);
}

#[test]
fn crash_restart_recovers_and_counts() {
    let events = vec![FaultEvent::at(700.0, FaultKind::ControllerCrash)];
    let res = run(&events, &OpFaultModel::none());
    assert_eq!(res.stats.crashes, 1);
    assert!(res.all_completed(), "completions: {:?}", res.completions);
}

#[test]
fn dead_endpoint_waits_for_site_up() {
    let events = vec![
        FaultEvent::at(200.0, FaultKind::SiteDown(3)),
        FaultEvent::at(1_400.0, FaultKind::SiteUp(3)),
    ];
    let res = run(&events, &OpFaultModel::none());
    // Transfer 1 targets site 3: it must still finish, after the repair.
    let rec = &res.completions[1];
    assert!(
        rec.completion_s.is_some(),
        "completions: {:?}",
        res.completions
    );
    assert!(res.all_completed());
}

#[test]
fn counters_land_on_recorder() {
    let rec = Recorder::enabled();
    let p = plant();
    let events = seeded_scenario(&p, 11, 1_500.0);
    let faults = OpFaultModel {
        seed: 11,
        timeout_prob: 0.15,
        fail_prob: 0.1,
    };
    let mut factory = make_factory();
    let res = run_chaos(
        &p,
        &requests(),
        &mut factory,
        &config(),
        &events,
        &faults,
        &rec,
        None,
    )
    .expect("chaos run");
    let snap = rec.snapshot();
    assert_eq!(
        snap.counters
            .get("chaos.faults_detected")
            .copied()
            .unwrap_or(0),
        res.stats.faults_detected
    );
    assert_eq!(
        snap.counters.get("chaos.crashes").copied().unwrap_or(0),
        res.stats.crashes
    );
    assert_eq!(
        snap.counters.get("chaos.op_timeouts").copied().unwrap_or(0),
        res.stats.op_timeouts
    );
}

#[test]
fn audit_hook_sees_every_planned_slot_and_can_abort() {
    let mut factory = make_factory();
    let mut seen = 0usize;
    let mut hook = |a: &owan_chaos::SlotAudit| {
        assert!(a.believed_plant.site_count() == 5);
        assert!(a.slot_len_s > 0.0);
        seen += 1;
        Ok(())
    };
    let res = run_chaos(
        &plant(),
        &requests(),
        &mut factory,
        &config(),
        &[],
        &OpFaultModel::none(),
        &Recorder::disabled(),
        Some(&mut hook),
    )
    .expect("chaos run");
    assert_eq!(seen, res.slots);

    let mut factory = make_factory();
    let mut failing = |_: &owan_chaos::SlotAudit| Err("boom".to_string());
    let err = run_chaos(
        &plant(),
        &requests(),
        &mut factory,
        &config(),
        &[],
        &OpFaultModel::none(),
        &Recorder::disabled(),
        Some(&mut failing),
    )
    .unwrap_err();
    assert!(err.contains("boom"), "{err}");
}

#[test]
fn retry_policy_backoff_is_used() {
    // Drive the retry path hard enough that timeouts stretch makespan.
    let faults = OpFaultModel {
        seed: 5,
        timeout_prob: 0.6,
        fail_prob: 0.0,
    };
    let cfg = ChaosConfig {
        retry: RetryPolicy {
            max_retries: 4,
            ..Default::default()
        },
        max_slots: 300,
        ..config()
    };
    let mut factory = make_factory();
    let res = run_chaos(
        &plant(),
        &requests(),
        &mut factory,
        &cfg,
        &[],
        &faults,
        &Recorder::disabled(),
        None,
    )
    .expect("chaos run");
    assert!(res.stats.op_timeouts > 0);
    assert!(res.all_completed(), "completions: {:?}", res.completions);
}

/// The plain §3.4 controller: zero detection delay, no op faults.
fn run_plain(requests: &[TransferRequest], events: &[FaultEvent], max_slots: usize) -> ChaosResult {
    let cfg = ChaosConfig {
        slot_len_s: 100.0,
        max_slots,
        detection_delay_s: 0.0,
        ..Default::default()
    };
    run_chaos(
        &plant(),
        requests,
        &mut make_factory(),
        &cfg,
        events,
        &OpFaultModel::none(),
        &Recorder::disabled(),
        None,
    )
    .expect("chaos run")
}

#[test]
fn permanently_dead_destination_stops_the_run_early() {
    let requests = [TransferRequest {
        src: 0,
        dst: 2,
        volume_gbits: 100_000.0,
        arrival_s: 0.0,
        deadline_s: None,
    }];
    let events = [FaultEvent::at(0.0, FaultKind::SiteDown(2))];
    let res = run_plain(&requests, &events, 50);
    assert!(!res.all_completed());
    assert!(
        res.delivered_series.len() < 50,
        "the loop stops once every fault landed and nothing can move, \
         instead of spinning to max_slots: {} slots",
        res.delivered_series.len()
    );
}

#[test]
fn amp_degradation_alone_still_drains() {
    let requests = [TransferRequest {
        src: 0,
        dst: 2,
        volume_gbits: 20_000.0,
        arrival_s: 0.0,
        deadline_s: None,
    }];
    let events = [FaultEvent::at(
        150.0,
        FaultKind::AmpDegraded {
            fiber: 0,
            usable: 1,
        },
    )];
    let res = run_plain(&requests, &events, 200);
    assert!(res.all_completed(), "completions: {:?}", res.completions);
    assert_eq!(res.stats.faults_detected, 1);
    assert_eq!(res.stats.fallback_slots, 0);
}
