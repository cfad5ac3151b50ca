//! Failure recovery (§3.4): a fiber cut mid-transfer. The controller
//! removes the failed fiber from its physical-network view and recomputes
//! the network state; because Owan re-optimizes the optical layer every
//! slot, the transfers reroute over surviving fibers.
//!
//! The run goes through `run_chaos`, the workspace's failure loop, with
//! the cut detected the instant it strikes and no update-op faults: the
//! plain controller of §3.4.
//!
//! Run with: `cargo run --release --example failure_recovery`

use owan::chaos::{run_chaos, ChaosConfig, FaultEvent, FaultKind, OpFaultModel};
use owan::core::{default_topology, OwanConfig, OwanEngine, TrafficEngineer, TransferRequest};
use owan::obs::Recorder;
use owan::optical::FiberPlant;
use owan::topo::internet2_wan;

fn main() {
    let net = internet2_wan();
    let plant = &net.plant;
    let seat = plant.site_by_name("SEAT").unwrap();
    let kans = plant.site_by_name("KANS").unwrap();

    // A large backup from SEAT to KANS — big enough (62.5 TB) to span the
    // failure: SEAT's two 100 Gbps ports need ~42 minutes.
    let requests = vec![TransferRequest {
        src: seat,
        dst: kans,
        volume_gbits: 500_000.0,
        arrival_s: 0.0,
        deadline_s: None,
    }];

    // Cut the SEAT-SALT fiber twenty minutes in.
    let cut = plant
        .fibers()
        .iter()
        .position(|f| (f.a == seat || f.b == seat) && (plant.site(f.other(seat)).name == "SALT"))
        .expect("SEAT-SALT fiber exists");
    let events = [FaultEvent::at(1_200.0, FaultKind::FiberCut(cut))];

    let mut make_engine = |p: &FiberPlant| -> Box<dyn TrafficEngineer> {
        Box::new(OwanEngine::new(default_topology(p), OwanConfig::default()))
    };
    let config = ChaosConfig {
        slot_len_s: 300.0,
        detection_delay_s: 0.0,
        ..Default::default()
    };
    let result = run_chaos(
        plant,
        &requests,
        &mut make_engine,
        &config,
        &events,
        &OpFaultModel::none(),
        &Recorder::disabled(),
        None,
    )
    .expect("no audit, no abort");

    println!("fiber SEAT-SALT cut at t=1200 s");
    for (t, gbits) in &result.delivered_series {
        println!(
            "t={t:>6.0}s  delivered {:>7.1} Gbps",
            gbits / config.slot_len_s
        );
    }
    match result.completions[0].completion_s {
        Some(t) => println!("\nbackup completed at t={t:.0} s despite the cut"),
        None => println!("\nbackup did NOT complete"),
    }
    assert!(result.all_completed(), "Owan must reroute around the cut");
}
