//! The LP baselines' plans are pinned: SWAN, Tempus, MaxFlow and
//! MaxMinFract over a short seeded ISP controller loop must emit plans
//! the oracle accepts and whose paths and rate *bits* equal what the
//! dense-pivot simplex produced. A solver or LP-builder change that is
//! meant to be a pure speed-up (nonzero-proportional pivots, programs
//! built once a slot) keeps every digest; anything that changes a pivot
//! sequence, a row order or a tie-break moves one.

mod common;

use common::Audited;
use owan::sim::controller::{run_controller, ControllerConfig};
use owan::sim::runner::{make_engine, EngineKind, RunnerConfig};
use owan::topo::isp_backbone;
use owan::workload::{generate, WorkloadConfig};

const SLOT_LEN_S: f64 = 300.0;
const MAX_SLOTS: usize = 12;

fn digest_of(kind: EngineKind) -> u64 {
    let net = isp_backbone(7);
    let mut wl = WorkloadConfig::simulation(0.5, 3).with_deadlines(SLOT_LEN_S, 10.0);
    wl.duration_s = 3_600.0;
    let requests = generate(&net, &wl);
    let cfg = RunnerConfig {
        tunnels_k: 4,
        ..Default::default()
    };
    let mut engine = Audited::new(make_engine(kind, &net, &cfg));
    let result = run_controller(
        &net.plant,
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
        "{kind:?}: {:?}",
        result.plan_error
    );
    assert_eq!(
        engine.planned_slots, MAX_SLOTS,
        "{kind:?} planned every slot"
    );
    assert!(
        engine.allocations >= 100,
        "{kind:?}: only {} allocations — the loop is not exercising the LPs",
        engine.allocations
    );
    engine.digest
}

#[test]
fn lp_baseline_plans_are_oracle_clean_and_bit_pinned() {
    // Recorded with the dense-pivot simplex (the commit before the pivot
    // was made nonzero-proportional).
    for (kind, pinned) in [
        (EngineKind::Swan, 0xe948_d68c_60e3_ed5f_u64),
        (EngineKind::Tempus, 0x13de_8cda_1d0f_3909),
        (EngineKind::MaxFlow, 0x8043_f9ba_4a37_60eb),
        (EngineKind::MaxMinFract, 0x632b_1043_7460_31d2),
    ] {
        let got = digest_of(kind);
        assert_eq!(
            got, pinned,
            "{kind:?} plan digest {got:#018x} != pinned {pinned:#018x}"
        );
    }
}
