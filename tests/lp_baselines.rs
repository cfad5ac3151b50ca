//! The LP baselines' plans are pinned: SWAN, Tempus, MaxFlow and
//! MaxMinFract over a short seeded ISP controller loop must emit plans
//! the oracle accepts and whose paths and rate *bits* equal what the
//! dense-pivot simplex produced. A solver or LP-builder change that is
//! meant to be a pure speed-up (nonzero-proportional pivots, programs
//! built once a slot) keeps every digest; anything that changes a pivot
//! sequence, a row order or a tie-break moves one.

use owan::core::{SlotInput, SlotPlan, TrafficEngineer};
use owan::optical::FiberPlant;
use owan::oracle::check_plan;
use owan::sim::controller::{run_controller, ControllerConfig};
use owan::sim::runner::{make_engine, EngineKind, RunnerConfig};
use owan::topo::isp_backbone;
use owan::workload::{generate, WorkloadConfig};

const SLOT_LEN_S: f64 = 300.0;
const MAX_SLOTS: usize = 12;

/// Audits and digests every plan on its way back to the controller.
struct Audited {
    inner: Box<dyn TrafficEngineer>,
    /// FNV-1a over each plan's allocations: transfer, path sites, and the
    /// exact bits of every rate, chained across slots.
    digest: u64,
    planned_slots: usize,
    allocations: usize,
}

impl Audited {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl TrafficEngineer for Audited {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan_slot(&mut self, plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let plan = self.inner.plan_slot(plant, input);
        check_plan(plant, input.transfers, input.slot_len_s, &plan).unwrap_or_else(|v| {
            panic!(
                "{} slot at {} s violates the oracle: {v}",
                self.inner.name(),
                input.now_s
            )
        });
        for a in &plan.allocations {
            self.word(a.transfer as u64);
            for (path, rate) in &a.paths {
                for &s in path {
                    self.word(s as u64);
                }
                self.word(rate.to_bits());
            }
        }
        self.word(u64::MAX);
        self.planned_slots += 1;
        self.allocations += plan.allocations.len();
        plan
    }
}

fn digest_of(kind: EngineKind) -> u64 {
    let net = isp_backbone(7);
    let mut wl = WorkloadConfig::simulation(0.5, 3).with_deadlines(SLOT_LEN_S, 10.0);
    wl.duration_s = 3_600.0;
    let requests = generate(&net, &wl);
    let cfg = RunnerConfig {
        tunnels_k: 4,
        ..Default::default()
    };
    let mut engine = Audited {
        inner: make_engine(kind, &net, &cfg),
        digest: 0xcbf2_9ce4_8422_2325,
        planned_slots: 0,
        allocations: 0,
    };
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
