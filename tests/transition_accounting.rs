//! The update step's accounting, pinned bit for bit.
//!
//! Every slot after the first ends with the §3.3 update: delta → schedule →
//! transition timeline → `(scale, loss)`. The numbers that come out of it —
//! `transition_loss_gbits`, `update_ops`, `makespan_s` and the delivered
//! volume of every slot — are plan-quality outputs, so a change to how the
//! update step *computes* must leave them where they were. The constants
//! below are `f64::to_bits` of a seeded `run_controller` on the ISP
//! (consistent and one-shot) and of a seeded `run_chaos` (which integrates
//! the *executed* plan: retries late, aborted ops absent). They were
//! captured at commit bc4791f, before the update step moved to dense
//! indices; CI also runs this suite in release, where the benchmark runs.
//!
//! On a mismatch the failure prints the run's actual values as Rust source.

use owan::chaos::{run_chaos, seeded_scenario, ChaosConfig, OpFaultModel};
use owan::core::{
    default_topology, AnnealConfig, OwanConfig, OwanEngine, TrafficEngineer, TransferRequest,
};
use owan::obs::Recorder;
use owan::optical::FiberPlant;
use owan::sim::{
    make_engine, run_controller, ControllerConfig, EngineKind, RunnerConfig, UpdateDiscipline,
};
use owan::topo::{isp_backbone, Network};
use owan::workload::{generate, WorkloadConfig};

const SLOT_LEN_S: f64 = 300.0;
const ITERATIONS: usize = 10;
const SEED: u64 = 5;

/// What a run's update accounting came to, as bits.
#[derive(Debug, PartialEq)]
struct Accounting {
    transition_loss_gbits: u64,
    update_ops: usize,
    makespan_s: u64,
    delivered_series: Vec<u64>,
}

impl Accounting {
    fn of(loss: f64, update_ops: usize, makespan_s: f64, series: &[(f64, f64)]) -> Self {
        Accounting {
            transition_loss_gbits: loss.to_bits(),
            update_ops,
            makespan_s: makespan_s.to_bits(),
            delivered_series: series.iter().map(|&(_, g)| g.to_bits()).collect(),
        }
    }

    fn assert_is(&self, want: &Accounting, what: &str) {
        assert!(
            self == want,
            "{what}: the update step's accounting moved; the run now gives\n{}",
            self.as_source()
        );
    }

    fn as_source(&self) -> String {
        let series: Vec<String> = self
            .delivered_series
            .iter()
            .map(|b| format!("        {b:#018x},\n"))
            .collect();
        format!(
            "Accounting {{\n    transition_loss_gbits: {:#018x}, // {}\n    update_ops: {},\n    \
             makespan_s: {:#018x}, // {}\n    delivered_series: vec![\n{}    ],\n}}",
            self.transition_loss_gbits,
            f64::from_bits(self.transition_loss_gbits),
            self.update_ops,
            self.makespan_s,
            f64::from_bits(self.makespan_s),
            series.concat()
        )
    }
}

/// The ISP with deadlines at half load: forty minutes of arrivals.
fn isp_requests(net: &Network) -> Vec<TransferRequest> {
    let mut cfg = WorkloadConfig::simulation(0.5, SEED).with_deadlines(SLOT_LEN_S, 10.0);
    cfg.duration_s = 2_400.0;
    generate(net, &cfg)
}

fn controller_accounting(discipline: UpdateDiscipline) -> Accounting {
    let net = isp_backbone(7);
    let requests = isp_requests(&net);
    let mut engine = make_engine(
        EngineKind::Owan,
        &net,
        &RunnerConfig {
            anneal_iterations: ITERATIONS,
            seed: SEED,
            ..Default::default()
        },
    );
    let res = run_controller(
        &net.plant,
        &requests,
        engine.as_mut(),
        &ControllerConfig {
            slot_len_s: SLOT_LEN_S,
            max_slots: 60,
            discipline,
            ..Default::default()
        },
    );
    assert!(res.plan_error.is_none(), "{:?}", res.plan_error);
    assert!(res.update_ops > 0, "the run must exercise the update step");
    assert!(
        res.transition_loss_gbits > 0.0,
        "the run must exercise the transition integral"
    );
    Accounting::of(
        res.transition_loss_gbits,
        res.update_ops,
        res.makespan_s,
        &res.delivered_series,
    )
}

#[test]
fn consistent_controller_accounting_is_pinned() {
    let want = Accounting {
        transition_loss_gbits: 0x40d4e9902fa63564, // 21414.25290827955
        update_ops: 440,
        makespan_s: 0x40ac200000000000, // 3600
        delivered_series: vec![
            0x0000000000000000,
            0x41080e5c142a8176,
            0x410e21034c716b04,
            0x410f9cc7ced81e5c,
            0x4115d0b2d4097eaa,
            0x4117a237b034e99e,
            0x41108949e4eb16e4,
            0x410f365bf0539db7,
            0x41140ec8b06b82f2,
            0x410f8da42e38fca1,
            0x4108841d4f6b441d,
            0x40ccf1e52b952a5e,
        ],
    };
    controller_accounting(UpdateDiscipline::Consistent).assert_is(&want, "isp owan consistent");
}

#[test]
fn one_shot_controller_accounting_is_pinned() {
    let want = Accounting {
        transition_loss_gbits: 0x40c8f6a1f82d2a57, // 12781.265386243509
        update_ops: 472,
        makespan_s: 0x40ac23faa35c873e, // 3601.9895275988665
        delivered_series: vec![
            0x0000000000000000,
            0x41080f430e3ef106,
            0x410e71a42475e4e7,
            0x410f7fb84718d734,
            0x4115cb17a35c4666,
            0x4117ab8fec87dbe1,
            0x411083e4d02b204c,
            0x410eaa78b0caafb2,
            0x41146e576fdda500,
            0x411177ec29ea82f3,
            0x41037e81f3f5eca8,
            0x40d8711888910d03,
        ],
    };
    controller_accounting(UpdateDiscipline::OneShot).assert_is(&want, "isp owan one-shot");
}

#[test]
fn chaos_accounting_of_the_executed_plan_is_pinned() {
    let net = isp_backbone(7);
    let requests = isp_requests(&net);
    let events = seeded_scenario(&net.plant, SEED, 10.0 * SLOT_LEN_S);
    let op_faults = OpFaultModel {
        seed: SEED,
        timeout_prob: 0.1,
        fail_prob: 0.05,
    };
    let mut build = |plant: &FiberPlant| -> Box<dyn TrafficEngineer> {
        Box::new(OwanEngine::new(
            default_topology(plant),
            OwanConfig {
                anneal: AnnealConfig {
                    max_iterations: ITERATIONS,
                    seed: SEED,
                    ..Default::default()
                },
                ..Default::default()
            },
        ))
    };
    let res = run_chaos(
        &net.plant,
        &requests,
        &mut build,
        &ChaosConfig {
            slot_len_s: SLOT_LEN_S,
            max_slots: 60,
            detection_delay_s: 30.0,
            ..Default::default()
        },
        &events,
        &op_faults,
        &Recorder::disabled(),
        None,
    )
    .expect("chaos run");
    // The executed plan must differ from the scheduled one somewhere, or
    // this run would pin nothing the controller runs do not.
    assert!(res.stats.op_retries > 0, "{:?}", res.stats);
    assert!(res.update_ops > 0 && res.transition_loss_gbits > 0.0);
    // An undetected fault must strike too: delivery then goes through the
    // re-realised topology of `blackhole_fractions`.
    assert!(res.stats.blackhole_paths > 0, "{:?}", res.stats);
    let want = Accounting {
        transition_loss_gbits: 0x40de871bdae29c18, // 31260.435234692035
        update_ops: 547,
        makespan_s: 0x40b0680000000000, // 4200
        delivered_series: vec![
            0x0000000000000000,
            0x40fbd593160a497b,
            0x40ed37b377f2dbef,
            0x40ed42a2b732438f,
            0x40fb9973d256fdc1,
            0x4112a8356b559e86,
            0x410e85e9451f7bdc,
            0x4116ef3e971935f5,
            0x411b0e1827924dbc,
            0x41151063b34fd69b,
            0x4113248d19c6afb7,
            0x410d1b9a1b0d73de,
            0x40fee1569edc57dc,
            0x40dee0dc2c573fd8,
        ],
    };
    Accounting::of(
        res.transition_loss_gbits,
        res.update_ops,
        res.makespan_s,
        &res.delivered_series,
    )
    .assert_is(&want, "isp owan chaos");
}
