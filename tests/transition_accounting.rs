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
//! Each run also pins its per-transfer outcomes (`completion_s` and
//! `gbits_by_deadline` of every `CompletionRecord`), the chaos run its
//! background series, and a fourth run goes through `simulate` with an LP
//! engine, so the per-slot delivery and deadline credit every loop books
//! are pinned too. Those were captured at commit 644a59e, before the three
//! loops' delivery code moved into `owan_sim::SlotLedger`.
//!
//! On a mismatch the failure prints the run's actual values as Rust source.

use owan::chaos::{run_chaos, seeded_scenario, ChaosConfig, OpFaultModel};
use owan::core::{
    default_topology, AnnealConfig, OwanConfig, OwanEngine, TrafficEngineer, TransferRequest,
};
use owan::obs::Recorder;
use owan::optical::FiberPlant;
use owan::sim::{
    make_engine, run_controller, simulate, CompletionRecord, ControllerConfig, EngineKind,
    RunnerConfig, SimConfig, UpdateDiscipline,
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
    /// `run_chaos`'s background series; empty for the other loops.
    background_series: Vec<u64>,
    /// Per transfer, in id order: `completion_s` (`u64::MAX` when the
    /// transfer never finished) and `gbits_by_deadline`.
    completion_s: Vec<u64>,
    gbits_by_deadline: Vec<u64>,
}

fn bits(series: &[(f64, f64)]) -> Vec<u64> {
    series.iter().map(|&(_, g)| g.to_bits()).collect()
}

impl Accounting {
    fn of(
        loss: f64,
        update_ops: usize,
        makespan_s: f64,
        series: &[(f64, f64)],
        completions: &[CompletionRecord],
    ) -> Self {
        Accounting {
            transition_loss_gbits: loss.to_bits(),
            update_ops,
            makespan_s: makespan_s.to_bits(),
            delivered_series: bits(series),
            background_series: Vec::new(),
            completion_s: completions
                .iter()
                .map(|c| c.completion_s.map_or(u64::MAX, f64::to_bits))
                .collect(),
            gbits_by_deadline: completions
                .iter()
                .map(|c| c.gbits_by_deadline.to_bits())
                .collect(),
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
        // One value a line for the slot series, four a line for the
        // per-transfer vectors (the pins are `#[rustfmt::skip]`).
        let column = |v: &[u64]| -> String {
            let rows: String = v.iter().map(|b| format!("        {b:#018x},\n")).collect();
            if rows.is_empty() {
                "vec![]".to_string()
            } else {
                format!("vec![\n{rows}    ]")
            }
        };
        let packed = |v: &[u64]| -> String {
            let rows: Vec<String> = v
                .chunks(4)
                .map(|c| {
                    let row: Vec<String> = c.iter().map(|b| format!("{b:#018x},")).collect();
                    format!("        {}\n", row.join(" "))
                })
                .collect();
            format!("vec![\n{}    ]", rows.concat())
        };
        format!(
            "Accounting {{\n    transition_loss_gbits: {:#018x}, // {}\n    update_ops: {},\n    \
             makespan_s: {:#018x}, // {}\n    delivered_series: {},\n    \
             background_series: {},\n    completion_s: {},\n    gbits_by_deadline: {},\n}}",
            self.transition_loss_gbits,
            f64::from_bits(self.transition_loss_gbits),
            self.update_ops,
            self.makespan_s,
            f64::from_bits(self.makespan_s),
            column(&self.delivered_series),
            column(&self.background_series),
            packed(&self.completion_s),
            packed(&self.gbits_by_deadline),
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
        &res.completions,
    )
}

#[test]
fn consistent_controller_accounting_is_pinned() {
    #[rustfmt::skip]
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
        background_series: vec![],
        completion_s: vec![
            0x4092d84851e869df, 0x4082dc0f4a5d982b, 0x408c5c59d168cf39, 0x408c5c59d168cf39,
            0x40a0699e83690b1c, 0x4082dc0f4a5d982a, 0x4082dc0f4a5d982a, 0x4082dc0f4a5d982b,
            0x4082dc0f4a5d982b, 0x4082dc0f4a5d982b, 0x408c5c59d168cf38, 0x4092d84851e869df,
            0x409c2a18c39c8fde, 0x408c5c59d168cf39, 0x408c5c59d168cf39, 0x408c5c59d168cf38,
            0x4092d84851e869df, 0x4092d84851e869df, 0x40977025ba755936, 0x4092d84851e869df,
            0x4092d84851e869df, 0x4092d84851e869df, 0x40a0699e83690b1c, 0x409c2a18c39c8fde,
            0x409c2a18c39c8fde, 0x40a9c862c19f3701, 0x40977025ba755937, 0x409c2a18c39c8fde,
            0x40a9c862c19f3701, 0x40977025ba755937, 0x409c2a18c39c8fde, 0x409c2a18c39c8fde,
            0x409c2a18c39c8fde, 0x409c2a18c39c8fde, 0x40a0699e83690b1c, 0x40a2c730a5641d9f,
            0x409c2a18c39c8fde, 0x40a0699e83690b1c, 0x40a0699e83690b1c, 0x40a0699e83690b1c,
            0x40a0699e83690b1c, 0x40a51851e3e60bc9, 0x40a0699e83690b1c, 0x40a0699e83690b1c,
            0x40a2c730a5641d9f, 0x40a2c730a5641d9f, 0x40a2c730a5641d9f, 0x40a2c730a5641d9f,
            0x40a2c730a5641d9f, 0x40a2c730a5641d9f, 0x40a51851e3e60bc9, 0x40a9c862c19f3701,
            0x40a9c862c19f3701, 0x40a77105545c0ffa, 0x40ac200000000000, 0x40a51851e3e60bc9,
            0x40a9c862c19f3701, 0x40a51851e3e60bc9, 0x40a77105545c0ffa, 0x40a51851e3e60bc9,
        ],
        gbits_by_deadline: vec![
            0x40c33e4544aa56af, 0x40d4ab0506aa54fd, 0x40f5e2bc1b2ea264, 0x40cd9b017629e32e,
            0x40d6c75d1a14170a, 0x40c3db9a39f9fb7b, 0x40b9e5b5b69167fd, 0x40e117f1ce02b1eb,
            0x408fa9f0ee7a2a9f, 0x40d43e622a1a7d4f, 0x40bdc9eed3b2bcc8, 0x40e1f15f7565cdab,
            0x40f50de538ca0c80, 0x40e6d7da6083555e, 0x40cd4fa399b1f5e2, 0x40a01877f202150d,
            0x40b9300bb9067206, 0x40e218c8d7a2761b, 0x40e7758cb7f5e354, 0x40a8f1ecf9571917,
            0x40e0636c09412ed5, 0x40c5562bb6fad7b2, 0x4098498efaaf7304, 0x410890b86eeb5569,
            0x40ed837e28572c45, 0x40c6a163f2173a5a, 0x40ec42ed985dd42e, 0x40e4aa61e95e841c,
            0x4105d29377c2c112, 0x40c55623bc71dabd, 0x40cb1c7bf85dca52, 0x40dcdae0918271c0,
            0x40c481c3a4866563, 0x40eca5eca77082dd, 0x40f1b983c2c50b9e, 0x40d61894a58c3f06,
            0x40e171c99e045950, 0x40e49ce4a3372dad, 0x40d95635feb15751, 0x40cde259a27be0fb,
            0x40e50410bf341f28, 0x40fb4da2f05e745d, 0x40d7fc08c40eea69, 0x40d5a272fb2848b8,
            0x40be2cdbf1db08ec, 0x40e913c1b05fd6ae, 0x40c410dc0b367170, 0x4096f58229ee26bb,
            0x409b8123afd62d4e, 0x40d2288ab5b2b808, 0x40edfe282ccfa8ca, 0x410b0503c4db551a,
            0x40f5660737f529b8, 0x40f04b4cd631b8e9, 0x40d769cf170bebfc, 0x40d55f2c85bf5818,
            0x40e89106acd45f16, 0x40e2881645262e0b, 0x40e9f785cabb8c0f, 0x40ceadb8f90f6833,
        ],
    };
    controller_accounting(UpdateDiscipline::Consistent).assert_is(&want, "isp owan consistent");
}

#[test]
fn one_shot_controller_accounting_is_pinned() {
    #[rustfmt::skip]
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
        background_series: vec![],
        completion_s: vec![
            0x4092c8eebf94f3d5, 0x4082db5e17264888, 0x408c31c399a146a0, 0x408c31c399a146a0,
            0x40a0696ece16fe93, 0x4082db5e17264888, 0x4082db5e17264888, 0x4082db5e17264888,
            0x4082db5e17264888, 0x4082db5e17264888, 0x408c31c399a146a0, 0x4092c8eebf94f3d5,
            0x409c23ae89309217, 0x408c31c399a146a0, 0x408c31c399a146a0, 0x408c31c399a146a0,
            0x4092c8eebf94f3d5, 0x4092c8eebf94f3d5, 0x4097701528f7a316, 0x4092c8eebf94f3d5,
            0x4092c8eebf94f3d5, 0x4092c8eebf94f3d5, 0x40a0696ece16fe93, 0x409c23ae89309217,
            0x409c23ae89309217, 0x40a7743b3f634b1f, 0x4097701528f7a317, 0x409c23ae89309216,
            0x40a9c85e4c1c7376, 0x4097701528f7a317, 0x409c23ae89309217, 0x409c23ae89309217,
            0x409c23ae89309217, 0x409c23ae89309217, 0x40a0696ece16fe93, 0x40a2c131ba695abf,
            0x409c23ae89309217, 0x40a0696ece16fe93, 0x40a0696ece16fe93, 0x40a0696ece16fe93,
            0x40a0696ece16fe93, 0x40a51be3e0db8a40, 0x40a0696ece16fe93, 0x40a0696ece16fe93,
            0x40a2c131ba695abf, 0x40a2c131ba695abf, 0x40a2c131ba695abf, 0x40a2c131ba695abf,
            0x40a2c131ba695abf, 0x40a2c131ba695abf, 0x40a7743b3f634b1f, 0x40ac23faa35c873e,
            0x40a7743b3f634b1f, 0x40a7743b3f634b1f, 0x40ac23faa35c873e, 0x40a51be3e0db8a40,
            0x40a7743b3f634b1f, 0x40a7743b3f634b1f, 0x40a51be3e0db8a40, 0x40a51be3e0db8a40,
        ],
        gbits_by_deadline: vec![
            0x40c33face3f83fb3, 0x40d4ac87467c6310, 0x40f5ed527670da16, 0x40ce0c4d3b177962,
            0x40d717a0f1e67ef8, 0x40c3dd0d55892b9e, 0x40b9e799b02555a7, 0x40e1193140b145b0,
            0x408fac40ac36aa86, 0x40d43fdc7bb49dbd, 0x40be5041cc3a19e2, 0x40e24247f6de1676,
            0x40f515433f2e6567, 0x40e73edb9a78fa28, 0x40cdd3cf1f359c91, 0x40a0610c06129b54,
            0x40b981eac1455bf2, 0x40e2539b76b70c5d, 0x40e775adb55b6d1b, 0x40a94302168a8d46,
            0x40e098b108a5bf0c, 0x40c59b8636572f5d, 0x40984b3ea9335ba5, 0x41089e40e434bfa5,
            0x40ed842ce309d88a, 0x40d24c78e89df454, 0x40ec43517b01f2a5, 0x40e4b2984cbf8043,
            0x4105d24713a13233, 0x40c5566f25763e78, 0x40cb4179221b6764, 0x40dd023ec319ae24,
            0x40c49dbe17cc4be1, 0x40eccd029a301220, 0x40f1b9ab07c6f50a, 0x40d63022f77b5c2f,
            0x40e189967571d5dd, 0x40e49e87394b606e, 0x40d95838826fbc14, 0x40cde4b87e72fb1c,
            0x40e505bb846813c7, 0x40fb45849d9b12e3, 0x40d7fdefd1fa7a43, 0x40d5a42a50aa3beb,
            0x40be79e6657734e7, 0x40e953c81062cb24, 0x40c444170916b81f, 0x409730201dfb4c4d,
            0x409bc75c860361df, 0x40d256e6f8675d31, 0x40e8b896f96c0e92, 0x410b0502e5d17c56,
            0x40f54dd147f495d2, 0x40f03bd985c19045, 0x40dd1bafb621afdf, 0x40d53ed3e5b50a6a,
            0x40e87372c3243732, 0x40e28377c0031063, 0x40e9ceb18c71bd5c, 0x40ce7f4a5bdf893c,
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
    #[rustfmt::skip]
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
        background_series: vec![
            0x0000000000000000,
            0x40fbd593160a497b,
            0x40ed37b377f2dbef,
            0x40ed42a2b732438f,
            0x40fb9973d256fdc1,
            0x4112a8356b559e86,
            0x410e85e9451f7bdc,
            0x4116ef3e971935f4,
            0x411b0e1827924dbc,
            0x41151063b34fd69a,
            0x4113248d19c6afb7,
            0x410d1b9a1b0d73de,
            0x40fee1569edc57dc,
            0x40dee0dc2c573fd8,
        ],
        completion_s: vec![
            0x40a2ceab1909aa48, 0x408c2b0b886e88ce, 0x40a77e2b5d90420d, 0x4092cc7c3534f818,
            0x40ac21ca019d9e3b, 0x40a51eacac2ccbae, 0x40a2ceab1909aa47, 0x408c2b0b886e88ce,
            0x408c2b0b886e88ce, 0x40a2ceab1909aa47, 0x40a2ceab1909aa48, 0x40a51eacac2ccbae,
            0x40ac21ca019d9e3b, 0x40ae7f68a750f49a, 0x408c2b0b886e88ce, 0x408c2b0b886e88ce,
            0x40a2ceab1909aa47, 0x4092cc7c3534f818, 0x40ac21ca019d9e3b, 0x40a2ceab1909aa47,
            0x40a77e2b5d90420d, 0x4092cc7c3534f818, 0x409c33415a6c01cd, 0x40a0680000000000,
            0x40a77e2b5d90420d, 0x40a51eacac2ccbaf, 0x409c33415a6c01cd, 0x4097762265b9d53d,
            0x40b0680000000000, 0x4097762265b9d53d, 0x409c33415a6c01cd, 0x409c33415a6c01cd,
            0x40a51eacac2ccbaf, 0x409c33415a6c01cd, 0x40a77e2b5d90420d, 0x409c33415a6c01cd,
            0x40a0680000000000, 0x40a0680000000000, 0x40a2ceab1909aa48, 0x40a51eacac2ccbaf,
            0x40a0680000000000, 0x40a2ceab1909aa48, 0x40a0680000000000, 0x40a0680000000000,
            0x40a51eacac2ccbaf, 0x40a9c91dcbc32e1d, 0x40a51eacac2ccbae, 0x40a2ceab1909aa48,
            0x40ac21ca019d9e3b, 0x40a2ceab1909aa48, 0x40ae7f68a750f49a, 0x40ac21ca019d9e3b,
            0x40ac21ca019d9e3b, 0x40a9c91dcbc32e1d, 0x40a77e2b5d90420d, 0x40a51eacac2ccbaf,
            0x40a9c91dcbc32e1d, 0x40a51eacac2ccbaf, 0x40a9c91dcbc32e1d, 0x40a51eacac2ccbaf,
        ],
        gbits_by_deadline: vec![
            0x40d5034e39dd9c04, 0x40d4d05bb3c0263f, 0x40f5db7afe9bb040, 0x40ce0447493f15d1,
            0x40cd4c0000000000, 0x40b41709a3e8b119, 0x40b76027d4f1bd7b, 0x40e13f6a35ea6b78,
            0x408ff5eda92160bf, 0x40d43c6a311d35be, 0x0000000000000000, 0x0000000000000000,
            0x40d6956801c64550, 0x0000000000000000, 0x40cde916987c117a, 0x40a06cbb64394dab,
            0x40b915892935be11, 0x40e245dc636f921e, 0x0000000000000000, 0x40a7aa5cb77cb1ca,
            0x40e0674c746dce22, 0x40c58b51220cb0ec, 0x4097f5bb987558af, 0x4108a615c0c9286e,
            0x0000000000000000, 0x40edebd6e5bd9146, 0x40ec0c77129f39ea, 0x40e49c5fd66b63a4,
            0x41042d9fa1c397b3, 0x40c53b06d74c6e73, 0x40cae859a3cf8cd7, 0x40dca363d6b17a8e,
            0x40c473b15645dbfb, 0x40ec6ed5c037087d, 0x40f0d0d54def6f43, 0x40d5dad8ab4f5f2f,
            0x40e1975cca441271, 0x40e4ab2235588a80, 0x40d8cc82e513a707, 0x0000000000000000,
            0x40e5129598492ebd, 0x40fb010fecfb747a, 0x40d80c9aa47ad8b8, 0x40d5b1653fd479e0,
            0x40be336c610fdfe1, 0x40d743207d4a01db, 0x40b82a50cdcec34d, 0x4096ae00057ecc6d,
            0x0000000000000000, 0x40d1effc5179383a, 0x0000000000000000, 0x410b0304332152b0,
            0x40f566b5f315c0ec, 0x40f04958615b8dce, 0x40e623ee4dbdd42e, 0x40d525ddb540137b,
            0x40e88e338a631db0, 0x40e256651ef0d16d, 0x40e9f615d4a781f6, 0x40ce5b756a20ae0e,
        ],
    };
    let mut got = Accounting::of(
        res.transition_loss_gbits,
        res.update_ops,
        res.makespan_s,
        &res.delivered_series,
        &res.completions,
    );
    got.background_series = bits(&res.background_series);
    got.assert_is(&want, "isp owan chaos");
}

/// The idealized loop on the same requests through an LP engine, so the
/// pro-rata deadline credit runs on LP rates. `simulate` charges no
/// transition: loss and update ops are zero and the series is allocated
/// throughput per slot. The completion floor never fires here: no engine
/// leaves a residue under 1e-6 Gb on this request set (the ledger's unit
/// tests cover it).
#[test]
fn simulate_accounting_of_an_lp_engine_is_pinned() {
    let net = isp_backbone(7);
    let requests = isp_requests(&net);
    let sim = SimConfig {
        slot_len_s: SLOT_LEN_S,
        max_slots: 60,
        ..Default::default()
    };
    let mut engine = make_engine(
        EngineKind::Swan,
        &net,
        &RunnerConfig {
            sim,
            seed: SEED,
            ..Default::default()
        },
    );
    let res = simulate(&net.plant, &requests, engine.as_mut(), &sim);
    assert!(res.plan_error.is_none(), "{:?}", res.plan_error);
    assert!(
        res.completions
            .iter()
            .any(|c| c.gbits_by_deadline > 0.0 && !c.met_deadline()),
        "a missed deadline must book partial credit"
    );
    #[rustfmt::skip]
    let want = Accounting {
        transition_loss_gbits: 0x0000000000000000, // 0
        update_ops: 0,
        makespan_s: 0x40ce780000000000, // 15600
        delivered_series: vec![
            0x0000000000000000,
            0x406b0a2ebd9af6b4,
            0x406362cbb43cf4b9,
            0x40736e8f20929ff0,
            0x40824e1bf5a0d8be,
            0x40841456f6181057,
            0x40812c0ccbb0875d,
            0x4076282e30d25218,
            0x407508f3ba566ff2,
            0x40716e9a01cfc78e,
            0x40711fb061b2cb15,
            0x4070d5b55b979e64,
            0x4070905a05de247d,
            0x4066241c6e8ec588,
            0x4064d92136471475,
            0x4064538f22e2a331,
            0x4063d65630b478fe,
            0x406360f0cda9316e,
            0x4062f2e1c0ce9e56,
            0x40628bb3a4c1b471,
            0x40622af86a759929,
            0x4061d048e3ce3f98,
            0x40624e5ebcb4d107,
            0x406240093b02e725,
            0x40637634c1cb96b8,
            0x4064089570544966,
            0x4063d6a93738bb2c,
            0x4064153d4c16928e,
            0x40621815da761f71,
            0x406286947ccebd7c,
            0x4062ee2b3501d1a3,
            0x40634f4881b1b487,
            0x4063aa53f9969941,
            0x406334baa45fd782,
            0x4058ffffffffffff,
            0x4058fffffffffffe,
            0x4058fffffffffffe,
            0x4058fffffffffffe,
            0x4058ffffffffffff,
            0x4059000000000000,
            0x4058ffffffffffff,
            0x4058ffffffffffff,
            0x4058ffffffffffff,
            0x4058ffffffffffff,
            0x4059000000000000,
            0x4059000000000001,
            0x4058fffffffffffd,
            0x4059000000000000,
            0x4058ffffffffffff,
            0x4058fffffffffffe,
            0x4059000000000001,
            0x405205a58b63c33e,
        ],
        background_series: vec![],
        completion_s: vec![
            0x40cde20000000000, 0x40c3560000000000, 0x40cde20000000000, 0x40c3560000000000,
            0x40cde20000000000, 0x40cde20000000000, 0x40cde20000000000, 0x408c200000000000,
            0x4082c00000000000, 0x40cde20000000000, 0x40cde20000000000, 0x40cde20000000000,
            0x40cde20000000000, 0x40cde20000000000, 0x40a2c00000000000, 0x40c3560000000000,
            0x40cde20000000000, 0x4092c00000000000, 0x40cde20000000000, 0x40cde20000000000,
            0x40cde20000000000, 0x4092c00000000000, 0x4097700000000000, 0x40a0680000000000,
            0x40cde20000000000, 0x40cde20000000000, 0x40c3ec0000000000, 0x4097700000000000,
            0x40ce780000000000, 0x40bfa40000000000, 0x409c200000000000, 0x40c3ec0000000000,
            0x40ce780000000000, 0x40a2c00000000000, 0x40ce780000000000, 0x40a0680000000000,
            0x40c0680000000000, 0x40c3ec0000000000, 0x40ce780000000000, 0x40ce780000000000,
            0x40ae780000000000, 0x40ae780000000000, 0x40a0680000000000, 0x40c3ec0000000000,
            0x40ce780000000000, 0x40c0680000000000, 0x40ce780000000000, 0x40ce780000000000,
            0x40ce780000000000, 0x40a2c00000000000, 0x40ce780000000000, 0x40c3ec0000000000,
            0x40ce780000000000, 0x40ce780000000000, 0x40ce780000000000, 0x40ce780000000000,
            0x40c3ec0000000000, 0x40b0680000000000, 0x40ce780000000000, 0x40a5180000000000,
        ],
        gbits_by_deadline: vec![
            0x40bfc405b6463e24, 0x40cc0eb440f248db, 0x40dfe8505f82eaee, 0x40cc71c1be3deb83,
            0x40cace0a442de2c6, 0x40a26e2e3c77083b, 0x40a29c539b6bd78d, 0x40e14b1b2bf85c7d,
            0x4090045b28d55342, 0x40c3551ad3e540cf, 0x407e89b2311b3adf, 0x40b90382f10f8492,
            0x40dbfabee3aad7e8, 0x0000000000000000, 0x40ce0c53b534d155, 0x40969ac9e6168599,
            0x408a20a21bc520a1, 0x40e27687e6c69804, 0x4078e4894d57034f, 0x0000000000000000,
            0x40b3284a78011376, 0x40c5c4b337361750, 0x40985827b55a82c4, 0x4108a615c0c9286f,
            0x0000000000000000, 0x4090765b4bbae044, 0x40d2e3565ad7f819, 0x40e4b758d75c3ceb,
            0x0000000000000000, 0x40ac237d219b5dbb, 0x40cb56e190d08ec4, 0x40c26afbd090bfbb,
            0x0000000000000000, 0x40ece3a1b53a71fd, 0x40977340bacc1cec, 0x40d6349f25bd3f3a,
            0x40c5741f68a94648, 0x40b414a4ee94dcd8, 0x0000000000000000, 0x0000000000000000,
            0x40da2e34659fd380, 0x40f15a27eb638e44, 0x40d80c9aa47ad8b8, 0x40b42064e294ebc6,
            0x0000000000000000, 0x40c0d30e11bf1641, 0x0000000000000000, 0x40749141d3417466,
            0x0000000000000000, 0x40d2603f3e51fde1, 0x0000000000000000, 0x40f028e5ba7c2690,
            0x0000000000000000, 0x0000000000000000, 0x40bba38eb4165f93, 0x40c363989531a71a,
            0x40d062864ea8d4ba, 0x40e28a9dc2bf3e9b, 0x40a596fa10b7c154, 0x40ceb1e8e0cc8df3,
        ],
    };
    Accounting::of(
        0.0,
        0,
        res.makespan_s,
        &res.throughput_series,
        &res.completions,
    )
    .assert_is(&want, "isp swan simulate");
}
