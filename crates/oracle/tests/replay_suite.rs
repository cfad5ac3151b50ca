//! The differential replay suite: seeded random request streams (with
//! failure injection) are driven through the production controller loop
//! with every cross-layer invariant checked at every slot, and
//! deliberately corrupted plans must be rejected with the *named*
//! invariant.

use owan_chaos::{run_chaos, ChaosConfig, OpFaultModel};
use owan_core::{
    default_topology, OwanConfig, OwanEngine, SlotInput, SlotPlan, TrafficEngineer, Transfer,
};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_oracle::invariants::{check_plan, Invariant};
use owan_oracle::{fuzz, minimize, replay, InvariantAudit, ReplayKind, Scenario};
use owan_sim::Probes;

/// The headline acceptance test: 200 seeded scenarios — small random
/// plants, request streams, fiber cuts and site failures — replay through
/// the annealing controller in `run_chaos` with `check_plan` on every
/// slot plan and `check_timeline` on every executed update. Zero
/// divergence allowed; any failure is minimized and printed as a
/// reproducer.
#[test]
fn two_hundred_seeded_streams_replay_clean() {
    match fuzz(0, 200, ReplayKind::Plain, 30, &Recorder::disabled()) {
        Ok(stats) => {
            assert_eq!(stats.scenarios, 200);
            assert!(
                stats.plans_checked >= 200,
                "at least one checked plan per seed, got {}",
                stats.plans_checked
            );
            assert!(
                stats.updates_checked > 0,
                "multi-slot scenarios must exercise the update checker"
            );
        }
        Err((seed, _)) => panic!(
            "replay diverged; minimized reproducer:\n{}",
            minimize(&Scenario::generate(seed), 30).to_text()
        ),
    }
}

/// The seed range above genuinely exercises failure injection: a healthy
/// fraction of the generated scenarios carry fiber cuts or site failures.
#[test]
fn seed_range_covers_failure_injection() {
    let with_failures = (0..200)
        .filter(|&s| !Scenario::generate(s).failures.is_empty())
        .count();
    assert!(
        with_failures >= 40,
        "only {with_failures}/200 scenarios inject failures — generator drifted"
    );
    let with_deadlines = (0..200)
        .filter(|&s| {
            Scenario::generate(s)
                .requests
                .iter()
                .any(|r| r.deadline_s.is_some())
        })
        .count();
    assert!(
        with_deadlines >= 60,
        "only {with_deadlines}/200 scenarios carry deadlines — generator drifted"
    );
}

/// Produces one genuine engine plan on a fuzz plant, for corruption.
fn engine_plan(seed: u64) -> (Scenario, Vec<Transfer>, owan_core::SlotPlan) {
    let scenario = Scenario::generate(seed);
    let mut engine = OwanEngine::new(default_topology(&scenario.plant), OwanConfig::default());
    let active: Vec<Transfer> = scenario
        .requests
        .iter()
        .enumerate()
        .map(|(id, r)| Transfer::from_request(id, r))
        .collect();
    let plan = engine.plan_slot(
        &scenario.plant,
        &SlotInput {
            transfers: &active,
            slot_len_s: scenario.slot_len_s,
            now_s: 0.0,
        },
    );
    (scenario, active, plan)
}

/// Find a seed whose first plan actually allocates something, so the
/// corruptions below have a path to mangle.
fn plan_with_allocations() -> (Scenario, Vec<Transfer>, owan_core::SlotPlan) {
    for seed in 0..50 {
        let (s, ts, plan) = engine_plan(seed);
        if !plan.allocations.is_empty() && !plan.allocations[0].paths.is_empty() {
            return (s, ts, plan);
        }
    }
    panic!("no seed in 0..50 produced a non-empty plan");
}

#[test]
fn genuine_plan_passes_then_corruptions_are_named() {
    let (scenario, transfers, plan) = plan_with_allocations();

    // The untouched engine plan satisfies every invariant.
    check_plan(&scenario.plant, &transfers, scenario.slot_len_s, &plan)
        .unwrap_or_else(|v| panic!("genuine plan rejected: {v}"));

    // Corruption 1: blow a path's rate far beyond link capacity.
    let mut p = plan.clone();
    p.allocations[0].paths[0].1 += 10_000.0;
    let v = check_plan(&scenario.plant, &transfers, scenario.slot_len_s, &p).unwrap_err();
    assert!(
        matches!(
            v.invariant,
            Invariant::LinkCapacity | Invariant::DeadlineRateConsistency
        ),
        "rate corruption flagged as {v}"
    );

    // Corruption 2: negate a rate.
    let mut p = plan.clone();
    p.allocations[0].paths[0].1 = -5.0;
    let v = check_plan(&scenario.plant, &transfers, scenario.slot_len_s, &p).unwrap_err();
    assert_eq!(v.invariant, Invariant::DeadlineRateConsistency, "{v}");

    // Corruption 3: reroute a path over a loop.
    let mut p = plan.clone();
    let path = &mut p.allocations[0].paths[0].0;
    let first = path[0];
    path.insert(1, first); // immediate revisit
    let v = check_plan(&scenario.plant, &transfers, scenario.slot_len_s, &p).unwrap_err();
    assert_eq!(v.invariant, Invariant::PathShape, "{v}");

    // Corruption 4: point an allocation at a transfer that does not exist.
    let mut p = plan.clone();
    p.allocations[0].transfer = 10_000;
    let v = check_plan(&scenario.plant, &transfers, scenario.slot_len_s, &p).unwrap_err();
    assert_eq!(v.invariant, Invariant::AllocationIdentity, "{v}");

    // Corruption 5: inflate the topology beyond the routers' port budgets.
    let mut p = plan.clone();
    p.topology.add_links(0, 1, 64);
    let v = check_plan(&scenario.plant, &transfers, scenario.slot_len_s, &p).unwrap_err();
    assert_eq!(v.invariant, Invariant::PortBudget, "{v}");
}

/// Replaying the same seed twice yields identical coverage — the whole
/// pipeline (generator, engine, checker) is deterministic, which is what
/// makes seed-based reproducers trustworthy.
#[test]
fn replay_is_deterministic() {
    for seed in [1, 17, 99] {
        let a = replay(
            &Scenario::generate(seed),
            ReplayKind::Plain,
            40,
            &Probes::default(),
        )
        .unwrap();
        let b = replay(
            &Scenario::generate(seed),
            ReplayKind::Plain,
            40,
            &Probes::default(),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}

/// An engine whose every plan oversubscribes a link: the first allocation
/// of each plan gets 10 000 Gbps more on its first path.
struct Overcommitting(OwanEngine);

impl TrafficEngineer for Overcommitting {
    fn name(&self) -> &str {
        "overcommitting"
    }

    fn plan_slot(&mut self, plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let mut plan = self.0.plan_slot(plant, input);
        if let Some(path) = plan
            .allocations
            .first_mut()
            .and_then(|a| a.paths.first_mut())
        {
            path.1 += 10_000.0;
        }
        plan
    }
}

/// The production loop recovers from an infeasible engine plan by falling
/// back to the previous topology; the replay's audit must not let that
/// recovery hide the engine bug: a replay-style run (zero detection
/// delay, no op faults) fails as a `PlanError` at its first allocating
/// slot.
#[test]
fn infeasible_engine_plan_is_a_named_violation() {
    let (scenario, _, _) = plan_with_allocations();
    let config = ChaosConfig {
        slot_len_s: scenario.slot_len_s,
        max_slots: scenario.max_slots,
        detection_delay_s: 0.0,
        ..Default::default()
    };
    let mut make_engine = |plant: &FiberPlant| -> Box<dyn TrafficEngineer> {
        Box::new(Overcommitting(OwanEngine::new(
            default_topology(plant),
            OwanConfig::default(),
        )))
    };
    let mut audit = InvariantAudit::new(&Probes::default());
    let err = run_chaos(
        &scenario.plant,
        &scenario.requests,
        &mut make_engine,
        &config,
        &[],
        &OpFaultModel::none(),
        &Recorder::disabled(),
        Some(&mut |a| audit.check_engine_plan(a)),
    )
    .expect_err("the overcommitted plan must fail the audit");
    let failure = audit.failure(err.clone());
    assert!(failure.message.starts_with("PlanError: "), "{failure}");
    assert!(err.contains(&failure.message), "{err}");
}
