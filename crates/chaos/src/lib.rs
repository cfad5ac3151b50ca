//! Fault injection and recovery for the full controller path (owan-chaos).
//!
//! The paper's controller "handles failures of optical devices, routers,
//! and controllers" (§3.4): it replans around cuts, pays detection and
//! reconfiguration delays, and restarts statelessly after a crash. This
//! crate makes those claims testable. It supplies:
//!
//! * the workspace's one **fault model** ([`FaultKind`], [`FaultEvent`],
//!   [`FaultState`]) covering fiber cuts *and repairs*, site loss and
//!   recovery, partial amplifier degradation (shrinking a fiber's usable
//!   wavelengths), and controller crashes: what each fault heals with
//!   ([`FaultKind::repair`]), the degraded plant and fiber-id map the
//!   active set leaves ([`FaultState::degraded_view`]), and the labels
//!   flight dumps and why reports print;
//! * **seeded injection** ([`OpFaultModel`], [`seeded_scenario`]):
//!   deterministic per-attempt faults on update operations and full
//!   scenario timelines reproducible from a seed;
//! * a **hardened controller loop** ([`run_chaos`], [`run_chaos_probed`]
//!   with an `owan_sim::Probes` run context) that plans on the
//!   detection-delayed *believed* plant, executes updates with retry /
//!   backoff / dependent-subtree abort, runs each slot on the *achieved*
//!   state, blackholes circuits over undetected cuts, degrades to the
//!   filtered previous topology when planning fails, and rebuilds the
//!   engine from stored state after a crash ([`restartable_owan`] is the
//!   annealed engine's factory). It is the workspace's one failure loop:
//!   with zero detection delay and no op faults it is the plain §3.4
//!   controller;
//! * an **adversarial traffic layer** ([`AttackTimeline`], [`run_attack`]):
//!   coremelt, flash-crowd, and drift demand waves (generated in
//!   `owan_workload::attack`) composed with the fault timeline as
//!   slot-indexed demand deltas, with recovery measured against a
//!   fault-free baseline ([`RecoveryMetrics`]);
//! * **counters** ([`ChaosTelemetry`], [`AttackTelemetry`]) for all of
//!   the above on the shared obs recorder.

pub mod attack;
pub mod fault;
pub mod inject;
pub mod runner;
pub mod telemetry;

pub use attack::{
    recovery_metrics, run_attack, AttackOutcome, AttackTimeline, ComposedScenario, RecoveryMetrics,
};
pub use fault::{plants_equal, FaultEvent, FaultKind, FaultState};
pub use inject::{seeded_scenario, OpFaultModel};
pub use runner::{
    restartable_owan, run_chaos, run_chaos_probed, AuditHook, ChaosConfig, ChaosResult, ChaosStats,
    SlotAudit,
};
pub use telemetry::{AttackTelemetry, ChaosTelemetry};
