//! Differential and property-based verification harness for the Owan
//! control loop.
//!
//! The heuristics in this codebase — simulated-annealing topology search,
//! greedy circuit construction, SJF/EDF rate assignment, dependency-graph
//! update scheduling — have no ground truth to test against in isolation:
//! each is "correct" only relative to the physical plant's constraints and
//! to each other. This crate supplies the missing oracles, three ways:
//!
//! 1. **Exact references** ([`exact`], [`lp`]). On small instances the
//!    heuristics' objectives can be computed exactly: brute-force
//!    enumeration of every port-feasible topology (≤ 6 router sites), and
//!    a path-based multi-commodity LP for rates on a fixed topology. The
//!    heuristics must never beat these bounds, and the gap is a quality
//!    metric.
//! 2. **Cross-layer invariants** ([`invariants`]). [`check_plan`] asserts
//!    everything a [`SlotPlan`](owan_core::SlotPlan) promises across
//!    layers — port budgets, wavelength capacity, regenerator budgets,
//!    optical realizability, link-capacity conservation, demand caps —
//!    and [`check_timeline`] asserts per-step blackhole/loop/overload
//!    freedom across an update schedule. Any failure names the violated
//!    invariant.
//! 3. **Differential replay** ([`mod@replay`], with the [`chaos`] and
//!    [`attack`] timelines). Seeded random scenarios (plants, request
//!    streams, failure injections) are driven through the production
//!    loop, `owan_chaos::run_chaos`, by one entry point: [`replay()`] runs a
//!    scenario under a [`ReplayKind`] — plain (zero detection delay, no
//!    op faults), chaos (repairs, a crash and op faults) or attack (chaos
//!    plus adversarial demand) — and [`fuzz()`] sweeps seeds. Every
//!    planned slot is audited by one [`InvariantAudit`]. A plain-kind
//!    divergence is shrunk to a minimal [`Reproducer`] whose seed
//!    regenerates it exactly.

pub mod attack;
pub mod audit;
pub mod chaos;
pub mod exact;
pub mod fuzz;
pub mod invariants;
pub mod lp;
pub mod replay;

pub use attack::attack_timeline_for;
pub use audit::InvariantAudit;
pub use chaos::chaos_events_for;
pub use exact::{
    anneal_gap, best_topology_by_enumeration, EnumerationReport, ExactError, GapReport,
};
pub use fuzz::Scenario;
pub use invariants::{check_plan, check_timeline, timeline_exempt, Invariant, Violation};
pub use lp::{
    all_simple_paths, check_rates_lp_feasible, greedy_gap, lp_max_throughput, LpReference,
};
pub use replay::{
    fuzz, minimize, replay, FuzzStats, ReplayFailure, ReplayKind, ReplayStats, Reproducer,
};
