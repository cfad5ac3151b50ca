//! Baseline traffic-engineering algorithms for the Owan evaluation (§5.1).
//!
//! All engines implement [`owan_core::TrafficEngineer`] so the simulator
//! (`owan-sim`) can drive Owan and the baselines identically:
//!
//! | Engine | Topology | Objective |
//! |---|---|---|
//! | [`MaxFlowTe`] | fixed | max total throughput per slot (LP) |
//! | [`MaxMinFractTe`] | fixed | max min served fraction per slot (LP) |
//! | [`SwanTe`] | fixed | throughput + approximate max-min fairness (iterated LPs) |
//! | [`TempusTe`] | fixed | deadline traffic, min-fraction across future slots then bytes (time-expanded LP) |
//! | [`AmoebaTe`] | fixed | deadline admission control over a future reservation grid |
//! | [`GreedyTe`] | reconfigured *separately* from routing | §5.4 comparison |
//! | [`RateOnlyTe`] / [`RoutingRateTe`] | fixed | the Fig 10(c) control-level ablations |
//!
//! The full joint optimization ("+topo.") is `owan_core::OwanEngine`.

pub mod ablation;
pub mod amoeba;
pub mod baselines;
pub mod fixed;
pub mod greedy;
mod hops;
pub mod tempus;

pub use ablation::{RateOnlyTe, RoutingRateTe};
pub use amoeba::{AmoebaConfig, AmoebaTe};
pub use baselines::{MaxFlowTe, MaxMinFractTe, SwanTe};
pub use fixed::FixedContext;
pub use greedy::GreedyTe;
pub use tempus::{TempusConfig, TempusTe};
