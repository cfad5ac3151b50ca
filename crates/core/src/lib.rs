//! The Owan joint optical/network-layer optimization — the primary
//! contribution of "Optimizing Bulk Transfers with Software-Defined Optical
//! WAN" (SIGCOMM 2016).
//!
//! The controller divides time into slots (minutes). Each slot it computes
//! a *network state*: the optical circuit configuration `OC` (which builds
//! the network-layer topology) plus the routing configuration `RC` (paths
//! and rate limits per transfer). The search works as follows:
//!
//! 1. [`anneal`](anneal::anneal) — simulated annealing over topology
//!    multigraphs (Algorithm 1), seeded from the current topology, with the
//!    degree-preserving four-link neighbor move (Algorithm 2);
//! 2. [`compute_energy`] — the energy of a
//!    candidate topology (Algorithm 3): provision optical circuits for
//!    every link through the [`regen`]erator graph, then greedily assign
//!    multi-path [`rates`] shortest-paths-first under SJF/EDF ordering;
//! 3. [`OwanEngine`] — the per-slot driver implementing
//!    the [`TrafficEngineer`] interface shared
//!    with the baselines in `owan-te`.
//!
//! # Quick start
//!
//! ```
//! use owan_core::engine::{default_topology, OwanConfig, OwanEngine, SlotInput, TrafficEngineer};
//! use owan_core::types::{Transfer, TransferRequest};
//! use owan_optical::{FiberPlant, OpticalParams};
//!
//! // A toy 4-site ring plant.
//! let mut params = OpticalParams::default();
//! params.wavelength_capacity_gbps = 10.0;
//! let mut plant = FiberPlant::new(params);
//! for i in 0..4 {
//!     plant.add_site(&format!("S{i}"), 2, 1);
//! }
//! for i in 0..4 {
//!     plant.add_fiber(i, (i + 1) % 4, 300.0);
//! }
//!
//! let mut engine = OwanEngine::new(default_topology(&plant), OwanConfig::default());
//! let req = TransferRequest { src: 0, dst: 1, volume_gbits: 100.0, arrival_s: 0.0, deadline_s: None };
//! let transfers = vec![Transfer::from_request(0, &req)];
//! let plan = engine.plan_slot(&plant, &SlotInput { transfers: &transfers, slot_len_s: 10.0, now_s: 0.0 });
//! assert!(plan.throughput_gbps > 0.0);
//! ```

pub mod anneal;
pub mod cache;
pub mod circuits;
pub mod energy;
pub mod engine;
pub mod groups;
pub mod pool;
pub mod rates;
pub mod regen;
pub mod rows;
pub mod telemetry;
pub mod topology;
pub mod types;

pub use anneal::{
    anneal, anneal_parallel_pooled, anneal_with_cache, chain_seed, AnnealConfig, AnnealResult,
};
pub use cache::{precompute_key, EnergyCache, EnergyCacheStats, MissReason, PlantCache};
pub use circuits::{
    build_topology, build_topology_cached, build_topology_observed, BuiltTopology,
    CircuitBuildConfig, TopologyLedger, MAX_DELTA_UNITS,
};
pub use energy::{compute_energy, EnergyContext, EnergyEvaluator, EnergyOutcome};
pub use engine::{
    default_topology, random_topology, repair_spare_ports, OwanConfig, OwanEngine, SlotInput,
    SlotPlan, TrafficEngineer,
};
pub use groups::{effective_bottleneck_s, group_completion_s, sebf_order, TransferGroup};
pub use pool::EvalPool;
pub use rates::{
    assign_rates, assign_rates_ordered, assign_rates_reference, assign_rates_with,
    RateAssignConfig, RateInputs, RateOutcome, RateScratch,
};
pub use regen::{relay_k_shortest, ReachRows, RegenGraph, RelayScratch, RelaySearch, RelayWeights};
pub use telemetry::CoreTelemetry;
// Re-exported so `owan-te`'s engines can override
// `TrafficEngineer::set_recorder` without depending on `owan-obs` directly.
pub use owan_obs::Recorder;
// Re-exported so downstream crates (oracle, sim, bench) can attach or stub
// the tier-3 profiler without depending on `owan-prof` directly.
pub use owan_prof::Profiler;
pub use topology::Topology;
pub use types::{Allocation, SchedulingPolicy, Transfer, TransferId, TransferRequest};
