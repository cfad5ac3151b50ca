//! Flow-level simulation and experiment harness for the Owan evaluation.
//!
//! * [`sim`] — the time-slotted fluid simulator (validated against the
//!   paper's testbed methodology, §5.1),
//! * [`ledger`] — the per-transfer slot accounting every loop books
//!   delivery through,
//! * [`metrics`] — completion time / deadline / makespan metrics,
//! * [`runner`] — engine construction and parallel comparison sweeps,
//! * [`validate`] — the simulator-vs-testbed validation (§5.1).
//!
//! # Slot loops and their run context
//!
//! Two loops live here: [`simulate`] / [`simulate_probed`], the idealized
//! fluid simulator the figures use, and [`run_controller`], which also
//! charges each slot's update transition. Failures, repairs, detection
//! delay and crash restarts (§3.4) are one more loop, `owan_chaos::run_chaos`.
//! All three admit, deliver and finish through one [`SlotLedger`].
//!
//! A loop reports into a [`Probes`] run context: the obs recorder, the
//! flight recorder, the region profiler and the why recorder, all disabled
//! by `Probes::default()`. A disabled probe changes no plan and no metric.
//! `runner::run_engine{,_observed,_traced,_profiled,_explained}` build an
//! engine by kind and run it through [`simulate_probed`].
//!
//! # Example: compare Owan against SWAN on the Internet2 testbed
//!
//! ```
//! use owan_sim::runner::{run_comparison, EngineKind, RunnerConfig};
//! use owan_sim::metrics::{self, SizeBin};
//! use owan_topo::internet2_testbed;
//! use owan_workload::{generate, WorkloadConfig};
//!
//! let net = internet2_testbed();
//! let mut wl = WorkloadConfig::testbed(0.5, 42);
//! wl.duration_s = 600.0; // keep the doctest quick
//! let requests: Vec<_> = generate(&net, &wl).into_iter().take(5).collect();
//!
//! let mut cfg = RunnerConfig::default();
//! cfg.anneal_iterations = 40;
//! let results = run_comparison(
//!     &[EngineKind::Owan, EngineKind::Swan],
//!     &net,
//!     &requests,
//!     &cfg,
//! );
//! let (owan_avg, _) = metrics::summary(&results[0], SizeBin::All);
//! let (swan_avg, _) = metrics::summary(&results[1], SizeBin::All);
//! assert!(owan_avg > 0.0 && swan_avg > 0.0);
//! ```

pub mod controller;
pub mod ledger;
pub mod metrics;
pub mod runner;
pub mod sim;
pub mod telemetry;
pub mod validate;

pub use controller::{run_controller, ControllerConfig, ControllerResult, UpdateDiscipline};
pub use ledger::{at_risk_count, CompletionRecord, SlotLedger};
pub use runner::{
    make_engine, run_comparison, run_engine, run_engine_explained, run_engine_observed,
    run_engine_profiled, run_engine_traced, EngineKind, RunnerConfig,
};
pub use sim::{
    plan_is_feasible, simulate, simulate_probed, PlanError, Probes, SimConfig, SimResult,
};
pub use telemetry::StageSplit;
pub use validate::{validate_simulator, ValidationReport};
