//! Consistent cross-layer network updates (§3.3).
//!
//! Moving the network from one state (topology + allocations) to another
//! requires reconfiguring optical circuits — each taking seconds, during
//! which the circuit "goes dark and cannot carry any traffic" (§5.4) — and
//! re-routing traffic. Updating everything at once drops packets; the paper
//! extends **Dionysus** [Jin et al., SIGCOMM 2014] with *circuit nodes*:
//!
//! > "Circuit nodes have dependencies on fibers as creating a circuit
//! > consumes a wavelength and removing a circuit frees a wavelength;
//! > circuit nodes also have dependencies on routing paths as a routing
//! > path cannot be used until circuits for all links on the path are
//! > established."
//!
//! This crate builds that dependency structure and schedules operations
//! greedily (the Dionysus scheduling discipline): an operation runs as soon
//! as its resource dependencies are met. [`plan_consistent`] produces a
//! hitless schedule; [`plan_one_shot`] fires everything at `t = 0` for
//! comparison (Figure 10(b)). [`throughput_timeline`] replays either
//! schedule and reports carried traffic over time; [`transition_scale`]
//! integrates that timeline into what a controller slot delivers, and is
//! the one place the workspace does so. [`execute_plan`] runs a schedule
//! against a data plane that times out and refuses.
//!
//! The whole step — delta, schedule, timeline — runs on dense link and
//! fiber indices ([`plan`]) and the timeline is evaluated per schedule
//! event, not per sample ([`timeline`]); DESIGN.md §7.6 has the argument
//! for why that is exact.

pub mod exec;
pub mod plan;
pub mod telemetry;
pub mod timeline;

pub use exec::{execute_plan, ExecReport, OpExecution, OpFault, OpStatus, RetryPolicy};
pub use plan::{
    dependency_edges, dependency_graph_size, plan_consistent, plan_consistent_observed,
    plan_one_shot, plan_one_shot_observed, CircuitDesc, NetworkDelta, OpKind, PathDesc,
    ScheduledOp, UpdateParams, UpdatePlan,
};
pub use telemetry::UpdateTelemetry;
pub use timeline::{throughput_timeline, transition_scale, TimelinePoint};
