//! The Owan controller benchmark: four workloads driven through the
//! repository's own slot loops, slot-level end-to-end metrics, and a
//! per-crate layer ledger measured from outside. See `README.md`.

pub mod engines;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod workloads;
