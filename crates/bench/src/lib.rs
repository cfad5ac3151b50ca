//! Benchmark harness regenerating every table and figure of the Owan
//! paper's evaluation (§5).
//!
//! Each `fig*` binary in `src/bin/` drives the pipelines in this library
//! and prints the same rows/series the corresponding figure plots.
//! Kernel timings live in the `benchmark/` ledger, not here.
//!
//! Every pipeline takes a [`Scale`]: `Scale::full()` reproduces the
//! paper's parameters (two-hour workloads, five-minute slots);
//! `Scale::quick()` shrinks everything for smoke tests and CI.

pub mod attack;
pub mod figs;
pub mod micro;
pub mod scale;

pub use attack::{bench_attack, check_attack_against_baseline, AttackBenchReport, AttackBenchRow};
pub use figs::{fig7, fig8, fig9};
pub use micro::{fig10a, fig10b, fig10c, fig10d, validation};
pub use scale::{net_by_name, workload_for, Scale};
