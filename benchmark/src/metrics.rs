//! The metric tables (the single source `BENCHMARK.json` is generated
//! from), the statistics the report uses, and process accounting.

use owan_obs::json::{write_f64, write_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition. `bound` is the share of the parent's median by
/// which an end-to-end metric may get worse before a change counts as a
/// regression; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the controller sees. Measured with tracing off.
///
/// The bounds are set from the spread the driver's own acceptance test
/// looks at — ten runs, each on another seed — on the workload where the
/// metric spreads most: about three times that spread, and above the
/// largest seen in 300 resampled series (README, "Bounds and the noise
/// floor"). Timings carry the largest bound the contract allows because
/// the box, not the benchmark, sets their noise. The six plan-quality
/// metrics are a function of the plans alone: compared at the *same*
/// seed they must be bit-equal (`--repeat-check` enforces it), and their
/// bounds only cover the sampling of request sets between seeds.
pub const END_TO_END: [MetricDef; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("slot_plan_ms_p50", "ms", Lower, 0.25),
    e2e("slot_plan_ms_p90", "ms", Lower, 0.25),
    e2e("slots_per_s", "1/s", Higher, 0.25),
    e2e("delivered_gbit_per_cpu_s", "Gb/s", Higher, 0.25),
    e2e("avg_completion_s", "s", Lower, 0.12),
    e2e("p95_completion_s", "s", Lower, 0.15),
    e2e("makespan_s", "s", Lower, 0.06),
    e2e("transition_loss_gbit", "Gb", Lower, 0.15),
    e2e("deadline_met_frac", "frac", Higher, 0.1),
    e2e("bytes_by_deadline_frac", "frac", Higher, 0.1),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// One row per thing a layer does, measured in the traced pass from the
/// benchmark's own code around the crate's public functions.
pub const PER_LAYER: [MetricDef; 63] = [
    layer("graph.dijkstra_us_per_call", "us", Lower),
    layer("graph.yen_us_per_call", "us", Lower),
    layer("optical.provision_us_per_call", "us", Lower),
    layer("optical.provision_fail_frac", "frac", Lower),
    layer("optical.dist_matrix_us_per_call", "us", Lower),
    layer("core.regen_build_us_per_call", "us", Lower),
    layer("core.circuits_ms_per_build", "ms", Lower),
    layer("core.circuits_sp_calls_per_build", "count", Lower),
    layer("core.rates_us_per_call", "us", Lower),
    layer("core.rates_delta_frac", "frac", Higher),
    layer("core.energy_naive_ms_per_eval", "ms", Lower),
    layer("core.anneal_ms_per_slot", "ms", Lower),
    layer("core.anneal_evals_per_s", "1/s", Higher),
    layer("core.cache_relay_hit_rate", "frac", Higher),
    layer("core.cache_outcome_hit_rate", "frac", Higher),
    layer("core.cache_miss_cold", "count", Lower),
    layer("core.cache_miss_flush", "count", Lower),
    layer("core.cache_miss_class_collision", "count", Lower),
    layer("core.cache_miss_boundary_guard", "count", Lower),
    layer("core.cache_miss_membership_crossing", "count", Lower),
    layer("core.cache_miss_partial_candidate_list", "count", Lower),
    layer("core.cache_miss_capacity", "count", Lower),
    layer("core.plant_cache_build_ms", "ms", Lower),
    layer("core.repair_us_per_call", "us", Lower),
    layer("core.plan_share", "frac", Lower),
    layer("core.pool_speedup_2w", "x", Higher),
    layer("core.pool_speedup_2w_mad", "x", Lower),
    layer("solver.simplex_ms_per_solve", "ms", Lower),
    layer("solver.commodities_per_solve", "count", Lower),
    layer("solver.path_vars_per_solve", "count", Lower),
    layer("te.swan_ms_per_slot", "ms", Lower),
    layer("te.tempus_ms_per_slot", "ms", Lower),
    layer("te.amoeba_ms_per_slot", "ms", Lower),
    layer("te.maxflow_ms_per_slot", "ms", Lower),
    layer("te.greedy_ms_per_slot", "ms", Lower),
    layer("te.tunnel_us_per_pair", "us", Lower),
    layer("update.delta_us_per_slot", "us", Lower),
    layer("update.schedule_us_per_slot", "us", Lower),
    layer("update.timeline_us_per_slot", "us", Lower),
    layer("update.ops_per_slot", "count", Lower),
    layer("update.dep_edges_per_slot", "count", Lower),
    layer("update.makespan_s_p50", "s", Lower),
    layer("update.exec_retries_per_slot", "count", Lower),
    layer("sim.loop_us_per_slot", "us", Lower),
    layer("sim.feasible_us_per_slot", "us", Lower),
    layer("sim.small_net_slot_us", "us", Lower),
    layer("chaos.loop_us_per_slot", "us", Lower),
    layer("chaos.degraded_view_us_per_call", "us", Lower),
    layer("chaos.fallback_slots", "count", Lower),
    layer("chaos.op_retries", "count", Lower),
    layer("topo.build_ms", "ms", Lower),
    layer("workload.generate_ms", "ms", Lower),
    layer("obs.overhead_frac", "frac", Lower),
    layer("obs.overhead_mad", "frac", Lower),
    layer("scope.overhead_frac", "frac", Lower),
    layer("scope.overhead_mad", "frac", Lower),
    layer("prof.overhead_frac", "frac", Lower),
    layer("prof.overhead_mad", "frac", Lower),
    layer("why.overhead_frac", "frac", Lower),
    layer("why.overhead_mad", "frac", Lower),
    layer("oracle.audit_us_per_slot", "us", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.trace_overhead_noise", "frac", Lower),
];

/// Metric values by name, in name order.
pub type Values = BTreeMap<&'static str, f64>;

/// Median of `xs` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Median absolute deviation around the median.
pub fn mad(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples offered.
    pub samples: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100, nearest rank). Above the median it is
/// refused unless at least [`MIN_BEYOND`] samples lie beyond it: a tail
/// read off fewer is one outlier, not a percentile.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = xs.len();
    let beyond = samples_beyond(n, p);
    if n == 0 || (p > 50.0 && beyond < MIN_BEYOND) {
        return Err(TooFewSamples { samples: n, beyond });
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank(n, p)])
}

fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * (n as f64 - 1.0)).round() as usize).min(n.saturating_sub(1))
}

/// Samples ranked after the one the `p`-th percentile of `n` reads.
fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(1).saturating_sub(rank(n, p))
}

/// The highest of p99/p95/p90 that `n` samples support, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// A tier overhead as the human report prints it: the median as a
/// fraction, or `unresolved` when it lies inside its own MAD — never a
/// negative overhead presented as a gain.
pub fn overhead_cell(median_frac: f64, mad_frac: f64) -> String {
    if median_frac.abs() <= mad_frac || median_frac < 0.0 {
        format!("unresolved (|{median_frac:+.4}| within MAD {mad_frac:.4})")
    } else {
        format!("{median_frac:.4} ± {mad_frac:.4}")
    }
}

/// User + system CPU seconds of this process, from `/proc/self/stat`.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th overall. Ticks are 100 Hz on every Linux this
    // runs on (USER_HZ is fixed by the ABI).
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) of this process, megabytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The contract's result line.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": ", d.name);
        // Shortest text that round-trips: every digit measured, none
        // invented; a missing value is `null`.
        write_f64(&mut out, values.get(d.name).copied().unwrap_or(f64::NAN));
        let _ = write!(out, ", \"unit\": \"{}\"}}", d.unit);
    }
    out.push_str("}}");
    out
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 20;
/// How the driver starts one run, from the root of a checkout.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// `BENCHMARK.json`, generated from the tables above and the workloads'
/// `(name, why)`. Regenerate with
/// `benchmark/run.sh --manifest > BENCHMARK.json` after editing a table.
pub fn manifest_json(workloads: &[(&str, &str)]) -> String {
    let (command, paths, run_seconds) = (&COMMAND, &PATHS, RUN_SECONDS);
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(command));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(paths));
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = write!(out, "    {{\"name\": \"{name}\", \"why\": ");
        write_str(&mut out, why);
        let _ = writeln!(out, "}}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"end_to_end\": [");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"per_layer\": [");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
