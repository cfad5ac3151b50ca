//! Figure 10 microbenchmarks and the §5.1 simulator validation.

use crate::scale::{net_by_name, workload_for, Scale};
use owan_core::{SchedulingPolicy, SlotInput};
use owan_obs::Recorder;
use owan_sim::metrics::{self, SizeBin};
use owan_sim::runner::{make_engine, run_engine, EngineKind, RunnerConfig};
use owan_sim::validate::{validate_simulator, ValidationReport};
use owan_sim::{simulate_probed, Probes, SimConfig};
use owan_update::{
    plan_consistent, plan_one_shot, throughput_timeline, NetworkDelta, TimelinePoint, UpdateParams,
};

/// A `(time_s, gbps)` throughput time series.
pub type ThroughputSeries = Vec<(f64, f64)>;

fn runner_config(scale: &Scale) -> RunnerConfig {
    RunnerConfig {
        sim: SimConfig {
            slot_len_s: scale.slot_len_s,
            max_slots: 2_000,
            ..Default::default()
        },
        anneal_iterations: scale.anneal_iterations,
        seed: scale.seed,
        policy: SchedulingPolicy::ShortestJobFirst,
        ..Default::default()
    }
}

/// Figure 10(a): total throughput over time — joint simulated annealing vs
/// the greedy separate-layer algorithm. The
/// ISP backbone is driven at λ = 2, where per-pair demands are far below
/// the 100 Gbps wavelength granularity: the greedy layer-by-layer
/// algorithm burns router ports on dedicated per-pair circuits while the
/// joint search aggregates demand over shared links and multi-hop routes —
/// the coupling effect §5.4 describes. Returns the two `(time, Gbps)`
/// series, Owan first.
pub fn fig10a(scale: &Scale) -> (ThroughputSeries, ThroughputSeries) {
    let net = net_by_name("isp");
    let reqs = workload_for(&net, 2.0, None, scale);
    let cfg = runner_config(scale);
    let sa = run_engine(EngineKind::Owan, &net, &reqs, &cfg);
    let greedy = run_engine(EngineKind::Greedy, &net, &reqs, &cfg);
    (sa.throughput_series, greedy.throughput_series)
}

/// Prints Figure 10(a).
pub fn print_fig10a(sa: &[(f64, f64)], greedy: &[(f64, f64)]) {
    println!("# Figure 10(a) — simulated annealing vs greedy (isp, load 2)");
    println!("time_s,annealing_gbps,greedy_gbps");
    let n = sa.len().max(greedy.len());
    for i in 0..n {
        let t = sa
            .get(i)
            .or_else(|| greedy.get(i))
            .map(|p| p.0)
            .unwrap_or(0.0);
        let a = sa.get(i).map(|p| p.1).unwrap_or(0.0);
        let g = greedy.get(i).map(|p| p.1).unwrap_or(0.0);
        println!("{t:.0},{a:.1},{g:.1}");
    }
    // Compare means over the window where *both* runs still have backlog
    // (once one side drains, its throughput legitimately falls to zero and
    // the comparison would be meaningless).
    let overlap = sa.len().min(greedy.len());
    let avg = |s: &[(f64, f64)]| -> f64 {
        if overlap == 0 {
            0.0
        } else {
            s[..overlap].iter().map(|p| p.1).sum::<f64>() / overlap as f64
        }
    };
    println!(
        "# mean over common window: annealing {:.1} Gbps, greedy {:.1} Gbps ({:.0}% gap); slots to drain: {} vs {}",
        avg(sa),
        avg(greedy),
        100.0 * (1.0 - avg(greedy) / avg(sa).max(1e-9)),
        sa.len(),
        greedy.len()
    );
}

/// Output of [`fig10b`]: the two timelines plus the reconfiguration's
/// optical churn, which readers of the figure need for context — with no
/// circuit ops the delta is a pure path swap and one-shot has nothing to
/// darken.
pub struct Fig10b {
    /// Carried throughput under the consistent (Dionysus-style) schedule.
    pub consistent: Vec<TimelinePoint>,
    /// Carried throughput under the one-shot schedule.
    pub one_shot: Vec<TimelinePoint>,
    /// Circuit setup/teardown operations in the delta.
    pub circuit_ops: usize,
}

/// Figure 10(b): carried throughput during a reconfiguration, consistent
/// update vs one-shot. The scenario is a demand shift that forces optical
/// churn: long-lived background transfers keep flowing while the heavy
/// demand moves between site pairs, so the annealer re-aims circuits and
/// the background traffic must survive the reconfiguration. (At tiny
/// annealing scales the search may instead settle on a plan with no
/// optical churn; `circuit_ops` reports what happened.)
pub fn fig10b(scale: &Scale) -> Fig10b {
    let net = net_by_name("internet2");
    let cfg = runner_config(scale);
    let mut engine = make_engine(EngineKind::Owan, &net, &cfg);

    let site = |name: &str| net.plant.site_by_name(name).expect("site exists");
    let slot = scale.slot_len_s;
    let mk = |id: usize, src: &str, dst: &str, gbits: f64| {
        owan_core::Transfer::from_request(
            id,
            &owan_core::TransferRequest {
                src: site(src),
                dst: site(dst),
                volume_gbits: gbits,
                arrival_s: 0.0,
                deadline_s: None,
            },
        )
    };
    // Background flows that persist across both slots.
    let background = [
        mk(0, "SEAT", "WASH", 4.0 * 10.0 * slot),
        mk(1, "LOSA", "ATLA", 4.0 * 10.0 * slot),
    ];
    // Phase A heavy demand: mostly (but not fully) drains in slot 1, so it
    // is still alive — at a trickle — while the heavy demand moves to the
    // phase B pairs in slot 2.
    let phase_a = [
        mk(2, "SEAT", "LOSA", 1.1 * 20.0 * slot),
        mk(3, "DENV", "KANS", 1.1 * 20.0 * slot),
    ];
    let phase_b = [
        mk(4, "SALT", "HOUS", 3.0 * 20.0 * slot),
        mk(5, "CHIC", "ATLA", 3.0 * 20.0 * slot),
    ];

    let slot1: Vec<owan_core::Transfer> = background.iter().chain(&phase_a).cloned().collect();
    let plan1 = engine.plan_slot(
        &net.plant,
        &SlotInput {
            transfers: &slot1,
            slot_len_s: slot,
            now_s: 0.0,
        },
    );
    // Everything progresses by its slot-1 rate; phase B arrives.
    let progress = |t: &owan_core::Transfer| {
        let rate = plan1
            .allocations
            .iter()
            .find(|a| a.transfer == t.id)
            .map(|a| a.total_rate())
            .unwrap_or(0.0);
        let mut t = t.clone();
        t.remaining_gbits = (t.remaining_gbits - rate * slot).max(1.0);
        t
    };
    let slot2: Vec<owan_core::Transfer> = background
        .iter()
        .chain(&phase_a)
        .map(progress)
        .chain(phase_b.iter().cloned())
        .collect();
    let plan2 = engine.plan_slot(
        &net.plant,
        &SlotInput {
            transfers: &slot2,
            slot_len_s: slot,
            now_s: slot,
        },
    );

    let delta = NetworkDelta::from_plans(
        &plan1.topology,
        &plan1.allocations,
        &plan2.topology,
        &plan2.allocations,
        net.plant.params().wavelengths_per_fiber,
    );
    let params = UpdateParams {
        theta_gbps: net.plant.params().wavelength_capacity_gbps,
        circuit_time_s: net.plant.params().circuit_reconfig_time_s,
        path_time_s: 0.1,
    };
    let consistent = plan_consistent(&delta, &params);
    let one_shot = plan_one_shot(&delta, &params);
    let horizon = consistent.makespan_s.max(one_shot.makespan_s) + 2.0;
    Fig10b {
        consistent: throughput_timeline(&delta, &consistent, &params, 0.1, horizon),
        one_shot: throughput_timeline(&delta, &one_shot, &params, 0.1, horizon),
        circuit_ops: delta.removed_circuits.len() + delta.added_circuits.len(),
    }
}

/// Prints Figure 10(b).
pub fn print_fig10b(fig: &Fig10b) {
    println!("# Figure 10(b) — throughput during update: consistent vs one-shot");
    println!("time_s,consistent_gbps,one_shot_gbps");
    for (c, o) in fig.consistent.iter().zip(&fig.one_shot) {
        println!(
            "{:.1},{:.2},{:.2}",
            c.time_s, c.throughput_gbps, o.throughput_gbps
        );
    }
    let min = |s: &[TimelinePoint]| {
        s.iter()
            .map(|p| p.throughput_gbps)
            .fold(f64::INFINITY, f64::min)
    };
    let start = fig
        .consistent
        .first()
        .map(|p| p.throughput_gbps)
        .unwrap_or(0.0);
    println!(
        "# initial {:.1} Gbps; min consistent {:.1}; min one-shot {:.1}; circuit ops {}",
        start,
        min(&fig.consistent),
        min(&fig.one_shot),
        fig.circuit_ops
    );
}

/// Figure 10(c): breakdown of gains — rate-only, +routing, +topology —
/// on the inter-DC network. Returns, per load factor, the average
/// completion time of the three control levels, normalized by the
/// +topology value at the lowest load (the paper's normalization).
pub fn fig10c(scale: &Scale) -> Vec<(f64, [f64; 3])> {
    let net = net_by_name("interdc");
    let cfg = runner_config(scale);
    let kinds = [
        EngineKind::RateOnly,
        EngineKind::RoutingRate,
        EngineKind::Owan,
    ];
    let mut raw: Vec<(f64, [f64; 3])> = Vec::new();
    for &load in &scale.loads {
        let reqs = workload_for(&net, load, None, scale);
        let mut row = [0.0; 3];
        for (i, &kind) in kinds.iter().enumerate() {
            let res = run_engine(kind, &net, &reqs, &cfg);
            let (avg, _) = metrics::summary(&res, SizeBin::All);
            row[i] = avg;
        }
        raw.push((load, row));
    }
    let base = raw
        .first()
        .map(|(_, row)| row[2])
        .filter(|&b| b > 0.0)
        .unwrap_or(1.0);
    raw.iter()
        .map(|&(load, row)| (load, [row[0] / base, row[1] / base, row[2] / base]))
        .collect()
}

/// Prints Figure 10(c).
pub fn print_fig10c(rows: &[(f64, [f64; 3])]) {
    println!("# Figure 10(c) — breakdown of gains (interdc)");
    println!("load,rate,+rout.,+topo.");
    for (load, [r, rr, t]) in rows {
        println!("{load},{r:.2},{rr:.2},{t:.2}");
    }
}

/// One point of the Figure 10(d) sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig10dRow {
    /// Annealing iteration cap per slot.
    pub iterations: usize,
    /// Iterations the annealer actually ran, mean per planned slot (the
    /// walk also stops once the temperature cools below `ε`).
    pub iterations_run: f64,
    /// Measured wall time per planned slot, milliseconds.
    pub ms_per_slot: f64,
    /// Average transfer completion time, seconds.
    pub avg_completion_s: f64,
}

/// Iteration caps Figure 10(d) sweeps. The walk cools as `T₀·αⁿ` and stops
/// below `ε`, so it never runs more than `ln(T₀/ε)/ln(1/α)` iterations:
/// ~160–225 at α = 0.95, ε = 1 and Gbps-scale throughputs. Every point
/// sits below that horizon.
const FIG10D_ITERATIONS: [usize; 5] = [5, 10, 20, 40, 80];

/// Figure 10(d): average completion time vs the simulated-annealing
/// search budget, on the inter-DC network at λ = 1. The paper sweeps
/// wall-clock time; a plan here is a function of its inputs only, so the
/// budget is an iteration count, reported with the time it took.
pub fn fig10d(scale: &Scale) -> Vec<Fig10dRow> {
    let net = net_by_name("interdc");
    let reqs = workload_for(&net, 1.0, None, scale);
    FIG10D_ITERATIONS
        .iter()
        .map(|&iterations| {
            let cfg = RunnerConfig {
                anneal_iterations: iterations,
                ..runner_config(scale)
            };
            let start = std::time::Instant::now();
            let res = run_engine(EngineKind::Owan, &net, &reqs, &cfg);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            // The same run again with a recorder, for the iteration count:
            // the recorder changes no plan, and keeping it off the timed
            // run keeps its cost out of the milliseconds.
            let probes = Probes {
                recorder: Recorder::enabled(),
                ..Default::default()
            };
            let mut engine = make_engine(EngineKind::Owan, &net, &cfg);
            simulate_probed(&net.plant, &reqs, engine.as_mut(), &cfg.sim, &probes);
            let iterations_run = probes.recorder.counter("anneal.iterations").get() as f64;
            let planned = res.throughput_series.len().max(1) as f64;
            let (avg, _) = metrics::summary(&res, SizeBin::All);
            Fig10dRow {
                iterations,
                iterations_run: iterations_run / planned,
                ms_per_slot: wall_ms / planned,
                avg_completion_s: avg,
            }
        })
        .collect()
}

/// Prints Figure 10(d).
pub fn print_fig10d(rows: &[Fig10dRow]) {
    println!("# Figure 10(d) — impact of the annealing search budget (interdc)");
    println!("sa_iterations,iterations_run,ms_per_slot,avg_completion_s");
    for r in rows {
        println!(
            "{},{:.1},{:.2},{:.0}",
            r.iterations, r.iterations_run, r.ms_per_slot, r.avg_completion_s
        );
    }
}

/// The §5.1 simulator-vs-testbed validation on the Internet2 topology.
pub fn validation(scale: &Scale) -> Vec<ValidationReport> {
    let net = net_by_name("internet2");
    let reqs = workload_for(&net, 1.0, None, scale);
    let cfg = runner_config(scale);
    [EngineKind::Owan, EngineKind::MaxFlow, EngineKind::Swan]
        .iter()
        .map(|&kind| validate_simulator(kind, &net, &reqs, &cfg, 0.93))
        .collect()
}

/// Prints the validation table.
pub fn print_validation(reports: &[ValidationReport]) {
    println!("# Section 5.1 — simulator vs (emulated) testbed validation");
    println!("engine,sim_avg_s,testbed_avg_s,avg_delta_pct,sim_p95_s,testbed_p95_s,p95_delta_pct");
    for r in reports {
        println!(
            "{},{:.0},{:.0},{:.1},{:.0},{:.0},{:.1}",
            r.engine,
            r.sim_avg_s,
            r.testbed_avg_s,
            100.0 * r.avg_delta(),
            r.sim_p95_s,
            r.testbed_p95_s,
            100.0 * r.p95_delta()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            duration_s: 900.0,
            max_requests: 10,
            anneal_iterations: 40,
            loads: vec![0.5, 1.0],
            ..Scale::quick()
        }
    }

    #[test]
    fn fig10a_series_nonempty() {
        let (sa, greedy) = fig10a(&tiny_scale());
        assert!(!sa.is_empty());
        assert!(!greedy.is_empty());
    }

    #[test]
    fn fig10b_consistent_preserves_traffic_one_shot_does_not() {
        let fig = fig10b(&tiny_scale());
        assert!(!fig.consistent.is_empty());
        assert!(!fig.one_shot.is_empty());
        let min = |s: &[owan_update::TimelinePoint]| {
            s.iter()
                .map(|p| p.throughput_gbps)
                .fold(f64::INFINITY, f64::min)
        };
        // The consistent schedule keeps live traffic flowing throughout
        // the reconfiguration (the step down from the initial value is the
        // demand change at the slot boundary, not loss); one-shot darkens
        // the circuits under it.
        assert!(
            min(&fig.consistent) > 0.0,
            "consistent carried traffic drops to zero"
        );
        // The one-shot-loses-more property only holds when circuits move:
        // a pure path swap has nothing to darken, and the consistent
        // schedule's capacity-ordered staging can transiently carry less
        // than an instantaneous swap. At tiny annealing scales the search
        // may settle on such a plan; at full scale the demand shift forces
        // optical churn and one-shot strictly loses.
        if fig.circuit_ops > 0 {
            assert!(
                min(&fig.one_shot) <= min(&fig.consistent) + 1e-6,
                "one-shot ({}) cannot lose less than consistent ({})",
                min(&fig.one_shot),
                min(&fig.consistent)
            );
        }
    }

    #[test]
    fn fig10c_rows_normalized() {
        let rows = fig10c(&tiny_scale());
        assert_eq!(rows.len(), 2);
        // The first row's +topo value is the normalization base.
        assert!((rows[0].1[2] - 1.0).abs() < 1e-9);
        // More control never hurts on average: rate >= +rout >= +topo.
        for (_, [r, rr, t]) in &rows {
            assert!(*r >= *rr - 0.25, "rate {r} vs +rout {rr}");
            assert!(*rr >= *t - 0.25, "+rout {rr} vs +topo {t}");
        }
    }

    #[test]
    fn validation_reports_all_engines() {
        let reports = validation(&tiny_scale());
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.sim_avg_s > 0.0);
            assert!(r.testbed_avg_s >= r.sim_avg_s);
        }
    }
}
