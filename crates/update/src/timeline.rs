//! Replaying an update schedule into a carried-throughput timeline
//! (Figure 10(b)), and the one integral both controller loops take over it.
//!
//! At any instant, a path carries traffic iff it is installed (old paths
//! until their removal *completes*; new paths once their installation
//! *ends*)
//! and every link it crosses has enough *lit* circuit capacity. A circuit
//! goes dark when its teardown starts and a new circuit lights up when its
//! setup ends — so a one-shot update leaves paths riding dark circuits and
//! the timeline shows the throughput dip the paper measures.
//!
//! # What is evaluated, and when
//!
//! The replay asks one kind of question of the schedule: is `t >= x`, for
//! `x` an operation's start or end. The finite such instants, sorted and
//! de-duplicated, are the **thresholds**, and the network state at time `t`
//! is a function of *how many thresholds are `<= t`* and nothing else: two
//! samples with the same count answer every `t >= x` alike. So the
//! timeline keeps the caller's sample grid (`step · dt`, which the
//! trapezoid in [`transition_scale`] needs bit for bit) but evaluates the
//! state only at a sample where that count moved, and repeats the previous
//! throughput otherwise — exactly, not approximately. A schedule has a
//! handful of distinct instants, so an update costs its events, not its
//! samples.
//!
//! One evaluation runs on a flat `n × n` residual-capacity table (link
//! `(u, v)` at `min·n + max`, `n` the delta's site bound) reset from a base
//! row of the initial lit capacity; a link that was never lit reads `0.0`.
//! Every path's hop indices are computed once per call.

use crate::plan::{
    link_index, CircuitDesc, NetworkDelta, OpKind, PathHops, UpdateParams, UpdatePlan, EPS,
};

/// One sample of the carried-throughput timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Time, seconds from the start of the update.
    pub time_s: f64,
    /// Total carried traffic, Gbps.
    pub throughput_gbps: f64,
}

/// Replays `plan` over `delta` and samples carried throughput every
/// `dt_s` seconds from `0` to `horizon_s` (which should cover the plan's
/// makespan plus some margin).
///
/// A plan that names one operation twice replays the later entry; an
/// operation whose index lies outside the delta is ignored, and one the
/// plan does not name never happens.
pub fn throughput_timeline(
    delta: &NetworkDelta,
    plan: &UpdatePlan,
    params: &UpdateParams,
    dt_s: f64,
    horizon_s: f64,
) -> Vec<TimelinePoint> {
    assert!(dt_s > 0.0 && horizon_s > 0.0);

    // Per-op instants by delta index.
    let mut remove_end = vec![f64::INFINITY; delta.removed_paths.len()];
    let mut add_end = vec![f64::INFINITY; delta.added_paths.len()];
    let mut teardown_start = vec![f64::INFINITY; delta.removed_circuits.len()];
    let mut setup_end = vec![f64::INFINITY; delta.added_circuits.len()];
    for op in &plan.ops {
        let (instants, i, at) = match op.kind {
            OpKind::RemovePath(i) => (&mut remove_end, i, op.end_s),
            OpKind::AddPath(i) => (&mut add_end, i, op.end_s),
            OpKind::TeardownCircuit(i) => (&mut teardown_start, i, op.start_s),
            OpKind::SetupCircuit(i) => (&mut setup_end, i, op.end_s),
        };
        if let Some(instant) = instants.get_mut(i) {
            *instant = at;
        }
    }
    let mut thresholds: Vec<f64> = [&remove_end, &add_end, &teardown_start, &setup_end]
        .into_iter()
        .flatten()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    thresholds.sort_unstable_by(f64::total_cmp);
    thresholds.dedup();

    let n = delta.site_bound();
    let theta = params.theta_gbps;
    let mut lit = vec![0.0f64; n * n];
    for &((u, v), m) in delta.initial_links() {
        lit[link_index(n, u, v)] = m as f64 * theta;
    }
    let link_of = |c: &CircuitDesc| link_index(n, c.u, c.v);
    let removed_links: Vec<usize> = delta.removed_circuits.iter().map(link_of).collect();
    let added_links: Vec<usize> = delta.added_circuits.iter().map(link_of).collect();
    let unchanged_hops = PathHops::new(n, &delta.unchanged_paths);
    let removed_hops = PathHops::new(n, &delta.removed_paths);
    let added_hops = PathHops::new(n, &delta.added_paths);

    let mut residual = vec![0.0f64; n * n];
    let carry = |hops: &[usize], rate: f64, residual: &mut [f64]| {
        let feasible = hops
            .iter()
            .map(|&l| residual[l])
            .fold(f64::INFINITY, f64::min);
        let served = rate.min(feasible.max(0.0));
        if served > 0.0 {
            for &l in hops {
                residual[l] -= served;
            }
        }
        served
    };
    // Carried throughput with the network as it stands at time `t`.
    let mut evaluate = |t: f64| {
        // Lit capacity per link at time t.
        residual.copy_from_slice(&lit);
        for (&l, &start) in removed_links.iter().zip(&teardown_start) {
            if t >= start {
                residual[l] = (residual[l] - theta).max(0.0);
            }
        }
        for (&l, &end) in added_links.iter().zip(&setup_end) {
            if t >= end {
                residual[l] += theta;
            }
        }

        // Installed paths at time t, in deterministic order.
        let mut total = 0.0;
        for (i, p) in delta.unchanged_paths.iter().enumerate() {
            total += carry(unchanged_hops.of(i), p.rate_gbps, &mut residual);
        }
        for (i, p) in delta.removed_paths.iter().enumerate() {
            if t < remove_end[i] {
                total += carry(removed_hops.of(i), p.rate_gbps, &mut residual);
            }
        }
        for (i, p) in delta.added_paths.iter().enumerate() {
            if t >= add_end[i] {
                total += carry(added_hops.of(i), p.rate_gbps, &mut residual);
            }
        }
        total
    };

    let steps = (horizon_s / dt_s).ceil() as usize;
    let mut points = Vec::with_capacity(steps + 1);
    let mut passed = 0; // thresholds <= t
    let mut throughput_gbps = 0.0;
    for step in 0..=steps {
        let t = step as f64 * dt_s;
        let before = passed;
        while passed < thresholds.len() && thresholds[passed] <= t {
            passed += 1;
        }
        if step == 0 || passed != before {
            throughput_gbps = evaluate(t);
        }
        points.push(TimelinePoint {
            time_s: t,
            throughput_gbps,
        });
    }
    points
}

/// How much of a slot an update transition lets through: `plan` (the
/// schedule, or what an execution made of it) replayed over `delta` for
/// the first `makespan.min(slot_len_s)` seconds of the slot, after which
/// `total_gbps` — the allocation the slot settles on — flows. Returns
/// `(scale, loss_gbits)`: the factor by which the slot's delivered volume
/// falls short of `total_gbps · slot_len_s` (the timeline is a
/// network-level quantity, so callers scale every transfer alike), and the
/// gigabits the transition window carried less than the settled rate
/// would have.
pub fn transition_scale(
    delta: &NetworkDelta,
    plan: &UpdatePlan,
    params: &UpdateParams,
    slot_len_s: f64,
    total_gbps: f64,
) -> (f64, f64) {
    if plan.ops.is_empty() || total_gbps <= EPS {
        return (1.0, 0.0);
    }
    let window = plan.makespan_s.min(slot_len_s);
    if window <= EPS {
        return (1.0, 0.0);
    }
    let dt = (window / 64.0).max(0.05);
    let tl = throughput_timeline(delta, plan, params, dt, window);
    // Trapezoidal integral of carried Gbps over the window.
    let mut carried_gbits = 0.0;
    for w in tl.windows(2) {
        carried_gbits +=
            0.5 * (w[0].throughput_gbps + w[1].throughput_gbps) * (w[1].time_s - w[0].time_s);
    }
    let ideal_gbits = total_gbps * window;
    let steady_gbits = total_gbps * (slot_len_s - window);
    let slot_ideal = total_gbps * slot_len_s;
    let delivered = carried_gbits + steady_gbits;
    let scale = (delivered / slot_ideal).clamp(0.0, 1.0);
    (scale, (ideal_gbits - carried_gbits).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_consistent, plan_one_shot};
    use owan_core::{Allocation, Topology};

    /// Old ring with traffic on 1-2; new topology drops 1-2 and doubles
    /// 0-1, rerouting the transfer over 0-1... built from real plans.
    fn delta() -> NetworkDelta {
        let mut old_t = Topology::empty(4);
        for i in 0..4 {
            old_t.add_links(i, (i + 1) % 4, 1);
        }
        let mut new_t = Topology::empty(4);
        new_t.add_links(0, 1, 2);
        new_t.add_links(2, 3, 2);
        let old_a = vec![
            Allocation {
                transfer: 0,
                paths: vec![(vec![0, 1], 80.0)],
            },
            Allocation {
                transfer: 1,
                paths: vec![(vec![2, 3], 80.0)],
            },
        ];
        let new_a = vec![
            Allocation {
                transfer: 0,
                paths: vec![(vec![0, 1], 160.0)],
            },
            Allocation {
                transfer: 1,
                paths: vec![(vec![2, 3], 160.0)],
            },
        ];
        NetworkDelta::from_plans(&old_t, &old_a, &new_t, &new_a, 4)
    }

    #[test]
    fn consistent_update_never_dips() {
        let d = delta();
        let params = UpdateParams::default();
        let plan = plan_consistent(&d, &params);
        let tl = throughput_timeline(&d, &plan, &params, 0.1, plan.makespan_s + 2.0);
        let initial = tl[0].throughput_gbps;
        assert!((initial - 160.0).abs() < 1e-6, "initial carried {initial}");
        for p in &tl {
            assert!(
                p.throughput_gbps >= initial - 1e-6,
                "dip to {} at t={}",
                p.throughput_gbps,
                p.time_s
            );
        }
        // And it ends higher (the doubled links carry 320).
        let final_tp = tl.last().unwrap().throughput_gbps;
        assert!((final_tp - 320.0).abs() < 1e-6, "final {final_tp}");
    }

    /// A reroute: the transfer moves from the two-hop path 0-3-2 to a new
    /// direct 0-2 circuit (the 0-3 link is dropped to pay for it).
    fn reroute_delta() -> NetworkDelta {
        let mut old_t = Topology::empty(4);
        for i in 0..4 {
            old_t.add_links(i, (i + 1) % 4, 1);
        }
        let mut new_t = Topology::empty(4);
        new_t.add_links(0, 1, 1);
        new_t.add_links(1, 2, 1);
        new_t.add_links(2, 3, 1);
        new_t.add_links(0, 2, 1);
        let old_a = vec![Allocation {
            transfer: 0,
            paths: vec![(vec![0, 3, 2], 80.0)],
        }];
        let new_a = vec![Allocation {
            transfer: 0,
            paths: vec![(vec![0, 2], 80.0)],
        }];
        NetworkDelta::from_plans(&old_t, &old_a, &new_t, &new_a, 4)
    }

    #[test]
    fn one_shot_update_dips() {
        // One-shot removes the old path immediately while the new circuit
        // is still dark for `circuit_time_s`: traffic gap.
        let d = reroute_delta();
        let params = UpdateParams::default();
        let plan = plan_one_shot(&d, &params);
        let tl = throughput_timeline(&d, &plan, &params, 0.1, 8.0);
        let min = tl
            .iter()
            .map(|p| p.throughput_gbps)
            .fold(f64::INFINITY, f64::min);
        assert!(min < 1.0, "one-shot should drop the flow, min was {min}");
        let final_tp = tl.last().unwrap().throughput_gbps;
        assert!((final_tp - 80.0).abs() < 1e-6, "recovers to {final_tp}");
    }

    #[test]
    fn consistent_reroute_is_hitless() {
        let d = reroute_delta();
        let params = UpdateParams::default();
        let plan = plan_consistent(&d, &params);
        let tl = throughput_timeline(&d, &plan, &params, 0.1, plan.makespan_s + 2.0);
        for p in &tl {
            assert!(
                p.throughput_gbps >= 80.0 - 1e-6,
                "dip to {} at t={}",
                p.throughput_gbps,
                p.time_s
            );
        }
    }

    #[test]
    fn timeline_is_dense_and_monotone_in_time() {
        let d = delta();
        let params = UpdateParams::default();
        let plan = plan_consistent(&d, &params);
        let tl = throughput_timeline(&d, &plan, &params, 0.5, 10.0);
        assert_eq!(tl.len(), 21);
        for w in tl.windows(2) {
            assert!(w[1].time_s > w[0].time_s);
        }
    }
}
