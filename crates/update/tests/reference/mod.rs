//! The update step as it stood before it moved to dense indices, kept as
//! the reference the differential tests compare against: the sampled
//! `throughput_timeline` (a fresh `HashMap` of every lit link at each
//! sample), the `HashMap`-state consistent scheduler, and the transition
//! integral of the two controller loops. Copied verbatim from commit
//! bc4791f (`crates/update/src/{timeline,plan}.rs`,
//! `crates/sim/src/controller.rs`), except that the delta's resource levels
//! are read through its accessors.

use owan_optical::{FiberId, SiteId};
use owan_update::{NetworkDelta, OpKind, ScheduledOp, TimelinePoint, UpdateParams, UpdatePlan};
use std::collections::HashMap;

const EPS: f64 = 1e-9;

pub fn throughput_timeline(
    delta: &NetworkDelta,
    plan: &UpdatePlan,
    params: &UpdateParams,
    dt_s: f64,
    horizon_s: f64,
) -> Vec<TimelinePoint> {
    assert!(dt_s > 0.0 && horizon_s > 0.0);

    // Precompute per-op windows by identity.
    let mut remove_end: HashMap<usize, f64> = HashMap::new();
    let mut add_end: HashMap<usize, f64> = HashMap::new();
    let mut teardown_start: HashMap<usize, f64> = HashMap::new();
    let mut setup_end: HashMap<usize, f64> = HashMap::new();
    for op in &plan.ops {
        match op.kind {
            OpKind::RemovePath(i) => {
                remove_end.insert(i, op.end_s);
            }
            OpKind::AddPath(i) => {
                add_end.insert(i, op.end_s);
            }
            OpKind::TeardownCircuit(i) => {
                teardown_start.insert(i, op.start_s);
            }
            OpKind::SetupCircuit(i) => {
                setup_end.insert(i, op.end_s);
            }
        }
    }

    let key = |u: SiteId, v: SiteId| (u.min(v), u.max(v));
    let theta = params.theta_gbps;

    let mut points = Vec::new();
    let steps = (horizon_s / dt_s).ceil() as usize;
    for step in 0..=steps {
        let t = step as f64 * dt_s;

        // Lit circuits per link at time t.
        let mut lit: HashMap<(SiteId, SiteId), f64> = delta
            .initial_links()
            .iter()
            .map(|&(k, m)| (k, m as f64 * theta))
            .collect();
        for (i, c) in delta.removed_circuits.iter().enumerate() {
            let start = teardown_start.get(&i).copied().unwrap_or(f64::INFINITY);
            if t >= start {
                let e = lit.entry(key(c.u, c.v)).or_insert(0.0);
                *e = (*e - theta).max(0.0);
            }
        }
        for (i, c) in delta.added_circuits.iter().enumerate() {
            let end = setup_end.get(&i).copied().unwrap_or(f64::INFINITY);
            if t >= end {
                *lit.entry(key(c.u, c.v)).or_insert(0.0) += theta;
            }
        }

        // Installed paths at time t, in deterministic order.
        let mut residual = lit;
        let mut total = 0.0;
        let carry = |nodes: &[SiteId], rate: f64, residual: &mut HashMap<(SiteId, SiteId), f64>| {
            let feasible = nodes
                .windows(2)
                .map(|w| residual.get(&key(w[0], w[1])).copied().unwrap_or(0.0))
                .fold(f64::INFINITY, f64::min);
            let served = rate.min(feasible.max(0.0));
            if served > 0.0 {
                for w in nodes.windows(2) {
                    *residual.get_mut(&key(w[0], w[1])).expect("seen above") -= served;
                }
            }
            served
        };
        for p in &delta.unchanged_paths {
            total += carry(&p.nodes, p.rate_gbps, &mut residual);
        }
        for (i, p) in delta.removed_paths.iter().enumerate() {
            let stop = remove_end.get(&i).copied().unwrap_or(f64::INFINITY);
            if t < stop {
                total += carry(&p.nodes, p.rate_gbps, &mut residual);
            }
        }
        for (i, p) in delta.added_paths.iter().enumerate() {
            let live = add_end.get(&i).copied().unwrap_or(f64::INFINITY);
            if t >= live {
                total += carry(&p.nodes, p.rate_gbps, &mut residual);
            }
        }

        points.push(TimelinePoint {
            time_s: t,
            throughput_gbps: total,
        });
    }
    points
}

struct SchedState {
    link_circuits: HashMap<(SiteId, SiteId), u32>,
    reserved_load: HashMap<(SiteId, SiteId), f64>,
    carried_load: HashMap<(SiteId, SiteId), f64>,
    fiber_free: HashMap<FiberId, u32>,
}

impl SchedState {
    fn key(u: SiteId, v: SiteId) -> (SiteId, SiteId) {
        (u.min(v), u.max(v))
    }

    fn circuits(&self, u: SiteId, v: SiteId) -> u32 {
        *self.link_circuits.get(&Self::key(u, v)).unwrap_or(&0)
    }

    fn reserved(&self, u: SiteId, v: SiteId) -> f64 {
        *self.reserved_load.get(&Self::key(u, v)).unwrap_or(&0.0)
    }

    fn carried(&self, u: SiteId, v: SiteId) -> f64 {
        *self.carried_load.get(&Self::key(u, v)).unwrap_or(&0.0)
    }

    fn add_reserved(&mut self, nodes: &[SiteId], rate: f64) {
        for w in nodes.windows(2) {
            *self
                .reserved_load
                .entry(Self::key(w[0], w[1]))
                .or_insert(0.0) += rate;
        }
    }

    fn add_carried(&mut self, nodes: &[SiteId], rate: f64) {
        for w in nodes.windows(2) {
            *self
                .carried_load
                .entry(Self::key(w[0], w[1]))
                .or_insert(0.0) += rate;
        }
    }
}

pub fn plan_consistent(delta: &NetworkDelta, params: &UpdateParams) -> UpdatePlan {
    let theta = params.theta_gbps;
    let mut state = SchedState {
        link_circuits: delta.initial_links().iter().copied().collect(),
        reserved_load: HashMap::new(),
        carried_load: HashMap::new(),
        fiber_free: delta.free_fibers().iter().copied().collect(),
    };
    // Initial load: unchanged + to-be-removed paths carry traffic now.
    for p in delta.unchanged_paths.iter().chain(&delta.removed_paths) {
        state.add_reserved(&p.nodes, p.rate_gbps);
        state.add_carried(&p.nodes, p.rate_gbps);
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Status {
        Pending,
        Running,
        Done,
    }
    let mut all_ops: Vec<OpKind> = Vec::new();
    for i in 0..delta.removed_paths.len() {
        all_ops.push(OpKind::RemovePath(i));
    }
    for i in 0..delta.removed_circuits.len() {
        all_ops.push(OpKind::TeardownCircuit(i));
    }
    for i in 0..delta.added_circuits.len() {
        all_ops.push(OpKind::SetupCircuit(i));
    }
    for i in 0..delta.added_paths.len() {
        all_ops.push(OpKind::AddPath(i));
    }

    let duration = |k: OpKind| match k {
        OpKind::RemovePath(_) | OpKind::AddPath(_) => params.path_time_s,
        OpKind::TeardownCircuit(_) | OpKind::SetupCircuit(_) => params.circuit_time_s,
    };

    let mut status = vec![Status::Pending; all_ops.len()];
    let mut scheduled: Vec<ScheduledOp> = Vec::with_capacity(all_ops.len());
    let mut start_times = vec![0.0f64; all_ops.len()];
    let mut end_times = vec![0.0f64; all_ops.len()];
    let mut now = 0.0f64;

    // Readiness check against the current resource state. `path_added`
    // reports whether an AddPath op has completed (by added_paths index).
    let ready = |k: OpKind, state: &SchedState, path_added: &dyn Fn(usize) -> bool| -> bool {
        match k {
            OpKind::RemovePath(i) => {
                // Make-before-break: do not take a transfer's traffic off
                // its old path until all of its new paths are installed.
                let t = delta.removed_paths[i].transfer;
                delta
                    .added_paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.transfer == t)
                    .all(|(j, _)| path_added(j))
            }
            OpKind::TeardownCircuit(i) => {
                let c = &delta.removed_circuits[i];
                // Removing one circuit must not strand live traffic: the
                // remaining capacity must cover both the wire-visible load
                // (in-flight removals still carry until they complete) and
                // the reserved load (in-flight installs land later).
                let cap = (state.circuits(c.u, c.v).saturating_sub(1)) as f64 * theta + EPS;
                state.carried(c.u, c.v) <= cap && state.reserved(c.u, c.v) <= cap
            }
            OpKind::SetupCircuit(i) => {
                let c = &delta.added_circuits[i];
                c.fibers
                    .iter()
                    .all(|f| *state.fiber_free.get(f).unwrap_or(&0) > 0)
            }
            OpKind::AddPath(i) => {
                // Admission is against the reserved view, so concurrent
                // installs cannot jointly oversubscribe a link. (An install
                // that starts while a removal is in flight is safe: both
                // take `path_time_s`, so the new traffic cannot land before
                // the old traffic is gone.)
                let p = &delta.added_paths[i];
                p.nodes.windows(2).all(|w| {
                    state.reserved(w[0], w[1]) + p.rate_gbps
                        <= state.circuits(w[0], w[1]) as f64 * theta + EPS
                })
            }
        }
    };

    // Effects applied at op start (resource reservation / traffic off).
    let apply_start = |k: OpKind, state: &mut SchedState| match k {
        OpKind::RemovePath(i) => {
            // Sending stops as soon as the removal begins; the reservation
            // is released now, the carried view at completion.
            let p = &delta.removed_paths[i];
            state.add_reserved(&p.nodes, -p.rate_gbps);
        }
        OpKind::TeardownCircuit(i) => {
            // The circuit goes dark at start.
            let c = &delta.removed_circuits[i];
            let key = SchedState::key(c.u, c.v);
            let e = state.link_circuits.entry(key).or_insert(0);
            *e = e.saturating_sub(1);
        }
        OpKind::SetupCircuit(i) => {
            // Reserve the wavelengths.
            let c = &delta.added_circuits[i];
            for f in &c.fibers {
                let e = state.fiber_free.entry(*f).or_insert(0);
                *e = e.saturating_sub(1);
            }
        }
        OpKind::AddPath(i) => {
            // Reserve the capacity the moment the install starts.
            let p = &delta.added_paths[i];
            state.add_reserved(&p.nodes, p.rate_gbps);
        }
    };
    // Effects applied at op end.
    let apply_end = |k: OpKind, state: &mut SchedState| match k {
        OpKind::RemovePath(i) => {
            // The old traffic is off the wire once the removal completes.
            let p = &delta.removed_paths[i];
            state.add_carried(&p.nodes, -p.rate_gbps);
        }
        OpKind::TeardownCircuit(i) => {
            // Wavelengths are free once the teardown completes.
            let c = &delta.removed_circuits[i];
            for f in &c.fibers {
                *state.fiber_free.entry(*f).or_insert(0) += 1;
            }
        }
        OpKind::SetupCircuit(i) => {
            let c = &delta.added_circuits[i];
            *state
                .link_circuits
                .entry(SchedState::key(c.u, c.v))
                .or_insert(0) += 1;
        }
        OpKind::AddPath(i) => {
            let p = &delta.added_paths[i];
            state.add_carried(&p.nodes, p.rate_gbps);
        }
    };

    loop {
        // Complete everything ending at or before `now`.
        // (Completions at identical times are applied in op order.)
        for (idx, st) in status.iter_mut().enumerate() {
            if *st == Status::Running && end_times[idx] <= now + EPS {
                *st = Status::Done;
                apply_end(all_ops[idx], &mut state);
            }
        }

        // Start every ready op. Readiness is evaluated against a snapshot
        // of completion state so this round's starts don't feed back.
        let add_op_index: Vec<usize> = (0..delta.added_paths.len())
            .map(|j| {
                all_ops
                    .iter()
                    .position(|&k| k == OpKind::AddPath(j))
                    .expect("every added path has an op")
            })
            .collect();
        let done_snapshot: Vec<bool> = status.iter().map(|&s| s == Status::Done).collect();
        let path_added = move |j: usize| done_snapshot[add_op_index[j]];
        let ready_now: Vec<bool> = (0..all_ops.len())
            .map(|idx| status[idx] == Status::Pending && ready(all_ops[idx], &state, &path_added))
            .collect();
        let mut started_any = false;
        for idx in 0..all_ops.len() {
            // Re-check against the live state: ops started earlier in this
            // round may have consumed the resources this op needed.
            if ready_now[idx]
                && status[idx] == Status::Pending
                && ready(all_ops[idx], &state, &path_added)
            {
                status[idx] = Status::Running;
                start_times[idx] = now;
                end_times[idx] = now + duration(all_ops[idx]);
                apply_start(all_ops[idx], &mut state);
                scheduled.push(ScheduledOp {
                    kind: all_ops[idx],
                    start_s: now,
                    end_s: end_times[idx],
                    forced: false,
                });
                started_any = true;
            }
        }

        if status.iter().all(|&s| s == Status::Done) {
            break;
        }

        // Advance to the next completion.
        let next_end = status
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == Status::Running)
            .map(|(i, _)| end_times[i])
            .fold(f64::INFINITY, f64::min);

        if next_end.is_finite() {
            now = next_end;
        } else if !started_any {
            // Deadlock. Dionysus breaks these by rate reduction; forcing a
            // path removal is exactly that — the transfer loses throughput
            // until its replacement paths fit, but taking traffic *off* a
            // link can never overload or blackhole anything. Only when no
            // removal is pending does the first pending op get forced.
            let idx = status
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == Status::Pending)
                .min_by_key(|&(i, _)| match all_ops[i] {
                    OpKind::RemovePath(_) => (0, i),
                    _ => (1, i),
                })
                .map(|(i, _)| i)
                .expect("pending op exists");
            status[idx] = Status::Running;
            start_times[idx] = now;
            end_times[idx] = now + duration(all_ops[idx]);
            apply_start(all_ops[idx], &mut state);
            scheduled.push(ScheduledOp {
                kind: all_ops[idx],
                start_s: now,
                end_s: end_times[idx],
                forced: true,
            });
        }
    }

    let makespan_s = scheduled.iter().map(|o| o.end_s).fold(0.0, f64::max);
    scheduled.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    UpdatePlan {
        ops: scheduled,
        makespan_s,
    }
}

pub fn transition_scale(
    delta: &NetworkDelta,
    plan: &UpdatePlan,
    params: &UpdateParams,
    slot_len_s: f64,
    new_total_gbps: f64,
) -> (f64, f64) {
    if plan.ops.is_empty() || new_total_gbps <= EPS {
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
    let ideal_gbits = new_total_gbps * window;
    let steady_gbits = new_total_gbps * (slot_len_s - window);
    let slot_ideal = new_total_gbps * slot_len_s;
    let delivered = carried_gbits + steady_gbits;
    let scale = (delivered / slot_ideal).clamp(0.0, 1.0);
    (scale, (ideal_gbits - carried_gbits).max(0.0))
}
