//! The cross-layer invariant checker.
//!
//! [`check_plan`] verifies one [`SlotPlan`] against the physical plant and
//! the transfer set it was computed for: router-port budgets, route/circuit
//! agreement (every routed hop is backed by an optical circuit the plant
//! can actually build), wavelength and regenerator budgets in the optical
//! realization, link-capacity conservation, and deadline/demand-rate
//! consistency. [`check_timeline`] replays a consistent update schedule
//! and asserts every intermediate instant is free of blackholes, loops,
//! and link overloads (paper §3.3's consistency goals).
//!
//! Each violation carries the *named* invariant that failed plus a
//! human-readable detail, so a fuzz run can be triaged from the report
//! alone.

use owan_core::{build_topology, CircuitBuildConfig, SlotPlan, Transfer};
use owan_optical::FiberPlant;
use owan_update::{NetworkDelta, OpKind, UpdateParams, UpdatePlan};
use std::collections::HashMap;

const EPS: f64 = 1e-6;

/// The named cross-layer invariants [`check_plan`] and [`check_timeline`]
/// enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Every site's link degree fits its router-port count (`fp_v`).
    PortBudget,
    /// Every path hop rides a link that exists in the slot topology, and
    /// every link of the topology is optically realizable on the plant
    /// (circuits can be built within reach/wavelength/regenerator limits).
    RouteCircuitAgreement,
    /// The optical realization never double-books a wavelength on a fiber.
    WavelengthUniqueness,
    /// The optical realization never uses more regenerators at a site than
    /// are deployed there (`rg_v`).
    RegeneratorBudget,
    /// Per-link allocated load never exceeds multiplicity × θ.
    LinkCapacity,
    /// Paths are loopless node sequences from the transfer's source to its
    /// destination over valid site ids.
    PathShape,
    /// Allocations reference existing transfers, at most once each.
    AllocationIdentity,
    /// Rates are non-negative and never exceed the per-slot demand rate
    /// (`remaining / slot_len`) — over-allocating cannot help a deadline
    /// and indicates broken rate accounting.
    DeadlineRateConsistency,
    /// During an update, no installed path ever rides a link with zero lit
    /// circuits.
    UpdateBlackhole,
    /// During an update, lit circuit capacity always covers the installed
    /// paths' rates.
    UpdateOverload,
    /// No path installed at any point of an update contains a routing loop.
    UpdateLoop,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Invariant::PortBudget => "PortBudget",
            Invariant::RouteCircuitAgreement => "RouteCircuitAgreement",
            Invariant::WavelengthUniqueness => "WavelengthUniqueness",
            Invariant::RegeneratorBudget => "RegeneratorBudget",
            Invariant::LinkCapacity => "LinkCapacity",
            Invariant::PathShape => "PathShape",
            Invariant::AllocationIdentity => "AllocationIdentity",
            Invariant::DeadlineRateConsistency => "DeadlineRateConsistency",
            Invariant::UpdateBlackhole => "UpdateBlackhole",
            Invariant::UpdateOverload => "UpdateOverload",
            Invariant::UpdateLoop => "UpdateLoop",
        };
        f.write_str(name)
    }
}

/// A failed invariant with its context.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// What exactly went wrong.
    pub detail: String,
}

impl Violation {
    fn new(invariant: Invariant, detail: impl Into<String>) -> Self {
        Violation {
            invariant,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

impl std::error::Error for Violation {}

/// Checks every cross-layer invariant of one slot plan.
///
/// `transfers` is the active set the plan was computed for and `slot_len_s`
/// the slot length (both drive the demand-rate consistency check). The
/// optical checks re-realize the plan's topology on `plant` from scratch,
/// so they hold for any engine, not just ones that built circuits
/// themselves.
pub fn check_plan(
    plant: &FiberPlant,
    transfers: &[Transfer],
    slot_len_s: f64,
    plan: &SlotPlan,
) -> Result<(), Violation> {
    let n = plan.topology.site_count();
    if n != plant.site_count() {
        return Err(Violation::new(
            Invariant::RouteCircuitAgreement,
            format!("topology over {n} sites, plant has {}", plant.site_count()),
        ));
    }

    // Router-port budget.
    for s in 0..n {
        let deg = plan.topology.degree(s);
        if deg > plant.router_ports(s) {
            return Err(Violation::new(
                Invariant::PortBudget,
                format!("site {s} uses {deg} ports of {}", plant.router_ports(s)),
            ));
        }
    }

    let by_id: HashMap<usize, &Transfer> = transfers.iter().map(|t| (t.id, t)).collect();
    let mut seen: Vec<usize> = Vec::new();
    let mut load = vec![0.0f64; n * n];
    for a in &plan.allocations {
        let Some(t) = by_id.get(&a.transfer) else {
            return Err(Violation::new(
                Invariant::AllocationIdentity,
                format!("allocation references unknown transfer {}", a.transfer),
            ));
        };
        if seen.contains(&a.transfer) {
            return Err(Violation::new(
                Invariant::AllocationIdentity,
                format!("transfer {} allocated twice", a.transfer),
            ));
        }
        seen.push(a.transfer);

        for (path, rate) in &a.paths {
            if *rate < -EPS {
                return Err(Violation::new(
                    Invariant::DeadlineRateConsistency,
                    format!("negative rate {rate} on a path of transfer {}", a.transfer),
                ));
            }
            check_path_shape(path, t, n)?;
            for w in path.windows(2) {
                if plan.topology.multiplicity(w[0], w[1]) == 0 {
                    return Err(Violation::new(
                        Invariant::RouteCircuitAgreement,
                        format!(
                            "path of transfer {} crosses ({},{}) which has no link",
                            a.transfer, w[0], w[1]
                        ),
                    ));
                }
                load[w[0] * n + w[1]] += rate;
                load[w[1] * n + w[0]] += rate;
            }
        }

        let demand = t.demand_rate_gbps(slot_len_s);
        let total = a.total_rate();
        if total > demand + EPS {
            return Err(Violation::new(
                Invariant::DeadlineRateConsistency,
                format!(
                    "transfer {} allocated {total} Gbps above its demand rate {demand}",
                    a.transfer
                ),
            ));
        }
    }

    // Link-capacity conservation.
    let theta = plant.params().wavelength_capacity_gbps;
    for u in 0..n {
        for v in u + 1..n {
            let cap = plan.topology.multiplicity(u, v) as f64 * theta;
            if load[u * n + v] > cap + EPS {
                return Err(Violation::new(
                    Invariant::LinkCapacity,
                    format!(
                        "link ({u},{v}) carries {} Gbps over capacity {cap}",
                        load[u * n + v]
                    ),
                ));
            }
        }
    }

    check_optical_realization(plant, plan)
}

/// Realizes the plan's topology on the plant from scratch and checks the
/// optical-layer budgets: every link must be buildable (route/circuit
/// agreement), wavelengths must not be double-booked, and regenerator
/// consumption must stay within each site's deployment.
fn check_optical_realization(plant: &FiberPlant, plan: &SlotPlan) -> Result<(), Violation> {
    let fd = plant.fiber_distance_matrix();
    let built = build_topology(plant, &plan.topology, &fd, &CircuitBuildConfig::default());
    for (u, v, m) in plan.topology.links() {
        let got = built.achieved.multiplicity(u, v);
        if got < m {
            return Err(Violation::new(
                Invariant::RouteCircuitAgreement,
                format!("link ({u},{v}) wants {m} circuits but only {got} are optically buildable"),
            ));
        }
    }
    let phi = plant.params().wavelengths_per_fiber;
    for f in 0..plant.fiber_count() {
        let used = built.optical.channels_used(f);
        if used > phi {
            return Err(Violation::new(
                Invariant::WavelengthUniqueness,
                format!("fiber {f} lights {used} wavelengths of {phi}"),
            ));
        }
    }
    let mut regens_used = vec![0u32; plant.site_count()];
    for (_, c) in built.optical.circuits() {
        for &s in &c.regen_sites {
            regens_used[s] += 1;
        }
    }
    for (s, &used) in regens_used.iter().enumerate() {
        let deployed = plant.site(s).regenerators;
        if used > deployed {
            return Err(Violation::new(
                Invariant::RegeneratorBudget,
                format!("site {s} consumes {used} regenerators of {deployed}"),
            ));
        }
    }
    // Internal consistency of the optical state (segment reach, channel
    // collision bookkeeping) — any failure here is a wavelength-accounting
    // bug by definition of the state invariants.
    if let Err(e) = built.optical.check_invariants(plant) {
        return Err(Violation::new(Invariant::WavelengthUniqueness, e));
    }
    Ok(())
}

fn check_path_shape(path: &[usize], t: &Transfer, n: usize) -> Result<(), Violation> {
    if path.len() < 2 {
        return Err(Violation::new(
            Invariant::PathShape,
            format!("path of transfer {} has {} nodes", t.id, path.len()),
        ));
    }
    if path[0] != t.src || *path.last().expect("non-empty") != t.dst {
        return Err(Violation::new(
            Invariant::PathShape,
            format!(
                "path of transfer {} runs {}..{} instead of {}..{}",
                t.id,
                path[0],
                path.last().expect("non-empty"),
                t.src,
                t.dst
            ),
        ));
    }
    let mut visited = vec![false; n];
    for &node in path {
        if node >= n {
            return Err(Violation::new(
                Invariant::PathShape,
                format!("path of transfer {} visits invalid site {node}", t.id),
            ));
        }
        if visited[node] {
            return Err(Violation::new(
                Invariant::PathShape,
                format!("path of transfer {} loops through site {node}", t.id),
            ));
        }
        visited[node] = true;
    }
    Ok(())
}

/// True when [`check_timeline`] exempts `plan`: it forces an operation
/// that is not a `RemovePath`.
pub fn timeline_exempt(plan: &UpdatePlan) -> bool {
    plan.ops
        .iter()
        .any(|o| o.forced && !matches!(o.kind, OpKind::RemovePath(_)))
}

/// Checks blackhole/overload/loop freedom across every instant of a
/// consistent update schedule.
///
/// Semantics match the scheduler's own bookkeeping: a removed path stops
/// carrying when its removal *starts*, an added path starts carrying when
/// its install *ends*, a circuit goes dark when its teardown starts and
/// lights up when its setup ends. The schedule is sampled at the midpoint
/// of every interval between consecutive operation boundaries, which
/// covers every distinct resource state the update passes through.
///
/// A plan that forces an operation other than a path removal
/// deliberately abandoned consistency to escape a dependency deadlock, so
/// its transient states are exempt ([`timeline_exempt`]): the check
/// returns `Ok` immediately. A forced removal only takes traffic off its
/// links early (the paper's rate-limiting escape hatch), which can neither
/// overload nor blackhole anything, so a plan that forces nothing else is
/// checked in full.
pub fn check_timeline(
    delta: &NetworkDelta,
    plan: &UpdatePlan,
    params: &UpdateParams,
) -> Result<(), Violation> {
    if timeline_exempt(plan) {
        return Ok(());
    }

    // Static loop check over every path that is ever installed.
    for p in delta
        .unchanged_paths
        .iter()
        .chain(&delta.removed_paths)
        .chain(&delta.added_paths)
    {
        let mut seen = std::collections::HashSet::new();
        for &node in &p.nodes {
            if !seen.insert(node) {
                return Err(Violation::new(
                    Invariant::UpdateLoop,
                    format!("path of transfer {} loops through site {node}", p.transfer),
                ));
            }
        }
    }

    // Operation windows by delta index.
    let mut remove_start: HashMap<usize, f64> = HashMap::new();
    let mut add_end: HashMap<usize, f64> = HashMap::new();
    let mut teardown_start: HashMap<usize, f64> = HashMap::new();
    let mut setup_end: HashMap<usize, f64> = HashMap::new();
    let mut boundaries = vec![0.0, plan.makespan_s];
    for op in &plan.ops {
        boundaries.push(op.start_s);
        boundaries.push(op.end_s);
        match op.kind {
            OpKind::RemovePath(i) => {
                remove_start.insert(i, op.start_s);
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
    boundaries.sort_by(f64::total_cmp);
    boundaries.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let mut samples: Vec<f64> = boundaries.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
    samples.push(plan.makespan_s + 1.0); // final steady state

    let key = |u: usize, v: usize| (u.min(v), u.max(v));
    let theta = params.theta_gbps;
    for &t in &samples {
        // Lit circuit multiplicity per link at time t.
        let mut lit: HashMap<(usize, usize), i64> = delta
            .initial_links()
            .iter()
            .map(|&(k, m)| (k, m as i64))
            .collect();
        for (i, c) in delta.removed_circuits.iter().enumerate() {
            let start = teardown_start.get(&i).copied().unwrap_or(f64::INFINITY);
            if t >= start {
                *lit.entry(key(c.u, c.v)).or_insert(0) -= 1;
            }
        }
        for (i, c) in delta.added_circuits.iter().enumerate() {
            let end = setup_end.get(&i).copied().unwrap_or(f64::INFINITY);
            if t >= end {
                *lit.entry(key(c.u, c.v)).or_insert(0) += 1;
            }
        }

        // Installed paths at time t and their per-link load.
        let mut load: HashMap<(usize, usize), f64> = HashMap::new();
        let mut installed: Vec<&owan_update::PathDesc> = Vec::new();
        for p in &delta.unchanged_paths {
            installed.push(p);
        }
        for (i, p) in delta.removed_paths.iter().enumerate() {
            let stop = remove_start.get(&i).copied().unwrap_or(f64::INFINITY);
            if t < stop {
                installed.push(p);
            }
        }
        for (i, p) in delta.added_paths.iter().enumerate() {
            let live = add_end.get(&i).copied().unwrap_or(f64::INFINITY);
            if t >= live {
                installed.push(p);
            }
        }
        for p in &installed {
            for w in p.nodes.windows(2) {
                *load.entry(key(w[0], w[1])).or_insert(0.0) += p.rate_gbps;
            }
        }

        for p in &installed {
            for w in p.nodes.windows(2) {
                let k = key(w[0], w[1]);
                let m = lit.get(&k).copied().unwrap_or(0);
                if m <= 0 {
                    return Err(Violation::new(
                        Invariant::UpdateBlackhole,
                        format!(
                            "at t={t:.3}s the path of transfer {} rides dark link ({},{})",
                            p.transfer, k.0, k.1
                        ),
                    ));
                }
            }
        }
        for (&(u, v), &l) in &load {
            let cap = lit.get(&(u, v)).copied().unwrap_or(0).max(0) as f64 * theta;
            if l > cap + EPS {
                return Err(Violation::new(
                    Invariant::UpdateOverload,
                    format!("at t={t:.3}s link ({u},{v}) carries {l} Gbps over lit capacity {cap}"),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_core::{Allocation, Topology};
    use owan_optical::OpticalParams;

    fn ring_plant(n: usize, ports: u32) -> FiberPlant {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 8,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..n {
            p.add_site(&format!("S{i}"), ports, 1);
        }
        for i in 0..n {
            p.add_fiber(i, (i + 1) % n, 300.0);
        }
        p
    }

    fn transfer(id: usize, src: usize, dst: usize, gbits: f64) -> Transfer {
        Transfer {
            id,
            src,
            dst,
            volume_gbits: gbits,
            remaining_gbits: gbits,
            arrival_s: 0.0,
            deadline_s: None,
            starved_slots: 0,
        }
    }

    fn valid_plan() -> (FiberPlant, Vec<Transfer>, SlotPlan) {
        let plant = ring_plant(4, 2);
        let transfers = vec![transfer(0, 0, 1, 100.0)];
        let mut topo = Topology::empty(4);
        for i in 0..4 {
            topo.add_links(i, (i + 1) % 4, 1);
        }
        let plan = SlotPlan {
            topology: topo,
            allocations: vec![Allocation {
                transfer: 0,
                paths: vec![(vec![0, 1], 10.0)],
            }],
            throughput_gbps: 10.0,
        };
        (plant, transfers, plan)
    }

    #[test]
    fn valid_plan_passes() {
        let (plant, ts, plan) = valid_plan();
        check_plan(&plant, &ts, 10.0, &plan).unwrap();
    }

    #[test]
    fn port_budget_violation_is_named() {
        let (plant, ts, mut plan) = valid_plan();
        plan.topology.add_links(0, 2, 3); // degree 5 > 2 ports
        let v = check_plan(&plant, &ts, 10.0, &plan).unwrap_err();
        assert_eq!(v.invariant, Invariant::PortBudget);
    }

    #[test]
    fn capacity_violation_is_named() {
        let (plant, _, mut plan) = valid_plan();
        plan.allocations[0].paths[0].1 = 25.0; // θ = 10, multiplicity 1
        let ts = vec![transfer(0, 0, 1, 10_000.0)]; // demand is not the binding check
        let v = check_plan(&plant, &ts, 10.0, &plan).unwrap_err();
        assert_eq!(v.invariant, Invariant::LinkCapacity);
    }

    #[test]
    fn missing_link_violation_is_named() {
        let (plant, ts, mut plan) = valid_plan();
        plan.allocations[0].paths[0].0 = vec![0, 2, 1]; // no 0-2 link
        let v = check_plan(&plant, &ts, 10.0, &plan).unwrap_err();
        assert_eq!(v.invariant, Invariant::RouteCircuitAgreement);
    }

    #[test]
    fn looping_path_violation_is_named() {
        let (plant, ts, mut plan) = valid_plan();
        plan.allocations[0].paths[0].0 = vec![0, 3, 0, 1];
        let v = check_plan(&plant, &ts, 10.0, &plan).unwrap_err();
        assert_eq!(v.invariant, Invariant::PathShape);
    }

    #[test]
    fn unknown_transfer_violation_is_named() {
        let (plant, ts, mut plan) = valid_plan();
        plan.allocations[0].transfer = 99;
        let v = check_plan(&plant, &ts, 10.0, &plan).unwrap_err();
        assert_eq!(v.invariant, Invariant::AllocationIdentity);
    }

    #[test]
    fn over_demand_violation_is_named() {
        let (plant, _, plan) = valid_plan();
        // Demand rate is 1 Gbps (10 Gb over 10 s)… allocate 10.
        let ts = vec![transfer(0, 0, 1, 10.0)];
        let v = check_plan(&plant, &ts, 10.0, &plan).unwrap_err();
        assert_eq!(v.invariant, Invariant::DeadlineRateConsistency);
    }

    #[test]
    fn unbuildable_link_violation_is_named() {
        // Multiplicity 5 on one pair: only 2+2 ports exist.
        let plant = ring_plant(4, 8);
        let ts = vec![transfer(0, 0, 2, 100.0)];
        let mut topo = Topology::empty(4);
        // 0-2 is two fiber hops; 8 wavelengths per fiber but each of the
        // two disjoint routes (0-1-2, 0-3-2) bounds multiplicity at 16…
        // use a plant with 1 wavelength per fiber instead.
        topo.add_links(0, 2, 5);
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 1,
            ..Default::default()
        };
        let mut thin = FiberPlant::new(params);
        for i in 0..4 {
            thin.add_site(&format!("S{i}"), 8, 1);
        }
        for i in 0..4 {
            thin.add_fiber(i, (i + 1) % 4, 300.0);
        }
        let plan = SlotPlan {
            topology: topo,
            allocations: vec![],
            throughput_gbps: 0.0,
        };
        let _ = plant;
        let _ = ts;
        let v = check_plan(&thin, &[], 10.0, &plan).unwrap_err();
        assert_eq!(v.invariant, Invariant::RouteCircuitAgreement);
    }

    /// Transfers 0 and 1 swap links at full load: each new path waits on
    /// the other's removal, and neither removal may start before its own
    /// install (make-before-break), a deadlock the scheduler breaks by
    /// forcing a removal. Transfer 2 rides a circuit the update lights.
    fn deadlocked_delta() -> NetworkDelta {
        let alloc = |transfer: usize, path: &[usize], rate: f64| Allocation {
            transfer,
            paths: vec![(path.to_vec(), rate)],
        };
        let mut old_t = Topology::empty(4);
        old_t.add_links(0, 1, 1);
        old_t.add_links(0, 2, 1);
        old_t.add_links(2, 1, 1);
        let mut new_t = old_t.clone();
        new_t.add_links(1, 3, 1);
        let old_a = [alloc(0, &[0, 1], 100.0), alloc(1, &[0, 2, 1], 100.0)];
        let new_a = [
            alloc(0, &[0, 2, 1], 100.0),
            alloc(1, &[0, 1], 100.0),
            alloc(2, &[1, 3], 50.0),
        ];
        NetworkDelta::from_plans(&old_t, &old_a, &new_t, &new_a, 4)
    }

    #[test]
    fn a_plan_that_forces_only_removals_is_checked() {
        let delta = deadlocked_delta();
        let params = UpdateParams::default();
        let plan = owan_update::plan_consistent(&delta, &params);
        let forced: Vec<OpKind> = plan
            .ops
            .iter()
            .filter(|o| o.forced)
            .map(|o| o.kind)
            .collect();
        assert!(
            !forced.is_empty() && forced.iter().all(|k| matches!(k, OpKind::RemovePath(_))),
            "a deadlock broken by removals alone: {:?}",
            plan.ops
        );
        assert!(!timeline_exempt(&plan), "a forced removal is checked");
        check_timeline(&delta, &plan, &params).unwrap();

        // The same plan with transfer 2's install moved to the start, so
        // that it ends before its circuit lights: the check must see it.
        let new_path = delta
            .added_paths
            .iter()
            .position(|p| p.transfer == 2)
            .expect("transfer 2 is installed");
        let mut early = plan.clone();
        let add = early
            .ops
            .iter_mut()
            .find(|o| o.kind == OpKind::AddPath(new_path))
            .expect("the install is scheduled");
        (add.start_s, add.end_s) = (0.0, params.path_time_s);
        assert!(params.path_time_s < params.circuit_time_s);
        let v = check_timeline(&delta, &early, &params).unwrap_err();
        assert_eq!(v.invariant, Invariant::UpdateBlackhole, "{v}");
    }
}
