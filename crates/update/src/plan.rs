//! Building and scheduling the cross-layer update dependency structure.
//!
//! A [`NetworkDelta`] names its operations by position in four vectors and
//! its resources by site pair and fiber id. The scheduler never hashes
//! either: links live in a flat `n × n` table at `min·n + max` (`n` the
//! delta's site bound: the site count `from_plans` diffed, or one past the
//! largest site id a hand-built delta mentions), fibers in a table by id,
//! and operation `k` of the fixed enumeration — path removals, circuit
//! teardowns, circuit setups, path installs, each in delta order — is
//! found by adding the lengths of the vectors before it (`op_slot`). A
//! link or fiber nobody set reads zero.

use crate::telemetry::UpdateTelemetry;
use owan_core::{Allocation, Topology, TransferId};
use owan_optical::{FiberId, SiteId};

pub(crate) const EPS: f64 = 1e-9;

/// One optical circuit being torn down or set up.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitDesc {
    /// Network-layer endpoints of the circuit.
    pub u: SiteId,
    /// Other endpoint.
    pub v: SiteId,
    /// The fibers the circuit occupies (one wavelength on each).
    pub fibers: Vec<FiberId>,
}

/// One routing path being installed or removed, with its rate.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDesc {
    /// The transfer the path serves.
    pub transfer: TransferId,
    /// Site sequence.
    pub nodes: Vec<SiteId>,
    /// Rate carried on the path, Gbps.
    pub rate_gbps: f64,
}

/// The difference between two network states, as update operations plus the
/// initial resource levels the scheduler starts from.
///
/// The resource levels are read and written through accessors
/// ([`Self::initial_circuits`], [`Self::fiber_free`] and their setters):
/// they are kept sorted by key so that the scheduler and the timeline can
/// lay them out densely without hashing.
#[derive(Debug, Clone, Default)]
pub struct NetworkDelta {
    /// Circuits to remove.
    pub removed_circuits: Vec<CircuitDesc>,
    /// Circuits to create.
    pub added_circuits: Vec<CircuitDesc>,
    /// Paths to uninstall.
    pub removed_paths: Vec<PathDesc>,
    /// Paths to install.
    pub added_paths: Vec<PathDesc>,
    /// Paths present in both states (carry traffic throughout).
    pub unchanged_paths: Vec<PathDesc>,
    /// Site count of the topologies [`Self::from_plans`] diffed; zero for a
    /// hand-built delta, whose bound is found by a scan.
    sites: usize,
    /// Initial circuit multiplicity per unordered link `(min, max)`, sorted
    /// by link.
    initial_circuits: Vec<((SiteId, SiteId), u32)>,
    /// Initially free wavelengths per fiber, sorted by fiber id.
    fiber_free: Vec<(FiberId, u32)>,
}

impl NetworkDelta {
    /// Derives a delta from two slot plans over an abstract fiber model in
    /// which every unordered site pair has a dedicated fiber (id = canonical
    /// pair index) carrying `wavelengths_per_fiber` channels. Good enough to
    /// exercise every dependency class; benches that need the real fiber
    /// mapping can fill the struct directly from `OpticalState`.
    pub fn from_plans(
        old_topology: &Topology,
        old_allocations: &[Allocation],
        new_topology: &Topology,
        new_allocations: &[Allocation],
        wavelengths_per_fiber: u32,
    ) -> Self {
        let n = old_topology.site_count();
        assert_eq!(n, new_topology.site_count());
        let pair_fiber = |u: SiteId, v: SiteId| -> FiberId {
            let (a, b) = (u.min(v), u.max(v));
            a * n + b
        };

        let mut delta = NetworkDelta {
            sites: n,
            ..Default::default()
        };

        // Circuit diff per pair. Pairs are visited in `(u, v)` order and
        // `pair_fiber` grows with it, so both resource lists come out
        // sorted.
        for u in 0..n {
            for v in u + 1..n {
                let old_m = old_topology.multiplicity(u, v);
                let new_m = new_topology.multiplicity(u, v);
                if old_m > 0 {
                    delta.initial_circuits.push(((u, v), old_m));
                }
                let fiber = pair_fiber(u, v);
                if old_m > 0 || new_m > 0 {
                    delta
                        .fiber_free
                        .push((fiber, wavelengths_per_fiber.saturating_sub(old_m)));
                }
                for _ in new_m..old_m {
                    delta.removed_circuits.push(CircuitDesc {
                        u,
                        v,
                        fibers: vec![fiber],
                    });
                }
                for _ in old_m..new_m {
                    delta.added_circuits.push(CircuitDesc {
                        u,
                        v,
                        fibers: vec![fiber],
                    });
                }
            }
        }

        // Path diff, matched by (transfer, nodes). A matched path whose
        // rate changes is split: the common part keeps flowing throughout
        // the update (a rate-limiter change is not a disruptive operation),
        // only the rate *delta* becomes an add or remove operation.
        let flatten = |allocs: &[Allocation]| -> Vec<PathDesc> {
            allocs
                .iter()
                .flat_map(|a| {
                    a.paths.iter().map(|(nodes, r)| PathDesc {
                        transfer: a.transfer,
                        nodes: nodes.clone(),
                        rate_gbps: *r,
                    })
                })
                .collect()
        };
        let old_paths = flatten(old_allocations);
        let mut new_paths = flatten(new_allocations);
        for op in old_paths {
            if let Some(pos) = new_paths
                .iter()
                .position(|np| np.transfer == op.transfer && np.nodes == op.nodes)
            {
                let np = new_paths.swap_remove(pos);
                let base = op.rate_gbps.min(np.rate_gbps);
                if base > EPS {
                    delta.unchanged_paths.push(PathDesc {
                        rate_gbps: base,
                        ..np.clone()
                    });
                }
                if np.rate_gbps > op.rate_gbps + EPS {
                    delta.added_paths.push(PathDesc {
                        rate_gbps: np.rate_gbps - op.rate_gbps,
                        ..np
                    });
                } else if op.rate_gbps > np.rate_gbps + EPS {
                    delta.removed_paths.push(PathDesc {
                        rate_gbps: op.rate_gbps - np.rate_gbps,
                        ..op
                    });
                }
            } else {
                delta.removed_paths.push(op);
            }
        }
        delta.added_paths.extend(new_paths);
        delta
    }

    /// Total number of operations in the delta.
    pub fn op_count(&self) -> usize {
        self.removed_circuits.len()
            + self.added_circuits.len()
            + self.removed_paths.len()
            + self.added_paths.len()
    }

    /// Circuits lit on the unordered link `(u, v)` before the update; zero
    /// for a link never set.
    pub fn initial_circuits(&self, u: SiteId, v: SiteId) -> u32 {
        let key = (u.min(v), u.max(v));
        self.initial_circuits
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0, |at| self.initial_circuits[at].1)
    }

    /// Sets the circuits lit on the unordered link `(u, v)` before the
    /// update (for hand-built deltas).
    pub fn set_initial_circuits(&mut self, u: SiteId, v: SiteId, multiplicity: u32) {
        let key = (u.min(v), u.max(v));
        match self
            .initial_circuits
            .binary_search_by_key(&key, |&(k, _)| k)
        {
            Ok(at) => self.initial_circuits[at].1 = multiplicity,
            Err(at) => self.initial_circuits.insert(at, (key, multiplicity)),
        }
    }

    /// Every link with an initial multiplicity on record, as
    /// `((min, max), circuits)` in link order.
    pub fn initial_links(&self) -> &[((SiteId, SiteId), u32)] {
        &self.initial_circuits
    }

    /// Wavelengths free on `fiber` before the update; zero for a fiber
    /// never set.
    pub fn fiber_free(&self, fiber: FiberId) -> u32 {
        self.fiber_free
            .binary_search_by_key(&fiber, |&(f, _)| f)
            .map_or(0, |at| self.fiber_free[at].1)
    }

    /// Sets the wavelengths free on `fiber` before the update (for
    /// hand-built deltas).
    pub fn set_fiber_free(&mut self, fiber: FiberId, free: u32) {
        match self.fiber_free.binary_search_by_key(&fiber, |&(f, _)| f) {
            Ok(at) => self.fiber_free[at].1 = free,
            Err(at) => self.fiber_free.insert(at, (fiber, free)),
        }
    }

    /// Every fiber with a free-wavelength count on record, as
    /// `(fiber, free)` in id order.
    pub fn free_fibers(&self) -> &[(FiberId, u32)] {
        &self.fiber_free
    }

    /// A bound on the site ids the delta names: every one is below it. The
    /// site count of the diffed topologies when [`Self::from_plans`] built
    /// the delta, otherwise one past the largest id a circuit, a path or an
    /// initial link mentions.
    pub(crate) fn site_bound(&self) -> usize {
        if self.sites > 0 {
            return self.sites;
        }
        let circuits = self.removed_circuits.iter().chain(&self.added_circuits);
        let paths = self
            .unchanged_paths
            .iter()
            .chain(&self.removed_paths)
            .chain(&self.added_paths);
        circuits
            .map(|c| c.u.max(c.v))
            .chain(paths.flat_map(|p| p.nodes.iter().copied()))
            .chain(self.initial_circuits.iter().map(|&((_, v), _)| v))
            .max()
            .map_or(0, |top| top + 1)
    }

    /// Position of `kind` in the fixed enumeration of the delta's
    /// operations — path removals, circuit teardowns, circuit setups, path
    /// installs, each in delta order — or `None` when its index lies
    /// outside the delta.
    pub(crate) fn op_slot(&self, kind: OpKind) -> Option<usize> {
        let (rp, rc, ac) = (
            self.removed_paths.len(),
            self.removed_circuits.len(),
            self.added_circuits.len(),
        );
        match kind {
            OpKind::RemovePath(i) => (i < rp).then_some(i),
            OpKind::TeardownCircuit(i) => (i < rc).then(|| rp + i),
            OpKind::SetupCircuit(i) => (i < ac).then(|| rp + rc + i),
            OpKind::AddPath(i) => (i < self.added_paths.len()).then(|| rp + rc + ac + i),
        }
    }

    /// The operations in the order [`Self::op_slot`] numbers them.
    pub(crate) fn all_ops(&self) -> Vec<OpKind> {
        let removals = (0..self.removed_paths.len()).map(OpKind::RemovePath);
        let teardowns = (0..self.removed_circuits.len()).map(OpKind::TeardownCircuit);
        let setups = (0..self.added_circuits.len()).map(OpKind::SetupCircuit);
        let installs = (0..self.added_paths.len()).map(OpKind::AddPath);
        removals
            .chain(teardowns)
            .chain(setups)
            .chain(installs)
            .collect()
    }
}

/// Index of the unordered link `(u, v)` in a flat `n × n` table.
pub(crate) fn link_index(n: usize, u: SiteId, v: SiteId) -> usize {
    assert!(u < n && v < n, "site outside the delta's site bound");
    u.min(v) * n + u.max(v)
}

/// The hops of a list of paths as [`link_index`] values, computed once:
/// path `i` crosses `hops.of(i)`, in path order.
pub(crate) struct PathHops {
    links: Vec<usize>,
    /// Path `i`'s hops are `links[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl PathHops {
    pub(crate) fn new<'a>(n: usize, paths: impl IntoIterator<Item = &'a PathDesc>) -> Self {
        let mut hops = PathHops {
            links: Vec::new(),
            starts: vec![0],
        };
        for p in paths {
            hops.links
                .extend(p.nodes.windows(2).map(|w| link_index(n, w[0], w[1])));
            hops.starts.push(hops.links.len());
        }
        hops
    }

    pub(crate) fn of(&self, path: usize) -> &[usize] {
        &self.links[self.starts[path]..self.starts[path + 1]]
    }
}

/// True if `nodes` traverses the undirected link `(u, v)`.
fn path_uses_link(nodes: &[SiteId], u: SiteId, v: SiteId) -> bool {
    nodes
        .windows(2)
        .any(|w| (w[0] == u && w[1] == v) || (w[0] == v && w[1] == u))
}

/// Enumerates the Dionysus resource-dependency edges of a delta as
/// `(prerequisite, dependent)` pairs:
///
/// * make-before-break — a path removal waits for the same transfer's path
///   installs (`AddPath → RemovePath`),
/// * path installs wait on circuit setups for links they traverse
///   (`SetupCircuit → AddPath`),
/// * circuit teardowns wait on path removals that drain their link
///   (`RemovePath → TeardownCircuit`),
/// * circuit setups wait on teardowns that free a shared fiber's wavelength
///   (`TeardownCircuit → SetupCircuit`).
///
/// The scheduler enforces these through resource levels rather than
/// explicit edges; the execution engine ([`crate::exec`]) uses the edge
/// list directly to propagate aborts to dependent subtrees.
pub fn dependency_edges(delta: &NetworkDelta) -> Vec<(OpKind, OpKind)> {
    let mut edges = Vec::new();
    for (i, rp) in delta.removed_paths.iter().enumerate() {
        for (j, _) in delta
            .added_paths
            .iter()
            .enumerate()
            .filter(|(_, ap)| ap.transfer == rp.transfer)
        {
            edges.push((OpKind::AddPath(j), OpKind::RemovePath(i)));
        }
    }
    for (i, ap) in delta.added_paths.iter().enumerate() {
        for (j, _) in delta
            .added_circuits
            .iter()
            .enumerate()
            .filter(|(_, c)| path_uses_link(&ap.nodes, c.u, c.v))
        {
            edges.push((OpKind::SetupCircuit(j), OpKind::AddPath(i)));
        }
    }
    for (i, rc) in delta.removed_circuits.iter().enumerate() {
        for (j, _) in delta
            .removed_paths
            .iter()
            .enumerate()
            .filter(|(_, rp)| path_uses_link(&rp.nodes, rc.u, rc.v))
        {
            edges.push((OpKind::RemovePath(j), OpKind::TeardownCircuit(i)));
        }
    }
    for (i, ac) in delta.added_circuits.iter().enumerate() {
        for (j, _) in delta
            .removed_circuits
            .iter()
            .enumerate()
            .filter(|(_, rc)| rc.fibers.iter().any(|f| ac.fibers.contains(f)))
        {
            edges.push((OpKind::TeardownCircuit(j), OpKind::SetupCircuit(i)));
        }
    }
    edges
}

/// Sizes the Dionysus dependency structure of a delta without scheduling
/// it: `(nodes, edges)` where nodes are update operations and edges are
/// the resource dependencies enumerated by [`dependency_edges`].
pub fn dependency_graph_size(delta: &NetworkDelta) -> (usize, usize) {
    (delta.op_count(), dependency_edges(delta).len())
}

/// Operation identity within a plan, indexing into the delta's vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Uninstall `removed_paths[i]`.
    RemovePath(usize),
    /// Install `added_paths[i]`.
    AddPath(usize),
    /// Tear down `removed_circuits[i]`.
    TeardownCircuit(usize),
    /// Set up `added_circuits[i]`.
    SetupCircuit(usize),
}

/// A scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// What the operation does.
    pub kind: OpKind,
    /// Start time, seconds from the beginning of the update.
    pub start_s: f64,
    /// End time.
    pub end_s: f64,
    /// True if the scheduler had to force-start the operation to break a
    /// resource deadlock. Path removals are forced first (Dionysus-style
    /// rate reduction: the transfer loses throughput until its new paths
    /// fit, which is always safe); other kinds are forced only when no
    /// removal is pending.
    pub forced: bool,
}

/// Timing parameters of the update.
#[derive(Debug, Clone, Copy)]
pub struct UpdateParams {
    /// Per-circuit capacity θ, Gbps.
    pub theta_gbps: f64,
    /// Optical circuit reconfiguration time, seconds ("three to five
    /// seconds on our testbed", §5.4).
    pub circuit_time_s: f64,
    /// Router rule install/remove time, seconds.
    pub path_time_s: f64,
}

impl Default for UpdateParams {
    fn default() -> Self {
        UpdateParams {
            theta_gbps: 100.0,
            circuit_time_s: 4.0,
            path_time_s: 0.1,
        }
    }
}

/// A complete update schedule.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// Scheduled operations in start order.
    pub ops: Vec<ScheduledOp>,
    /// Time at which the last operation completes.
    pub makespan_s: f64,
}

impl UpdatePlan {
    /// Scheduled ops of a given kind class, for assertions.
    pub fn ops_of(&self, pred: impl Fn(OpKind) -> bool) -> Vec<ScheduledOp> {
        self.ops.iter().copied().filter(|o| pred(o.kind)).collect()
    }
}

/// Mutable resource state the scheduler tracks, on dense indices (see the
/// module docs). Link load is kept in two views that bracket the true
/// instantaneous load:
///
/// * **reserved** — a path's rate is claimed when its install *starts*
///   and released when its removal *starts*. This is the admission view:
///   two installs that each fit alone cannot jointly oversubscribe a
///   link, because the first one's reservation is visible to the second.
/// * **carried** — a path's rate counts while traffic actually flows:
///   from install *end* until removal *end*. This is what the wire sees;
///   a teardown must not go dark under it.
struct SchedState<'a> {
    delta: &'a NetworkDelta,
    theta: f64,
    link_circuits: Vec<u32>,
    reserved_load: Vec<f64>,
    carried_load: Vec<f64>,
    fiber_free: Vec<u32>,
    removed_hops: PathHops,
    added_hops: PathHops,
    /// Link of each removed and each added circuit.
    removed_links: Vec<usize>,
    added_links: Vec<usize>,
    /// Added paths by `(transfer, index)`, sorted: the installs a removal's
    /// make-before-break waits for are one contiguous run.
    installs_by_transfer: Vec<(TransferId, usize)>,
    /// Slot of `AddPath(0)` in the op enumeration.
    first_install: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Status {
    Pending,
    Running,
    Done,
}

impl<'a> SchedState<'a> {
    fn new(delta: &'a NetworkDelta, theta: f64) -> Self {
        let n = delta.site_bound();
        let mut link_circuits = vec![0u32; n * n];
        for &((u, v), m) in delta.initial_links() {
            link_circuits[link_index(n, u, v)] = m;
        }
        let fiber_bound = (delta.removed_circuits.iter())
            .chain(&delta.added_circuits)
            .flat_map(|c| c.fibers.iter())
            .max()
            .map_or(0, |&top| top + 1);
        let mut fiber_free = vec![0u32; fiber_bound];
        for &(f, free) in delta.free_fibers() {
            // A fiber no circuit names is never read.
            if let Some(slot) = fiber_free.get_mut(f) {
                *slot = free;
            }
        }
        // Initial load: unchanged + to-be-removed paths carry traffic now,
        // and what a path carries it has reserved.
        let mut carried_load = vec![0.0f64; n * n];
        for p in delta.unchanged_paths.iter().chain(&delta.removed_paths) {
            for w in p.nodes.windows(2) {
                carried_load[link_index(n, w[0], w[1])] += p.rate_gbps;
            }
        }
        let link_of = |c: &CircuitDesc| link_index(n, c.u, c.v);
        let mut installs_by_transfer: Vec<(TransferId, usize)> = (delta.added_paths.iter())
            .enumerate()
            .map(|(j, p)| (p.transfer, j))
            .collect();
        installs_by_transfer.sort_unstable();
        SchedState {
            delta,
            theta,
            link_circuits,
            reserved_load: carried_load.clone(),
            carried_load,
            fiber_free,
            removed_hops: PathHops::new(n, &delta.removed_paths),
            added_hops: PathHops::new(n, &delta.added_paths),
            removed_links: delta.removed_circuits.iter().map(link_of).collect(),
            added_links: delta.added_circuits.iter().map(link_of).collect(),
            installs_by_transfer,
            first_install: delta.op_count() - delta.added_paths.len(),
        }
    }

    /// Readiness of `k` against the current resource state; `status` tells
    /// which installs have completed.
    fn ready(&self, k: OpKind, status: &[Status]) -> bool {
        match k {
            OpKind::RemovePath(i) => {
                // Make-before-break: do not take a transfer's traffic off
                // its old path until all of its new paths are installed.
                let t = self.delta.removed_paths[i].transfer;
                let from = self.installs_by_transfer.partition_point(|&(u, _)| u < t);
                self.installs_by_transfer[from..]
                    .iter()
                    .take_while(|&&(u, _)| u == t)
                    .all(|&(_, j)| status[self.first_install + j] == Status::Done)
            }
            OpKind::TeardownCircuit(i) => {
                // Removing one circuit must not strand live traffic: the
                // remaining capacity must cover both the wire-visible load
                // (in-flight removals still carry until they complete) and
                // the reserved load (in-flight installs land later).
                let l = self.removed_links[i];
                let cap = (self.link_circuits[l].saturating_sub(1)) as f64 * self.theta + EPS;
                self.carried_load[l] <= cap && self.reserved_load[l] <= cap
            }
            OpKind::SetupCircuit(i) => self.delta.added_circuits[i]
                .fibers
                .iter()
                .all(|&f| self.fiber_free[f] > 0),
            OpKind::AddPath(i) => {
                // Admission is against the reserved view, so concurrent
                // installs cannot jointly oversubscribe a link. (An install
                // that starts while a removal is in flight is safe: both
                // take `path_time_s`, so the new traffic cannot land before
                // the old traffic is gone.)
                let rate = self.delta.added_paths[i].rate_gbps;
                self.added_hops.of(i).iter().all(|&l| {
                    self.reserved_load[l] + rate <= self.link_circuits[l] as f64 * self.theta + EPS
                })
            }
        }
    }

    /// Effects applied at op start (resource reservation / traffic off).
    fn apply_start(&mut self, k: OpKind) {
        match k {
            OpKind::RemovePath(i) => {
                // Sending stops as soon as the removal begins; the
                // reservation is released now, the carried view at
                // completion.
                let rate = self.delta.removed_paths[i].rate_gbps;
                for &l in self.removed_hops.of(i) {
                    self.reserved_load[l] -= rate;
                }
            }
            OpKind::TeardownCircuit(i) => {
                // The circuit goes dark at start.
                let e = &mut self.link_circuits[self.removed_links[i]];
                *e = e.saturating_sub(1);
            }
            OpKind::SetupCircuit(i) => {
                // Reserve the wavelengths.
                for &f in &self.delta.added_circuits[i].fibers {
                    self.fiber_free[f] = self.fiber_free[f].saturating_sub(1);
                }
            }
            OpKind::AddPath(i) => {
                // Reserve the capacity the moment the install starts.
                let rate = self.delta.added_paths[i].rate_gbps;
                for &l in self.added_hops.of(i) {
                    self.reserved_load[l] += rate;
                }
            }
        }
    }

    /// Effects applied at op end.
    fn apply_end(&mut self, k: OpKind) {
        match k {
            OpKind::RemovePath(i) => {
                // The old traffic is off the wire once the removal completes.
                let rate = self.delta.removed_paths[i].rate_gbps;
                for &l in self.removed_hops.of(i) {
                    self.carried_load[l] -= rate;
                }
            }
            OpKind::TeardownCircuit(i) => {
                // Wavelengths are free once the teardown completes.
                for &f in &self.delta.removed_circuits[i].fibers {
                    self.fiber_free[f] += 1;
                }
            }
            OpKind::SetupCircuit(i) => self.link_circuits[self.added_links[i]] += 1,
            OpKind::AddPath(i) => {
                let rate = self.delta.added_paths[i].rate_gbps;
                for &l in self.added_hops.of(i) {
                    self.carried_load[l] += rate;
                }
            }
        }
    }
}

/// Builds the consistent (hitless) schedule: every operation waits for its
/// dependencies — paths wait for circuits, teardowns wait for traffic to
/// move away, setups wait for freed wavelengths.
pub fn plan_consistent(delta: &NetworkDelta, params: &UpdateParams) -> UpdatePlan {
    plan_consistent_observed(delta, params, &UpdateTelemetry::disabled())
}

/// [`plan_consistent`] with telemetry: the run is timed as one
/// `stage.update` span and the dependency structure it scheduled is
/// counted (graph nodes/edges, circuit vs. path operations, forced
/// starts). The schedule is identical to the unobserved call.
pub fn plan_consistent_observed(
    delta: &NetworkDelta,
    params: &UpdateParams,
    telemetry: &UpdateTelemetry,
) -> UpdatePlan {
    let _span = telemetry.update.enter();
    if telemetry.recorder.is_enabled() {
        let (nodes, edges) = dependency_graph_size(delta);
        telemetry.dep_graph_nodes.add(nodes as u64);
        telemetry.dep_graph_edges.add(edges as u64);
        telemetry
            .circuit_ops
            .add((delta.removed_circuits.len() + delta.added_circuits.len()) as u64);
        telemetry
            .path_ops
            .add((delta.removed_paths.len() + delta.added_paths.len()) as u64);
    }
    let plan = plan_consistent_inner(delta, params);
    if telemetry.recorder.is_enabled() {
        telemetry
            .forced_ops
            .add(plan.ops.iter().filter(|o| o.forced).count() as u64);
    }
    plan
}

fn plan_consistent_inner(delta: &NetworkDelta, params: &UpdateParams) -> UpdatePlan {
    let mut state = SchedState::new(delta, params.theta_gbps);
    let all_ops = delta.all_ops();

    let duration = |k: OpKind| match k {
        OpKind::RemovePath(_) | OpKind::AddPath(_) => params.path_time_s,
        OpKind::TeardownCircuit(_) | OpKind::SetupCircuit(_) => params.circuit_time_s,
    };

    let mut status = vec![Status::Pending; all_ops.len()];
    let mut scheduled: Vec<ScheduledOp> = Vec::with_capacity(all_ops.len());
    let mut end_times = vec![0.0f64; all_ops.len()];
    let mut ready_now = vec![false; all_ops.len()];
    let mut now = 0.0f64;

    loop {
        // Complete everything ending at or before `now`.
        // (Completions at identical times are applied in op order.)
        for (idx, st) in status.iter_mut().enumerate() {
            if *st == Status::Running && end_times[idx] <= now + EPS {
                *st = Status::Done;
                state.apply_end(all_ops[idx]);
            }
        }

        // Start every ready op. Readiness is first evaluated for all ops
        // against the state the completions left, so that this round's
        // starts do not make further ops ready. (No op completes while
        // ops are being started, so `status` says which installs are done
        // throughout.)
        for (idx, slot) in ready_now.iter_mut().enumerate() {
            *slot = status[idx] == Status::Pending && state.ready(all_ops[idx], &status);
        }
        let mut started_any = false;
        for idx in 0..all_ops.len() {
            // Re-check against the live state: ops started earlier in this
            // round may have consumed the resources this op needed.
            if ready_now[idx] && state.ready(all_ops[idx], &status) {
                status[idx] = Status::Running;
                end_times[idx] = now + duration(all_ops[idx]);
                state.apply_start(all_ops[idx]);
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
            end_times[idx] = now + duration(all_ops[idx]);
            state.apply_start(all_ops[idx]);
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

/// The one-shot comparison: every operation starts at `t = 0` ("all links
/// are updated simultaneously in one shot to minimize update completion
/// time", §5.4).
pub fn plan_one_shot(delta: &NetworkDelta, params: &UpdateParams) -> UpdatePlan {
    plan_one_shot_observed(delta, params, &UpdateTelemetry::disabled())
}

/// [`plan_one_shot`] with telemetry: timed as one `stage.update` span,
/// counting circuit and path operations (one-shot has no dependency
/// structure, so the graph counters stay untouched).
pub fn plan_one_shot_observed(
    delta: &NetworkDelta,
    params: &UpdateParams,
    telemetry: &UpdateTelemetry,
) -> UpdatePlan {
    let _span = telemetry.update.enter();
    if telemetry.recorder.is_enabled() {
        telemetry
            .circuit_ops
            .add((delta.removed_circuits.len() + delta.added_circuits.len()) as u64);
        telemetry
            .path_ops
            .add((delta.removed_paths.len() + delta.added_paths.len()) as u64);
    }
    let mut ops = Vec::with_capacity(delta.op_count());
    for i in 0..delta.removed_paths.len() {
        ops.push(ScheduledOp {
            kind: OpKind::RemovePath(i),
            start_s: 0.0,
            end_s: params.path_time_s,
            forced: false,
        });
    }
    for i in 0..delta.removed_circuits.len() {
        ops.push(ScheduledOp {
            kind: OpKind::TeardownCircuit(i),
            start_s: 0.0,
            end_s: params.circuit_time_s,
            forced: false,
        });
    }
    for i in 0..delta.added_circuits.len() {
        ops.push(ScheduledOp {
            kind: OpKind::SetupCircuit(i),
            start_s: 0.0,
            end_s: params.circuit_time_s,
            forced: false,
        });
    }
    for i in 0..delta.added_paths.len() {
        ops.push(ScheduledOp {
            kind: OpKind::AddPath(i),
            start_s: 0.0,
            end_s: params.path_time_s,
            forced: false,
        });
    }
    let makespan_s = ops.iter().map(|o| o.end_s).fold(0.0, f64::max);
    UpdatePlan { ops, makespan_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Old: ring 0-1-2-3; new: 0=1 doubled and 2=3 doubled (the Figure 2
    /// reconfiguration). One transfer rides 0-1 throughout.
    fn fig2_delta() -> NetworkDelta {
        let mut old_t = Topology::empty(4);
        for i in 0..4 {
            old_t.add_links(i, (i + 1) % 4, 1);
        }
        let mut new_t = Topology::empty(4);
        new_t.add_links(0, 1, 2);
        new_t.add_links(2, 3, 2);
        let old_a = vec![Allocation {
            transfer: 0,
            paths: vec![(vec![0, 1], 50.0)],
        }];
        let new_a = vec![Allocation {
            transfer: 0,
            paths: vec![(vec![0, 1], 150.0)],
        }];
        NetworkDelta::from_plans(&old_t, &old_a, &new_t, &new_a, 4)
    }

    #[test]
    fn delta_counts_circuit_and_path_ops() {
        let d = fig2_delta();
        // Removed: 1-2, 0-3. Added: one more 0-1, one more 2-3.
        assert_eq!(d.removed_circuits.len(), 2);
        assert_eq!(d.added_circuits.len(), 2);
        // Rate increase on the same path: the common 50 Gbps keeps
        // flowing; only the +100 Gbps delta is an add operation.
        assert!(d.removed_paths.is_empty());
        assert_eq!(d.added_paths.len(), 1);
        assert!((d.added_paths[0].rate_gbps - 100.0).abs() < 1e-9);
        assert_eq!(d.unchanged_paths.len(), 1);
        assert!((d.unchanged_paths[0].rate_gbps - 50.0).abs() < 1e-9);
    }

    #[test]
    fn resource_levels_read_back_through_the_accessors() {
        let d = fig2_delta();
        assert_eq!(d.site_bound(), 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 3)] {
            assert_eq!(d.initial_circuits(u, v), 1, "({u},{v})");
            assert_eq!(d.initial_circuits(v, u), 1, "({v},{u})");
        }
        assert_eq!(d.initial_circuits(0, 2), 0, "never lit");
        // Fiber of pair (a, b) is `a·n + b`; φ = 4, one channel in use.
        assert_eq!(d.fiber_free(1), 3);
        assert_eq!(d.fiber_free(2), 0, "pair (0,2) is in neither topology");

        // By hand, in any order; a bound found by scanning what is named.
        let mut h = NetworkDelta::default();
        assert_eq!(h.site_bound(), 0);
        h.set_fiber_free(9, 2);
        h.set_fiber_free(3, 1);
        h.set_fiber_free(9, 0);
        h.set_initial_circuits(5, 2, 3);
        h.set_initial_circuits(1, 0, 1);
        assert_eq!(h.free_fibers(), [(3, 1), (9, 0)]);
        assert_eq!(h.initial_links(), [((0, 1), 1), ((2, 5), 3)]);
        assert_eq!((h.initial_circuits(2, 5), h.fiber_free(4)), (3, 0));
        assert_eq!(h.site_bound(), 6);
        h.added_paths.push(PathDesc {
            transfer: 0,
            nodes: vec![1, 8],
            rate_gbps: 1.0,
        });
        assert_eq!(h.site_bound(), 9);
    }

    #[test]
    fn op_slots_follow_the_scheduler_enumeration() {
        let d = fig2_delta();
        let all = d.all_ops();
        assert_eq!(all.len(), d.op_count());
        for (slot, &kind) in all.iter().enumerate() {
            assert_eq!(d.op_slot(kind), Some(slot), "{kind:?}");
        }
        assert_eq!(d.op_slot(OpKind::RemovePath(0)), None, "no removed path");
        assert_eq!(d.op_slot(OpKind::AddPath(1)), None);
        assert_eq!(d.op_slot(OpKind::SetupCircuit(usize::MAX)), None);
    }

    #[test]
    fn identical_paths_are_unchanged() {
        let mut t = Topology::empty(2);
        t.add_links(0, 1, 1);
        let a = vec![Allocation {
            transfer: 3,
            paths: vec![(vec![0, 1], 10.0)],
        }];
        let d = NetworkDelta::from_plans(&t, &a, &t, &a, 4);
        assert_eq!(d.op_count(), 0);
        assert_eq!(d.unchanged_paths.len(), 1);
    }

    #[test]
    fn consistent_plan_orders_path_add_after_circuit_setup() {
        let d = fig2_delta();
        let plan = plan_consistent(&d, &UpdateParams::default());
        assert!(plan.ops.iter().all(|o| !o.forced), "no deadlock expected");
        // The new 150 Gbps path needs the second 0-1 circuit (θ=100):
        // its AddPath must end after some SetupCircuit completes.
        let add = plan
            .ops
            .iter()
            .find(|o| matches!(o.kind, OpKind::AddPath(_)))
            .expect("add op");
        let setup_end = plan
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::SetupCircuit(_)))
            .map(|o| o.end_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            add.start_s >= setup_end - 1e-9,
            "path installed at {} before circuit ready at {}",
            add.start_s,
            setup_end
        );
    }

    #[test]
    fn consistent_plan_never_strands_live_traffic() {
        let d = fig2_delta();
        let plan = plan_consistent(&d, &UpdateParams::default());
        // The teardown of circuits carrying nothing (1-2, 0-3) may start at
        // t=0, but no teardown of 0-1 exists at all.
        for o in plan.ops_of(|k| matches!(k, OpKind::TeardownCircuit(_))) {
            let OpKind::TeardownCircuit(i) = o.kind else {
                unreachable!()
            };
            let c = &d.removed_circuits[i];
            assert!((c.u, c.v) != (0, 1), "live link must not be torn down");
        }
    }

    #[test]
    fn one_shot_everything_at_zero() {
        let d = fig2_delta();
        let plan = plan_one_shot(&d, &UpdateParams::default());
        assert_eq!(plan.ops.len(), d.op_count());
        for o in &plan.ops {
            assert_eq!(o.start_s, 0.0);
        }
        assert_eq!(plan.makespan_s, 4.0);
    }

    #[test]
    fn consistent_makespan_at_least_one_shot() {
        let d = fig2_delta();
        let p = UpdateParams::default();
        let c = plan_consistent(&d, &p);
        let o = plan_one_shot(&d, &p);
        assert!(c.makespan_s >= o.makespan_s - 1e-9);
        assert!(c.makespan_s <= 60.0, "bounded makespan");
    }

    #[test]
    fn wavelength_dependency_serializes_setup_after_teardown() {
        // One pair with a full fiber (φ=1): the new circuit on (0,1) can
        // only be set up after the old (0,1) circuit is torn down... use two
        // pairs sharing no fibers here, so craft manually:
        let mut d = NetworkDelta::default();
        d.set_initial_circuits(0, 1, 1);
        d.set_fiber_free(9, 0); // shared fiber, no free wavelength
        d.removed_circuits.push(CircuitDesc {
            u: 0,
            v: 1,
            fibers: vec![9],
        });
        d.added_circuits.push(CircuitDesc {
            u: 0,
            v: 2,
            fibers: vec![9],
        });
        let plan = plan_consistent(&d, &UpdateParams::default());
        let teardown = plan.ops_of(|k| matches!(k, OpKind::TeardownCircuit(_)))[0];
        let setup = plan.ops_of(|k| matches!(k, OpKind::SetupCircuit(_)))[0];
        assert!(
            setup.start_s >= teardown.end_s - 1e-9,
            "setup {} must wait for teardown end {}",
            setup.start_s,
            teardown.end_s
        );
    }

    #[test]
    fn dependency_graph_counts_nodes_and_edges() {
        let d = fig2_delta();
        let (nodes, edges) = dependency_graph_size(&d);
        assert_eq!(nodes, d.op_count());
        // The +100 Gbps AddPath on 0-1 depends on the added 0-1 circuit
        // (no other edges: the removed circuits carry no paths and share
        // no fibers with the added ones in the abstract fiber model).
        assert_eq!(edges, 1);
        assert_eq!(dependency_graph_size(&NetworkDelta::default()), (0, 0));
    }

    #[test]
    fn observed_plan_matches_unobserved() {
        let d = fig2_delta();
        let params = UpdateParams::default();
        let recorder = owan_obs::Recorder::enabled();
        let telemetry = UpdateTelemetry::new(&recorder);
        let observed = plan_consistent_observed(&d, &params, &telemetry);
        let plain = plan_consistent(&d, &params);
        assert_eq!(observed.ops, plain.ops);
        assert_eq!(observed.makespan_s, plain.makespan_s);
        let snap = recorder.snapshot();
        assert_eq!(snap.counters["update.dep_graph_nodes"], d.op_count() as u64);
        assert_eq!(snap.counters["update.circuit_ops"], 4);
        assert_eq!(snap.counters["update.path_ops"], 1);
        assert_eq!(snap.counters["stage.update.calls"], 1);
    }

    #[test]
    fn empty_delta_empty_plan() {
        let d = NetworkDelta::default();
        let plan = plan_consistent(&d, &UpdateParams::default());
        assert!(plan.ops.is_empty());
        assert_eq!(plan.makespan_s, 0.0);
    }
}
