//! Shared infrastructure for fixed-topology baselines.
//!
//! All prior systems the paper compares against (B4/SWAN-style TE) "assume
//! a fixed network-layer topology" (§1). [`FixedContext`] captures that
//! fixed topology once: link indexing, aggregated capacities, and a
//! k-shortest-paths tunnel cache per site pair — the standard tunnel-based
//! TE setup.

use owan_core::{Allocation, Recorder, Topology, Transfer};
use owan_graph::{k_shortest_paths, Graph};
use owan_optical::SiteId;
use owan_solver::{McfProblem, McfSolution};
use std::collections::HashMap;

/// Scales allocations down so no link exceeds its capacity. LP solutions
/// carry numerical slack proportional to the right-hand-side magnitude
/// (volumes over long horizons reach 1e5–1e6), which can overshoot link
/// capacity by far more than an absolute epsilon; one proportional pass
/// restores strict feasibility: a path scaled by the worst factor of its
/// links cannot leave any link above capacity.
pub fn enforce_capacity(allocations: &mut Vec<Allocation>, topology: &Topology, theta: f64) {
    let n = topology.site_count();
    let mut load = vec![0.0f64; n * n];
    for a in allocations.iter() {
        for (path, r) in &a.paths {
            for w in path.windows(2) {
                load[w[0] * n + w[1]] += r;
                load[w[1] * n + w[0]] += r;
            }
        }
    }
    // Per-link shrink factor (1.0 when within capacity).
    let mut factor = vec![1.0f64; n * n];
    let mut any = false;
    for u in 0..n {
        for v in 0..n {
            let cap = topology.multiplicity(u, v) as f64 * theta;
            if load[u * n + v] > cap {
                factor[u * n + v] = if load[u * n + v] > 0.0 {
                    cap / load[u * n + v]
                } else {
                    1.0
                };
                any = true;
            }
        }
    }
    if !any {
        return;
    }
    for a in allocations.iter_mut() {
        for (path, r) in &mut a.paths {
            let f = path
                .windows(2)
                .map(|w| factor[w[0] * n + w[1]])
                .fold(1.0f64, f64::min);
            *r *= f;
        }
        a.paths.retain(|(_, r)| *r > 1e-9);
    }
    allocations.retain(|a| !a.paths.is_empty());
}

/// LP work of the slot being planned: plain integers the LP engines add
/// to per solve, emitted as the `lp.*` counters once a slot when a
/// recorder is attached.
#[derive(Debug, Clone, Default)]
pub(crate) struct LpTally {
    solves: u64,
    pivots: u64,
    rows: u64,
    /// Where `end_slot` emits (an engine's `set_recorder` assigns it).
    pub(crate) recorder: Recorder,
}

impl LpTally {
    /// Counts one LP solved to an optimum in `pivots` over `rows` rows.
    pub(crate) fn solved(&mut self, pivots: usize, rows: usize) {
        self.solves += 1;
        self.pivots += pivots as u64;
        self.rows += rows as u64;
    }

    /// Ends the slot: emits its counts (if anyone listens) and zeroes them.
    pub(crate) fn end_slot(&mut self) {
        if self.recorder.is_enabled() {
            self.recorder.counter("lp.solves").add(self.solves);
            self.recorder.counter("lp.pivots").add(self.pivots);
            self.recorder.counter("lp.rows").add(self.rows);
        }
        (self.solves, self.pivots, self.rows) = (0, 0, 0);
    }
}

/// The tunnel set of one site pair.
#[derive(Debug, Clone, Default)]
pub struct Tunnels {
    /// Each tunnel as its site path, hop-shortest first.
    pub sites: Vec<Vec<SiteId>>,
    /// Each tunnel as the link indices it crosses, aligned with `sites`.
    /// Tunnels are loopless, so no list repeats a link.
    pub links: Vec<Vec<usize>>,
}

/// A fixed network-layer topology prepared for LP-based TE.
#[derive(Debug, Clone)]
pub struct FixedContext {
    topology: Topology,
    theta: f64,
    /// Distinct links `(u, v)` with `u < v`, in deterministic order.
    links: Vec<(SiteId, SiteId)>,
    /// `(u, v)` (either order) → link index.
    link_index: HashMap<(SiteId, SiteId), usize>,
    /// Tunnels per site pair (cached).
    path_cache: HashMap<(SiteId, SiteId), Tunnels>,
    /// Tunnels per pair.
    k: usize,
}

impl FixedContext {
    /// Prepares a context over `topology` with per-circuit capacity
    /// `theta` (Gbps) and `k` candidate tunnels per site pair.
    pub fn new(topology: Topology, theta: f64, k: usize) -> Self {
        let links: Vec<(SiteId, SiteId)> =
            topology.links().iter().map(|&(u, v, _)| (u, v)).collect();
        let mut link_index = HashMap::new();
        for (i, &(u, v)) in links.iter().enumerate() {
            link_index.insert((u, v), i);
            link_index.insert((v, u), i);
        }
        FixedContext {
            topology,
            theta,
            links,
            link_index,
            path_cache: HashMap::new(),
            k,
        }
    }

    /// The fixed topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-circuit capacity, Gbps.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Aggregated capacity of each indexed link (multiplicity × θ).
    pub fn capacities(&self) -> Vec<f64> {
        self.links
            .iter()
            .map(|&(u, v)| self.topology.multiplicity(u, v) as f64 * self.theta)
            .collect()
    }

    /// Hop-count tunnel set for a site pair (computed once, then cached).
    pub fn paths(&mut self, src: SiteId, dst: SiteId) -> &[Vec<SiteId>] {
        &self.tunnels(src, dst).sites
    }

    /// The pair's tunnels as site paths and as link-index lists, both
    /// derived the first time the pair is asked for.
    pub fn tunnels(&mut self, src: SiteId, dst: SiteId) -> &Tunnels {
        if !self.path_cache.contains_key(&(src, dst)) {
            let sites = self.compute_paths(src, dst);
            let links: Vec<Vec<usize>> = sites.iter().map(|p| self.path_links(p)).collect();
            debug_assert!(
                links
                    .iter()
                    .all(|p| p.iter().enumerate().all(|(i, l)| !p[..i].contains(l))),
                "Yen tunnels are loopless"
            );
            self.path_cache.insert((src, dst), Tunnels { sites, links });
        }
        &self.path_cache[&(src, dst)]
    }

    fn compute_paths(&self, src: SiteId, dst: SiteId) -> Vec<Vec<SiteId>> {
        if src == dst {
            return Vec::new();
        }
        // Unit-weight simple graph over distinct links: tunnels minimize
        // hop count.
        let mut g = Graph::new(self.topology.site_count());
        for &(u, v) in &self.links {
            g.add_undirected_edge(u, v, 1.0);
        }
        k_shortest_paths(&g, src, dst, self.k)
            .into_iter()
            .map(|p| p.nodes)
            .collect()
    }

    /// Converts a site path to its link-index list.
    pub fn path_links(&self, path: &[SiteId]) -> Vec<usize> {
        path.windows(2)
            .map(|w| {
                *self
                    .link_index
                    .get(&(w[0], w[1]))
                    .expect("path uses known links")
            })
            .collect()
    }

    /// Builds the MCF problem for a transfer set: one commodity per
    /// transfer, demand = per-slot demand rate. Returns the problem plus
    /// the site-path tunnels per commodity (aligned with commodity order).
    pub fn build_mcf(
        &mut self,
        transfers: &[Transfer],
        slot_len_s: f64,
    ) -> (McfProblem, Vec<Vec<Vec<SiteId>>>) {
        let mut mcf = McfProblem::new(self.capacities());
        let mut tunnels = Vec::with_capacity(transfers.len());
        for t in transfers {
            let pair = self.tunnels(t.src, t.dst);
            mcf.add_commodity(t.demand_rate_gbps(slot_len_s), pair.links.clone());
            tunnels.push(pair.sites.clone());
        }
        (mcf, tunnels)
    }

    /// Converts an MCF solution back into per-transfer allocations,
    /// clamped to strict link-capacity feasibility (see
    /// [`enforce_capacity`]).
    pub fn allocations_from(
        &self,
        transfers: &[Transfer],
        tunnels: &[Vec<Vec<SiteId>>],
        solution: &McfSolution,
    ) -> Vec<Allocation> {
        let mut out = Vec::new();
        for (f, t) in transfers.iter().enumerate() {
            let paths: Vec<(Vec<SiteId>, f64)> = tunnels[f]
                .iter()
                .zip(&solution.rates[f])
                .filter(|&(_, &r)| r > 1e-9)
                .map(|(p, &r)| (p.clone(), r))
                .collect();
            if !paths.is_empty() {
                out.push(Allocation {
                    transfer: t.id,
                    paths,
                });
            }
        }
        enforce_capacity(&mut out, &self.topology, self.theta);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Topology {
        let mut t = Topology::empty(4);
        t.add_links(0, 1, 1);
        t.add_links(1, 3, 2);
        t.add_links(0, 2, 1);
        t.add_links(2, 3, 1);
        t
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

    #[test]
    fn capacities_aggregate_multiplicity() {
        let ctx = FixedContext::new(square(), 10.0, 4);
        let caps = ctx.capacities();
        // links() order: (0,1), (0,2), (1,3), (2,3)
        assert_eq!(caps, vec![10.0, 10.0, 20.0, 10.0]);
    }

    #[test]
    fn paths_are_hop_shortest_first() {
        let mut ctx = FixedContext::new(square(), 10.0, 4);
        let paths = ctx.paths(0, 3).to_vec();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 3, "two-hop paths first");
    }

    #[test]
    fn path_links_round_trip() {
        let mut ctx = FixedContext::new(square(), 10.0, 4);
        let paths = ctx.paths(0, 3).to_vec();
        for p in &paths {
            let links = ctx.path_links(p);
            assert_eq!(links.len(), p.len() - 1);
        }
    }

    #[test]
    fn mcf_solution_to_allocations() {
        let mut ctx = FixedContext::new(square(), 10.0, 4);
        let ts = vec![transfer(5, 0, 3, 100.0)];
        let (mcf, tunnels) = ctx.build_mcf(&ts, 1.0);
        let sol = mcf.max_throughput();
        assert!(sol.total_throughput > 0.0);
        let allocs = ctx.allocations_from(&ts, &tunnels, &sol);
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].transfer, 5);
        assert!((allocs[0].total_rate() - sol.total_throughput).abs() < 1e-6);
    }
}
