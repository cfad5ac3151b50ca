//! Regenerator-graph construction and relay-path search (§3.2, Figure 5).
//!
//! To build an optical circuit whose endpoints are farther apart than the
//! optical reach `η`, the circuit must pass through regenerators. The paper
//! builds a *regenerator graph*: nodes are the circuit endpoints plus every
//! site with a free regenerator; an edge connects two nodes if their
//! shortest fiber distance is within `η`. To balance regenerator
//! consumption, each node is weighted by the inverse of its remaining
//! regenerators (endpoints weigh zero), and the problem of finding the
//! relay path of minimum total *node* weight is transformed into a standard
//! shortest-path problem on a directed graph whose edge weights equal the
//! weight of the head node.
//!
//! Two implementations of that search live here. [`RegenGraph`] builds the
//! transformed graph and runs the generic `owan-graph` Dijkstra/Yen on it:
//! the reference, used by the naive circuit builder and by tests.
//! [`RelaySearch`] is the evaluation path's kernel: the same search, bit
//! for bit, over plant-scoped site rows ([`ReachRows`]) with no graph
//! built and no allocation, and resumable — it hands out one path per call,
//! because Algorithm 3 needs the next relay path only when the previous one
//! could not be lit.

use crate::rows::{
    by_row_words, clear_bit, has_bit, row, row_mut, row_words, set_bit, MAX_ROW_WORDS,
};
use owan_graph::{dijkstra, k_shortest_paths, Graph};
use owan_optical::{FiberPlant, OpticalState, SiteId};

/// The regenerator graph for one circuit request, plus the transformation
/// to an edge-weighted directed graph.
#[derive(Debug, Clone)]
pub struct RegenGraph {
    /// Sites included as nodes, in graph-node order: `sites[0] = src`,
    /// `sites[1] = dst`, the rest are regenerator sites.
    pub sites: Vec<SiteId>,
    /// The transformed directed graph (edge weight = head-node weight).
    pub transformed: Graph,
}

impl RegenGraph {
    /// Builds the regenerator graph for a circuit from `src` to `dst`.
    ///
    /// `fiber_dist` must be the all-pairs shortest fiber distance matrix of
    /// the plant (precomputed once per slot and shared across circuit
    /// requests — building it here would be `O(V^2 log V)` per circuit).
    pub fn build(
        plant: &FiberPlant,
        state: &OpticalState,
        fiber_dist: &[Vec<f64>],
        src: SiteId,
        dst: SiteId,
    ) -> Self {
        Self::build_with_free_regens(plant, state.free_regen_vec(), fiber_dist, src, dst)
    }

    /// [`RegenGraph::build`] from an explicit free-regenerator vector
    /// instead of an [`OpticalState`]. The graph depends on the state only
    /// through this vector: equal vectors (under the same plant and
    /// distance matrix) produce identical graphs and therefore identical
    /// Yen outputs.
    pub fn build_with_free_regens(
        plant: &FiberPlant,
        regens_free: &[u32],
        fiber_dist: &[Vec<f64>],
        src: SiteId,
        dst: SiteId,
    ) -> Self {
        let reach = plant.params().optical_reach_km;

        let mut sites = vec![src, dst];
        for (s, &free) in regens_free.iter().enumerate().take(plant.site_count()) {
            if s != src && s != dst && free > 0 {
                sites.push(s);
            }
        }

        // Node weights: 1 / remaining regenerators; endpoints weigh 0.
        let weight: Vec<f64> = sites
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if i < 2 {
                    0.0
                } else {
                    1.0 / regens_free[s] as f64
                }
            })
            .collect();

        // Transformed graph: for every pair within reach, two directed
        // edges, each weighted by its head node.
        let mut transformed = Graph::new(sites.len());
        for i in 0..sites.len() {
            for j in i + 1..sites.len() {
                if fiber_dist[sites[i]][sites[j]] <= reach {
                    transformed.add_directed_edge(i, j, weight[j]);
                    transformed.add_directed_edge(j, i, weight[i]);
                }
            }
        }

        RegenGraph { sites, transformed }
    }

    /// The minimum-regenerator-pressure relay path from `src` to `dst`, as
    /// a site sequence `[src, relays…, dst]`, or `None` if no relay path
    /// satisfies the reach constraint.
    pub fn best_relay_path(&self) -> Option<Vec<SiteId>> {
        let sp = dijkstra::shortest_paths(&self.transformed, 0);
        let nodes = sp.path_to(1)?;
        Some(nodes.into_iter().map(|n| self.sites[n]).collect())
    }

    /// Up to `k` candidate relay paths in increasing weight order (Yen's
    /// algorithm on the transformed graph). The circuit builder tries them
    /// in order until one has free wavelengths end to end — this realizes
    /// Algorithm 3 lines 7–12 ("iterate the paths … to find enough number
    /// of paths we need that can be built as optical circuits").
    pub fn relay_candidates(&self, k: usize) -> Vec<Vec<SiteId>> {
        self.relay_candidates_with_costs(k)
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }

    /// [`Self::relay_candidates`] paired with each path's total node weight
    /// (the Yen cost) — what [`RelaySearch`] is checked against.
    pub fn relay_candidates_with_costs(&self, k: usize) -> Vec<(Vec<SiteId>, f64)> {
        k_shortest_paths(&self.transformed, 0, 1, k)
            .into_iter()
            .map(|p| {
                let cost = p.cost();
                (p.nodes.into_iter().map(|n| self.sites[n]).collect(), cost)
            })
            .collect()
    }
}

/// The reach adjacency of a plant as site rows: which site pairs lie
/// within optical reach of each other, the vector-independent half of
/// every regenerator graph. Built once per plant (see
/// [`PlantCache`](crate::cache::PlantCache)) for [`RelaySearch`].
///
/// [`RegenGraph::build_with_free_regens`] tests the pair of nodes `i < j`
/// with `fiber_dist[sites[i]][sites[j]]` — oriented by *node* order — and
/// the distance matrix is only symmetric up to summation order, so both
/// orientations are kept: `fwd` row `x` holds `y` when `fiber_dist[x][y]
/// <= reach`, `rev` is its transpose, and `neighbors` picks per
/// neighbor the orientation the reference would have used.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachRows {
    n: usize,
    /// `u64` words per row.
    words: usize,
    fwd: Vec<u64>,
    rev: Vec<u64>,
}

impl ReachRows {
    /// Builds the rows from the plant's all-pairs fiber distance matrix.
    ///
    /// # Panics
    ///
    /// If the plant has more than [`MAX_SITES`](crate::rows::MAX_SITES)
    /// sites.
    pub fn build(plant: &FiberPlant, fiber_dist: &[Vec<f64>]) -> Self {
        let n = plant.site_count();
        let reach = plant.params().optical_reach_km;
        let words = row_words(n);
        let mut fwd = vec![0u64; n * words];
        let mut rev = vec![0u64; n * words];
        for x in 0..n {
            for y in 0..n {
                if x != y && fiber_dist[x][y] <= reach {
                    set_bit(&mut fwd[x * words..], y);
                    set_bit(&mut rev[y * words..], x);
                }
            }
        }
        ReachRows { n, words, fwd, rev }
    }

    /// Words per row.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The sites `y` with `fiber_dist[x][y]` within reach.
    pub(crate) fn fwd<const W: usize>(&self, x: SiteId) -> &[u64; W] {
        row(&self.fwd, x)
    }

    /// The sites adjacent to `x` in the regenerator graph of `(src, dst)`
    /// (before restricting to its node set). Node order is `src, dst, then
    /// sites ascending`; the edge between two nodes is tested from the
    /// earlier one.
    #[inline]
    fn neighbors<const W: usize>(&self, x: SiteId, src: SiteId, dst: SiteId) -> [u64; W] {
        let fwd = row::<W>(&self.fwd, x);
        if x == src {
            return *fwd;
        }
        let rev = row::<W>(&self.rev, x);
        // `earlier`: the nodes ordered before `x` — `src`, and unless `x`
        // is `dst` itself, `dst` and every site below `x`.
        let mut earlier = [0u64; W];
        if x != dst {
            for (i, e) in earlier.iter_mut().enumerate() {
                *e = match (x / 64).cmp(&i) {
                    std::cmp::Ordering::Greater => !0,
                    std::cmp::Ordering::Equal => (1u64 << (x % 64)) - 1,
                    std::cmp::Ordering::Less => 0,
                };
            }
            set_bit(&mut earlier, dst);
        }
        set_bit(&mut earlier, src);
        std::array::from_fn(|i| (rev[i] & earlier[i]) | (fwd[i] & !earlier[i]))
    }
}

/// One path held in [`RelayScratch`]'s arena.
#[derive(Debug, Clone, Copy)]
struct PathRec {
    start: usize,
    len: usize,
    cost: f64,
}

/// Buffers and between-draw state of a [`RelaySearch`]: after the first
/// search on a plant, searching allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RelayScratch {
    /// The free-regenerator vector the search started from.
    regens: Vec<u32>,
    /// Relay weight per site (`0` at the endpoints, `1/free` elsewhere).
    weight: Vec<f64>,
    dist: Vec<f64>,
    pred: Vec<SiteId>,
    /// The search's node set: a site row in the first
    /// `ReachRows::words` words.
    member: [u64; MAX_ROW_WORDS],
    /// Site sequences of every found and pooled path, back to back.
    arena: Vec<SiteId>,
    found: Vec<PathRec>,
    pool: Vec<PathRec>,
    root_costs: Vec<f64>,
}

/// Node index of site `s` in the regenerator graph of `(src, dst)`, up to
/// an order-preserving map: every tie-break of the reference compares
/// these.
#[inline]
fn rank(s: SiteId, src: SiteId, dst: SiteId) -> usize {
    if s == src {
        0
    } else if s == dst {
        1
    } else {
        s + 2
    }
}

impl RelayScratch {
    fn path(&self, r: PathRec) -> &[SiteId] {
        &self.arena[r.start..r.start + r.len]
    }

    /// Dense Dijkstra from `from` to `dst` over the member sites, skipping
    /// `banned_nodes` as heads and `banned_heads` as heads of edges out of
    /// `from`; stops when `dst` is settled. Relaxations update on strict
    /// improvement only, and extract-min settles the frontier site a
    /// binary heap keyed by `(dist, rank)` pops first, so distances and
    /// predecessors are those of
    /// `owan_graph::dijkstra::shortest_path_filtered_to`. On success the
    /// path is appended to the arena (behind whatever root the caller put
    /// there) and its cost, the settled distance, returned.
    ///
    /// Extract-min computes no rank. `rank` puts `src` first, `dst`
    /// second and the other sites in site order, but `src` is on the
    /// frontier only as `from`, alone, when a search starts: after it is
    /// settled it is done, and every spur round past the first bans it.
    /// So the `(dist, rank)` order on any frontier is: least distance,
    /// `dst` on a tie, then the lowest site — an ascending scan that keeps
    /// the first strict minimum, and one comparison against `dst`. (The
    /// `dst` tie only settles `dst` early: once least, its distance cannot
    /// improve, every weight being `>= 0`.)
    fn shortest<const W: usize>(
        &mut self,
        reach: &ReachRows,
        from: SiteId,
        (src, dst): (SiteId, SiteId),
        banned_nodes: &[u64; W],
        banned_heads: &[u64; W],
    ) -> Option<f64> {
        let member = *row::<W>(&self.member, 0);
        let mut done = [0u64; W];
        let mut frontier = [0u64; W];
        self.dist.fill(f64::INFINITY);
        self.dist[from] = 0.0;
        set_bit(&mut frontier, from);
        loop {
            if frontier == [0; W] {
                return None;
            }
            // Every frontier site has a finite distance: one is picked.
            let (mut d, mut u) = (f64::INFINITY, dst);
            for (i, &word) in frontier.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let s = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.dist[s] < d {
                        (d, u) = (self.dist[s], s);
                    }
                }
            }
            if has_bit(&frontier, dst) && self.dist[dst] == d {
                u = dst;
            }
            clear_bit(&mut frontier, u);
            set_bit(&mut done, u);
            if u == dst {
                break;
            }
            let near = reach.neighbors::<W>(u, src, dst);
            for i in 0..W {
                let mut bits = near[i] & member[i] & !done[i] & !banned_nodes[i];
                if u == from {
                    bits &= !banned_heads[i];
                }
                while bits != 0 {
                    let v = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let nd = d + self.weight[v];
                    if nd < self.dist[v] {
                        self.dist[v] = nd;
                        self.pred[v] = u;
                        set_bit(&mut frontier, v);
                    }
                }
            }
        }
        let start = self.arena.len();
        let mut cur = dst;
        self.arena.push(cur);
        while cur != from {
            cur = self.pred[cur];
            self.arena.push(cur);
        }
        self.arena[start..].reverse();
        Some(self.dist[dst])
    }
}

/// A resumable k-shortest relay search from `src` to `dst` under one
/// free-regenerator vector: Yen's algorithm one path per call, so a caller
/// that lights the first candidate pays one early-exit Dijkstra — none at
/// all when the endpoints are within reach of each other — and nothing
/// else. The paths drawn are exactly `RegenGraph::build_with_free_regens(..)
/// .relay_candidates_with_costs(drawn)` — same paths, same order, costs
/// equal bit for bit — without building a graph: Yen's i-th path depends
/// only on the first i−1, so a prefix of a longer run is a shorter run.
///
/// The node set is `src`, `dst` and every other site with a free
/// regenerator; adjacency comes from the plant-scoped [`ReachRows`]; Yen's
/// spur bans are site rows; every tie-break follows the reference's node
/// order (see `rank`): Dijkstra settles by `(dist, node)` (see
/// `RelayScratch::shortest`), the candidate pool yields by `(cost, node
/// sequence)`, a stitched path costs
/// `root_costs[i] + spur cost`, and pool/found de-duplication compares
/// nodes *and* cost bits as `owan_graph::Path` does.
///
/// All state between draws (found paths, candidate pool, weights) lives in
/// the [`RelayScratch`]; the vector is copied once, by [`Self::start`], so
/// the caller is free to provision against the state it came from between
/// draws. Starting a new search resets the scratch, whatever the previous
/// one left behind.
#[derive(Debug)]
pub struct RelaySearch<'a> {
    reach: &'a ReachRows,
    sc: &'a mut RelayScratch,
    src: SiteId,
    dst: SiteId,
    /// No further path exists (or `src == dst`: no relay path at all).
    exhausted: bool,
    /// Membership and relay weights are filled in (see [`Self::prepare`]).
    prepared: bool,
}

impl<'a> RelaySearch<'a> {
    /// Sets up the search: a copy of `regens_free`, nothing searched yet.
    pub fn start(
        reach: &'a ReachRows,
        regens_free: &[u32],
        src: SiteId,
        dst: SiteId,
        scratch: &'a mut RelayScratch,
    ) -> Self {
        let sc = scratch;
        sc.regens.clear();
        sc.regens
            .extend_from_slice(&regens_free[..regens_free.len().min(reach.n)]);
        sc.arena.clear();
        sc.found.clear();
        sc.pool.clear();
        RelaySearch {
            reach,
            sc,
            src,
            dst,
            exhausted: src == dst,
            prepared: false,
        }
    }

    /// Fills membership and relay weights from the vector the search
    /// started from, and sizes the Dijkstra buffers: what a Dijkstra or a
    /// spur round reads, and a within-reach first draw does not. Runs once
    /// per search, before the first of them.
    fn prepare<const W: usize>(&mut self) {
        if self.prepared {
            return;
        }
        self.prepared = true;
        let (n, src, dst) = (self.reach.n, self.src, self.dst);
        let sc = &mut *self.sc;
        sc.weight.clear();
        sc.weight.resize(n, 0.0);
        sc.dist.resize(n, f64::INFINITY);
        sc.pred.resize(n, 0);
        let member = row_mut::<W>(&mut sc.member, 0);
        *member = [0; W];
        for (s, &free) in sc.regens.iter().enumerate() {
            if s == src || s == dst {
                set_bit(member, s);
            } else if free > 0 {
                set_bit(member, s);
                sc.weight[s] = 1.0 / free as f64;
            }
        }
    }

    /// The next relay path in increasing weight order with its cost, or
    /// `None` once the path set is exhausted. The first call is at most one
    /// early-exit Dijkstra; each later call is one Yen round spurring off
    /// the path drawn before it.
    pub fn next_path(&mut self) -> Option<(&[SiteId], f64)> {
        if self.exhausted {
            return None;
        }
        let last = self.sc.found.last().copied();
        let next = by_row_words!(self.reach.words(), |W| match last {
            None => self.first::<W>(),
            Some(last) => self.spur_round::<W>(last),
        });
        match next {
            Some(p) => {
                self.sc.found.push(p);
                Some((self.sc.path(p), p.cost))
            }
            None => {
                self.exhausted = true;
                None
            }
        }
    }

    /// The paths drawn so far, in draw order.
    pub fn drawn(&self) -> impl Iterator<Item = (&[SiteId], f64)> + '_ {
        self.sc.found.iter().map(|&p| (self.sc.path(p), p.cost))
    }

    /// True when the draws so far are what the reference search returns
    /// for as many paths under `regens_free` — which must be the vector
    /// the search was started with. An exhausted search asks the reference
    /// for one path more, so it must have run dry at the same point.
    pub fn matches_reference(
        &self,
        plant: &FiberPlant,
        regens_free: &[u32],
        fiber_dist: &[Vec<f64>],
    ) -> bool {
        let k = self.sc.found.len() + usize::from(self.exhausted);
        let want =
            RegenGraph::build_with_free_regens(plant, regens_free, fiber_dist, self.src, self.dst)
                .relay_candidates_with_costs(k);
        want.len() == self.sc.found.len()
            && want
                .iter()
                .zip(self.drawn())
                .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits())
    }

    /// The cheapest path. When `dst` is within reach of `src` that is
    /// `[src, dst]` at cost `0.0`, and no Dijkstra runs: the endpoints
    /// weigh 0 and every other member `1/free > 0`, and once `src` is
    /// settled the reference settles the least distance with ties to `dst`
    /// — so `dst`, at `0.0` with predecessor `src`. Neither weights nor
    /// membership are read for it; later draws spur off it, as off any
    /// other first path.
    fn first<const W: usize>(&mut self) -> Option<PathRec> {
        let (src, dst) = (self.src, self.dst);
        if has_bit(self.reach.fwd::<W>(src), dst) {
            self.sc.arena.extend([src, dst]);
            return Some(PathRec {
                start: 0,
                len: 2,
                cost: 0.0,
            });
        }
        self.prepare::<W>();
        let cost = self
            .sc
            .shortest::<W>(self.reach, src, (src, dst), &[0; W], &[0; W])?;
        Some(PathRec {
            start: 0,
            len: self.sc.arena.len(),
            cost,
        })
    }

    /// One Yen round: spur from every node of `last` (the path found
    /// before) except `dst` into the pool, then take the pool's cheapest.
    fn spur_round<const W: usize>(&mut self, last: PathRec) -> Option<PathRec> {
        self.prepare::<W>();
        let (reach, src, dst) = (self.reach, self.src, self.dst);
        let sc = &mut *self.sc;
        // Prefix costs of the last path's roots, summed left to right.
        sc.root_costs.clear();
        sc.root_costs.push(0.0);
        for i in 1..last.len {
            let hop = sc.weight[sc.arena[last.start + i]];
            sc.root_costs.push(sc.root_costs[i - 1] + hop);
        }
        // The root `last[..i]` is banned node by node as `i` grows.
        let mut banned_nodes = [0u64; W];
        for i in 0..last.len - 1 {
            let spur_node = sc.arena[last.start + i];
            // Hide the edge every found path sharing this root takes out
            // of the spur node.
            let mut banned_heads = [0u64; W];
            for f in 0..sc.found.len() {
                let p = sc.found[f];
                if p.len > i
                    && sc.arena[p.start..=p.start + i] == sc.arena[last.start..=last.start + i]
                {
                    let head = sc.arena[p.start + i + 1];
                    set_bit(&mut banned_heads, head);
                }
            }
            // Stitch root + spur path in place: the root first, the spur
            // appended behind it by `shortest`.
            let start = sc.arena.len();
            sc.arena.extend_from_within(last.start..last.start + i);
            match sc.shortest(reach, spur_node, (src, dst), &banned_nodes, &banned_heads) {
                Some(spur_cost) => {
                    let total = PathRec {
                        start,
                        len: sc.arena.len() - start,
                        cost: sc.root_costs[i] + spur_cost,
                    };
                    let dup = sc.found.iter().chain(&sc.pool).any(|&q| {
                        q.cost.to_bits() == total.cost.to_bits() && sc.path(q) == sc.path(total)
                    });
                    if dup {
                        sc.arena.truncate(start);
                    } else {
                        sc.pool.push(total);
                    }
                }
                None => sc.arena.truncate(start),
            }
            set_bit(&mut banned_nodes, spur_node);
        }

        // Extract the cheapest pooled path, ties by node-order sequence.
        let best = (0..sc.pool.len()).min_by(|&a, &b| {
            let (pa, pb) = (sc.pool[a], sc.pool[b]);
            pa.cost
                .partial_cmp(&pb.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    let ranks = |p: PathRec| sc.path(p).iter().map(|&s| rank(s, src, dst));
                    ranks(pa).cmp(ranks(pb))
                })
        })?;
        Some(sc.pool.swap_remove(best))
    }
}

/// Up to `k` relay paths from `src` to `dst` in increasing weight order
/// under the free-regenerator vector `regens_free`, each with its cost: a
/// [`RelaySearch`] started, drawn `k` times and collected.
pub fn relay_k_shortest(
    reach: &ReachRows,
    regens_free: &[u32],
    src: SiteId,
    dst: SiteId,
    k: usize,
    scratch: &mut RelayScratch,
) -> Vec<(Vec<SiteId>, f64)> {
    let mut search = RelaySearch::start(reach, regens_free, src, dst, scratch);
    for _ in 0..k {
        if search.next_path().is_none() {
            break;
        }
    }
    search.drawn().map(|(p, c)| (p.to_vec(), c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    /// Line A - B - C - D, 400 km hops, reach 500 km; B and C have
    /// regenerators.
    fn plant(regens: [u32; 4]) -> FiberPlant {
        let params = OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for (i, &r) in regens.iter().enumerate() {
            p.add_site(&format!("S{i}"), 4, r);
        }
        p.add_fiber(0, 1, 400.0);
        p.add_fiber(1, 2, 400.0);
        p.add_fiber(2, 3, 400.0);
        p
    }

    #[test]
    fn direct_edge_when_within_reach() {
        let p = plant([0, 2, 2, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 1);
        let path = rg.best_relay_path().unwrap();
        assert_eq!(path, vec![0, 1], "within reach: no relays");
    }

    #[test]
    fn relay_path_through_regenerators() {
        let p = plant([0, 2, 2, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        let path = rg.best_relay_path().unwrap();
        // 0→3 is 1200 km; must relay at both B and C (each hop 400 ≤ 500,
        // 0→2 is 800 > 500 so single relay is impossible).
        assert_eq!(path, vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_path_without_regenerators() {
        let p = plant([0, 0, 0, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        assert!(rg.best_relay_path().is_none());
    }

    #[test]
    fn weight_prefers_sites_with_more_regenerators() {
        // Diamond: src 0, dst 3; relays 1 (1 regen) and 2 (4 regens), both
        // reachable; prefer the better-stocked site 2.
        let params = OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        let a = p.add_site("A", 4, 0);
        let b = p.add_site("B", 4, 1);
        let c = p.add_site("C", 4, 4);
        let d = p.add_site("D", 4, 0);
        p.add_fiber(a, b, 400.0);
        p.add_fiber(b, d, 400.0);
        p.add_fiber(a, c, 400.0);
        p.add_fiber(c, d, 400.0);
        let s = OpticalState::new(&p);
        let dist = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &dist, a, d);
        let path = rg.best_relay_path().unwrap();
        assert_eq!(path, vec![a, c, d], "1/4 weight beats 1/1");
    }

    #[test]
    fn candidates_sorted_and_start_with_best() {
        let p = plant([0, 2, 2, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        let cands = rg.relay_candidates(4);
        assert!(!cands.is_empty());
        assert_eq!(cands[0], rg.best_relay_path().unwrap());
        for c in &cands {
            assert_eq!(*c.first().unwrap(), 0);
            assert_eq!(*c.last().unwrap(), 3);
        }
    }

    #[test]
    fn consumed_regenerators_leave_the_graph() {
        let p = plant([0, 1, 1, 0]);
        let mut s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        // Consume B and C's only regenerators with a circuit 0→3.
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        let path = rg.best_relay_path().unwrap();
        s.provision(&p, &path).unwrap();
        // Now no relay path remains for a second circuit.
        let rg2 = RegenGraph::build(&p, &s, &d, 0, 3);
        assert!(rg2.best_relay_path().is_none());
    }
}
