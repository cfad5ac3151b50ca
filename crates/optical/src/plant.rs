//! The static physical infrastructure: sites and fibers.

use owan_graph::{dijkstra, Graph};
use serde::{Deserialize, Serialize};

/// Identifier of a site (dense index).
pub type SiteId = usize;

/// Identifier of a fiber pair (dense index).
pub type FiberId = usize;

/// Global optical-layer parameters (Table 1 of the paper plus device
/// timings from §4/§5.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpticalParams {
    /// Capacity of one wavelength, Gbps (θ). Commercial ROADMs carry
    /// 40–100 Gbps per wavelength (§2.1).
    pub wavelength_capacity_gbps: f64,
    /// Wavelengths per fiber pair (φ). 80+ for commercial gear (§2.1);
    /// the paper's testbed used 15.
    pub wavelengths_per_fiber: u32,
    /// Optical reach η, km: maximum unregenerated transmission distance.
    pub optical_reach_km: f64,
    /// Time to reconfigure one optical circuit, seconds. "It takes about
    /// three to five seconds on our testbed to reconfigure an optical
    /// circuit" (§5.4).
    pub circuit_reconfig_time_s: f64,
    /// Time for a single ROADM WSS switching operation, seconds
    /// (tens to hundreds of milliseconds, §1/§2.1).
    pub roadm_switch_time_s: f64,
}

impl Default for OpticalParams {
    /// Defaults match the paper's simulation setting: 100 Gbps wavelengths,
    /// 80 wavelengths per fiber, 2,000 km reach, 4 s circuit reconfiguration.
    fn default() -> Self {
        OpticalParams {
            wavelength_capacity_gbps: 100.0,
            wavelengths_per_fiber: 80,
            optical_reach_km: 2_000.0,
            circuit_reconfig_time_s: 4.0,
            roadm_switch_time_s: 0.2,
        }
    }
}

impl OpticalParams {
    /// Parameters matching the 9-site testbed (§4.1): 10 Gbps transceivers,
    /// 15 wavelengths on the ITU 100 GHz grid.
    pub fn testbed() -> Self {
        OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 15,
            optical_reach_km: 2_000.0,
            circuit_reconfig_time_s: 4.0,
            roadm_switch_time_s: 0.2,
        }
    }
}

/// A site: one ROADM, zero or one router, and pre-deployed regenerators
/// (paper §3.2: "A site v consists of one ROADM, a set of pre-deployed
/// regenerators (could be zero), and zero or one router").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Human-readable name (e.g. "SEA").
    pub name: String,
    /// Number of WAN-facing router ports connected to the ROADM (fp_v).
    /// Zero means the site has no router (pure optical relay).
    pub router_ports: u32,
    /// Number of pre-deployed regenerators (rg_v).
    pub regenerators: u32,
}

impl Site {
    /// True if the site hosts a router (at least one WAN-facing port).
    pub fn has_router(&self) -> bool {
        self.router_ports > 0
    }
}

/// A fiber pair between two sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fiber {
    /// One endpoint.
    pub a: SiteId,
    /// The other endpoint.
    pub b: SiteId,
    /// Physical length, km (drives the optical-reach constraint).
    pub length_km: f64,
    /// Optional cap on usable wavelengths, below the plant-wide φ. Models
    /// partial degradation (e.g. a failed amplifier stage that narrows the
    /// usable band). `None` means the full plant-wide count is available.
    pub lambda_cap: Option<u32>,
}

impl Fiber {
    /// Given one endpoint, returns the other.
    pub fn other(&self, s: SiteId) -> SiteId {
        if s == self.a {
            self.b
        } else {
            debug_assert_eq!(s, self.b);
            self.a
        }
    }
}

/// The static optical infrastructure: sites, fibers, parameters.
///
/// The plant is immutable during operation; dynamic state (wavelength usage,
/// regenerator consumption, circuits) lives in
/// [`OpticalState`](crate::OpticalState).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiberPlant {
    params: OpticalParams,
    sites: Vec<Site>,
    fibers: Vec<Fiber>,
    /// Fiber graph: node = site, edge = fiber, weight = length_km.
    /// Rebuilt on mutation; edge id == fiber id by construction.
    graph: Graph,
}

impl FiberPlant {
    /// Creates an empty plant.
    pub fn new(params: OpticalParams) -> Self {
        FiberPlant {
            params,
            sites: Vec::new(),
            fibers: Vec::new(),
            graph: Graph::new(0),
        }
    }

    /// Global parameters.
    pub fn params(&self) -> &OpticalParams {
        &self.params
    }

    /// Adds a site and returns its id.
    pub fn add_site(&mut self, name: &str, router_ports: u32, regenerators: u32) -> SiteId {
        self.sites.push(Site {
            name: name.to_string(),
            router_ports,
            regenerators,
        });
        self.graph.add_node();
        self.sites.len() - 1
    }

    /// Adds a fiber pair and returns its id.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the length is not positive.
    pub fn add_fiber(&mut self, a: SiteId, b: SiteId, length_km: f64) -> FiberId {
        assert!(
            a < self.sites.len() && b < self.sites.len(),
            "site out of range"
        );
        assert!(length_km > 0.0, "fiber length must be positive");
        assert_ne!(a, b, "fiber endpoints must differ");
        let id = self.fibers.len();
        self.fibers.push(Fiber {
            a,
            b,
            length_km,
            lambda_cap: None,
        });
        let eid = self.graph.add_undirected_edge(a, b, length_km);
        debug_assert_eq!(eid, id, "edge ids track fiber ids");
        id
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of fibers.
    pub fn fiber_count(&self) -> usize {
        self.fibers.len()
    }

    /// Site record.
    pub fn site(&self, s: SiteId) -> &Site {
        &self.sites[s]
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Fiber record.
    pub fn fiber(&self, f: FiberId) -> &Fiber {
        &self.fibers[f]
    }

    /// All fibers.
    pub fn fibers(&self) -> &[Fiber] {
        &self.fibers
    }

    /// Caps the usable wavelengths on `fiber` (amplifier degradation), or
    /// restores the full plant-wide count with `None`.
    pub fn set_fiber_wavelength_cap(&mut self, fiber: FiberId, cap: Option<u32>) {
        self.fibers[fiber].lambda_cap = cap;
    }

    /// Usable wavelengths on `fiber`: the plant-wide φ, shrunk by any
    /// per-fiber degradation cap.
    pub fn usable_wavelengths(&self, fiber: FiberId) -> u32 {
        let full = self.params.wavelengths_per_fiber;
        match self.fibers[fiber].lambda_cap {
            Some(cap) => cap.min(full),
            None => full,
        }
    }

    /// Looks up a site id by name.
    pub fn site_by_name(&self, name: &str) -> Option<SiteId> {
        self.sites.iter().position(|s| s.name == name)
    }

    /// The fiber graph (edge ids are fiber ids, weights are lengths in km).
    pub fn fiber_graph(&self) -> &Graph {
        &self.graph
    }

    /// Shortest fiber route between two sites: `(fiber ids, site sequence,
    /// total length)`, or `None` if disconnected. One Dijkstra a call, and
    /// between consecutive sites the lightest fiber, the first in adjacency
    /// order on a tie: the reference a [`RouteTable`] equals pair by pair.
    pub fn shortest_fiber_route(
        &self,
        src: SiteId,
        dst: SiteId,
    ) -> Option<(Vec<FiberId>, Vec<SiteId>, f64)> {
        if src == dst {
            return Some((Vec::new(), vec![src], 0.0));
        }
        let sp = dijkstra::shortest_paths(&self.graph, src);
        let sites = sp.path_to(dst)?;
        let fibers = sites
            .windows(2)
            .map(|w| {
                // Ids == edge ids.
                self.graph
                    .neighbors(w[0])
                    .filter(|&(_, n)| n == w[1])
                    .min_by(|a, b| {
                        self.graph
                            .edge(a.0)
                            .weight
                            .total_cmp(&self.graph.edge(b.0).weight)
                    })
                    .map(|(e, _)| e)
                    .expect("consecutive path nodes are adjacent")
            })
            .collect();
        Some((fibers, sites, sp.distance(dst).expect("path exists")))
    }

    /// Shortest fiber distance between two sites in km (`f64::INFINITY` if
    /// disconnected).
    pub fn fiber_distance(&self, src: SiteId, dst: SiteId) -> f64 {
        if src == dst {
            return 0.0;
        }
        dijkstra::shortest_paths(&self.graph, src)
            .distance(dst)
            .unwrap_or(f64::INFINITY)
    }

    /// Dense all-pairs shortest fiber distance matrix.
    pub fn fiber_distance_matrix(&self) -> Vec<Vec<f64>> {
        dijkstra::all_pairs_distances(&self.graph)
    }

    /// Sites that host a router.
    pub fn router_sites(&self) -> Vec<SiteId> {
        (0..self.sites.len())
            .filter(|&s| self.sites[s].has_router())
            .collect()
    }

    /// Total router ports at a site (fp_v).
    pub fn router_ports(&self, s: SiteId) -> u32 {
        self.sites[s].router_ports
    }
}

/// One shortest fiber route, borrowed from the [`RouteTable`] that holds
/// it: what [`FiberPlant::shortest_fiber_route`] returns, as a view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiberRoute<'a> {
    /// Fiber ids traversed, in order.
    pub fibers: &'a [FiberId],
    /// Site sequence (one longer than `fibers`).
    pub sites: &'a [SiteId],
    /// Total physical length, km.
    pub length_km: f64,
}

/// Where one pair's route lies in a [`RouteTable`]'s arenas.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Offset of the first site; the route has `hops + 1` sites.
    site: u32,
    /// Offset of the first fiber; the route has `hops` fibers.
    fiber: u32,
    hops: u32,
    length_km: f64,
}

/// The shortest fiber route of every ordered site pair of one plant,
/// bit-equal to [`FiberPlant::shortest_fiber_route`] pair by pair: the
/// same shortest-path trees, the same fiber rule. Routes depend on fiber
/// endpoints and lengths only, so a table stays valid until the plant's
/// fibers change; callers that provision many circuits against one plant
/// build it once and hand it to
/// [`CircuitLedger::light`](crate::CircuitLedger::light), which then runs
/// no Dijkstra per segment.
///
/// Every route is held in two flat arenas, sites and fibers, and
/// [`Self::route`] hands out a borrowed [`FiberRoute`].
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    /// Route per ordered pair, indexed `src * n + dst`; `None` when the
    /// pair is disconnected.
    spans: Vec<Option<Span>>,
    sites: Vec<SiteId>,
    fibers: Vec<FiberId>,
}

impl RouteTable {
    /// Builds the table: one Dijkstra per source site, every route read
    /// back along its destination's predecessors into the site arena, and
    /// each hop's fiber taken from a lightest-fiber table filled once with
    /// [`FiberPlant::shortest_fiber_route`]'s rule — not from the tree's
    /// predecessor edge, which can be another of two parallel fibers whose
    /// lengths differ by less than the distance's rounding.
    pub fn build(plant: &FiberPlant) -> Self {
        let n = plant.site_count();
        let graph = &plant.graph;
        let mut lightest = vec![FiberId::MAX; n * n];
        for u in 0..n {
            for (e, v) in graph.neighbors(u) {
                let best = &mut lightest[u * n + v];
                if *best == FiberId::MAX
                    || graph
                        .edge(e)
                        .weight
                        .total_cmp(&graph.edge(*best).weight)
                        .is_lt()
                {
                    *best = e;
                }
            }
        }
        let mut spans = Vec::with_capacity(n * n);
        let mut sites = Vec::with_capacity(n * n);
        let mut fibers = Vec::with_capacity(n * n);
        for src in 0..n {
            let sp = dijkstra::shortest_paths(graph, src);
            for dst in 0..n {
                let Some(length_km) = sp.distance(dst) else {
                    spans.push(None);
                    continue;
                };
                let (site, fiber) = (sites.len(), fibers.len());
                sites.push(dst);
                let mut at = dst;
                while let Some(prev) = sp.predecessor(at) {
                    sites.push(prev);
                    at = prev;
                }
                sites[site..].reverse();
                fibers.extend(sites[site..].windows(2).map(|w| lightest[w[0] * n + w[1]]));
                spans.push(Some(Span {
                    site: site as u32,
                    fiber: fiber as u32,
                    hops: (fibers.len() - fiber) as u32,
                    length_km,
                }));
            }
        }
        RouteTable {
            n,
            spans,
            sites,
            fibers,
        }
    }

    /// Number of sites of the plant the table was built for.
    pub fn site_count(&self) -> usize {
        self.n
    }

    /// The shortest fiber route from `src` to `dst`, or `None` if the two
    /// are disconnected.
    #[inline]
    pub fn route(&self, src: SiteId, dst: SiteId) -> Option<FiberRoute<'_>> {
        let s = self.spans[src * self.n + dst]?;
        let (site, fiber, hops) = (s.site as usize, s.fiber as usize, s.hops as usize);
        Some(FiberRoute {
            fibers: &self.fibers[fiber..fiber + hops],
            sites: &self.sites[site..site + hops + 1],
            length_km: s.length_km,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_plant() -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams::default());
        let a = p.add_site("A", 2, 0);
        let b = p.add_site("B", 2, 2);
        let c = p.add_site("C", 2, 0);
        p.add_fiber(a, b, 100.0);
        p.add_fiber(b, c, 200.0);
        p
    }

    #[test]
    fn sites_and_fibers_counted() {
        let p = line_plant();
        assert_eq!(p.site_count(), 3);
        assert_eq!(p.fiber_count(), 2);
    }

    #[test]
    fn site_lookup_by_name() {
        let p = line_plant();
        assert_eq!(p.site_by_name("B"), Some(1));
        assert_eq!(p.site_by_name("Z"), None);
    }

    #[test]
    fn fiber_route_and_distance() {
        let p = line_plant();
        let (fibers, sites, len) = p.shortest_fiber_route(0, 2).unwrap();
        assert_eq!(sites, vec![0, 1, 2]);
        assert_eq!(fibers, vec![0, 1]);
        assert_eq!(len, 300.0);
        assert_eq!(p.fiber_distance(0, 2), 300.0);
    }

    #[test]
    fn route_to_self_is_empty() {
        let p = line_plant();
        let (fibers, sites, len) = p.shortest_fiber_route(1, 1).unwrap();
        assert!(fibers.is_empty());
        assert_eq!(sites, vec![1]);
        assert_eq!(len, 0.0);
    }

    #[test]
    fn disconnected_route_is_none() {
        let mut p = line_plant();
        let d = p.add_site("D", 2, 0);
        assert!(p.shortest_fiber_route(0, d).is_none());
        assert_eq!(p.fiber_distance(0, d), f64::INFINITY);
    }

    #[test]
    fn parallel_fibers_pick_shortest() {
        let mut p = FiberPlant::new(OpticalParams::default());
        let a = p.add_site("A", 2, 0);
        let b = p.add_site("B", 2, 0);
        p.add_fiber(a, b, 500.0);
        let short = p.add_fiber(a, b, 100.0);
        let (fibers, _, len) = p.shortest_fiber_route(a, b).unwrap();
        assert_eq!(fibers, vec![short]);
        assert_eq!(len, 100.0);
    }

    #[test]
    fn router_sites_excludes_portless() {
        let mut p = line_plant();
        let relay = p.add_site("RELAY", 0, 4);
        assert!(!p.site(relay).has_router());
        assert_eq!(p.router_sites(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_fiber_panics() {
        let mut p = FiberPlant::new(OpticalParams::default());
        let a = p.add_site("A", 2, 0);
        p.add_fiber(a, a, 10.0);
    }

    #[test]
    fn distance_matrix_matches_pointwise() {
        let p = line_plant();
        let m = p.fiber_distance_matrix();
        for (i, row) in m.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, p.fiber_distance(i, j));
            }
        }
    }

    #[test]
    fn wavelength_cap_clamps_to_plant_phi() {
        let mut p = line_plant();
        assert_eq!(p.usable_wavelengths(0), 80);
        p.set_fiber_wavelength_cap(0, Some(12));
        assert_eq!(p.usable_wavelengths(0), 12);
        // A cap above the plant-wide φ cannot add wavelengths.
        p.set_fiber_wavelength_cap(0, Some(200));
        assert_eq!(p.usable_wavelengths(0), 80);
        p.set_fiber_wavelength_cap(0, None);
        assert_eq!(p.usable_wavelengths(0), 80);
        assert_eq!(p.usable_wavelengths(1), 80);
    }

    #[test]
    fn route_table_equals_pointwise_routes() {
        // Parallel fibers (the lighter must win in both directions), a
        // tie between two equal-length detours, and a disconnected site.
        let mut p = line_plant();
        let d = p.add_site("D", 2, 0);
        let e = p.add_site("E", 2, 0);
        p.add_fiber(0, 1, 40.0);
        p.add_fiber(0, d, 150.0);
        p.add_fiber(d, 2, 90.0);
        let table = RouteTable::build(&p);
        assert_eq!(table.site_count(), p.site_count());
        for src in 0..p.site_count() {
            for dst in 0..p.site_count() {
                let want = p.shortest_fiber_route(src, dst);
                let got = table
                    .route(src, dst)
                    .map(|r| (r.fibers.to_vec(), r.sites.to_vec(), r.length_km));
                assert_eq!(got.is_some(), want.is_some(), "{src}->{dst}");
                if let (Some(g), Some(w)) = (got, want) {
                    assert_eq!((&g.0, &g.1), (&w.0, &w.1), "{src}->{dst}");
                    assert_eq!(g.2.to_bits(), w.2.to_bits(), "{src}->{dst}");
                }
            }
        }
        assert!(table.route(0, e).is_none() && table.route(e, 0).is_none());
        assert_eq!(
            table.route(0, 1).unwrap().fibers,
            vec![2],
            "lighter parallel"
        );
    }

    #[test]
    fn route_table_takes_the_lightest_of_parallel_fibers_that_tie_in_distance() {
        // 1e16 km out, 0.6 and 0.5 km both round to the same distance, so
        // the tree's predecessor edge into C is the first relaxed (0.6);
        // the route must still take the lighter fiber, as the reference does.
        let mut p = FiberPlant::new(OpticalParams::default());
        let a = p.add_site("A", 2, 0);
        let b = p.add_site("B", 2, 0);
        let c = p.add_site("C", 2, 0);
        p.add_fiber(a, b, 1e16);
        p.add_fiber(b, c, 0.6);
        let light = p.add_fiber(b, c, 0.5);
        assert_eq!(1e16 + 0.6, 1e16 + 0.5);
        let (fibers, _, _) = p.shortest_fiber_route(a, c).unwrap();
        assert_eq!(fibers, vec![0, light]);
        assert_eq!(RouteTable::build(&p).route(a, c).unwrap().fibers, fibers);
    }

    #[test]
    fn testbed_params() {
        let t = OpticalParams::testbed();
        assert_eq!(t.wavelength_capacity_gbps, 10.0);
        assert_eq!(t.wavelengths_per_fiber, 15);
    }
}
