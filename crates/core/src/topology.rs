//! The network-layer topology as an integer multigraph.
//!
//! This is the state `s` of the simulated-annealing search (§3.2): a
//! symmetric matrix of link multiplicities, where `links(u, v) = m` means
//! *m* wavelength circuits (each of capacity `θ`) are desired between the
//! routers at sites `u` and `v`. The degree of a site — the sum of its link
//! multiplicities — equals the number of WAN-facing router ports in use, so
//! the port-count constraint `fp_v` is a simple degree bound.

use owan_optical::{FiberPlant, SiteId};
use serde::{Deserialize, Serialize};

/// An integer multigraph over the sites of a plant.
///
/// The matrix is a normal form (symmetric, dense, no ordering freedom), so
/// equality and `Hash` are those of the multigraph.
#[derive(Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    n: usize,
    /// Row-major full symmetric matrix of multiplicities; diagonal unused.
    links: Vec<u32>,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        Topology {
            n: self.n,
            links: self.links.clone(),
        }
    }

    /// Copies into the matrix already held: no allocation once it has
    /// held `source`'s site count.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.links.clone_from(&source.links);
    }
}

impl Topology {
    /// An empty topology over `n` sites.
    pub fn empty(n: usize) -> Self {
        Topology {
            n,
            links: vec![0; n * n],
        }
    }

    /// Back to [`Self::empty`]`(n)` in place: no allocation once the
    /// matrix has held `n` sites.
    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.links.clear();
        self.links.resize(n * n, 0);
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.n
    }

    /// Multiplicity of the link between `u` and `v`.
    pub fn multiplicity(&self, u: SiteId, v: SiteId) -> u32 {
        self.links[u * self.n + v]
    }

    /// Row `u` of the multiplicity matrix: entry `v` is the multiplicity
    /// of the link between `u` and `v`.
    pub(crate) fn row(&self, u: SiteId) -> &[u32] {
        &self.links[u * self.n..(u + 1) * self.n]
    }

    /// Adds `count` parallel links between `u` and `v`.
    ///
    /// # Panics
    /// Panics on a self-link.
    pub fn add_links(&mut self, u: SiteId, v: SiteId, count: u32) {
        assert_ne!(u, v, "self-links are not allowed");
        self.links[u * self.n + v] += count;
        self.links[v * self.n + u] += count;
    }

    /// Removes `count` parallel links between `u` and `v`.
    ///
    /// # Panics
    /// Panics if fewer than `count` links exist, or on a self-link.
    pub fn remove_links(&mut self, u: SiteId, v: SiteId, count: u32) {
        assert_ne!(u, v, "self-links are not allowed");
        let cur = self.links[u * self.n + v];
        assert!(
            cur >= count,
            "removing {count} links from multiplicity {cur}"
        );
        self.links[u * self.n + v] = cur - count;
        self.links[v * self.n + u] = cur - count;
    }

    /// Degree of `u`: total link endpoints, i.e. router ports in use.
    pub fn degree(&self, u: SiteId) -> u32 {
        (0..self.n).map(|v| self.links[u * self.n + v]).sum()
    }

    /// All `(u, v, multiplicity)` with `u < v` and multiplicity > 0, in
    /// canonical order: by `u`, then `v`. The circuit builder, the rate
    /// pass and the annealer's neighbour draw all rely on this order.
    pub fn iter_links(&self) -> impl Iterator<Item = (SiteId, SiteId, u32)> + '_ {
        (0..self.n).flat_map(move |u| {
            let above = self.links[u * self.n..(u + 1) * self.n].iter().enumerate();
            above
                .skip(u + 1)
                .filter_map(move |(v, &m)| (m > 0).then_some((u, v, m)))
        })
    }

    /// [`Self::iter_links`], collected.
    pub fn links(&self) -> Vec<(SiteId, SiteId, u32)> {
        self.iter_links().collect()
    }

    /// Total number of links (with multiplicity).
    pub fn total_links(&self) -> u32 {
        // The matrix is symmetric with an empty diagonal.
        self.links.iter().sum::<u32>() / 2
    }

    /// Neighbors of `u` (sites with at least one link).
    pub fn neighbors(&self, u: SiteId) -> Vec<SiteId> {
        (0..self.n)
            .filter(|&v| v != u && self.links[u * self.n + v] > 0)
            .collect()
    }

    /// Checks the router-port constraint against a plant: every site's
    /// degree must not exceed its port count.
    pub fn ports_feasible(&self, plant: &FiberPlant) -> bool {
        (0..self.n).all(|u| self.degree(u) <= plant.router_ports(u))
    }

    /// Number of link units that differ from `other` (symmetric difference
    /// with multiplicity, counting each unordered pair once). This is the
    /// amount of optical churn needed to move between the two topologies.
    pub fn link_distance(&self, other: &Topology) -> u32 {
        assert_eq!(self.n, other.n);
        let mut d = 0;
        for u in 0..self.n {
            for v in u + 1..self.n {
                let a = self.links[u * self.n + v];
                let b = other.links[u * self.n + v];
                d += a.abs_diff(b);
            }
        }
        d
    }

    /// True if every pair of router sites can reach each other over links
    /// of this topology (non-router sites are ignored).
    pub fn connects_routers(&self, plant: &FiberPlant) -> bool {
        let routers = plant.router_sites();
        let Some(&start) = routers.first() else {
            return true;
        };
        let mut seen = vec![false; self.n];
        seen[start] = true;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        routers.iter().all(|&r| seen[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    #[test]
    fn add_remove_symmetric() {
        let mut t = Topology::empty(4);
        t.add_links(0, 1, 2);
        assert_eq!(t.multiplicity(0, 1), 2);
        assert_eq!(t.multiplicity(1, 0), 2);
        t.remove_links(1, 0, 1);
        assert_eq!(t.multiplicity(0, 1), 1);
    }

    #[test]
    fn degree_counts_multiplicity() {
        let mut t = Topology::empty(4);
        t.add_links(0, 1, 2);
        t.add_links(0, 2, 1);
        assert_eq!(t.degree(0), 3);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.degree(3), 0);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        Topology::empty(2).add_links(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "removing")]
    fn over_remove_panics() {
        let mut t = Topology::empty(3);
        t.add_links(0, 1, 1);
        t.remove_links(0, 1, 2);
    }

    #[test]
    fn links_listing_deterministic() {
        let mut t = Topology::empty(4);
        t.add_links(2, 3, 1);
        t.add_links(0, 1, 2);
        assert_eq!(t.links(), vec![(0, 1, 2), (2, 3, 1)]);
        assert_eq!(t.total_links(), 3);
    }

    #[test]
    fn link_distance_counts_units() {
        let mut a = Topology::empty(4);
        a.add_links(0, 1, 2);
        a.add_links(2, 3, 1);
        let mut b = Topology::empty(4);
        b.add_links(0, 1, 1);
        b.add_links(0, 2, 1);
        // |2-1| + |1-0| (2,3) + |0-1| (0,2) = 3
        assert_eq!(a.link_distance(&b), 3);
        assert_eq!(b.link_distance(&a), 3);
        assert_eq!(a.link_distance(&a), 0);
    }

    fn plant(ports: &[u32]) -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams::default());
        for (i, &ports) in ports.iter().enumerate() {
            p.add_site(&format!("S{i}"), ports, 0);
        }
        p
    }

    #[test]
    fn ports_feasibility() {
        let p = plant(&[2, 2, 2]);
        let mut t = Topology::empty(3);
        t.add_links(0, 1, 2);
        assert!(t.ports_feasible(&p));
        t.add_links(0, 2, 1);
        assert!(!t.ports_feasible(&p), "site 0 degree 3 > 2 ports");
    }

    #[test]
    fn router_connectivity() {
        let p = plant(&[2, 2, 2, 0]); // site 3 has no router
        let mut t = Topology::empty(4);
        t.add_links(0, 1, 1);
        assert!(!t.connects_routers(&p), "router 2 unreachable");
        t.add_links(1, 2, 1);
        assert!(
            t.connects_routers(&p),
            "site 3 (no router) may stay isolated"
        );
    }

    #[test]
    fn neighbors_listed() {
        let mut t = Topology::empty(4);
        t.add_links(1, 3, 2);
        t.add_links(1, 0, 1);
        assert_eq!(t.neighbors(1), vec![0, 3]);
        assert!(t.neighbors(2).is_empty());
    }
}
