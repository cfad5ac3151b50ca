//! The tunnel kernel against the generic algorithm: `FixedContext`'s
//! hop-count tunnels must equal `owan_graph::k_shortest_paths` on the same
//! unit-weight graph (one edge per distinct link), path for path and in
//! the same order.

use owan_core::Topology;
use owan_graph::{k_shortest_paths, Graph};
use owan_optical::SiteId;
use owan_te::FixedContext;
use owan_topo::{inter_dc, internet2_testbed, internet2_wan, isp_backbone};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The unit-weight graph `FixedContext` routes tunnels over.
fn unit_graph(topology: &Topology) -> Graph {
    let mut g = Graph::new(topology.site_count());
    for (u, v, _) in topology.links() {
        g.add_undirected_edge(u, v, 1.0);
    }
    g
}

fn reference(g: &Graph, src: SiteId, dst: SiteId, k: usize) -> Vec<Vec<SiteId>> {
    k_shortest_paths(g, src, dst, k)
        .into_iter()
        .map(|p| p.nodes)
        .collect()
}

/// Checks `pairs` of `topology` at `k` tunnels a pair.
fn check_pairs(
    topology: &Topology,
    k: usize,
    pairs: impl IntoIterator<Item = (SiteId, SiteId)>,
) -> Result<(), String> {
    let g = unit_graph(topology);
    let mut ctx = FixedContext::new(topology.clone(), 10.0, k);
    for (src, dst) in pairs {
        let want = reference(&g, src, dst, k);
        let got = ctx.paths(src, dst);
        if got != want {
            return Err(format!(
                "{src} -> {dst} at k = {k}: kernel {got:?}, generic Yen {want:?}"
            ));
        }
    }
    Ok(())
}

#[test]
fn static_topologies_match_generic_yen_on_every_pair() {
    for (name, net) in [
        ("internet2 testbed", internet2_testbed()),
        ("internet2 wan", internet2_wan()),
        ("isp_backbone(7)", isp_backbone(7)),
        ("inter_dc(7)", inter_dc(7)),
    ] {
        let topology = &net.static_topology;
        let n = topology.site_count();
        for k in 1..=6 {
            let pairs = (0..n).flat_map(|s| (0..n).map(move |d| (s, d)));
            if let Err(e) = check_pairs(topology, k, pairs) {
                panic!("{name}: {e}");
            }
        }
    }
}

/// A random simple graph over `n` sites in `parts` components (site `s`
/// joins part `s % parts`; links never cross parts), each site drawing a
/// few links to random sites of its part, repeats and all.
fn random_topology(n: usize, parts: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::empty(n);
    for u in 0..n {
        for _ in 0..rng.random_range(0..4usize) {
            let v = rng.random_range(0..n);
            if v != u && v % parts == u % parts {
                t.add_links(u, v, rng.random_range(1..3u32));
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1–130 sites (rows of up to three words), up to three components,
    /// k up to 8: every ordered pair on small graphs, 60 random pairs on
    /// large ones.
    #[test]
    fn random_simple_graphs_match_generic_yen(
        n in 1usize..=130,
        parts in 1usize..=3,
        k in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let topology = random_topology(n, parts, seed);
        let pairs: Vec<(SiteId, SiteId)> = if n <= 12 {
            (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(!seed);
            (0..60)
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .collect()
        };
        check_pairs(&topology, k, pairs).map_err(TestCaseError::fail)?;
    }
}
