//! Synthetic ~40-site ISP backbone, and the same generator at other sizes.
//!
//! The paper's ISP topology is proprietary; §5.1 describes it as "about 40
//! sites … connected into an irregular mesh". This generator reproduces
//! that structure deterministically from a seed: sites are scattered over a
//! continental-scale plane, connected by a random tour (guaranteeing
//! connectivity) plus nearest-neighbor chords until the target average
//! degree is reached. Fiber lengths are Euclidean distances; regenerators
//! are concentrated at the highest-degree sites, following the practice of
//! the paper's references [14, 15].

use crate::Network;
use owan_core::Topology;
use owan_optical::{FiberPlant, OpticalParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Number of sites in the generated backbone.
pub const ISP_SITES: usize = 40;

/// Target average network-layer degree of the static topology.
const TARGET_AVG_DEGREE: f64 = 3.2;

/// Generates the ISP backbone. The same seed always yields the same
/// network; the paper's experiments use seed 7.
pub fn isp_backbone(seed: u64) -> Network {
    isp_backbone_sized(seed, ISP_SITES)
}

/// [`isp_backbone`] with `n` sites instead of [`ISP_SITES`]: the same
/// generator — sites over the same plane, the spanning tree, chords to
/// the same average degree, no stubs, the top degree quartile
/// regenerator-rich — for scaling experiments.
/// `isp_backbone_sized(seed, ISP_SITES)` is `isp_backbone(seed)` bit for
/// bit.
///
/// # Panics
///
/// If `n < 3`.
pub fn isp_backbone_sized(seed: u64, n: usize) -> Network {
    assert!(n >= 3, "an ISP backbone of {n} sites");
    let mut rng = StdRng::seed_from_u64(seed);

    // Continental-scale site coordinates (km).
    let coords: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                rng.random_range(0.0..4_500.0),
                rng.random_range(0.0..2_500.0),
            )
        })
        .collect();
    // Every pair's Euclidean distance, tabulated once: Prim and the chord
    // sort compare distances O(n^3) and O(n^2 log n) times.
    let table: Vec<f64> = (0..n * n)
        .map(|i| {
            let (ax, ay) = coords[i / n];
            let (bx, by) = coords[i % n];
            ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(50.0)
        })
        .collect();
    let dist = |a: usize, b: usize| -> f64 { table[a * n + b] };

    // Minimum spanning tree for connectivity: fibers follow geography, as
    // in a real backbone (long-haul spans stay within amplifier/ROADM
    // distance of each other).
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut has = vec![false; n * n];
    let add = |links: &mut Vec<(usize, usize)>, has: &mut Vec<bool>, u: usize, v: usize| {
        let (a, b) = (u.min(v), u.max(v));
        if a != b && !has[a * n + b] {
            has[a * n + b] = true;
            links.push((a, b));
            true
        } else {
            false
        }
    };
    {
        // Prim's algorithm.
        let mut in_tree = vec![false; n];
        in_tree[0] = true;
        for _ in 1..n {
            let mut best: Option<(f64, usize, usize)> = None;
            for u in 0..n {
                if !in_tree[u] {
                    continue;
                }
                for (v, &grown) in in_tree.iter().enumerate() {
                    if grown {
                        continue;
                    }
                    let d = dist(u, v);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, u, v));
                    }
                }
            }
            let (_, u, v) = best.expect("graph incomplete");
            in_tree[v] = true;
            add(&mut links, &mut has, u, v);
        }
    }

    // Nearest-neighbor chords until the average degree target is met.
    let target_links = (TARGET_AVG_DEGREE * n as f64 / 2.0).round() as usize;
    let mut candidates: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    candidates.sort_by(|&(a, b), &(c, d)| dist(a, b).total_cmp(&dist(c, d)));
    for (u, v) in candidates {
        if links.len() >= target_links {
            break;
        }
        add(&mut links, &mut has, u, v);
    }

    // No stub sites: give every degree-1 site a second (nearest) adjacency
    // — backbone POPs are at least dual-homed.
    loop {
        let mut degree = vec![0u32; n];
        for &(u, v) in &links {
            degree[u] += 1;
            degree[v] += 1;
        }
        let Some(stub) = (0..n).find(|&s| degree[s] < 2) else {
            break;
        };
        let nearest = (0..n)
            .filter(|&v| v != stub && !has[stub.min(v) * n + stub.max(v)])
            .min_by(|&a, &b| dist(stub, a).total_cmp(&dist(stub, b)))
            .expect("another site exists");
        add(&mut links, &mut has, stub, nearest);
    }

    // Build static topology and degree-derived ports.
    let mut topo = Topology::empty(n);
    for &(u, v) in &links {
        topo.add_links(u, v, 1);
    }

    // Plant: fibers mirror the static links (the ISP owns one fiber per
    // adjacency) with Euclidean lengths.
    let params = OpticalParams {
        wavelength_capacity_gbps: 100.0,
        wavelengths_per_fiber: 80,
        optical_reach_km: 2_000.0,
        ..Default::default()
    };
    let mut plant = FiberPlant::new(params);
    // Regenerator concentration: top-quartile degree sites get 12, others 3.
    let degrees: Vec<u32> = (0..n).map(|s| topo.degree(s)).collect();
    let mut sorted = degrees.clone();
    sorted.sort_unstable();
    let cutoff = sorted[n * 3 / 4];
    for (s, &deg) in degrees.iter().enumerate() {
        let regens = if deg >= cutoff { 12 } else { 3 };
        plant.add_site(&format!("ISP{s:02}"), deg, regens);
    }
    for &(u, v) in &links {
        plant.add_fiber(u, v, dist(u, v));
    }

    Network {
        name: "isp".into(),
        plant,
        static_topology: topo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_sites_irregular_mesh() {
        let net = isp_backbone(7);
        assert_eq!(net.plant.site_count(), 40);
        let avg_degree = 2.0 * net.static_topology.total_links() as f64 / 40.0;
        assert!(
            avg_degree > 2.5 && avg_degree < 4.5,
            "avg degree {avg_degree}"
        );
        net.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let a = isp_backbone(7);
        let b = isp_backbone(7);
        assert_eq!(a.static_topology, b.static_topology);
        assert_eq!(a.plant.fiber_count(), b.plant.fiber_count());
    }

    #[test]
    fn different_seeds_differ() {
        let a = isp_backbone(7);
        let b = isp_backbone(8);
        assert_ne!(a.static_topology, b.static_topology);
    }

    #[test]
    fn degrees_vary() {
        let net = isp_backbone(7);
        let degrees: Vec<u32> = (0..40).map(|s| net.static_topology.degree(s)).collect();
        let min = degrees.iter().min().unwrap();
        let max = degrees.iter().max().unwrap();
        assert!(max > min, "an irregular mesh has degree variance");
        assert!(*min >= 2, "the tour guarantees degree >= 2");
    }

    /// FNV-1a over the static link list, every fiber's endpoints and
    /// length bits, and every site's ports and regenerators.
    fn digest(net: &Network) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (u, v, m) in net.static_topology.links() {
            mix(u as u64);
            mix(v as u64);
            mix(u64::from(m));
        }
        for f in net.plant.fibers() {
            mix(f.a as u64);
            mix(f.b as u64);
            mix(f.length_km.to_bits());
        }
        for s in net.plant.sites() {
            mix(u64::from(s.router_ports));
            mix(u64::from(s.regenerators));
        }
        h
    }

    /// The paper's seed-7 backbone, bit for bit: links, fiber lengths and
    /// regenerators as generated before the distances were tabulated, and
    /// as the sized generator makes it at 40 sites.
    #[test]
    fn seed_7_backbone_is_pinned() {
        assert_eq!(
            digest(&isp_backbone(7)),
            938_730_704_012_097_498,
            "isp_backbone(7) drifted"
        );
        assert_eq!(
            digest(&isp_backbone_sized(7, ISP_SITES)),
            938_730_704_012_097_498,
            "isp_backbone_sized(7, 40) is not isp_backbone(7)"
        );
    }

    #[test]
    fn sized_backbones_scale_the_same_mesh() {
        for n in [12, 100, 200] {
            let net = isp_backbone_sized(7, n);
            assert_eq!(net.plant.site_count(), n);
            net.validate().unwrap();
            let avg_degree = 2.0 * net.static_topology.total_links() as f64 / n as f64;
            assert!(avg_degree > 2.5 && avg_degree < 4.5, "{n}: {avg_degree}");
            assert!((0..n).all(|s| net.static_topology.degree(s) >= 2), "{n}");
            assert_eq!(
                digest(&net),
                digest(&isp_backbone_sized(7, n)),
                "{n}: deterministic"
            );
        }
    }

    #[test]
    fn fiber_lengths_reasonable() {
        let net = isp_backbone(7);
        for f in net.plant.fibers() {
            assert!(f.length_km >= 50.0);
            assert!(f.length_km <= 5_200.0);
        }
    }
}
