//! Property-based tests for the graph substrate.
//!
//! Random small graphs are cross-checked against brute-force oracles:
//! Dijkstra against Bellman-Ford, Dinic against the max-flow/min-cut
//! duality, and Yen against its defining properties (looplessness,
//! sortedness, distinctness).

use owan_graph::{dijkstra, k_shortest_paths, max_flow, FlowNetwork, Graph};
use proptest::prelude::*;

/// Strategy: a random undirected graph with up to `n` nodes and `m` edges.
fn random_graph(n: usize, m: usize) -> impl Strategy<Value = Graph> {
    (2..=n).prop_flat_map(move |nodes| {
        proptest::collection::vec((0..nodes, 0..nodes, 1u32..100), 0..=m).prop_map(move |edges| {
            let mut g = Graph::new(nodes);
            for (u, v, w) in edges {
                if u != v {
                    g.add_undirected_edge(u, v, w as f64);
                }
            }
            g
        })
    })
}

/// Bellman-Ford oracle for shortest distances.
fn bellman_ford(g: &Graph, src: usize) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for e in g.edges() {
            if dist[e.u] + e.weight < dist[e.v] {
                dist[e.v] = dist[e.u] + e.weight;
                changed = true;
            }
            if e.undirected && dist[e.v] + e.weight < dist[e.u] {
                dist[e.u] = dist[e.v] + e.weight;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Brute-force k-shortest-paths oracle: enumerate every simple path by
/// DFS over node sequences (cost = lightest parallel edge per hop) and
/// sort by cost.
fn brute_simple_path_costs(g: &Graph, src: usize, dst: usize) -> Vec<f64> {
    let n = g.node_count();
    let min_w = |a: usize, b: usize| -> f64 {
        g.neighbors(a)
            .filter(|&(_, v)| v == b)
            .map(|(e, _)| g.edge(e).weight)
            .fold(f64::INFINITY, f64::min)
    };
    let mut costs = Vec::new();
    let mut visited = vec![false; n];
    visited[src] = true;
    fn dfs(
        min_w: &dyn Fn(usize, usize) -> f64,
        u: usize,
        dst: usize,
        cost: f64,
        visited: &mut [bool],
        costs: &mut Vec<f64>,
    ) {
        if u == dst {
            costs.push(cost);
            return;
        }
        for v in 0..visited.len() {
            let w = min_w(u, v);
            if !visited[v] && w.is_finite() {
                visited[v] = true;
                dfs(min_w, v, dst, cost + w, visited, costs);
                visited[v] = false;
            }
        }
    }
    dfs(&min_w, src, dst, 0.0, &mut visited, &mut costs);
    costs.sort_by(f64::total_cmp);
    costs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford(g in random_graph(8, 16)) {
        let sp = dijkstra::shortest_paths(&g, 0);
        let bf = bellman_ford(&g, 0);
        for (v, &bfv) in bf.iter().enumerate() {
            let d = sp.distance(v).unwrap_or(f64::INFINITY);
            prop_assert!((d - bfv).abs() < 1e-9 || (d.is_infinite() && bfv.is_infinite()),
                "node {v}: dijkstra {d} vs bellman-ford {bfv}");
        }
    }

    #[test]
    fn dijkstra_path_cost_consistent(g in random_graph(8, 16)) {
        let sp = dijkstra::shortest_paths(&g, 0);
        for v in 0..g.node_count() {
            if let Some(p) = sp.full_path_to(v) {
                // Recompute the path cost hop by hop (lightest parallel edge).
                let mut cost = 0.0;
                for (a, b) in p.hops() {
                    let w = g.neighbors(a)
                        .filter(|&(_, n)| n == b)
                        .map(|(e, _)| g.edge(e).weight)
                        .fold(f64::INFINITY, f64::min);
                    cost += w;
                }
                prop_assert!((cost - p.cost()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn yen_paths_loopless_sorted_distinct(g in random_graph(7, 14)) {
        let n = g.node_count();
        let paths = k_shortest_paths(&g, 0, n - 1, 6);
        for w in paths.windows(2) {
            prop_assert!(w[0].cost() <= w[1].cost() + 1e-9);
            prop_assert_ne!(&w[0].nodes, &w[1].nodes);
        }
        for p in &paths {
            let mut ns = p.nodes.clone();
            ns.sort_unstable();
            ns.dedup();
            prop_assert_eq!(ns.len(), p.nodes.len(), "loop in path");
            prop_assert_eq!(p.source(), 0);
            prop_assert_eq!(p.destination(), n - 1);
        }
        // First path must agree with Dijkstra.
        let sp = dijkstra::shortest_paths(&g, 0);
        match (paths.first(), sp.distance(n - 1)) {
            (Some(p), Some(d)) => prop_assert!((p.cost() - d).abs() < 1e-9),
            (None, None) => {}
            (a, b) => prop_assert!(false, "mismatch: yen {:?} dijkstra {:?}", a.map(|p| p.cost()), b),
        }
    }

    #[test]
    fn yen_matches_brute_force_enumeration(g in random_graph(8, 14), k in 1usize..7) {
        // Completeness + optimality: Yen's k paths must cost exactly the
        // same as the k cheapest simple paths found by exhaustive DFS
        // enumeration. (Top-k cost sequences are unique even under ties.)
        let n = g.node_count();
        let yen = k_shortest_paths(&g, 0, n - 1, k);
        let brute = brute_simple_path_costs(&g, 0, n - 1);
        prop_assert_eq!(
            yen.len(),
            brute.len().min(k),
            "yen returned {} paths, brute force found {} (k = {})",
            yen.len(), brute.len(), k
        );
        for (i, (p, bc)) in yen.iter().zip(&brute).enumerate() {
            prop_assert!(
                (p.cost() - bc).abs() < 1e-9,
                "path {i}: yen cost {} vs brute-force {bc}", p.cost()
            );
        }
        // Every returned path is itself a genuine simple path of the graph
        // whose stated cost matches a hop-by-hop recomputation.
        for p in &yen {
            let mut seen = vec![false; n];
            let mut cost = 0.0;
            for (a, b) in p.hops() {
                prop_assert!(!seen[a], "repeated node {a}");
                seen[a] = true;
                let w = g.neighbors(a)
                    .filter(|&(_, v)| v == b)
                    .map(|(e, _)| g.edge(e).weight)
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(w.is_finite(), "hop ({a}, {b}) not in graph");
                cost += w;
            }
            prop_assert!((cost - p.cost()).abs() < 1e-9);
        }
    }

    #[test]
    fn maxflow_bounded_by_degree_cuts(g in random_graph(8, 16)) {
        let n = g.node_count();
        let (s, t) = (0, n - 1);
        let mut net = FlowNetwork::new(n);
        for e in g.edges() {
            net.add_undirected_edge(e.u, e.v, e.weight);
        }
        let f = max_flow(&mut net, s, t);
        prop_assert!(f >= -1e-9);
        // Cut bound: flow cannot exceed total capacity incident to s or t.
        let cap_at = |v: usize| -> f64 {
            g.edges().iter()
                .filter(|e| e.u == v || e.v == v)
                .map(|e| e.weight)
                .sum()
        };
        prop_assert!(f <= cap_at(s) + 1e-9);
        prop_assert!(f <= cap_at(t) + 1e-9);
    }

    #[test]
    fn maxflow_symmetric_in_undirected_graphs(g in random_graph(7, 14)) {
        let n = g.node_count();
        let build = || {
            let mut net = FlowNetwork::new(n);
            for e in g.edges() {
                net.add_undirected_edge(e.u, e.v, e.weight);
            }
            net
        };
        let f1 = max_flow(&mut build(), 0, n - 1);
        let f2 = max_flow(&mut build(), n - 1, 0);
        prop_assert!((f1 - f2).abs() < 1e-6, "{f1} vs {f2}");
    }
}
