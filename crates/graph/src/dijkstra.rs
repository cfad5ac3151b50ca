//! Dijkstra single-source shortest paths.
//!
//! Used throughout the Owan controller: fiber-distance computation for the
//! optical-reach constraint, relay-path search on the transformed regenerator
//! graph, and as the inner search of Yen's k-shortest-paths.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::Path;

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    /// Predecessor edge on the shortest path tree, per node.
    pred: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPaths {
    /// Distance from the source to `n`, or `None` if unreachable.
    pub fn distance(&self, n: NodeId) -> Option<f64> {
        let d = self.dist[n];
        d.is_finite().then_some(d)
    }

    /// True if `n` is reachable from the source.
    pub fn reachable(&self, n: NodeId) -> bool {
        self.dist[n].is_finite()
    }

    /// The source node the computation started from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The node before `n` on the shortest-path tree (`None` for the
    /// source and for unreachable nodes): the step [`Self::path_to`]
    /// walks back along.
    #[inline]
    pub fn predecessor(&self, n: NodeId) -> Option<NodeId> {
        self.pred[n].map(|(prev, _)| prev)
    }

    /// Reconstructs the node sequence of the shortest path to `dst`, or
    /// `None` if `dst` is unreachable.
    pub fn path_to(&self, dst: NodeId) -> Option<Vec<NodeId>> {
        if !self.reachable(dst) {
            return None;
        }
        let mut nodes = vec![dst];
        let mut cur = dst;
        while let Some((prev, _)) = self.pred[cur] {
            nodes.push(prev);
            cur = prev;
        }
        nodes.reverse();
        debug_assert_eq!(nodes[0], self.source);
        Some(nodes)
    }

    /// Like [`path_to`](Self::path_to) but returns a [`Path`] with its cost.
    pub fn full_path_to(&self, dst: NodeId) -> Option<Path> {
        self.path_to(dst)
            .map(|nodes| Path::new(nodes, self.dist[dst]))
    }
}

/// Min-heap entry ordered by distance (reversed for `BinaryHeap`).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest distance pops first. Ties broken by node id for
        // determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes shortest paths from `source` to every node of `g`.
///
/// Edge weights must be non-negative (enforced by [`Graph`]). Runs in
/// `O((V + E) log V)`.
pub fn shortest_paths(g: &Graph, source: NodeId) -> ShortestPaths {
    shortest_paths_filtered(g, source, |_, _| true)
}

/// Dijkstra with an edge filter: edges for which `allow(edge_id, head)` is
/// false are skipped. Yen's algorithm uses this to hide edges/nodes without
/// copying the graph.
pub fn shortest_paths_filtered<F>(g: &Graph, source: NodeId, mut allow: F) -> ShortestPaths
where
    F: FnMut(EdgeId, NodeId) -> bool,
{
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (eid, v) in g.neighbors(u) {
            if done[v] || !allow(eid, v) {
                continue;
            }
            let nd = d + g.edge(eid).weight;
            if nd < dist[v] {
                dist[v] = nd;
                pred[v] = Some((u, eid));
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }

    ShortestPaths { source, dist, pred }
}

/// Dijkstra with an edge filter that stops as soon as `dst` is settled,
/// returning only the path to it. Popping a node finalizes its distance
/// and its predecessor chain (every node on the path popped earlier, and
/// relaxations update only on strict improvement), so the returned path is
/// bit-identical to the one [`shortest_paths_filtered`] reconstructs — the
/// search just skips the part of the graph beyond `dst`. Yen's inner loop
/// is the heavy caller: its spur searches need exactly one target.
pub fn shortest_path_filtered_to<F>(
    g: &Graph,
    source: NodeId,
    dst: NodeId,
    mut allow: F,
) -> Option<Path>
where
    F: FnMut(EdgeId, NodeId) -> bool,
{
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        if u == dst {
            break;
        }
        for (eid, v) in g.neighbors(u) {
            if done[v] || !allow(eid, v) {
                continue;
            }
            let nd = d + g.edge(eid).weight;
            if nd < dist[v] {
                dist[v] = nd;
                pred[v] = Some((u, eid));
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }

    if !dist[dst].is_finite() {
        return None;
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while let Some((prev, _)) = pred[cur] {
        nodes.push(prev);
        cur = prev;
    }
    nodes.reverse();
    debug_assert_eq!(nodes[0], source);
    Some(Path::new(nodes, dist[dst]))
}

/// All-pairs shortest distances, `O(V (V+E) log V)`. Returns a dense matrix
/// with `f64::INFINITY` for unreachable pairs.
pub fn all_pairs_distances(g: &Graph) -> Vec<Vec<f64>> {
    (0..g.node_count())
        .map(|s| {
            let sp = shortest_paths(g, s);
            (0..g.node_count())
                .map(|t| sp.distance(t).unwrap_or(f64::INFINITY))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3
        //  \---5--- 2 -1- 3 (0-2 weight 5)
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(1, 3, 1.0);
        g.add_undirected_edge(0, 2, 5.0);
        g.add_undirected_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn trivial_source_distance_zero() {
        let g = diamond();
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.distance(0), Some(0.0));
        assert_eq!(sp.path_to(0).unwrap(), vec![0]);
    }

    #[test]
    fn picks_cheaper_multi_hop_path() {
        let g = diamond();
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.distance(3), Some(2.0));
        assert_eq!(sp.path_to(3).unwrap(), vec![0, 1, 3]);
    }

    #[test]
    fn unreachable_node() {
        let mut g = Graph::new(3);
        g.add_undirected_edge(0, 1, 1.0);
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.distance(2), None);
        assert!(sp.path_to(2).is_none());
    }

    #[test]
    fn respects_direction() {
        let mut g = Graph::new(2);
        g.add_directed_edge(0, 1, 1.0);
        assert!(shortest_paths(&g, 1).distance(0).is_none());
        assert_eq!(shortest_paths(&g, 0).distance(1), Some(1.0));
    }

    #[test]
    fn filter_hides_edges() {
        let g = diamond();
        // Forbid the 0-1 edge: path must go through node 2.
        let sp = shortest_paths_filtered(&g, 0, |e, _| e != 0);
        assert_eq!(sp.distance(3), Some(6.0));
        assert_eq!(sp.path_to(3).unwrap(), vec![0, 2, 3]);
    }

    #[test]
    fn parallel_edges_use_lighter() {
        let mut g = Graph::new(2);
        g.add_undirected_edge(0, 1, 10.0);
        g.add_undirected_edge(0, 1, 3.0);
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.distance(1), Some(3.0));
    }

    #[test]
    fn zero_weight_edges_ok() {
        let mut g = Graph::new(3);
        g.add_undirected_edge(0, 1, 0.0);
        g.add_undirected_edge(1, 2, 0.0);
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.distance(2), Some(0.0));
    }

    #[test]
    fn all_pairs_symmetric_for_undirected() {
        let g = diamond();
        let d = all_pairs_distances(&g);
        for (i, row) in d.iter().enumerate() {
            for (j, &dij) in row.iter().enumerate() {
                assert_eq!(dij, d[j][i]);
            }
        }
        assert_eq!(d[0][3], 2.0);
    }

    #[test]
    fn full_path_cost_matches_distance() {
        let g = diamond();
        let sp = shortest_paths(&g, 0);
        let p = sp.full_path_to(3).unwrap();
        assert_eq!(p.cost(), 2.0);
        assert_eq!(p.hop_count(), 2);
    }
}
