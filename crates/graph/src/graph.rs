//! A compact weighted multigraph with stable edge identifiers.
//!
//! The graph is stored as an edge list plus per-node adjacency vectors of
//! edge ids. Both directed and undirected edges are supported; an undirected
//! edge is a single [`Edge`] record reachable from both endpoints. Multiple
//! parallel edges between the same pair of nodes are allowed — Owan
//! topologies are multigraphs (several wavelength circuits may connect the
//! same pair of routers).

/// Identifier of a node. Nodes are dense indices `0..node_count`.
pub type NodeId = usize;

/// Identifier of an edge, stable across the life of the graph.
pub type EdgeId = usize;

/// A single edge record.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Edge {
    /// Tail node (for undirected edges, one arbitrary endpoint).
    pub u: NodeId,
    /// Head node.
    pub v: NodeId,
    /// Edge weight (distance, cost, …). Must be non-negative for the
    /// shortest-path algorithms in this crate.
    pub weight: f64,
    /// Whether the edge can be traversed in both directions.
    pub undirected: bool,
}

impl Edge {
    /// Given one endpoint, returns the other. Panics if `n` is not an
    /// endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else {
            debug_assert_eq!(n, self.v, "node {n} is not an endpoint");
            self.u
        }
    }
}

/// A weighted multigraph. See the [module docs](self).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Graph {
    edges: Vec<Edge>,
    /// For each node, the edge ids incident to it (outgoing for directed).
    adj: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edge records (an undirected edge counts once).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the weight is negative
    /// or NaN.
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> EdgeId {
        self.add_edge_inner(u, v, weight, true)
    }

    /// Adds a directed edge `u -> v` and returns its id.
    pub fn add_directed_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> EdgeId {
        self.add_edge_inner(u, v, weight, false)
    }

    fn add_edge_inner(&mut self, u: NodeId, v: NodeId, weight: f64, undirected: bool) -> EdgeId {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "endpoint out of range"
        );
        assert!(
            weight >= 0.0,
            "edge weight must be non-negative, got {weight}"
        );
        let id = self.edges.len();
        self.edges.push(Edge {
            u,
            v,
            weight,
            undirected,
        });
        self.adj[u].push(id);
        if undirected && u != v {
            self.adj[v].push(id);
        }
        id
    }

    /// The edge record for `id`.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// All edge records.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge ids incident to `n` (traversable from `n`).
    pub fn incident(&self, n: NodeId) -> &[EdgeId] {
        &self.adj[n]
    }

    /// Iterator over `(edge_id, neighbor)` pairs traversable from `n`.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.adj[n]
            .iter()
            .map(move |&e| (e, self.edges[e].other(n)))
    }

    /// Degree of `n` (number of traversable incident edges).
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n].len()
    }

    /// Returns any edge id connecting `u` and `v` (in the traversable
    /// direction), or `None`.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj[u]
            .iter()
            .copied()
            .find(|&e| self.edges[e].other(u) == v)
    }

    /// True if `u` and `v` are connected by at least one traversable edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::new(2);
        let n = g.add_node();
        assert_eq!(n, 2);
        let e = g.add_undirected_edge(0, 1, 2.5);
        assert_eq!(g.edge(e).weight, 2.5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn directed_edge_is_one_way() {
        let mut g = Graph::new(2);
        g.add_directed_edge(0, 1, 1.0);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 0);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn undirected_edge_is_two_way() {
        let mut g = Graph::new(2);
        g.add_undirected_edge(0, 1, 1.0);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new(2);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(0, 1, 2.0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn self_loop_counted_once_in_adjacency() {
        let mut g = Graph::new(1);
        g.add_undirected_edge(0, 0, 1.0);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn neighbors_iteration() {
        let mut g = Graph::new(3);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(0, 2, 1.0);
        let mut ns: Vec<NodeId> = g.neighbors(0).map(|(_, n)| n).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn edge_other_endpoint() {
        let mut g = Graph::new(2);
        let e = g.add_undirected_edge(0, 1, 1.0);
        assert_eq!(g.edge(e).other(0), 1);
        assert_eq!(g.edge(e).other(1), 0);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn out_of_range_endpoint_panics() {
        let mut g = Graph::new(1);
        g.add_undirected_edge(0, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let mut g = Graph::new(2);
        g.add_undirected_edge(0, 1, -1.0);
    }
}
