//! Graph algorithm substrate for the Owan reproduction.
//!
//! The Owan controller (crate `owan-core`) and the baseline traffic-engineering
//! algorithms (crate `owan-te`) are built on a small set of classic graph
//! kernels. The paper's prototype used JGraphT plus a hand-written blossom
//! implementation ("We have implemented the blossom algorithm for maximum
//! matching in general graphs and used JGraphT library for other graph
//! algorithms", §4.2). This crate provides, from scratch, the kernels the
//! reproduction uses. It has no matching: the topology search
//! (degree-preserving moves plus `repair_spare_ports` in `owan-core`) never
//! pairs ports through one.
//!
//! * [`Graph`] — a compact weighted multigraph with stable edge ids,
//! * [`dijkstra`] — single-source shortest paths (with path extraction),
//! * [`yen`] — Yen's k-shortest loopless paths,
//! * [`maxflow`] — Dinic's maximum-flow algorithm, the oracle the LP
//!   solver's single-commodity programs are checked against.
//!
//! All algorithms are deterministic and allocation-conscious; none of them
//! panic on disconnected inputs (they return empty/`None` results instead).
//!
//! # Example
//!
//! ```
//! use owan_graph::{Graph, dijkstra};
//!
//! let mut g = Graph::new(4);
//! g.add_undirected_edge(0, 1, 1.0);
//! g.add_undirected_edge(1, 2, 1.0);
//! g.add_undirected_edge(0, 2, 5.0);
//! g.add_undirected_edge(2, 3, 1.0);
//!
//! let sp = dijkstra::shortest_paths(&g, 0);
//! assert_eq!(sp.distance(2), Some(2.0));
//! assert_eq!(sp.path_to(3).unwrap(), vec![0, 1, 2, 3]);
//! ```

pub mod dijkstra;
pub mod graph;
pub mod maxflow;
pub mod yen;

pub use dijkstra::{shortest_paths, ShortestPaths};
pub use graph::{EdgeId, Graph, NodeId};
pub use maxflow::{max_flow, FlowNetwork};
pub use yen::k_shortest_paths;

/// A simple path through a graph, stored as the ordered list of node ids.
///
/// The first element is the source and the last the destination; a path of a
/// single node has zero length. Paths produced by this crate are always
/// loopless (no repeated node).
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Path {
    /// Ordered node ids, source first.
    pub nodes: Vec<NodeId>,
    /// Total weight of the path under the metric it was computed with,
    /// stored as an ordered bit pattern to keep `Eq`/`Hash` derivable.
    cost_bits: u64,
}

impl Path {
    /// Creates a path from its node sequence and cost.
    pub fn new(nodes: Vec<NodeId>, cost: f64) -> Self {
        Path {
            nodes,
            cost_bits: cost.to_bits(),
        }
    }

    /// Total weight of the path.
    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }

    /// Number of hops (edges) in the path.
    pub fn hop_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// Destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Iterator over the (u, v) node pairs of consecutive hops.
    pub fn hops(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }
}
