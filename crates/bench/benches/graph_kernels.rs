//! Criterion benches for the graph substrate kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use owan_graph::{dijkstra, k_shortest_paths, max_flow, FlowNetwork, Graph};
use std::hint::black_box;

/// Deterministic pseudo-random mesh: `n` nodes on a ring plus chords.
fn mesh(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_undirected_edge(i, (i + 1) % n, 1.0 + (i % 7) as f64);
    }
    for i in 0..n {
        let j = (i * 7 + 3) % n;
        if i != j && !g.has_edge(i, j) {
            g.add_undirected_edge(i, j, 2.0 + (i % 5) as f64);
        }
    }
    g
}

fn bench_dijkstra(c: &mut Criterion) {
    for n in [9, 40, 200] {
        let g = mesh(n);
        c.bench_function(format!("dijkstra/{n}_nodes"), |b| {
            b.iter(|| dijkstra::shortest_paths(black_box(&g), 0))
        });
    }
}

fn bench_yen(c: &mut Criterion) {
    let g = mesh(40);
    c.bench_function("yen/k4_40_nodes", |b| {
        b.iter(|| k_shortest_paths(black_box(&g), 0, 20, 4))
    });
}

fn bench_dinic(c: &mut Criterion) {
    let g = mesh(40);
    c.bench_function("dinic/40_nodes", |b| {
        b.iter(|| {
            let mut net = FlowNetwork::new(g.node_count());
            for e in g.edges() {
                net.add_undirected_edge(e.u, e.v, e.weight);
            }
            max_flow(&mut net, 0, 20)
        })
    });
}

criterion_group!(benches, bench_dijkstra, bench_yen, bench_dinic);
criterion_main!(benches);
