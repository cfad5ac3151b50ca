//! Property tests for the LP solver.
//!
//! The strongest oracle available offline is the max-flow/min-cut theorem:
//! a single-commodity path-based MCF given *all* simple paths must equal the
//! edge-based maximum flow (flow decomposition), which `owan_graph::maxflow`
//! computes independently via Dinic's algorithm. Further properties check
//! feasibility of every returned allocation, and — for phase 1, which the
//! MCF properties barely touch — small programs of mixed relations against
//! an optimum found by vertex enumeration.

use owan_graph::{max_flow, FlowNetwork};
use owan_solver::{LinearProgram, LpOutcome, McfProblem};
use proptest::prelude::*;

/// One constraint of the vertex-enumeration oracle: `coeffs . x (rel) rhs`
/// with `rel` 0 for `<=`, 1 for `>=`, 2 for `=`.
type OracleRow = (Vec<f64>, u8, f64);

/// Solves the square system `a x = b` by Gaussian elimination with partial
/// pivoting; `None` when singular.
fn solve_square(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let (pivot_row, pivot_b) = (a[col].clone(), b[col]);
        for i in (0..n).filter(|&i| i != col) {
            let f = a[i][col] / pivot_row[col];
            for (x, p) in a[i].iter_mut().zip(&pivot_row) {
                *x -= f * p;
            }
            b[i] -= f * pivot_b;
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

/// The optimum of `objective . x` (largest if `maximize`) over the
/// polytope `{0 <= x <= upper} ∩ rows`, found with no simplex at all: a
/// bounded polytope is non-empty iff it has a vertex, every vertex makes
/// `nv` of the constraints tight, and a linear objective peaks at one.
/// So: solve every choice of `nv` constraints as equalities, keep the
/// points that satisfy everything, take the best. `None` = infeasible.
fn vertex_optimum(
    upper: &[f64],
    rows: &[OracleRow],
    objective: &[f64],
    maximize: bool,
) -> Option<f64> {
    let nv = upper.len();
    let unit = |i: usize| {
        (0..nv)
            .map(|j| f64::from(u8::from(i == j)))
            .collect::<Vec<_>>()
    };
    let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
    for (i, &u) in upper.iter().enumerate() {
        planes.push((unit(i), 0.0));
        planes.push((unit(i), u));
    }
    planes.extend(rows.iter().map(|(a, _, rhs)| (a.clone(), *rhs)));

    let feasible = |x: &[f64]| {
        let tol = 1e-7;
        x.iter()
            .zip(upper)
            .all(|(&v, &u)| v >= -tol && v <= u + tol)
            && rows.iter().all(|(a, rel, rhs)| {
                let lhs: f64 = a.iter().zip(x).map(|(c, v)| c * v).sum();
                match rel {
                    0 => lhs <= rhs + tol,
                    1 => lhs >= rhs - tol,
                    _ => (lhs - rhs).abs() <= tol,
                }
            })
    };

    let mut best: Option<f64> = None;
    let mut pick: Vec<usize> = (0..nv).collect();
    loop {
        let a = pick.iter().map(|&k| planes[k].0.clone()).collect();
        let b = pick.iter().map(|&k| planes[k].1).collect();
        if let Some(x) = solve_square(a, b).filter(|x| feasible(x)) {
            let value: f64 = objective.iter().zip(&x).map(|(c, v)| c * v).sum();
            if best.is_none_or(|b| if maximize { value > b } else { value < b }) {
                best = Some(value);
            }
        }
        // Next combination of `nv` planes in lexicographic order.
        let Some(i) = (0..nv).rfind(|&i| pick[i] < planes.len() - nv + i) else {
            return best;
        };
        pick[i] += 1;
        for j in i + 1..nv {
            pick[j] = pick[j - 1] + 1;
        }
    }
}

/// Random directed capacitated graph on `n` nodes as an edge list.
fn random_edges(n: usize, m: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3..=n).prop_flat_map(move |nodes| {
        proptest::collection::vec((0..nodes, 0..nodes, 1u32..20), 1..=m).prop_map(move |raw| {
            let edges: Vec<(usize, usize, f64)> = raw
                .into_iter()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, c)| (u, v, c as f64))
                .collect();
            (nodes, edges)
        })
    })
}

/// All simple paths from src to dst as lists of edge indices (for small
/// graphs only).
fn all_simple_paths(
    n: usize,
    edges: &[(usize, usize, f64)],
    src: usize,
    dst: usize,
) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut visited = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    fn rec(
        cur: usize,
        dst: usize,
        edges: &[(usize, usize, f64)],
        visited: &mut [bool],
        stack: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if cur == dst {
            out.push(stack.clone());
            return;
        }
        visited[cur] = true;
        for (i, &(u, v, _)) in edges.iter().enumerate() {
            if u == cur && !visited[v] {
                stack.push(i);
                rec(v, dst, edges, visited, stack, out);
                stack.pop();
            }
        }
        visited[cur] = false;
    }
    rec(src, dst, edges, &mut visited, &mut stack, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lp_single_commodity_equals_dinic((n, edges) in random_edges(6, 10)) {
        let (src, dst) = (0, n - 1);
        // Edge-based oracle.
        let mut net = FlowNetwork::new(n);
        for &(u, v, c) in &edges {
            net.add_edge(u, v, c);
        }
        let oracle = max_flow(&mut net, src, dst);

        // Path-based LP over all simple paths.
        let paths = all_simple_paths(n, &edges, src, dst);
        let mut mcf = McfProblem::new(edges.iter().map(|&(_, _, c)| c).collect());
        mcf.add_commodity(1e9, paths);
        let sol = mcf.max_throughput();

        prop_assert!(
            (sol.total_throughput - oracle).abs() < 1e-6,
            "LP {} vs Dinic {}", sol.total_throughput, oracle
        );
    }

    #[test]
    fn lp_solutions_always_feasible((n, edges) in random_edges(6, 12), demands in proptest::collection::vec(1u32..30, 1..4)) {
        let caps: Vec<f64> = edges.iter().map(|&(_, _, c)| c).collect();
        let mut mcf = McfProblem::new(caps.clone());
        for (i, d) in demands.iter().enumerate() {
            let src = i % n;
            let dst = (i + n / 2) % n;
            if src == dst { continue; }
            let mut paths = all_simple_paths(n, &edges, src, dst);
            paths.truncate(6);
            mcf.add_commodity(*d as f64, paths);
        }
        let sol = mcf.max_throughput();
        let loads = sol.link_loads(&mcf);
        for (l, &load) in loads.iter().enumerate() {
            prop_assert!(load <= caps[l] + 1e-6, "link {l}: {load} > {}", caps[l]);
        }
        for f in 0..mcf.commodity_count() {
            prop_assert!(sol.commodity_rate(f) <= mcf.demand(f) + 1e-6);
            for r in &sol.rates[f] {
                prop_assert!(*r >= -1e-9);
            }
        }
    }

    #[test]
    fn max_min_alpha_is_attained((n, edges) in random_edges(6, 12)) {
        let caps: Vec<f64> = edges.iter().map(|&(_, _, c)| c).collect();
        let mut mcf = McfProblem::new(caps);
        let pairs = [(0usize, n - 1), (n - 1, 0), (1 % n, n / 2)];
        for &(s, t) in &pairs {
            if s == t { continue; }
            let mut paths = all_simple_paths(n, &edges, s, t);
            paths.truncate(6);
            mcf.add_commodity(10.0, paths);
        }
        let (alpha, sol) = mcf.max_min_fraction();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&alpha));
        // Every commodity with at least one path is served >= alpha * demand.
        for f in 0..mcf.commodity_count() {
            if !sol.rates[f].is_empty() {
                prop_assert!(
                    sol.commodity_rate(f) >= alpha * mcf.demand(f) - 1e-6,
                    "commodity {f} below fair share"
                );
            }
        }
    }

    #[test]
    fn random_small_lps_satisfy_constraints(
        nv in 1usize..5,
        rows in proptest::collection::vec(
            (proptest::collection::vec(0u32..10, 1..5), 1u32..50),
            1..6,
        ),
        obj in proptest::collection::vec(0u32..10, 1..5),
    ) {
        let mut lp = LinearProgram::maximize(nv);
        for (i, &c) in obj.iter().take(nv).enumerate() {
            lp.set_objective(i, c as f64);
        }
        let mut stored = Vec::new();
        for (coeffs, rhs) in &rows {
            let cs: Vec<(usize, f64)> = coeffs
                .iter()
                .enumerate()
                .map(|(i, &c)| (i % nv, c as f64))
                .collect();
            lp.add_le(&cs, *rhs as f64);
            stored.push((cs, *rhs as f64));
        }
        if let Some(sol) = lp.solve().optimal() {
            for (cs, rhs) in &stored {
                let lhs: f64 = cs.iter().map(|&(v, c)| c * sol.x[v]).sum();
                prop_assert!(lhs <= rhs + 1e-6, "violated: {lhs} > {rhs}");
            }
            for &v in &sol.x {
                prop_assert!(v >= -1e-9);
            }
        }
        // Note: objective may be unbounded when some variable has positive
        // objective and never appears in a constraint; both outcomes are fine.
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Phase 1 against an independent oracle: 1-3 boxed variables, 1-5
    /// rows of mixed relation and signed right-hand side. The box keeps
    /// every program bounded, so the outcome is `Optimal` or `Infeasible`
    /// and must be the oracle's; an optimum must match to 1e-6.
    #[test]
    fn mixed_relation_lps_match_vertex_enumeration(
        nv in 1usize..=3,
        upper in proptest::collection::vec(1i32..=30, 3),
        objective in proptest::collection::vec(-4i32..=6, 3),
        maximize in any::<bool>(),
        rows in proptest::collection::vec(
            (proptest::collection::vec(-5i32..=5, 3), 0u8..3, -20i32..=40),
            1..=5,
        ),
    ) {
        let upper: Vec<f64> = upper[..nv].iter().map(|&u| f64::from(u)).collect();
        let objective: Vec<f64> = objective[..nv].iter().map(|&c| f64::from(c)).collect();
        let rows: Vec<OracleRow> = rows
            .into_iter()
            .map(|(a, rel, rhs)| (a[..nv].iter().map(|&c| f64::from(c)).collect(), rel, f64::from(rhs)))
            .collect();

        let mut lp = if maximize {
            LinearProgram::maximize(nv)
        } else {
            LinearProgram::minimize(nv)
        };
        for (v, (&c, &u)) in objective.iter().zip(&upper).enumerate() {
            lp.set_objective(v, c);
            lp.add_le(&[(v, 1.0)], u);
        }
        for (a, rel, rhs) in &rows {
            let coeffs: Vec<(usize, f64)> = a.iter().copied().enumerate().collect();
            match rel {
                0 => lp.add_le(&coeffs, *rhs),
                1 => lp.add_ge(&coeffs, *rhs),
                _ => lp.add_eq(&coeffs, *rhs),
            }
        }

        match (lp.solve(), vertex_optimum(&upper, &rows, &objective, maximize)) {
            (LpOutcome::Optimal(sol), Some(want)) => {
                prop_assert!(
                    (sol.objective - want).abs() < 1e-6,
                    "simplex {} vs vertex enumeration {want}", sol.objective
                );
            }
            (LpOutcome::Infeasible, None) => {}
            (got, want) => prop_assert!(false, "simplex {got:?} vs vertex enumeration {want:?}"),
        }
    }
}
