//! Path-based multicommodity-flow LP builder.
//!
//! All the fixed-topology baselines in the paper (§5.1) solve variants of
//! the same LP: transfers are commodities, each routed over a small set of
//! candidate paths (tunnels), subject to link capacities. This module
//! expresses those variants over abstract *link indices* so it stays
//! independent of any graph representation:
//!
//! * [`McfProblem::max_throughput`] — MaxFlow: maximize total served rate,
//! * [`McfProblem::max_min_fraction`] — MaxMinFract: maximize the minimum
//!   served fraction,
//! * [`McfProblem::bounded`] — the inner LP of SWAN's approximate max-min
//!   iteration (per-commodity rate floors/ceilings), prepared once and
//!   solved for each floor/ceiling vector of the iteration.

use crate::simplex::{LinearProgram, LpOutcome};

#[derive(Debug, Clone)]
struct Commodity {
    demand: f64,
    /// Each path is the list of link indices it crosses.
    paths: Vec<Vec<usize>>,
}

/// A path-based MCF instance.
#[derive(Debug, Clone, Default)]
pub struct McfProblem {
    link_capacity: Vec<f64>,
    commodities: Vec<Commodity>,
}

/// A solved rate allocation.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// `rates[f][p]` = rate of commodity `f` on its `p`-th path.
    pub rates: Vec<Vec<f64>>,
    /// Sum of all rates.
    pub total_throughput: f64,
    /// Simplex pivots the LP behind this allocation took.
    pub pivots: usize,
    /// Constraint rows of that LP.
    pub rows: usize,
}

impl McfSolution {
    /// Total rate served to commodity `f`.
    pub fn commodity_rate(&self, f: usize) -> f64 {
        self.rates[f].iter().sum()
    }

    /// Load placed on each link by this allocation, given the problem.
    pub fn link_loads(&self, problem: &McfProblem) -> Vec<f64> {
        let mut load = vec![0.0; problem.link_capacity.len()];
        for (f, c) in problem.commodities.iter().enumerate() {
            for (p, path) in c.paths.iter().enumerate() {
                for &l in path {
                    load[l] += self.rates[f][p];
                }
            }
        }
        load
    }
}

impl McfProblem {
    /// A problem over links with the given capacities.
    pub fn new(link_capacity: Vec<f64>) -> Self {
        assert!(
            link_capacity.iter().all(|&c| c >= 0.0 && c.is_finite()),
            "capacities must be finite and non-negative"
        );
        McfProblem {
            link_capacity,
            commodities: Vec::new(),
        }
    }

    /// Adds a commodity with `demand` (rate units) and candidate `paths`
    /// (each a list of link indices). Returns the commodity index. A
    /// commodity with no paths simply receives zero rate.
    pub fn add_commodity(&mut self, demand: f64, paths: Vec<Vec<usize>>) -> usize {
        assert!(
            demand >= 0.0 && demand.is_finite(),
            "demand must be non-negative"
        );
        for p in &paths {
            for &l in p {
                assert!(l < self.link_capacity.len(), "link index {l} out of range");
            }
        }
        self.commodities.push(Commodity { demand, paths });
        self.commodities.len() - 1
    }

    /// Number of commodities.
    pub fn commodity_count(&self) -> usize {
        self.commodities.len()
    }

    /// Demand of commodity `f`.
    pub fn demand(&self, f: usize) -> f64 {
        self.commodities[f].demand
    }

    /// Builds the variable layout and the base LP: one `<=` row per link
    /// some path crosses and, with `demand_ceiling`, one per routable
    /// commodity. Returns `(lp, vars)` where `vars[f]` lists `(variable of
    /// r_{f,p}, 1.0)` over `f`'s paths: the layout, and the coefficients of
    /// every per-commodity row, at once.
    fn base_lp(&self, demand_ceiling: bool) -> (LinearProgram, Vec<Vec<(usize, f64)>>) {
        let n_vars: usize = self.commodities.iter().map(|c| c.paths.len()).sum();
        let mut lp = LinearProgram::maximize(n_vars);
        let mut vars = Vec::with_capacity(self.commodities.len());
        let mut next = 0;
        for c in &self.commodities {
            let of_f: Vec<(usize, f64)> = (0..c.paths.len()).map(|p| (next + p, 1.0)).collect();
            next += c.paths.len();
            vars.push(of_f);
        }

        // Link capacity rows.
        let mut per_link: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.link_capacity.len()];
        for (c, of_f) in self.commodities.iter().zip(&vars) {
            for (path, &var) in c.paths.iter().zip(of_f) {
                for &l in path {
                    per_link[l].push(var);
                }
            }
        }
        for (l, coeffs) in per_link.iter().enumerate() {
            if !coeffs.is_empty() {
                lp.add_le(coeffs, self.link_capacity[l]);
            }
        }

        // Demand ceilings.
        if demand_ceiling {
            for (c, of_f) in self.commodities.iter().zip(&vars) {
                if !of_f.is_empty() {
                    lp.add_le(of_f, c.demand);
                }
            }
        }

        (lp, vars)
    }

    /// MaxFlow baseline: maximize total served rate, each commodity capped
    /// at its demand.
    pub fn max_throughput(&self) -> McfSolution {
        let (mut lp, vars) = self.base_lp(true);
        for v in 0..lp.n_vars() {
            lp.set_objective(v, 1.0);
        }
        let sol = lp
            .solve()
            .expect_optimal("max_throughput LP is feasible (0 is feasible)");
        extract(&vars, &sol.x, sol.iterations, lp.n_constraints())
    }

    /// MaxMinFract baseline: maximize the minimum fraction `α` of demand
    /// served across commodities (commodities without paths or with zero
    /// demand are excluded from the min), then the allocation is whatever
    /// the LP chose at optimum. Returns `(α, solution)`.
    pub fn max_min_fraction(&self) -> (f64, McfSolution) {
        let (mut lp, vars) = self.base_lp(true);
        let alpha = lp.add_var();
        lp.set_objective(alpha, 1.0);
        lp.add_le(&[(alpha, 1.0)], 1.0);
        let mut any = false;
        for (c, of_f) in self.commodities.iter().zip(&vars) {
            if of_f.is_empty() || c.demand <= 0.0 {
                continue;
            }
            any = true;
            // sum_p r_{f,p} - d_f * α >= 0
            let mut coeffs = of_f.clone();
            coeffs.push((alpha, -c.demand));
            lp.add_ge(&coeffs, 0.0);
        }
        if !any {
            // Nothing to be fair to: no LP is solved.
            return (0.0, extract(&vars, &vec![0.0; lp.n_vars()], 0, 0));
        }
        let sol = lp.solve().expect_optimal("max_min LP is feasible (α=0)");
        let a = sol.x[alpha].clamp(0.0, 1.0);
        (
            a,
            extract(&vars, &sol.x, sol.iterations, lp.n_constraints()),
        )
    }

    /// Prepares SWAN's inner LP over this problem: everything that does
    /// not depend on the floors and ceilings is built here, once.
    pub fn bounded(&self) -> BoundedMcf<'_> {
        let (mut lp, vars) = self.base_lp(false);
        for v in 0..lp.n_vars() {
            lp.set_objective(v, 1.0);
        }
        BoundedMcf {
            problem: self,
            link_rows: lp.n_constraints(),
            lp,
            vars,
        }
    }
}

/// Reads the rates out of an LP solution `x` that took `pivots` over `rows`.
fn extract(vars: &[Vec<(usize, f64)>], x: &[f64], pivots: usize, rows: usize) -> McfSolution {
    let rates: Vec<Vec<f64>> = vars
        .iter()
        .map(|of_f| of_f.iter().map(|&(v, _)| x[v].max(0.0)).collect())
        .collect();
    let total_throughput = rates.iter().flatten().sum();
    McfSolution {
        rates,
        total_throughput,
        pivots,
        rows,
    }
}

/// SWAN's inner LP over one [`McfProblem`]: maximize total throughput
/// subject to per-commodity served-rate bounds `floor[f] <= rate_f <=
/// ceil[f]`. The iteration solves it once per fraction ceiling with only
/// those bounds changing, so the handle owns the program with its link
/// rows, variable layout and objective in place, and each
/// [`solve`](Self::solve) swaps the commodity rows behind them.
#[derive(Debug, Clone)]
pub struct BoundedMcf<'a> {
    problem: &'a McfProblem,
    lp: LinearProgram,
    /// The link rows lead the program; commodity rows follow.
    link_rows: usize,
    vars: Vec<Vec<(usize, f64)>>,
}

impl BoundedMcf<'_> {
    /// Solves for one floor/ceiling vector (absolute rates, not
    /// fractions; a ceiling above the demand is cut to it). Returns `None`
    /// if the bounds are infeasible.
    pub fn solve(&mut self, floor: &[f64], ceil: &[f64]) -> Option<McfSolution> {
        assert_eq!(floor.len(), self.vars.len());
        assert_eq!(ceil.len(), self.vars.len());
        // Same rows in the same order as a program built from scratch
        // (link rows, then per commodity its ceiling and its floor), so
        // slacks and artificials are numbered alike and the simplex takes
        // the same pivots.
        self.lp.truncate_constraints(self.link_rows);
        for (f, of_f) in self.vars.iter().enumerate() {
            if of_f.is_empty() {
                continue;
            }
            self.lp.add_le(of_f, ceil[f].min(self.problem.demand(f)));
            if floor[f] > 0.0 {
                self.lp.add_ge(of_f, floor[f]);
            }
        }
        match self.lp.solve() {
            LpOutcome::Optimal(sol) => {
                let rows = self.lp.n_constraints();
                Some(extract(&self.vars, &sol.x, sol.iterations, rows))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two links in series (0,1) and two parallel one-link paths.
    #[test]
    fn single_commodity_single_path() {
        let mut p = McfProblem::new(vec![10.0, 5.0]);
        p.add_commodity(100.0, vec![vec![0, 1]]);
        let s = p.max_throughput();
        assert!((s.total_throughput - 5.0).abs() < 1e-7, "series bottleneck");
    }

    #[test]
    fn demand_caps_rate() {
        let mut p = McfProblem::new(vec![10.0]);
        p.add_commodity(3.0, vec![vec![0]]);
        let s = p.max_throughput();
        assert!((s.total_throughput - 3.0).abs() < 1e-7);
    }

    #[test]
    fn two_commodities_share_link() {
        let mut p = McfProblem::new(vec![10.0]);
        p.add_commodity(8.0, vec![vec![0]]);
        p.add_commodity(8.0, vec![vec![0]]);
        let s = p.max_throughput();
        assert!((s.total_throughput - 10.0).abs() < 1e-7);
        let loads = s.link_loads(&p);
        assert!(loads[0] <= 10.0 + 1e-7);
    }

    #[test]
    fn multipath_splits() {
        // Two disjoint paths of capacity 4 and 6; demand 10 uses both fully.
        let mut p = McfProblem::new(vec![4.0, 6.0]);
        p.add_commodity(10.0, vec![vec![0], vec![1]]);
        let s = p.max_throughput();
        assert!((s.total_throughput - 10.0).abs() < 1e-7);
        assert!((s.rates[0][0] - 4.0).abs() < 1e-7);
        assert!((s.rates[0][1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn max_min_fraction_fair() {
        // Two commodities share a 10-unit link, demands 10 and 10:
        // max-min α = 0.5.
        let mut p = McfProblem::new(vec![10.0]);
        p.add_commodity(10.0, vec![vec![0]]);
        p.add_commodity(10.0, vec![vec![0]]);
        let (alpha, s) = p.max_min_fraction();
        assert!((alpha - 0.5).abs() < 1e-7, "alpha = {alpha}");
        assert!((s.commodity_rate(0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_alpha_capped_at_one() {
        let mut p = McfProblem::new(vec![100.0]);
        p.add_commodity(1.0, vec![vec![0]]);
        let (alpha, _) = p.max_min_fraction();
        assert!((alpha - 1.0).abs() < 1e-7);
    }

    #[test]
    fn pathless_commodity_ignored_in_min() {
        let mut p = McfProblem::new(vec![10.0]);
        p.add_commodity(10.0, vec![vec![0]]);
        p.add_commodity(10.0, vec![]); // unreachable commodity
        let (alpha, s) = p.max_min_fraction();
        assert!(alpha > 0.9, "unreachable commodity must not force α to 0");
        assert_eq!(s.commodity_rate(1), 0.0);
    }

    #[test]
    fn bounded_floor_enforced() {
        let mut p = McfProblem::new(vec![10.0]);
        p.add_commodity(10.0, vec![vec![0]]);
        p.add_commodity(10.0, vec![vec![0]]);
        let s = p
            .bounded()
            .solve(&[7.0, 0.0], &[10.0, 10.0])
            .expect("feasible");
        assert!(s.commodity_rate(0) >= 7.0 - 1e-7);
        assert!(s.total_throughput <= 10.0 + 1e-7);
    }

    #[test]
    fn bounded_infeasible_floors() {
        let mut p = McfProblem::new(vec![10.0]);
        p.add_commodity(10.0, vec![vec![0]]);
        p.add_commodity(10.0, vec![vec![0]]);
        assert!(p.bounded().solve(&[8.0, 8.0], &[10.0, 10.0]).is_none());
    }

    /// An instance the size the ISP benchmark slot solves: 66 links, 60
    /// commodities with 4 loopless tunnels each.
    fn census_sized(seed: u64) -> McfProblem {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = McfProblem::new(
            (0..66)
                .map(|_| 100.0 * f64::from(rng.random_range(1..=2u32)))
                .collect(),
        );
        for _ in 0..60 {
            let tunnels = (0..4)
                .map(|_| {
                    let mut path: Vec<usize> = Vec::new();
                    while path.len() < rng.random_range(2..=5usize) {
                        let l = rng.random_range(0..66usize);
                        if !path.contains(&l) {
                            path.push(l);
                        }
                    }
                    path
                })
                .collect();
            p.add_commodity(rng.random_range(1.0..150.0), tunnels);
        }
        p
    }

    /// SWAN's iteration as `SwanTe` runs it: ceilings 1/16, 1/8, … 1 of
    /// demand, floors the rates of the solve before.
    fn swan_chain(p: &McfProblem, mut solve: impl FnMut(&[f64], &[f64]) -> Option<McfSolution>) {
        let n = p.commodity_count();
        let mut floor = vec![0.0; n];
        for step in 0..5 {
            let alpha = 2f64.powi(step - 4);
            let ceil: Vec<f64> = (0..n).map(|f| alpha * p.demand(f)).collect();
            let sol = solve(&floor, &ceil).expect("floors are the previous optimum");
            assert!(sol.pivots > 0 && sol.rows > 66);
            floor = (0..n).map(|f| sol.commodity_rate(f)).collect();
        }
    }

    /// Every `solve` of a unit-test build is checked against the
    /// all-columns pivot (see `simplex::tests`); this puts benchmark-sized
    /// programs through it: one phase-2-only throughput LP, the max-min LP
    /// with its `>=` rows, and SWAN's five floored LPs.
    #[test]
    fn dense_reference_agrees_at_census_sizes() {
        use crate::simplex::tests::compared_with_dense;
        for seed in [1, 2] {
            let p = census_sized(seed);
            let before = compared_with_dense();
            let s = p.max_throughput();
            assert!(s.pivots > 20 && s.rows > 100, "{} pivots", s.pivots);
            let (alpha, _) = p.max_min_fraction();
            assert!(alpha > 0.0);
            let mut bounded = p.bounded();
            swan_chain(&p, |floor, ceil| bounded.solve(floor, ceil));
            assert_eq!(compared_with_dense() - before, 7);
        }
    }

    /// A handle that has already solved for other bounds gives what a
    /// fresh one gives: the rows it re-adds are the rows a from-scratch
    /// build adds, in the same order.
    #[test]
    fn bounded_handle_reused_equals_rebuilt() {
        let p = census_sized(9);
        let mut reused = p.bounded();
        swan_chain(&p, |floor, ceil| {
            let a = reused.solve(floor, ceil)?;
            let b = p.bounded().solve(floor, ceil)?;
            assert_eq!((a.pivots, a.rows), (b.pivots, b.rows));
            let bits = |s: &McfSolution| -> Vec<u64> {
                s.rates.iter().flatten().map(|r| r.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b));
            Some(a)
        });
    }

    #[test]
    fn empty_problem() {
        let p = McfProblem::new(vec![10.0]);
        let s = p.max_throughput();
        assert_eq!(s.total_throughput, 0.0);
        let (alpha, _) = p.max_min_fraction();
        assert_eq!(alpha, 0.0);
    }

    #[test]
    fn link_loads_respect_capacity() {
        let mut p = McfProblem::new(vec![3.0, 4.0, 2.0]);
        p.add_commodity(10.0, vec![vec![0, 1], vec![2]]);
        p.add_commodity(10.0, vec![vec![1], vec![0, 2]]);
        let s = p.max_throughput();
        let loads = s.link_loads(&p);
        for (l, &load) in loads.iter().enumerate() {
            assert!(
                load <= p.link_capacity[l] + 1e-6,
                "link {l} overloaded: {load}"
            );
        }
    }

    /// Gap (c) of the oracle's coverage: Bland's rule, the simplex's
    /// anti-cycling fallback, never runs on the benchmark's programs. Here
    /// it runs from the first pivot on the max-throughput MCF the oracle's
    /// exact rate reference solves, on instances built to be degenerate —
    /// tied path costs, zero-capacity links, one with every capacity zero
    /// — and must reach the hand-checked optimum, as the production rule
    /// does. (Every unit-test solve is also replayed with the all-columns
    /// pivot, Bland's rule included.)
    #[test]
    fn bland_fallback_reaches_the_exact_mcf_optimum_on_degenerate_instances() {
        use crate::simplex::tests::with_bland;
        // (name, link capacities, commodities (demand, paths), optimum)
        type Case = (&'static str, Vec<f64>, Vec<(f64, Vec<Vec<usize>>)>, f64);
        let cases: Vec<Case> = vec![
            // Triangle a-b (10), b-c (10), a-c (0): a->c is served only
            // around, sharing a-b with a->b; every split of a-b is optimal.
            (
                "triangle, a zero-capacity link",
                vec![10.0, 10.0, 0.0],
                vec![(20.0, vec![vec![2], vec![0, 1]]), (5.0, vec![vec![0]])],
                10.0,
            ),
            // A unit ring of four links; each of two opposite pairs has
            // two two-hop paths of equal length: total flow is half the
            // ring's capacity, reached by many tied vertices.
            (
                "unit ring, tied two-hop paths",
                vec![1.0; 4],
                vec![
                    (2.0, vec![vec![0, 1], vec![3, 2]]),
                    (2.0, vec![vec![1, 2], vec![0, 3]]),
                ],
                2.0,
            ),
            // The ring with one-hop neighbours too: the one-hop demands
            // fill every link, so the two-hop commodities get nothing.
            (
                "unit ring, one-hop demands first",
                vec![1.0; 4],
                vec![
                    (2.0, vec![vec![0, 1], vec![3, 2]]),
                    (1.0, vec![vec![0]]),
                    (1.0, vec![vec![1]]),
                    (1.0, vec![vec![2]]),
                    (1.0, vec![vec![3]]),
                ],
                4.0,
            ),
            // Every capacity zero: the all-degenerate program.
            (
                "all capacities zero",
                vec![0.0; 3],
                vec![
                    (3.0, vec![vec![0], vec![1, 2]]),
                    (3.0, vec![vec![1], vec![0, 2]]),
                ],
                0.0,
            ),
            // Two parallel links of equal capacity and three commodities
            // over both: demand exceeds capacity, every path ties.
            (
                "parallel links, oversubscribed",
                vec![5.0, 5.0],
                vec![
                    (4.0, vec![vec![0], vec![1]]),
                    (4.0, vec![vec![0], vec![1]]),
                    (4.0, vec![vec![1], vec![0]]),
                ],
                10.0,
            ),
        ];
        let mut bland_pivots = 0;
        for (name, capacities, commodities, optimum) in cases {
            let mut problem = McfProblem::new(capacities);
            for (demand, paths) in commodities {
                problem.add_commodity(demand, paths);
            }
            let (production, _) = with_bland(false, || problem.max_throughput());
            let (bland, pivots) = with_bland(true, || problem.max_throughput());
            bland_pivots += pivots;
            for (rule, sol) in [("production", &production), ("Bland", &bland)] {
                assert!(
                    (sol.total_throughput - optimum).abs() < 1e-9,
                    "{name}, {rule}: {} vs {optimum}",
                    sol.total_throughput
                );
                let loads = sol.link_loads(&problem);
                for (l, load) in loads.iter().enumerate() {
                    assert!(
                        *load <= problem.link_capacity[l] + 1e-9,
                        "{name}, {rule}: link {l}"
                    );
                }
                for f in 0..problem.commodity_count() {
                    let rate = sol.commodity_rate(f);
                    assert!(rate >= -1e-12 && rate <= problem.demand(f) + 1e-9);
                }
            }
        }
        assert!(bland_pivots > 0, "Bland's rule never pivoted");
    }
}
