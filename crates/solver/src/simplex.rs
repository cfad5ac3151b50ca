//! Two-phase primal simplex over a tableau that is dense in storage and
//! sparse in work.
//!
//! Supports `<=`, `>=`, and `=` constraints with free sign on the right-hand
//! side and non-negative structural variables. Phase 1 drives artificial
//! variables out of the basis; phase 2 optimizes the user objective. Dantzig
//! pricing with a Bland's-rule fallback guarantees termination on degenerate
//! instances.
//!
//! The tableau is a row-major `m x n` array, but the TE programs it holds
//! are path-incidence matrices: at a pivot about one pivot-row entry in
//! twenty is nonzero (DESIGN.md §7.5). A pivot therefore gathers the pivot
//! row's nonzeros once and updates only those columns of every affected
//! row and of the reduced costs. Each skipped term is `x - f * 0.0`, i.e.
//! `x` up to the sign of a zero, which no comparison or division reads, so
//! outcomes, pivot counts and the bits of every solution are those of the
//! all-columns update (kept below as the test-only reference).

/// Numerical tolerance used throughout the solver.
const EPS: f64 = 1e-9;

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rel {
    Le,
    Ge,
    Eq,
}

#[derive(Debug, Clone)]
struct Row {
    /// Sparse coefficients `(var, coeff)`.
    coeffs: Vec<(usize, f64)>,
    rel: Rel,
    rhs: f64,
}

/// A linear program over non-negative variables `x[0..n]`.
///
/// Build with [`LinearProgram::maximize`] or [`LinearProgram::minimize`],
/// add constraints, then call [`solve`](LinearProgram::solve).
#[derive(Debug, Clone)]
pub struct LinearProgram {
    n_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
    maximize: bool,
}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value (in the user's sense: maximized or minimized).
    pub objective: f64,
    /// Simplex pivot count (phase 1 + phase 2), for diagnostics.
    pub iterations: usize,
}

/// Outcome of solving a linear program.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal basic feasible solution.
    Optimal(LpSolution),
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Unwraps the optimal solution; panics otherwise.
    pub fn expect_optimal(self, msg: &str) -> LpSolution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("{msg}: {other:?}"),
        }
    }

    /// The optimal solution, if any.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

impl LinearProgram {
    /// A maximization LP with `n_vars` non-negative variables and zero
    /// objective coefficients.
    pub fn maximize(n_vars: usize) -> Self {
        LinearProgram {
            n_vars,
            objective: vec![0.0; n_vars],
            rows: Vec::new(),
            maximize: true,
        }
    }

    /// A minimization LP.
    pub fn minimize(n_vars: usize) -> Self {
        LinearProgram {
            maximize: false,
            ..Self::maximize(n_vars)
        }
    }

    /// Number of structural variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Adds a fresh variable (objective coefficient 0) and returns its index.
    pub fn add_var(&mut self) -> usize {
        self.objective.push(0.0);
        self.n_vars += 1;
        self.n_vars - 1
    }

    /// Sets the objective coefficient of `var`.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.n_vars, "variable out of range");
        self.objective[var] = coeff;
    }

    /// Adds `sum coeffs <= rhs`.
    pub fn add_le(&mut self, coeffs: &[(usize, f64)], rhs: f64) {
        self.add_row(coeffs, Rel::Le, rhs);
    }

    /// Adds `sum coeffs >= rhs`.
    pub fn add_ge(&mut self, coeffs: &[(usize, f64)], rhs: f64) {
        self.add_row(coeffs, Rel::Ge, rhs);
    }

    /// Adds `sum coeffs == rhs`.
    pub fn add_eq(&mut self, coeffs: &[(usize, f64)], rhs: f64) {
        self.add_row(coeffs, Rel::Eq, rhs);
    }

    /// Drops every constraint past the first `n`, so a caller that solves
    /// a family of programs sharing their leading rows builds those once.
    pub(crate) fn truncate_constraints(&mut self, n: usize) {
        self.rows.truncate(n);
    }

    fn add_row(&mut self, coeffs: &[(usize, f64)], rel: Rel, rhs: f64) {
        for &(v, c) in coeffs {
            assert!(v < self.n_vars, "variable {v} out of range");
            assert!(c.is_finite(), "non-finite coefficient");
        }
        assert!(rhs.is_finite(), "non-finite rhs");
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            rel,
            rhs,
        });
    }

    /// Solves the LP.
    pub fn solve(&self) -> LpOutcome {
        let mut tableau = Tableau::build(self);
        let outcome = tableau.solve();
        // Unit-test builds solve every program a second time with the
        // all-columns pivot and insist on the same answer, bit for bit.
        #[cfg(test)]
        tests::assert_dense_reference_agrees(self, &outcome, tableau.iterations);
        outcome
    }
}

/// Simplex tableau, dense row-major. Rows are maintained in `B^{-1}A` form.
struct Tableau {
    m: usize,
    /// Total columns: structural + slack/surplus + artificial.
    n: usize,
    n_struct: usize,
    /// First artificial column index (columns >= this are artificial).
    art_start: usize,
    /// Row-major `m x n`.
    a: Vec<f64>,
    b: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    iterations: usize,
    /// The user's objective over structural variables, and its sense.
    user_objective: Vec<f64>,
    user_maximize: bool,
    /// Nonzeros `(column, value)` of the pivot row as the last pivot left
    /// it (scaled): the only columns that pivot changed anywhere.
    pivot_nz: Vec<(usize, f64)>,
    /// Run the all-columns pivot this one replaced (differential tests).
    #[cfg(test)]
    dense_reference: bool,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Self {
        let m = lp.rows.len();
        // Count slack/surplus and artificial columns.
        let mut n_slack = 0;
        let mut n_art = 0;
        for row in &lp.rows {
            // Normalize rhs >= 0 first to know the effective relation.
            let rel = if row.rhs < 0.0 {
                match row.rel {
                    Rel::Le => Rel::Ge,
                    Rel::Ge => Rel::Le,
                    Rel::Eq => Rel::Eq,
                }
            } else {
                row.rel
            };
            match rel {
                Rel::Le => n_slack += 1,
                Rel::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Rel::Eq => n_art += 1,
            }
        }
        let n_struct = lp.n_vars;
        let art_start = n_struct + n_slack;
        let n = art_start + n_art;

        let mut a = vec![0.0; m * n];
        let mut b = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut next_slack = n_struct;
        let mut next_art = art_start;

        for (i, row) in lp.rows.iter().enumerate() {
            let flip = row.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            for &(v, c) in &row.coeffs {
                a[i * n + v] += sign * c;
            }
            b[i] = sign * row.rhs;
            let rel = if flip {
                match row.rel {
                    Rel::Le => Rel::Ge,
                    Rel::Ge => Rel::Le,
                    Rel::Eq => Rel::Eq,
                }
            } else {
                row.rel
            };
            match rel {
                Rel::Le => {
                    a[i * n + next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Rel::Ge => {
                    a[i * n + next_slack] = -1.0; // surplus
                    next_slack += 1;
                    a[i * n + next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Rel::Eq => {
                    a[i * n + next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }

        Tableau {
            m,
            n,
            n_struct,
            art_start,
            a,
            b,
            basis,
            iterations: 0,
            user_objective: lp.objective.clone(),
            user_maximize: lp.maximize,
            pivot_nz: Vec::new(),
            #[cfg(test)]
            dense_reference: false,
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Pivot on (row, col): row becomes the basic row of `col`. Leaves the
    /// scaled pivot row's nonzeros in `pivot_nz`.
    fn pivot(&mut self, row: usize, col: usize) {
        #[cfg(test)]
        if self.dense_reference {
            return self.pivot_dense(row, col);
        }
        let n = self.n;
        let p = self.a[row * n + col];
        debug_assert!(p.abs() > EPS, "pivot element too small");
        let inv = 1.0 / p;
        self.pivot_nz.clear();
        for (j, v) in self.a[row * n..(row + 1) * n].iter_mut().enumerate() {
            *v *= inv;
            if *v != 0.0 {
                self.pivot_nz.push((j, *v));
            }
        }
        self.b[row] *= inv;
        self.a[row * n + col] = 1.0; // fight rounding

        for i in 0..self.m {
            if i == row {
                continue;
            }
            let r = &mut self.a[i * n..(i + 1) * n];
            let factor = r[col];
            if factor.abs() <= EPS {
                r[col] = 0.0;
                continue;
            }
            for &(j, v) in &self.pivot_nz {
                r[j] -= factor * v;
            }
            r[col] = 0.0;
            self.b[i] -= factor * self.b[row];
            if self.b[i].abs() < EPS {
                self.b[i] = 0.0;
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Reduced costs for maximizing `costs` (dense over all columns), given
    /// the current basis: `r_j = c_j - c_B . a_col_j`.
    fn reduced_costs(&self, costs: &[f64]) -> Vec<f64> {
        let mut r = costs.to_vec();
        for i in 0..self.m {
            let cb = costs[self.basis[i]];
            if cb.abs() <= EPS {
                continue;
            }
            for (j, rj) in r.iter_mut().enumerate() {
                *rj -= cb * self.at(i, j);
            }
        }
        r
    }

    /// Runs primal simplex maximizing `costs` over columns where
    /// `allowed(j)` is true. Returns `false` if unbounded.
    fn optimize(&mut self, costs: &[f64], allowed: impl Fn(usize) -> bool) -> bool {
        let mut reduced = self.reduced_costs(costs);
        // After this many pivots, switch to Bland's rule (anti-cycling).
        let bland_after = 20 * (self.m + self.n) + 200;

        loop {
            let use_bland = self.iterations > bland_after;
            // Unit-test builds can take Bland's rule from the first pivot.
            #[cfg(test)]
            let use_bland = use_bland || tests::bland_from_start();
            // Entering column.
            let mut enter: Option<usize> = None;
            let mut best = EPS;
            for (j, &rj) in reduced.iter().enumerate() {
                if !allowed(j) || rj <= EPS {
                    continue;
                }
                if use_bland {
                    enter = Some(j);
                    break;
                }
                if rj > best {
                    best = rj;
                    enter = Some(j);
                }
            }
            let Some(col) = enter else {
                return true; // optimal
            };

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.m {
                let aij = self.at(i, col);
                if aij > EPS {
                    let ratio = self.b[i] / aij;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_none_or(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(row) = leave else {
                return false; // unbounded
            };

            self.pivot(row, col);
            #[cfg(test)]
            if use_bland {
                tests::count_bland_pivot();
            }
            // Update reduced costs incrementally: after the pivot the row is
            // normalized; r <- r - r[col] * row, over the row's nonzeros.
            let rc = reduced[col];
            #[cfg(test)]
            if self.dense_reference {
                self.reduce_dense(&mut reduced, rc, row);
            }
            for &(j, v) in &self.pivot_nz {
                reduced[j] -= rc * v;
            }
            reduced[col] = 0.0;
        }
    }

    fn solve(&mut self) -> LpOutcome {
        // ----- Phase 1: minimize sum of artificials (maximize the negation).
        if self.art_start < self.n {
            let mut costs = vec![0.0; self.n];
            costs[self.art_start..].fill(-1.0);
            let bounded = self.optimize(&costs, |_| true);
            debug_assert!(bounded, "phase-1 objective is bounded by construction");
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.basis[i] >= self.art_start)
                .map(|i| self.b[i])
                .sum();
            if infeas > 1e-7 {
                return LpOutcome::Infeasible;
            }
            // Pivot remaining (degenerate) artificials out of the basis.
            for i in 0..self.m {
                if self.basis[i] >= self.art_start {
                    if let Some(col) = (0..self.art_start).find(|&j| self.at(i, j).abs() > 1e-7) {
                        self.pivot(i, col);
                    }
                    // If no eligible column exists the row is redundant
                    // (all-zero); a basic artificial at value 0 is harmless
                    // as long as it never re-enters, which `allowed` below
                    // prevents.
                }
            }
        }

        // ----- Phase 2: the real objective over non-artificial columns.
        // (The LP owner passed `maximize` or `minimize`; tableau always
        // maximizes, so minimization negates the costs.)
        let art_start = self.art_start;
        let allowed = move |j: usize| j < art_start;
        let costs = self.phase2_costs();
        if !self.optimize(&costs, allowed) {
            return LpOutcome::Unbounded;
        }

        // Extract structural solution.
        let mut x = vec![0.0; self.n_struct];
        for i in 0..self.m {
            if self.basis[i] < self.n_struct {
                x[self.basis[i]] = self.b[i];
            }
        }
        let objective: f64 = x
            .iter()
            .zip(&self.user_objective)
            .map(|(xi, ci)| xi * ci)
            .sum();
        LpOutcome::Optimal(LpSolution {
            x,
            objective,
            iterations: self.iterations,
        })
    }

    fn phase2_costs(&self) -> Vec<f64> {
        let mut costs = vec![0.0; self.n];
        let sign = if self.user_maximize { 1.0 } else { -1.0 };
        for (j, &c) in self.user_objective.iter().enumerate() {
            costs[j] = sign * c;
        }
        costs
    }
}

/// The all-columns pivot and reduced-cost update, verbatim as they were
/// before pivots became nonzero-proportional. Test builds only: the
/// differential tests below solve every program both ways.
#[cfg(test)]
impl Tableau {
    fn pivot_dense(&mut self, row: usize, col: usize) {
        let n = self.n;
        let p = self.a[row * n + col];
        debug_assert!(p.abs() > EPS, "pivot element too small");
        let inv = 1.0 / p;
        for j in 0..n {
            self.a[row * n + j] *= inv;
        }
        self.b[row] *= inv;
        self.a[row * n + col] = 1.0; // fight rounding

        for i in 0..self.m {
            if i == row {
                continue;
            }
            let factor = self.a[i * n + col];
            if factor.abs() <= EPS {
                self.a[i * n + col] = 0.0;
                continue;
            }
            for j in 0..n {
                self.a[i * n + j] -= factor * self.a[row * n + j];
            }
            self.a[i * n + col] = 0.0;
            self.b[i] -= factor * self.b[row];
            if self.b[i].abs() < EPS {
                self.b[i] = 0.0;
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
        // Nothing for the nonzero-list update in `optimize` to do.
        self.pivot_nz.clear();
    }

    fn reduce_dense(&self, reduced: &mut [f64], rc: f64, row: usize) {
        for (j, rj) in reduced.iter_mut().enumerate() {
            *rj -= rc * self.at(row, j);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Programs this test thread has solved both ways.
        static COMPARED: Cell<usize> = const { Cell::new(0) };
        /// Take Bland's rule from the first pivot on this thread.
        static BLAND_FROM_START: Cell<bool> = const { Cell::new(false) };
        /// Pivots this thread took under Bland's rule.
        static BLAND_PIVOTS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn bland_from_start() -> bool {
        BLAND_FROM_START.get()
    }

    pub(super) fn count_bland_pivot() {
        BLAND_PIVOTS.set(BLAND_PIVOTS.get() + 1);
    }

    /// `f` run with Bland's rule from the first pivot (`bland` true) or
    /// with the production rule, and the pivots it took under Bland's
    /// rule.
    pub(crate) fn with_bland<T>(bland: bool, f: impl FnOnce() -> T) -> (T, usize) {
        let (was, before) = (BLAND_FROM_START.get(), BLAND_PIVOTS.get());
        BLAND_FROM_START.set(bland);
        let out = f();
        BLAND_FROM_START.set(was);
        (out, BLAND_PIVOTS.get() - before)
    }

    /// How many programs this thread has put through
    /// [`assert_dense_reference_agrees`].
    pub(crate) fn compared_with_dense() -> usize {
        COMPARED.get()
    }

    /// The differential oracle behind every `solve` of a unit-test build:
    /// the all-columns pivot must reach the same outcome in the same
    /// number of pivots with the same bits in `x` and the objective.
    /// (Tableau cells are not compared: zeros may differ in sign.)
    pub(super) fn assert_dense_reference_agrees(
        lp: &LinearProgram,
        got: &LpOutcome,
        got_pivots: usize,
    ) {
        let mut dense = Tableau::build(lp);
        dense.dense_reference = true;
        let want = dense.solve();
        assert_eq!(got_pivots, dense.iterations, "pivot count");
        match (got, &want) {
            (LpOutcome::Optimal(g), LpOutcome::Optimal(w)) => {
                assert_eq!(g.iterations, w.iterations);
                assert_eq!(g.objective.to_bits(), w.objective.to_bits(), "objective");
                assert_eq!(g.x.len(), w.x.len());
                for (i, (a, b)) in g.x.iter().zip(&w.x).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "x[{i}]: {a:e} vs dense {b:e}");
                }
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible)
            | (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
            _ => panic!("outcome {got:?} vs dense {want:?}"),
        }
        COMPARED.set(COMPARED.get() + 1);
    }

    /// Random programs mixing `<=`, `>=` and `=` rows with signed
    /// right-hand sides over 1-40 variables: infeasible, unbounded,
    /// degenerate (zero right-hand sides, ties) and redundant-equality
    /// instances all occur. `solve` itself runs the differential.
    #[test]
    fn dense_reference_agrees_on_random_mixed_programs() {
        let mut rng = StdRng::seed_from_u64(0x51_3F1E);
        let (mut optimal, mut infeasible, mut unbounded, mut phase1_pivots) = (0, 0, 0, 0);
        let before = compared_with_dense();
        const CASES: usize = 1_500;
        for case in 0..CASES {
            let nv = rng.random_range(1..=40usize);
            let mut lp = if rng.random::<bool>() {
                LinearProgram::maximize(nv)
            } else {
                LinearProgram::minimize(nv)
            };
            for v in 0..nv {
                lp.set_objective(v, f64::from(rng.random_range(-4..=6i32)));
            }
            // Most cases box the variables so that an optimum exists.
            if case % 4 != 0 {
                for v in 0..nv {
                    lp.add_le(&[(v, 1.0)], f64::from(rng.random_range(1..=30i32)));
                }
            }
            let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
            for _ in 0..rng.random_range(1..=12usize) {
                let (coeffs, rhs) = if !rows.is_empty() && rng.random_range(0..8u32) == 0 {
                    // A multiple of an earlier row: redundant when both
                    // are equalities, parallel otherwise.
                    let (c, r) = rows[rng.random_range(0..rows.len())].clone();
                    let k = f64::from(rng.random_range(1..=3i32));
                    (c.iter().map(|&(v, a)| (v, k * a)).collect(), k * r)
                } else {
                    let width = rng.random_range(1..=nv.min(6));
                    let coeffs: Vec<(usize, f64)> = (0..width)
                        .map(|_| {
                            let v = rng.random_range(0..nv);
                            (v, f64::from(rng.random_range(-5..=5i32)))
                        })
                        .collect();
                    // One right-hand side in four is zero: degenerate.
                    let rhs = if rng.random_range(0..4u32) == 0 {
                        0.0
                    } else {
                        f64::from(rng.random_range(-20..=40i32))
                    };
                    (coeffs, rhs)
                };
                match rng.random_range(0..4u32) {
                    0 => lp.add_ge(&coeffs, rhs),
                    1 => lp.add_eq(&coeffs, rhs),
                    _ => lp.add_le(&coeffs, rhs),
                }
                rows.push((coeffs, rhs));
            }
            match lp.solve() {
                LpOutcome::Optimal(s) => {
                    optimal += 1;
                    if s.iterations > 0 && lp.rows.iter().any(|r| r.rel != Rel::Le || r.rhs < 0.0) {
                        phase1_pivots += s.iterations;
                    }
                }
                LpOutcome::Infeasible => infeasible += 1,
                LpOutcome::Unbounded => unbounded += 1,
            }
        }
        assert_eq!(compared_with_dense() - before, CASES);
        assert!(
            optimal > 200 && infeasible > 200 && unbounded > 20 && phase1_pivots > 1_000,
            "generator lost coverage: {optimal} optimal, {infeasible} infeasible, \
             {unbounded} unbounded, {phase1_pivots} pivots in two-phase programs"
        );
    }

    /// A Tempus-shaped program: volume variables per (transfer, tunnel,
    /// bucket), link x bucket capacity rows, per-transfer volume rows, the
    /// fraction column `α` with `sum - V α >= -already` rows (negative
    /// right-hand sides, which `Tableau::build` flips), then the second
    /// program that pins `α` and maximizes volume.
    #[test]
    fn dense_reference_agrees_on_a_tempus_shaped_program() {
        let mut rng = StdRng::seed_from_u64(77);
        let (links, buckets, transfers, tunnels) = (30usize, 4usize, 40usize, 2usize);
        let before = compared_with_dense();
        let mut lp = LinearProgram::maximize(0);
        let mut link_rows = vec![Vec::new(); links * buckets];
        let mut transfer_rows = vec![Vec::new(); transfers];
        for of_f in &mut transfer_rows {
            let eligible = rng.random_range(1..=buckets);
            for _ in 0..tunnels {
                let first = rng.random_range(0..links - 4);
                let hops = rng.random_range(1..=4usize);
                for b in 0..eligible {
                    let var = lp.add_var();
                    for l in first..first + hops {
                        link_rows[l * buckets + b].push((var, 1.0));
                    }
                    of_f.push((var, 1.0));
                }
            }
        }
        for (i, coeffs) in link_rows.iter().enumerate() {
            if !coeffs.is_empty() {
                lp.add_le(
                    coeffs,
                    100.0 * [300.0, 900.0, 2_400.0, 6_000.0][i % buckets],
                );
            }
        }
        let volumes: Vec<f64> = (0..transfers)
            .map(|_| rng.random_range(1_000.0..400_000.0))
            .collect();
        // Half the transfers are part-delivered already.
        let already: Vec<f64> = (0..transfers)
            .map(|f| if f % 2 == 0 { 0.0 } else { volumes[f] * 0.3 })
            .collect();
        for (f, coeffs) in transfer_rows.iter().enumerate() {
            lp.add_le(coeffs, volumes[f] - already[f]);
        }
        let alpha = lp.add_var();
        lp.set_objective(alpha, 1.0);
        lp.add_le(&[(alpha, 1.0)], 1.0);
        for (f, mut coeffs) in transfer_rows.into_iter().enumerate() {
            coeffs.push((alpha, -volumes[f]));
            lp.add_ge(&coeffs, -already[f]);
        }
        let sol1 = lp.solve().expect_optimal("α = 0 is feasible");
        assert!(sol1.iterations > 20, "{} pivots", sol1.iterations);
        let alpha_star = sol1.x[alpha].clamp(0.0, 1.0);
        assert!(alpha_star > 0.0);

        lp.set_objective(alpha, 0.0);
        lp.add_ge(&[(alpha, 1.0)], (alpha_star - 1e-6).max(0.0));
        for v in 0..alpha {
            lp.set_objective(v, 1.0);
        }
        let sol2 = lp.solve().expect_optimal("LP 1's optimum is feasible");
        assert!(sol2.objective > 0.0);
        assert_eq!(compared_with_dense() - before, 2);
    }

    fn solve_max(n: usize, obj: &[f64], le: &[(&[(usize, f64)], f64)]) -> LpOutcome {
        let mut lp = LinearProgram::maximize(n);
        for (i, &c) in obj.iter().enumerate() {
            lp.set_objective(i, c);
        }
        for &(coeffs, rhs) in le {
            lp.add_le(coeffs, rhs);
        }
        lp.solve()
    }

    #[test]
    fn textbook_two_var() {
        // max 3x+2y st x+y<=4, x<=2 -> 10 at (2,2)
        let out = solve_max(
            2,
            &[3.0, 2.0],
            &[(&[(0, 1.0), (1, 1.0)], 4.0), (&[(0, 1.0)], 2.0)],
        );
        let s = out.expect_optimal("textbook");
        assert!((s.objective - 10.0).abs() < 1e-7);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn unbounded_detected() {
        // max x with no constraints binding it.
        let out = solve_max(1, &[1.0], &[]);
        assert!(matches!(out, LpOutcome::Unbounded));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        lp.add_le(&[(0, 1.0)], 1.0);
        lp.add_ge(&[(0, 1.0)], 2.0);
        assert!(matches!(lp.solve(), LpOutcome::Infeasible));
    }

    #[test]
    fn equality_constraints() {
        // max x+y st x+y=3, x<=1 -> obj 3 with x<=1.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_eq(&[(0, 1.0), (1, 1.0)], 3.0);
        lp.add_le(&[(0, 1.0)], 1.0);
        let s = lp.solve().expect_optimal("eq");
        assert!((s.objective - 3.0).abs() < 1e-7);
        assert!(s.x[0] <= 1.0 + 1e-7);
    }

    #[test]
    fn ge_constraints_and_minimization() {
        // min 2x+3y st x+y>=4, x<=3 -> x=3,y=1, obj 9... check: 2*3+3*1=9;
        // alternative x=0,y=4 obj 12. So optimum 9.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, 3.0);
        lp.add_ge(&[(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(&[(0, 1.0)], 3.0);
        let s = lp.solve().expect_optimal("min");
        assert!((s.objective - 9.0).abs() < 1e-7, "got {}", s.objective);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -1  (i.e. y >= x + 1), max x st x<=2, y<=3 -> x=2 (y can be 3).
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0);
        lp.add_le(&[(0, 1.0), (1, -1.0)], -1.0);
        lp.add_le(&[(0, 1.0)], 2.0);
        lp.add_le(&[(1, 1.0)], 3.0);
        let s = lp.solve().expect_optimal("negrhs");
        assert!((s.x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Klee-Minty-ish degenerate instance.
        let mut lp = LinearProgram::maximize(3);
        for i in 0..3 {
            lp.set_objective(i, 10f64.powi(2 - i as i32));
        }
        lp.add_le(&[(0, 1.0)], 1.0);
        lp.add_le(&[(0, 20.0), (1, 1.0)], 100.0);
        lp.add_le(&[(0, 200.0), (1, 20.0), (2, 1.0)], 10_000.0);
        let s = lp.solve().expect_optimal("klee-minty");
        assert!((s.objective - 10_000.0).abs() < 1e-5);
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let mut lp = LinearProgram::maximize(2);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 5.0);
        let s = lp.solve().expect_optimal("zero-obj");
        assert_eq!(s.objective, 0.0);
        assert!(s.x.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0);
        lp.add_eq(&[(0, 1.0), (1, 1.0)], 2.0);
        lp.add_eq(&[(0, 2.0), (1, 2.0)], 4.0); // same plane
        lp.add_le(&[(0, 1.0)], 1.5);
        let s = lp.solve().expect_optimal("redundant");
        assert!((s.x[0] - 1.5).abs() < 1e-7);
    }

    #[test]
    fn add_var_extends_program() {
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        let y = lp.add_var();
        lp.set_objective(y, 2.0);
        lp.add_le(&[(0, 1.0), (y, 1.0)], 3.0);
        let s = lp.solve().expect_optimal("addvar");
        assert!((s.objective - 6.0).abs() < 1e-7, "all budget to y");
    }

    /// The Klee–Minty cube of dimension 12: Dantzig's largest-coefficient
    /// rule walks all `2^12 - 1` vertices, past the fallback threshold
    /// (`20 (m + n) + 200` = 920 pivots here), so the production rule
    /// switches to Bland's mid-run — which still ends on the optimum,
    /// `x_12 = 5^12`.
    #[test]
    fn klee_minty_reaches_the_bland_fallback() {
        const D: usize = 12;
        let mut lp = LinearProgram::maximize(D);
        for j in 0..D {
            lp.set_objective(j, f64::powi(2.0, (D - 1 - j) as i32));
        }
        for i in 0..D {
            let mut row: Vec<(usize, f64)> = (0..i)
                .map(|j| (j, f64::powi(2.0, (i - j + 1) as i32)))
                .collect();
            row.push((i, 1.0));
            lp.add_le(&row, f64::powi(5.0, i as i32 + 1));
        }
        let (outcome, bland) = with_bland(false, || lp.solve());
        let sol = outcome.expect_optimal("Klee-Minty is bounded");
        let optimum = f64::powi(5.0, D as i32);
        assert!(
            bland > 0,
            "the fallback never engaged ({} pivots)",
            sol.iterations
        );
        assert!(sol.iterations > 20 * (D + 2 * D) + 200);
        assert!(
            (sol.objective - optimum).abs() <= 1e-9 * optimum,
            "{} vs {optimum}",
            sol.objective
        );
        assert!((sol.x[D - 1] - optimum).abs() <= 1e-9 * optimum);
    }
}
