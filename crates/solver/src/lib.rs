//! Linear-programming substrate for the Owan reproduction.
//!
//! The network-layer-only baselines the paper compares against (MaxFlow,
//! MaxMinFract, SWAN, Tempus — §5.1) are all linear programs over per-path
//! transfer rates. Production systems hand these to a commercial solver; no
//! offline Rust crate of adequate quality exists, so this crate implements a
//! **two-phase primal simplex** from scratch (see DESIGN.md §2). The TE LPs
//! are small — on the 40-site ISP a slot's program averages 201 structural
//! variables over 163 rows, the largest tableau 229 250 cells — so the
//! tableau is stored dense; but it is a path-incidence matrix, 5 % nonzero
//! in the pivot row at a pivot and still 7 % dense when solved, so a pivot
//! touches only the pivot row's nonzero columns: dense in storage, sparse
//! in work.
//!
//! * [`LinearProgram`] / [`LpOutcome`] — the general solver,
//! * [`mcf`] — a path-based multicommodity-flow LP builder shared by the
//!   baseline TE algorithms; [`BoundedMcf`] is SWAN's inner LP prepared
//!   once per slot and re-solved as its floors and ceilings move.
//!
//! # Example
//!
//! ```
//! use owan_solver::{LinearProgram, LpOutcome};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y >= 0
//! let mut lp = LinearProgram::maximize(2);
//! lp.set_objective(0, 3.0);
//! lp.set_objective(1, 2.0);
//! lp.add_le(&[(0, 1.0), (1, 1.0)], 4.0);
//! lp.add_le(&[(0, 1.0)], 2.0);
//! match lp.solve() {
//!     LpOutcome::Optimal(sol) => {
//!         assert!((sol.objective - 10.0).abs() < 1e-9);
//!         assert!((sol.x[0] - 2.0).abs() < 1e-9);
//!         assert!((sol.x[1] - 2.0).abs() < 1e-9);
//!     }
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! ```

pub mod mcf;
pub mod simplex;

pub use mcf::{BoundedMcf, McfProblem, McfSolution};
pub use simplex::{LinearProgram, LpOutcome, LpSolution};
