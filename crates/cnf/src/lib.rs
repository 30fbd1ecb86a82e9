//! A ZChaff-class CNF CDCL SAT solver.
//!
//! This crate is the *baseline comparator* of the DATE 2003 reproduction:
//! the paper measures its circuit solver against ZChaff [Moskewicz et al.,
//! DAC 2001; Zhang et al., ICCAD 2001]. This is a from-scratch CDCL solver
//! with the same architecture ZChaff introduced:
//!
//! * two watched literals per clause,
//! * VSIDS decision heuristic with periodic activity decay,
//! * first-UIP conflict analysis with non-chronological backjumping,
//! * learned-clause database reduction,
//! * geometric restarts (Luby and back-jump-average selectable via
//!   [`SearchOptions`]),
//! * resource budgets via [`Budget`] (the paper aborts runs at 7200 s).
//!
//! Since the `csat-search` extraction this crate only contributes the
//! CNF-specific half — watched-literal propagation over problem clauses —
//! as a `Propagator` backend; the CDCL loop, conflict analysis,
//! learned-clause arena, restarts and budgets are the shared kernel, the
//! same code the circuit solver (`csat-core`) runs on.
//!
//! # Example
//!
//! ```
//! use csat_cnf::{Solver, SolverOptions, Verdict};
//! use csat_netlist::cnf::Cnf;
//!
//! let cnf = Cnf::from_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").unwrap();
//! let mut solver = Solver::new(&cnf, SolverOptions::default());
//! match solver.solve() {
//!     Verdict::Sat(model) => assert!(model[1]), // variable 2 must be true
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proof;
mod solver;

pub use solver::{
    Budget, ClauseActivity, Interrupt, LitOutOfRange, ReductionPolicy, RestartPolicy,
    SearchOptions, SearchStats, Solver, SolverOptions, SolverOptionsBuilder, Stats, SubVerdict,
    Verdict,
};

/// Checks a SAT model against the formula itself.
///
/// `model` is one value per variable (the shape [`Verdict::Sat`] carries).
/// The model is accepted iff it satisfies every clause — the ground-truth
/// check differential testing uses before trusting a SAT answer.
///
/// # Panics
///
/// Panics if `model` is shorter than the formula's variable count.
///
/// # Example
///
/// ```
/// use csat_cnf::{check_model, Solver, SolverOptions, Verdict};
/// use csat_netlist::cnf::Cnf;
///
/// let cnf = Cnf::from_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").unwrap();
/// let mut solver = Solver::new(&cnf, SolverOptions::default());
/// match solver.solve() {
///     Verdict::Sat(model) => assert!(check_model(&cnf, &model)),
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn check_model(cnf: &csat_netlist::cnf::Cnf, model: &[bool]) -> bool {
    cnf.evaluate(model)
}
