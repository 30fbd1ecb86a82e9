//! The circuit-based SAT solver of *"A Circuit SAT Solver With Signal
//! Correlation Guided Learning"* (Lu, Wang, Cheng, Huang — DATE 2003).
//!
//! Unlike CNF solvers, this solver works directly on the gate-level netlist
//! (an [`Aig`](csat_netlist::Aig)) and exploits structure a CNF translation
//! destroys:
//!
//! * **BCP on the AND primitive** via the lookup table in [`implication`]
//!   (Section IV-A).
//! * **J-node decisions** ([`SolverOptions::jnode_decisions`]): decisions
//!   are restricted to inputs of justification-frontier gates, with learned
//!   gates also treated as J-nodes (Section IV-A).
//! * **Implicit learning** ([`SolverOptions::implicit_learning`] +
//!   [`Solver::set_correlations`]): correlated signals are grouped in the
//!   decision order and assigned the values most likely to conflict
//!   (Algorithm IV.1).
//! * **Explicit learning** ([`explicit`]): the incremental
//!   learn-from-conflict strategy — a topologically ordered sequence of
//!   likely-UNSAT sub-problems, each aborted after 10 learned gates
//!   (Section V).
//! * **Restarts** when the average back-jump distance over 4096 backtracks
//!   drops below 1.2 (Section IV-A).
//!
//! # Example: proving a miter unsatisfiable with both learning modes
//!
//! ```
//! use csat_core::{explicit, Budget, ExplicitOptions, Solver, SolverOptions};
//! use csat_netlist::{generators, miter};
//! use csat_sim::{find_correlations, SimulationOptions};
//! use csat_telemetry::NoOpObserver;
//!
//! let adder = generators::ripple_carry_adder(8);
//! let m = miter::self_miter(&adder, Default::default());
//! let correlations = find_correlations(&m.aig, &SimulationOptions::default());
//!
//! let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
//! solver.set_correlations(&correlations);
//! let options = ExplicitOptions::default();
//! let (budget, obs) = (&Budget::UNLIMITED, &mut NoOpObserver);
//! explicit::run_budgeted_observed(&mut solver, &correlations, &options, budget, obs);
//! assert!(solver.solve(m.objective).is_unsat());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explicit;
pub mod implication;
mod options;
pub mod proof;
mod solver;

pub use explicit::{CorrelationMode, ExplicitOptions, ExplicitReport, SubproblemOrdering};
pub use options::{
    Budget, CancelToken, ClauseActivity, Interrupt, ReductionPolicy, RestartPolicy, SearchOptions,
    SearchStats, SolverOptions, SolverOptionsBuilder, Stats, SubVerdict, Verdict,
};
pub use solver::{LitOutOfRange, Solver};

/// Checks a SAT model against the circuit itself.
///
/// `model` is one value per primary input (the shape [`Verdict::Sat`]
/// carries). The model is accepted iff direct evaluation of the circuit
/// makes `objective` true — the ground-truth check differential testing
/// and the CLIs use before trusting any solver's SAT answer.
///
/// # Panics
///
/// Panics if `model.len() != aig.inputs().len()`.
///
/// # Example
///
/// ```
/// use csat_core::{check_model, Solver, SolverOptions, Verdict};
/// use csat_netlist::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let y = aig.and(a, !b);
/// let mut solver = Solver::new(&aig, SolverOptions::default());
/// match solver.solve(y) {
///     Verdict::Sat(model) => assert!(check_model(&aig, &model, y)),
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn check_model(aig: &csat_netlist::Aig, model: &[bool], objective: csat_netlist::Lit) -> bool {
    let values = aig.evaluate(model);
    aig.lit_value(&values, objective)
}
