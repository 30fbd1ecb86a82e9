//! UNSAT proof logging and checking (reverse unit propagation).
//!
//! When proof logging is enabled ([`Solver::start_proof`](crate::Solver::start_proof)),
//! the solver
//! records every learned clause in derivation order — including the
//! clauses explicit learning adds for refuted sub-problems and learned
//! units. Every clause a CDCL solver learns has the *RUP* property
//! (reverse unit propagation): asserting its negation and unit-propagating
//! over the axioms plus the previously derived clauses yields a conflict.
//!
//! [`verify_unsat`] replays a log on the kernel's [`RupChecker`] whose
//! axioms are the circuit's own gate semantics (the three Tseitin clauses
//! per AND gate), giving an end-to-end check that an `Unsat` answer is
//! justified — the circuit-solver analogue of DRUP checking in the CNF
//! world.

use csat_netlist::{Aig, Lit, Node, NodeId};
use csat_search::RupChecker;

pub use csat_search::ProofError;

/// Verifies a proof log ending in the refutation of `objective`.
///
/// Checks, in order, that every logged clause is RUP with respect to the
/// circuit axioms and the earlier clauses, and finally that the unit
/// clause `¬objective` is RUP — i.e. the circuit cannot make `objective`
/// true.
///
/// # Errors
///
/// Returns a [`ProofError`] naming the first clause that is not RUP.
pub fn verify_unsat(aig: &Aig, proof: &[Vec<Lit>], objective: Lit) -> Result<(), ProofError> {
    circuit_checker(aig).verify(proof, &[!objective])
}

/// A RUP checker loaded with the circuit axioms: the constant node is
/// false, and each AND gate satisfies its three Tseitin clauses.
fn circuit_checker(aig: &Aig) -> RupChecker<Lit> {
    let mut axioms = vec![vec![!NodeId::FALSE.lit()]];
    for (i, node) in aig.nodes().iter().enumerate() {
        if let Node::And(a, b) = *node {
            let o = NodeId::from_index(i).lit();
            axioms.extend([vec![!o, a], vec![!o, b], vec![o, !a, !b]]);
        }
    }
    RupChecker::new(aig.len(), axioms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Solver, SolverOptions};
    use csat_netlist::{generators, miter, Aig};

    #[test]
    fn proof_of_simple_contradiction_checks() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let p = g.and(a, b);
        let q = g.and_fresh(a, b);
        let y = g.and_fresh(p, !q);
        g.set_output("y", y);
        let mut s = Solver::new(&g, SolverOptions::default());
        s.start_proof();
        assert!(s.solve(y).is_unsat());
        let proof = s.take_proof();
        verify_unsat(&g, &proof, y).expect("proof must check");
    }

    #[test]
    fn proof_of_adder_miter_checks() {
        let left = generators::ripple_carry_adder(4);
        let right = generators::carry_lookahead_adder(4);
        let m = miter::build_fresh(&left, &right, Default::default());
        let mut s = Solver::new(&m.aig, SolverOptions::default());
        s.start_proof();
        assert!(s.solve(m.objective).is_unsat());
        let proof = s.take_proof();
        assert!(!proof.is_empty());
        verify_unsat(&m.aig, &proof, m.objective).expect("proof must check");
    }

    #[test]
    fn proof_with_explicit_learning_checks() {
        use crate::{explicit, Budget, ExplicitOptions};
        use csat_sim::{find_correlations, SimulationOptions};
        use csat_telemetry::NoOpObserver;
        let circuit = generators::array_multiplier(5);
        let m = miter::self_miter(&circuit, Default::default());
        let correlations = find_correlations(&m.aig, &SimulationOptions::default());
        let mut s = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
        s.set_correlations(&correlations);
        s.start_proof();
        let options = ExplicitOptions::default();
        let (budget, obs) = (&Budget::UNLIMITED, &mut NoOpObserver);
        explicit::run_budgeted_observed(&mut s, &correlations, &options, budget, obs);
        assert!(s.solve(m.objective).is_unsat());
        let proof = s.take_proof();
        verify_unsat(&m.aig, &proof, m.objective).expect("proof must check");
    }

    #[test]
    fn bogus_proof_is_rejected() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y = g.and(a, b);
        g.set_output("y", y);
        // Claim: y can never be 1 — with a fabricated (non-RUP) clause.
        let bogus = vec![vec![!a]];
        let err = verify_unsat(&g, &bogus, y).unwrap_err();
        assert_eq!(err.step, 0);
    }

    #[test]
    fn sat_objective_refutation_is_rejected() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y = g.and(a, b);
        g.set_output("y", y);
        // Empty proof cannot refute a satisfiable objective.
        let err = verify_unsat(&g, &[], y).unwrap_err();
        assert_eq!(err.step, usize::MAX);
    }

    #[test]
    fn proof_accumulates_across_queries() {
        let g = generators::comparator(4);
        let lt = g.output("lt").expect("lt");
        let eq = g.output("eq").expect("eq");
        let mut s = Solver::new(&g, SolverOptions::default());
        s.start_proof();
        // lt and eq exclude each other.
        use crate::{Budget, SubVerdict};
        match s.solve_under(
            &[lt, eq],
            &Budget::UNLIMITED,
            &mut csat_telemetry::NoOpObserver,
        ) {
            SubVerdict::UnsatUnderAssumptions(_) | SubVerdict::Unsat => {}
            other => panic!("{other:?}"),
        }
        let proof = s.take_proof();
        // Every logged clause is RUP, and together they refute lt ∧ eq.
        circuit_checker(&g)
            .verify(&proof, &[!lt, !eq])
            .expect("proof must check");
    }
}
