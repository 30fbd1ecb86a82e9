//! DRUP-style proof logging and checking for the CNF solver.
//!
//! With logging enabled ([`Solver::start_proof`](crate::Solver::start_proof)),
//! every learned clause is recorded in derivation order. [`verify_unsat`]
//! replays the log against the original formula on the kernel's
//! [`RupChecker`]: each logged clause must be *RUP* (asserting its
//! negation and propagating yields a conflict), and the log must end in a
//! root-level contradiction. This is the same check DRUP checkers perform,
//! minus deletion tracking.

use csat_netlist::cnf::{Cnf, Lit};
use csat_search::RupChecker;

pub use csat_search::ProofError;

/// Verifies that `proof` derives unsatisfiability of `cnf`.
///
/// # Errors
///
/// Returns a [`ProofError`] naming the first clause that is not implied by
/// reverse unit propagation, or the final step when no contradiction is
/// reached (the empty clause is not RUP).
pub fn verify_unsat(cnf: &Cnf, proof: &[Vec<Lit>]) -> Result<(), ProofError> {
    RupChecker::new(cnf.num_vars(), cnf.clauses().to_vec()).verify(proof, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Solver, SolverOptions};

    #[test]
    fn xor_contradiction_proof_checks() {
        let cnf = Cnf::from_dimacs("p cnf 3 6\n1 2 0\n-1 -2 0\n2 3 0\n-2 -3 0\n1 3 0\n-1 -3 0\n")
            .expect("dimacs");
        let mut solver = Solver::new(&cnf, SolverOptions::default());
        solver.start_proof();
        assert!(solver.solve().is_unsat());
        let proof = solver.take_proof();
        verify_unsat(&cnf, &proof).expect("proof must check");
    }

    #[test]
    fn pigeonhole_proof_checks() {
        // php(4 into 3)
        let mut cnf = Cnf::with_vars(12);
        let var = |p: usize, h: usize| csat_netlist::cnf::Var((p * 3 + h) as u32);
        for p in 0..4 {
            cnf.add_clause((0..3).map(|h| var(p, h).positive()).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let mut solver = Solver::new(&cnf, SolverOptions::default());
        solver.start_proof();
        assert!(solver.solve().is_unsat());
        let proof = solver.take_proof();
        assert!(!proof.is_empty());
        verify_unsat(&cnf, &proof).expect("proof must check");
    }

    #[test]
    fn bogus_proof_is_rejected() {
        let cnf = Cnf::from_dimacs("p cnf 2 1\n1 2 0\n").expect("dimacs");
        // Fabricated clause that is not RUP.
        let bogus = vec![vec![Lit::from_dimacs(-1)]];
        let err = verify_unsat(&cnf, &bogus).unwrap_err();
        assert_eq!(err.step, 0);
    }

    #[test]
    fn incomplete_proof_is_rejected() {
        let cnf = Cnf::from_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").expect("dimacs");
        // Valid-but-useless derivation (unit 2 is RUP) — the formula is
        // satisfiable, so the final contradiction check must fail.
        let partial = vec![vec![Lit::from_dimacs(2)]];
        let err = verify_unsat(&cnf, &partial).unwrap_err();
        assert_eq!(err.step, usize::MAX);
    }
}
