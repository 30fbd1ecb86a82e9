//! Integration tests combining proof logging and the explicit-learning
//! pipeline across realistic flows.

use csat_core::{explicit, proof, ExplicitOptions, Solver, SolverOptions};
use csat_netlist::{generators, miter, optimize};
use csat_sim::{find_correlations, SimulationOptions};

/// Every UNSAT verdict produced along a multi-query session must be
/// certifiable from the accumulated proof log.
#[test]
fn multi_query_session_proof_checks() {
    let left = generators::carry_select_adder(6, 2);
    let right = generators::kogge_stone_adder(6);
    let m = miter::build_fresh(&left, &right, Default::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    solver.start_proof();
    // Query 1: the miter itself.
    assert!(solver.solve(m.objective).is_unsat());
    // Query 2: still UNSAT on re-query (cached by learned units).
    assert!(solver.solve(m.objective).is_unsat());
    let log = solver.take_proof();
    proof::verify_unsat(&m.aig, &log, m.objective).expect("proof must check");
}

/// Proofs produced under the full learning pipeline check, including the
/// clauses added for refuted sub-problems.
#[test]
fn pipeline_proof_checks_on_opt_miter() {
    let base = generators::multiply_accumulate(3);
    let variant = optimize::restructure_seeded(&base, 5);
    let m = miter::build_fresh(&base, &variant, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    solver.start_proof();
    explicit::run(&mut solver, &correlations, &ExplicitOptions::default());
    assert!(solver.solve(m.objective).is_unsat());
    let log = solver.take_proof();
    assert!(!log.is_empty());
    proof::verify_unsat(&m.aig, &log, m.objective).expect("proof must check");
}

/// The explicit-learning schedule is deterministic: identical runs produce
/// identical reports and identical verdicts.
#[test]
fn pipeline_is_deterministic() {
    let m = miter::self_miter(&generators::multiply_accumulate(4), Default::default());
    let run = || {
        let correlations = find_correlations(&m.aig, &SimulationOptions::default());
        let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        let report = explicit::run(&mut solver, &correlations, &ExplicitOptions::default());
        let verdict = solver.solve(m.objective);
        (
            report.subproblems,
            report.refuted,
            verdict.is_unsat(),
            solver.stats().conflicts,
        )
    };
    assert_eq!(run(), run());
}
