//! Integration tests for the parallel layer (`csat-par`): portfolio and
//! cube-and-conquer runs on real miters must agree with the sequential
//! solvers on every verdict, return checkable models, honor budgets and
//! merge per-worker telemetry coherently.

use std::time::Duration;

use csat::core::{check_model, Solver, SolverOptions};
use csat::netlist::{generators, miter, tseitin, Aig};
use csat::par::{
    solve_aig_cubes, solve_aig_portfolio, solve_cnf_cubes, solve_cnf_portfolio, CubeOptions,
    PortfolioOptions, WorkerOutcome,
};
use csat::types::{Budget, Interrupt, Verdict};

/// An UNSAT equivalence miter (two adder architectures).
fn unsat_miter() -> miter::Miter {
    miter::build_fresh(
        &generators::ripple_carry_adder(8),
        &generators::carry_select_adder(8, 3),
        Default::default(),
    )
}

/// A SAT miter: one output inverted, so a distinguishing pattern exists.
fn sat_miter() -> miter::Miter {
    let good = generators::carry_lookahead_adder(6);
    let mut bad = Aig::new();
    let inputs: Vec<_> = (0..good.inputs().len()).map(|_| bad.input()).collect();
    let outs = miter::import(&mut bad, &good, &inputs);
    for (k, (name, _)) in good.outputs().iter().enumerate() {
        let lit = if k == 2 { !outs[k] } else { outs[k] };
        bad.set_output(name.clone(), lit);
    }
    miter::build_fresh(&good, &bad, Default::default())
}

#[test]
fn circuit_portfolio_agrees_with_sequential_on_unsat() {
    let m = unsat_miter();
    let outcome = solve_aig_portfolio(
        &m.aig,
        m.objective,
        SolverOptions::default(),
        4,
        &PortfolioOptions::default(),
        &Budget::UNLIMITED,
        |_, _| {},
    );
    assert!(outcome.verdict.is_unsat(), "verdict: {:?}", outcome.verdict);
    let winner = outcome.winner.expect("someone won");
    assert!(outcome.workers[winner].winner);
    assert_eq!(outcome.workers.len(), 4);
}

#[test]
fn circuit_portfolio_sat_model_checks_out() {
    let m = sat_miter();
    let outcome = solve_aig_portfolio(
        &m.aig,
        m.objective,
        SolverOptions::default(),
        4,
        &PortfolioOptions::default(),
        &Budget::UNLIMITED,
        |_, _| {},
    );
    match &outcome.verdict {
        Verdict::Sat(model) => assert!(check_model(&m.aig, model, m.objective)),
        other => panic!("expected SAT, got {other:?}"),
    }
}

#[test]
fn cnf_portfolio_agrees_with_sequential() {
    for (m, want_sat) in [(unsat_miter(), false), (sat_miter(), true)] {
        let enc = tseitin::encode_with_objective(&m.aig, m.objective);
        let sequential = csat::cnf::Solver::new(&enc.cnf, Default::default()).solve();
        assert_eq!(sequential.is_sat(), want_sat);
        let outcome = solve_cnf_portfolio(
            &enc.cnf,
            Default::default(),
            4,
            &PortfolioOptions::default(),
            &Budget::UNLIMITED,
        );
        match (&outcome.verdict, want_sat) {
            (Verdict::Sat(model), true) => {
                assert!(enc.cnf.evaluate(model), "parallel model fails the CNF")
            }
            (Verdict::Unsat, false) => {}
            other => panic!("portfolio disagrees with sequential: {other:?}"),
        }
    }
}

#[test]
fn circuit_cubes_agree_with_sequential() {
    for (m, want_sat) in [(unsat_miter(), false), (sat_miter(), true)] {
        let outcome = solve_aig_cubes(
            &m.aig,
            m.objective,
            SolverOptions::default(),
            4,
            &CubeOptions {
                cube_vars: 3,
                // A tiny probe forces the run into the split/conquer path.
                probe_conflicts: 8,
            },
            &Budget::UNLIMITED,
            |_, _| {},
        );
        match (&outcome.verdict, want_sat) {
            (Verdict::Sat(model), true) => assert!(check_model(&m.aig, model, m.objective)),
            (Verdict::Unsat, false) => {}
            other => panic!("cubes disagree with sequential: {other:?}"),
        }
    }
}

/// Split-and-conquer itself, differentially: a tiny probe leaves most fuzz
/// instances to the cubes (no fuzz column reaches them: its probe decides
/// every instance), and every verdict must match the sequential solver's.
#[test]
fn circuit_cubes_match_sequential_on_fuzz_instances() {
    let mut split = 0;
    for seed in 0..60 {
        let instance = csat::fuzz::generate(seed);
        let (aig, objective) = (&instance.aig, instance.objective);
        let sequential = Solver::new(aig, SolverOptions::default()).solve(objective);
        let outcome = solve_aig_cubes(
            aig,
            objective,
            SolverOptions::default(),
            2,
            &CubeOptions {
                cube_vars: 3,
                probe_conflicts: 8,
            },
            &Budget::UNLIMITED,
            |_, _| {},
        );
        assert_eq!(
            outcome.verdict.is_sat(),
            sequential.is_sat(),
            "seed {seed}: cubes {:?} vs sequential {sequential:?}",
            outcome.verdict
        );
        assert!(!outcome.verdict.is_unknown(), "seed {seed}");
        if let Verdict::Sat(model) = &outcome.verdict {
            assert!(check_model(aig, model, objective), "seed {seed}");
        }
        split += usize::from(outcome.metrics.cubes_solved > 0);
    }
    assert!(split > 0, "no instance reached the cubes");
}

#[test]
fn cnf_cubes_agree_with_sequential() {
    for (m, want_sat) in [(unsat_miter(), false), (sat_miter(), true)] {
        let enc = tseitin::encode_with_objective(&m.aig, m.objective);
        let outcome = solve_cnf_cubes(
            &enc.cnf,
            Default::default(),
            3,
            &CubeOptions {
                cube_vars: 3,
                probe_conflicts: 8,
            },
            &Budget::UNLIMITED,
        );
        match (&outcome.verdict, want_sat) {
            (Verdict::Sat(model), true) => assert!(enc.cnf.evaluate(model)),
            (Verdict::Unsat, false) => {}
            other => panic!("cnf cubes disagree with sequential: {other:?}"),
        }
    }
}

#[test]
fn portfolio_merges_worker_telemetry() {
    let m = unsat_miter();
    let outcome = solve_aig_portfolio(
        &m.aig,
        m.objective,
        SolverOptions::default(),
        3,
        &PortfolioOptions::default(),
        &Budget::UNLIMITED,
        |_, _| {},
    );
    assert_eq!(outcome.metrics.workers_started, 3);
    assert_eq!(outcome.metrics.workers_finished, 3);
    assert_eq!(outcome.metrics.worker_wins, 1);
    // Exactly one worker reports a definitive outcome as the winner; the
    // merged recorder saw every worker's conflicts.
    let winners = outcome.workers.iter().filter(|w| w.winner).count();
    assert_eq!(winners, 1);
    let total_conflicts: u64 = outcome.workers.iter().map(|w| w.stats.conflicts).sum();
    assert_eq!(outcome.metrics.conflicts, total_conflicts);
}

#[test]
fn portfolio_honors_conflict_budget_with_unknown() {
    // The hard self-miter from the resilience suite: nowhere near
    // solvable in 64 conflicts per worker, so every worker must abort
    // with the Conflicts reason and the merged verdict must say so.
    let m = miter::self_miter(&generators::array_multiplier(12), Default::default());
    let outcome = solve_aig_portfolio(
        &m.aig,
        m.objective,
        SolverOptions::default(),
        3,
        &PortfolioOptions::default(),
        &Budget::conflicts(64),
        |_, _| {},
    );
    assert_eq!(outcome.verdict, Verdict::Unknown(Interrupt::Conflicts));
    assert!(outcome.winner.is_none());
    for w in &outcome.workers {
        assert_eq!(w.outcome, WorkerOutcome::Aborted(Interrupt::Conflicts));
        assert!(w.stats.conflicts <= 64 + 1, "worker overspent: {w:?}");
    }
}

#[test]
fn portfolio_honors_expired_clock() {
    let m = miter::self_miter(&generators::array_multiplier(12), Default::default());
    let outcome = solve_aig_portfolio(
        &m.aig,
        m.objective,
        SolverOptions::default(),
        2,
        &PortfolioOptions::default(),
        &Budget::time(Duration::ZERO),
        |_, _| {},
    );
    assert_eq!(outcome.verdict, Verdict::Unknown(Interrupt::Timeout));
}

#[test]
fn single_threaded_portfolio_matches_sequential_stats_shape() {
    // One worker is the degenerate portfolio: worker 0 runs the base
    // configuration, so the verdict must match the plain solver's.
    let m = unsat_miter();
    let outcome = solve_aig_portfolio(
        &m.aig,
        m.objective,
        SolverOptions::default(),
        1,
        &PortfolioOptions::default(),
        &Budget::UNLIMITED,
        |_, _| {},
    );
    assert!(outcome.verdict.is_unsat());
    assert_eq!(outcome.winner, Some(0));
}
