//! Behavioral tests for the circuit solver: gate-implication conflicts in
//! every direction, assumption handling, budget semantics, restart policy,
//! clause-database behavior, and decision-mode differences.

use csat_telemetry::NoOpObserver;
use std::time::Duration;

use csat_core::{Budget, Interrupt, Solver, SolverOptions, SubVerdict, Verdict};
use csat_netlist::{generators, miter, Aig, Lit};

/// y = a & b with output forced against fanins, every direction.
#[test]
fn gate_conflicts_in_all_directions() {
    let mut g = Aig::new();
    let a = g.input();
    let b = g.input();
    let y = g.and(a, b);
    g.set_output("y", y);
    let mut s = Solver::new(&g, SolverOptions::default());
    // Forward: a=0 forces y=0; assuming y=1 with a=0 is UNSAT.
    assert!(matches!(
        s.solve_under(&[!a, y], &Budget::UNLIMITED, &mut NoOpObserver),
        SubVerdict::UnsatUnderAssumptions(_)
    ));
    // Backward: y=1 forces a=1 and b=1.
    match s.solve_under(&[y], &Budget::UNLIMITED, &mut NoOpObserver) {
        SubVerdict::Sat(model) => assert_eq!(model, vec![true, true]),
        other => panic!("{other:?}"),
    }
    // Sideways: y=0, a=1 forces b=0; with b=1 assumed it is UNSAT.
    assert!(matches!(
        s.solve_under(&[!y, a, b], &Budget::UNLIMITED, &mut NoOpObserver),
        SubVerdict::UnsatUnderAssumptions(_)
    ));
}

#[test]
fn deep_and_chain_propagates_both_ways() {
    // y = x1 & x2 & ... & x32 as a chain; y=1 must force all inputs.
    let mut g = Aig::new();
    let xs = g.inputs_n(32);
    let mut acc = xs[0];
    for &x in &xs[1..] {
        acc = g.and(acc, x);
    }
    g.set_output("y", acc);
    let mut s = Solver::new(&g, SolverOptions::default());
    match s.solve(acc) {
        Verdict::Sat(model) => assert!(model.iter().all(|&v| v)),
        other => panic!("{other:?}"),
    }
    // And y=0 with 31 inputs true forces the last one false.
    let mut assumptions: Vec<Lit> = xs[..31].to_vec();
    assumptions.push(!acc);
    match s.solve_under(&assumptions, &Budget::UNLIMITED, &mut NoOpObserver) {
        SubVerdict::Sat(model) => assert!(!model[31]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn assumption_order_does_not_change_verdicts() {
    let g = generators::comparator(6);
    let lt = g.output("lt").expect("lt");
    let gt = g.output("gt").expect("gt");
    let mut s = Solver::new(&g, SolverOptions::default());
    let fwd = matches!(
        s.solve_under(&[lt, gt], &Budget::UNLIMITED, &mut NoOpObserver),
        SubVerdict::UnsatUnderAssumptions(_) | SubVerdict::Unsat
    );
    let rev = matches!(
        s.solve_under(&[gt, lt], &Budget::UNLIMITED, &mut NoOpObserver),
        SubVerdict::UnsatUnderAssumptions(_) | SubVerdict::Unsat
    );
    assert!(fwd && rev);
}

#[test]
fn repeated_assumption_literals_are_fine() {
    let mut g = Aig::new();
    let a = g.input();
    let b = g.input();
    let y = g.or(a, b);
    g.set_output("y", y);
    let mut s = Solver::new(&g, SolverOptions::default());
    match s.solve_under(&[y, y, a, a], &Budget::UNLIMITED, &mut NoOpObserver) {
        SubVerdict::Sat(model) => assert!(model[0]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn contradictory_assumptions_name_the_culprit() {
    let mut g = Aig::new();
    let a = g.input();
    g.set_output("a", a);
    let mut s = Solver::new(&g, SolverOptions::default());
    match s.solve_under(&[a, !a], &Budget::UNLIMITED, &mut NoOpObserver) {
        SubVerdict::UnsatUnderAssumptions(core) => {
            assert!(core.contains(&!a));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn time_budget_aborts_hard_instance() {
    let m = miter::self_miter(&generators::array_multiplier(10), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    let verdict = s.solve_observed(
        m.objective,
        &Budget::time(Duration::from_millis(50)),
        &mut NoOpObserver,
    );
    assert_eq!(verdict, Verdict::Unknown(Interrupt::Timeout));
}

#[test]
fn conflict_budget_aborts_hard_instance() {
    let m = miter::self_miter(&generators::array_multiplier(10), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    let outcome = s.solve_under(&[m.objective], &Budget::conflicts(3), &mut NoOpObserver);
    assert_eq!(outcome, SubVerdict::Aborted(Interrupt::Conflicts));
    assert!(s.stats().conflicts <= 4);
}

#[test]
fn clause_database_reduction_fires_on_long_runs() {
    // A moderately hard miter accumulates enough clauses to trigger
    // reduction (max_learnts starts at max(gates/2, 2000)).
    let m = miter::self_miter(&generators::array_multiplier(7), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    assert!(s.solve(m.objective).is_unsat());
    assert!(
        s.stats().deleted_clauses > 0,
        "expected clause deletion on a {}-conflict run",
        s.stats().conflicts
    );
}

#[test]
fn restart_policy_triggers_on_shallow_backjumps() {
    let m = miter::self_miter(&generators::array_multiplier(6), Default::default());
    // A tiny window plus an impossible threshold forces restarts.
    let options = SolverOptions::builder()
        .restart(csat_core::RestartPolicy::BackjumpAverage {
            window: 64,
            threshold: 1e9,
        })
        .build();
    let mut s = Solver::new(&m.aig, options);
    assert!(s.solve(m.objective).is_unsat());
    assert!(s.stats().restarts > 0);
}

#[test]
fn restart_policy_silent_when_threshold_tiny() {
    let m = miter::self_miter(&generators::ripple_carry_adder(8), Default::default());
    let options = SolverOptions::builder()
        .restart(csat_core::RestartPolicy::BackjumpAverage {
            window: 16,
            threshold: 0.0,
        })
        .build();
    let mut s = Solver::new(&m.aig, options);
    assert!(s.solve(m.objective).is_unsat());
    assert_eq!(s.stats().restarts, 0);
}

#[test]
fn plain_and_jnode_modes_agree_on_many_circuits() {
    for seed in 0..8 {
        let g = generators::random_logic(seed, 9, 70, 2);
        for (_, out) in g.outputs() {
            let mut plain = Solver::new(&g, SolverOptions::plain_csat());
            let mut jnode = Solver::new(&g, SolverOptions::default());
            let vp = plain.solve(*out);
            let vj = jnode.solve(*out);
            assert_eq!(vp.is_sat(), vj.is_sat(), "seed {seed}");
        }
    }
}

#[test]
fn solver_handles_input_only_circuit() {
    let mut g = Aig::new();
    let a = g.input();
    let b = g.input();
    g.set_output("a", a);
    g.set_output("b", b);
    let mut s = Solver::new(&g, SolverOptions::default());
    match s.solve(a) {
        Verdict::Sat(model) => assert!(model[0]),
        other => panic!("{other:?}"),
    }
    match s.solve(!b) {
        Verdict::Sat(model) => assert!(!model[1]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn solver_handles_single_gate_unsat_core() {
    // (a & !a) can never be 1, even when hidden behind fresh gates.
    let mut g = Aig::new();
    let a = g.input();
    let p = g.and_fresh(a, a); // = a (folded), keep building:
    let q = g.and_fresh(p, !a); // real gate computing a & !a
    g.set_output("q", q);
    let mut s = Solver::new(&g, SolverOptions::default());
    assert!(s.solve(q).is_unsat());
    // ... and its negation is a tautology objective.
    assert!(s.solve(!q).is_sat());
}

#[test]
fn stats_reset_is_not_performed_between_calls() {
    // Stats are cumulative by design (documented); verify monotonicity.
    let m = miter::self_miter(&generators::ripple_carry_adder(6), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    assert!(s.solve(m.objective).is_unsat());
    let first = s.stats().conflicts;
    assert!(s.solve(m.objective).is_unsat());
    let second = s.stats().conflicts;
    assert!(second >= first);
}

#[test]
fn unsat_result_is_cached_by_learned_units() {
    // After proving UNSAT once, the second query should be much cheaper
    // (root conflict or near-instant unit propagation).
    let m = miter::self_miter(&generators::ripple_carry_adder(8), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    assert!(s.solve(m.objective).is_unsat());
    let conflicts_first = s.stats().conflicts;
    assert!(s.solve(m.objective).is_unsat());
    let conflicts_second = s.stats().conflicts - conflicts_first;
    assert!(
        conflicts_second <= conflicts_first,
        "second proof should not be harder ({conflicts_second} > {conflicts_first})"
    );
}

#[test]
fn objective_deep_in_cone_works() {
    // Objective on an internal node rather than an output.
    let g = generators::carry_lookahead_adder(6);
    let internal = g
        .node_ids()
        .filter(|&id| g.node(id).is_and())
        .nth(10)
        .expect("an internal gate");
    let mut s = Solver::new(&g, SolverOptions::default());
    let sat_pos = s.solve(internal.lit()).is_sat();
    let sat_neg = s.solve(!internal.lit()).is_sat();
    // A non-constant internal signal must be satisfiable in at least one
    // polarity; for adders both polarities are reachable.
    assert!(sat_pos && sat_neg);
}
