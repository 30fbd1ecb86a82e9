//! Behavior tests for the circuit solver over the shared search kernel.
//!
//! These exercise the public API end to end (they lived inside
//! `src/solver.rs` before the `csat-search` extraction): basic verdicts,
//! assumptions, budgets, clause ingest and cross-checks against the CNF
//! baseline.

use csat_core::{Budget, Interrupt, Solver, SolverOptions, SubVerdict, Verdict};
use csat_netlist::{generators, miter, tseitin, Aig, Lit, NodeId};
use csat_telemetry::NoOpObserver;

fn tiny_and() -> (Aig, Lit) {
    let mut g = Aig::new();
    let a = g.input();
    let b = g.input();
    let y = g.and(a, b);
    g.set_output("y", y);
    (g, y)
}

#[test]
fn sat_on_simple_and() {
    let (g, y) = tiny_and();
    let mut s = Solver::new(&g, SolverOptions::default());
    assert_eq!(s.solve(y), Verdict::Sat(vec![true, true]));
}

#[test]
fn unsat_on_contradiction() {
    // y = (a & b) & !(a & b), built fresh so it stays a real gate.
    let mut g = Aig::new();
    let a = g.input();
    let b = g.input();
    let p = g.and(a, b);
    let q = g.and_fresh(a, b);
    let y = g.and_fresh(p, !q);
    g.set_output("y", y);
    let mut s = Solver::new(&g, SolverOptions::default());
    assert!(s.solve(y).is_unsat());
}

#[test]
fn constant_objectives() {
    let (g, _) = tiny_and();
    let mut s = Solver::new(&g, SolverOptions::default());
    assert!(s.solve(Lit::TRUE).is_sat());
    assert!(s.solve(Lit::FALSE).is_unsat());
}

#[test]
fn complemented_objective() {
    let (g, y) = tiny_and();
    let mut s = Solver::new(&g, SolverOptions::default());
    match s.solve(!y) {
        Verdict::Sat(model) => {
            assert!(!(model[0] && model[1]), "needs a&b = 0");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn solver_is_reusable_across_calls() {
    let (g, y) = tiny_and();
    let mut s = Solver::new(&g, SolverOptions::default());
    assert!(s.solve(y).is_sat());
    assert!(s.solve(!y).is_sat());
    assert!(s.solve(y).is_sat());
    assert!(s.solve(Lit::FALSE).is_unsat());
    assert!(s.solve(y).is_sat());
}

#[test]
fn assumptions_api() {
    let (g, y) = tiny_and();
    let a = g.inputs()[0].lit();
    let b = g.inputs()[1].lit();
    let mut s = Solver::new(&g, SolverOptions::default());
    // y=1 forces a=1; assuming a=0 with y is contradictory.
    match s.solve_under(&[y, !a], &Budget::UNLIMITED, &mut NoOpObserver) {
        SubVerdict::UnsatUnderAssumptions(core) => {
            assert!(core.contains(&!a));
        }
        other => panic!("{other:?}"),
    }
    // Consistent assumptions.
    match s.solve_under(&[y, a, b], &Budget::UNLIMITED, &mut NoOpObserver) {
        SubVerdict::Sat(model) => assert_eq!(model, vec![true, true]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn learned_budget_aborts() {
    // A miter instance guaranteed to conflict a lot.
    let m = miter::self_miter(&generators::array_multiplier(4), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    let outcome = s.solve_under(&[m.objective], &Budget::learned(1), &mut NoOpObserver);
    // With a 1-clause budget the solve cannot complete (the instance
    // needs many conflicts) — unless it got refuted instantly.
    assert!(
        matches!(
            outcome,
            SubVerdict::Aborted(Interrupt::Learned) | SubVerdict::UnsatUnderAssumptions(_)
        ),
        "{outcome:?}"
    );
}

#[test]
fn memory_budget_triggers_reduction_not_wrong_answers() {
    // A moderately hard UNSAT miter with a tiny memory budget: the
    // emergency reduction must keep the arena bounded without changing
    // the verdict.
    let m = miter::self_miter(&generators::ripple_carry_adder(6), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    let budget = Budget::memory(64 * 1024);
    let verdict = s.solve_observed(m.objective, &budget, &mut NoOpObserver);
    assert_eq!(verdict, Verdict::Unsat);
    assert!(s.learned_memory_bytes() <= 64 * 1024);
}

#[test]
fn cancellation_aborts_promptly() {
    use csat_core::CancelToken;
    let m = miter::self_miter(&generators::array_multiplier(6), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::UNLIMITED.with_cancel(token);
    let verdict = s.solve_observed(m.objective, &budget, &mut NoOpObserver);
    assert_eq!(verdict, Verdict::Unknown(Interrupt::Cancelled));
}

#[test]
fn add_learned_clause_units_propagate() {
    let (g, y) = tiny_and();
    let a = g.inputs()[0].lit();
    let mut s = Solver::new(&g, SolverOptions::default());
    // Tell the solver a = 0 (which is *not* circuit-implied, but the
    // API trusts the caller): y can no longer be 1.
    s.add_learned_clause(vec![!a]).unwrap();
    assert!(s.solve(y).is_unsat());
}

#[test]
fn add_learned_clause_rejects_out_of_range_literals() {
    let (g, y) = tiny_and();
    let mut s = Solver::new(&g, SolverOptions::default());
    let bogus = Lit::new(NodeId::from_index(g.len() + 5), false);
    let err = s.add_learned_clause(vec![bogus]).unwrap_err();
    assert_eq!(err.vars, g.len());
    assert_eq!(err.lit, bogus);
    // The solver is still usable.
    assert!(s.solve(y).is_sat());
}

#[test]
fn add_learned_clause_handles_tautology_and_duplicates() {
    let (g, y) = tiny_and();
    let a = g.inputs()[0].lit();
    let mut s = Solver::new(&g, SolverOptions::default());
    s.add_learned_clause(vec![a, !a]).unwrap(); // dropped
    s.add_learned_clause(vec![a, a, a]).unwrap(); // unit after dedup
    match s.solve(y) {
        Verdict::Sat(model) => assert!(model[0]),
        other => panic!("{other:?}"),
    }
}

/// Cross-check the circuit solver against the CNF baseline on random
/// multi-level circuits, verifying SAT models by simulation.
fn cross_check(options: SolverOptions, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let g = generators::random_logic(seed, 8, 80, 3);
        for (_, out) in g.outputs().iter() {
            for objective in [*out, !*out] {
                let mut s = Solver::new(&g, options);
                if options.implicit_learning {
                    let c =
                        csat_sim::find_correlations(&g, &csat_sim::SimulationOptions::default());
                    s.set_correlations(&c);
                }
                let circuit_verdict = s.solve(objective);
                let enc = tseitin::encode_with_objective(&g, objective);
                let cnf_verdict =
                    csat_cnf::Solver::new(&enc.cnf, csat_cnf::SolverOptions::default()).solve();
                match (&circuit_verdict, &cnf_verdict) {
                    (Verdict::Sat(model), Verdict::Sat(_)) => {
                        let values = g.evaluate(model);
                        assert!(
                            g.lit_value(&values, objective),
                            "seed {seed}: bogus model for {objective:?}"
                        );
                    }
                    (Verdict::Unsat, Verdict::Unsat) => {}
                    other => panic!("seed {seed}: verdict mismatch {other:?}"),
                }
            }
        }
    }
}

#[test]
fn cross_check_jnode_mode() {
    cross_check(SolverOptions::default(), 0..6);
}

#[test]
fn cross_check_plain_vsids_mode() {
    cross_check(SolverOptions::plain_csat(), 0..6);
}

#[test]
fn cross_check_implicit_learning() {
    cross_check(SolverOptions::with_implicit_learning(), 0..6);
}

#[test]
fn cross_check_luby_lbd_phase_saving() {
    // Satellite coverage: the kernel policies (Luby restarts, LBD-aware
    // reduction, phase saving) must stay sound on the circuit backend.
    let options = SolverOptions::builder()
        .restart(csat_core::RestartPolicy::Luby { unit: 32 })
        .reduction(csat_core::ReductionPolicy::LbdActivity { glue_keep: 2 })
        .phase_saving(true)
        .build();
    cross_check(options, 0..6);
}

#[test]
fn miter_of_equivalent_adders_is_unsat_in_all_modes() {
    let left = generators::ripple_carry_adder(5);
    let right = generators::carry_lookahead_adder(5);
    let m = miter::build(&left, &right, Default::default());
    for options in [
        SolverOptions::default(),
        SolverOptions::plain_csat(),
        SolverOptions::with_implicit_learning(),
    ] {
        let mut s = Solver::new(&m.aig, options);
        if options.implicit_learning {
            let c = csat_sim::find_correlations(&m.aig, &csat_sim::SimulationOptions::default());
            s.set_correlations(&c);
        }
        assert!(s.solve(m.objective).is_unsat(), "{options:?}");
    }
}

#[test]
fn miter_of_different_circuits_finds_distinguishing_input() {
    let left = generators::ripple_carry_adder(4);
    // Sneak a bug in: drop the carry into bit 3 by using a fresh adder
    // with one output replaced.
    let mut right = Aig::new();
    let right_inputs: Vec<Lit> = (0..left.inputs().len()).map(|_| right.input()).collect();
    let outs = miter::import(&mut right, &left, &right_inputs);
    for (k, (name, _)) in left.outputs().iter().enumerate() {
        if k == 2 {
            // Corrupt sum2.
            right.set_output(name.clone(), !outs[k]);
        } else {
            right.set_output(name.clone(), outs[k]);
        }
    }
    let m = miter::build(&left, &right, Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    match s.solve(m.objective) {
        Verdict::Sat(model) => {
            let values = m.aig.evaluate(&model);
            assert!(m.aig.lit_value(&values, m.objective));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn stats_accumulate() {
    let m = miter::self_miter(&generators::ripple_carry_adder(5), Default::default());
    let mut s = Solver::new(&m.aig, SolverOptions::default());
    assert!(s.solve(m.objective).is_unsat());
    let st = *s.stats();
    assert!(st.decisions > 0);
    assert!(st.conflicts > 0);
    assert!(st.propagations > 0);
}

#[test]
fn grouped_decisions_counted_with_implicit_learning() {
    let m = miter::self_miter(&generators::ripple_carry_adder(6), Default::default());
    let c = csat_sim::find_correlations(&m.aig, &csat_sim::SimulationOptions::default());
    let mut s = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    s.set_correlations(&c);
    assert!(s.solve(m.objective).is_unsat());
    assert!(
        s.stats().grouped_decisions > 0,
        "correlations must drive some decisions: {:?}",
        s.stats()
    );
}

#[test]
fn aggressive_restart_options_stay_sound() {
    let m = miter::self_miter(&generators::ripple_carry_adder(5), Default::default());
    let options = SolverOptions::builder()
        .restart(csat_core::RestartPolicy::BackjumpAverage {
            window: 8,
            threshold: 100.0, // restart every window
        })
        .build();
    let mut s = Solver::new(&m.aig, options);
    assert!(s.solve(m.objective).is_unsat());
}

#[test]
fn vliw_instances_solve_sat() {
    let (aig, objective) = generators::vliw_like(
        3,
        &generators::VliwOptions {
            inputs: 10,
            core_gates: 150,
            clauses: 80,
            clause_width: 3,
        },
    );
    let mut s = Solver::new(&aig, SolverOptions::default());
    match s.solve(objective) {
        Verdict::Sat(model) => {
            let values = aig.evaluate(&model);
            assert!(aig.lit_value(&values, objective));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn conflict_analysis_above_n_vars_levels() {
    // ROADMAP item 6 regression: duplicated already-TRUE assumptions each
    // open an *empty* decision level, so a conflict can be analyzed at a
    // decision level greater than the node count — the kernel's glue
    // stamp table (sized n_vars+1 up front) must grow rather than index
    // out of bounds. 6 nodes: inputs a/b, gates y=and(a,b), u=and(a,!b),
    // g=and(y,u); asserting g forces b=1 and b=0, a conflict that is
    // analyzed (not an early refuted-assumption return) at level > 6.
    let mut aig = Aig::new();
    let a = aig.input();
    let b = aig.input();
    let y = aig.and(a, b);
    let u = aig.and(a, !b);
    let g = aig.and(y, u);
    aig.set_output("g", g);
    for jnode in [false, true] {
        let opts = SolverOptions::builder().jnode_decisions(jnode).build();
        let mut s = Solver::new(&aig, opts);
        let mut assumptions = vec![a; 10];
        assumptions.push(g);
        let v = s.solve_under(&assumptions, &Budget::UNLIMITED, &mut NoOpObserver);
        assert!(matches!(
            v,
            SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_)
        ));
    }
}

#[test]
fn duplicated_assumptions_deep_levels() {
    // Same overflow family, swept: assumption lists with many duplicates
    // interleaved with contradictory outputs, at every depth from shallow
    // to well past the node count, under both decision heuristics.
    let mut aig = Aig::new();
    let a = aig.input();
    let b = aig.input();
    let c = aig.input();
    let y = aig.and(a, b);
    let z = aig.and(a, !b);
    let w = aig.and(c, y);
    let v = aig.and(c, z);
    aig.set_output("w", w);
    aig.set_output("v", v);

    for jnode in [false, true] {
        for k in 1..12 {
            let opts = SolverOptions::builder().jnode_decisions(jnode).build();
            let mut s = Solver::new(&aig, opts);
            let mut assumptions = vec![a; k];
            assumptions.push(w);
            assumptions.extend(vec![a; k]);
            assumptions.extend(vec![c; k]);
            assumptions.push(v);
            let _ = s.solve_under(&assumptions, &Budget::UNLIMITED, &mut NoOpObserver);
        }
    }
}
