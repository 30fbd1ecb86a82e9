//! Integration tests for the explicit-learning pipeline: soundness must
//! hold for every combination of correlation mode, ordering and partial
//! fraction, on both SAT and UNSAT instances.

use csat::core::{
    explicit, Budget, CorrelationMode, ExplicitOptions, Solver, SolverOptions, SubproblemOrdering,
    Verdict,
};
use csat::netlist::{generators, miter, optimize};
use csat::sim::{find_correlations, SimulationOptions};
use csat::telemetry::NoOpObserver;

fn all_option_grid() -> Vec<ExplicitOptions> {
    let mut grid = Vec::new();
    for mode in [
        CorrelationMode::Pairs,
        CorrelationMode::Constants,
        CorrelationMode::Both,
    ] {
        for ordering in [
            SubproblemOrdering::Topological,
            SubproblemOrdering::Reverse,
            SubproblemOrdering::Random(99),
        ] {
            for fraction in [0.3, 0.7, 1.0] {
                grid.push(ExplicitOptions {
                    mode,
                    ordering,
                    fraction,
                    ..Default::default()
                });
            }
        }
    }
    grid
}

#[test]
fn unsat_miter_stays_unsat_under_all_option_combinations() {
    let circuit = generators::ripple_carry_adder(5);
    let m = miter::self_miter(&circuit, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    for options in all_option_grid() {
        let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        explicit::run_budgeted_observed(
            &mut solver,
            &correlations,
            &options,
            &Budget::UNLIMITED,
            &mut NoOpObserver,
        );
        assert!(
            solver.solve(m.objective).is_unsat(),
            "unsound with {options:?}"
        );
    }
}

#[test]
fn sat_instance_stays_sat_under_all_option_combinations() {
    let (aig, objective) = generators::vliw_like(
        42,
        &generators::VliwOptions {
            inputs: 10,
            core_gates: 90,
            clauses: 40,
            clause_width: 3,
        },
    );
    let correlations = find_correlations(&aig, &SimulationOptions::default());
    for options in all_option_grid() {
        let mut solver = Solver::new(&aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        explicit::run_budgeted_observed(
            &mut solver,
            &correlations,
            &options,
            &Budget::UNLIMITED,
            &mut NoOpObserver,
        );
        match solver.solve(objective) {
            Verdict::Sat(model) => {
                let values = aig.evaluate(&model);
                assert!(aig.lit_value(&values, objective), "bad model: {options:?}");
            }
            other => panic!("lost satisfiability with {options:?}: {other:?}"),
        }
    }
}

#[test]
fn opt_style_miter_benefits_from_explicit_learning() {
    let base = generators::alu(10);
    let variant = optimize::restructure_seeded(&base, 77);
    let m = miter::build_fresh(&base, &variant, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());

    // Plain solve conflicts.
    let mut plain = Solver::new(&m.aig, SolverOptions::default());
    assert!(plain.solve(m.objective).is_unsat());
    let plain_conflicts = plain.stats().conflicts;

    // Explicit learning first, then solve: the final solve needs fewer
    // conflicts than the plain run's total.
    let mut learned = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    learned.set_correlations(&correlations);
    explicit::run_budgeted_observed(
        &mut learned,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED,
        &mut NoOpObserver,
    );
    let before = learned.stats().conflicts;
    assert!(learned.solve(m.objective).is_unsat());
    let final_conflicts = learned.stats().conflicts - before;
    assert!(
        final_conflicts < plain_conflicts.max(1),
        "explicit learning should shrink the final solve: {final_conflicts} vs {plain_conflicts}"
    );
}

#[test]
fn learned_budget_is_respected_per_subproblem() {
    let circuit = generators::array_multiplier(6);
    let m = miter::self_miter(&circuit, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    // With a generous budget all sub-problems resolve; with a zero-ish
    // budget (clamped to 1) many abort — either way the final answer holds.
    for budget in [1, 10, 1000] {
        let mut solver = Solver::new(&m.aig, SolverOptions::default());
        let report = explicit::run_budgeted_observed(
            &mut solver,
            &correlations,
            &ExplicitOptions {
                learned_budget: budget,
                ..Default::default()
            },
            &Budget::UNLIMITED,
            &mut NoOpObserver,
        );
        assert_eq!(
            report.subproblems,
            report.refuted + report.aborted + report.satisfiable
        );
        assert!(solver.solve(m.objective).is_unsat(), "budget {budget}");
    }
}

#[test]
fn topological_ordering_never_slower_in_conflicts_on_multiplier() {
    // The paper's Table VI: topological beats reverse. Compare conflict
    // counts (stable across machines, unlike wall clock).
    let circuit = generators::array_multiplier(7);
    let m = miter::self_miter(&circuit, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let conflicts_for = |ordering: SubproblemOrdering| {
        let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
        solver.set_correlations(&correlations);
        explicit::run_budgeted_observed(
            &mut solver,
            &correlations,
            &ExplicitOptions {
                ordering,
                ..Default::default()
            },
            &Budget::UNLIMITED,
            &mut NoOpObserver,
        );
        assert!(solver.solve(m.objective).is_unsat());
        solver.stats().conflicts
    };
    let topo = conflicts_for(SubproblemOrdering::Topological);
    let reverse = conflicts_for(SubproblemOrdering::Reverse);
    assert!(
        topo <= reverse,
        "topological ({topo}) should need no more conflicts than reverse ({reverse})"
    );
}
