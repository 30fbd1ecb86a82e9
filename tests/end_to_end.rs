//! End-to-end integration tests across the whole workspace: netlist
//! construction → simulation → both solvers → model verification.

use csat::core::{explicit, Budget, ExplicitOptions, Solver, SolverOptions, Verdict};
use csat::netlist::{bench, generators, miter, tseitin, two_level, Aig};
use csat::sim::{find_correlations, SimulationOptions};
use csat_telemetry::NoOpObserver;

/// The full paper pipeline on an equivalence-checking miter: simulate,
/// learn, solve; verify against the CNF baseline.
#[test]
fn full_pipeline_on_adder_miter() {
    let left = generators::ripple_carry_adder(10);
    let right = generators::carry_select_adder(10, 3);
    let m = miter::build_fresh(&left, &right, Default::default());

    // CNF baseline agrees the miter is UNSAT.
    let enc = tseitin::encode_with_objective(&m.aig, m.objective);
    let baseline = csat::cnf::Solver::new(&enc.cnf, Default::default()).solve();
    assert!(baseline.is_unsat());

    // Circuit solver with the full learning pipeline.
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    let report = explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED,
        &mut NoOpObserver,
    );
    assert!(report.subproblems > 0);
    assert!(solver.solve(m.objective).is_unsat());
}

/// A faulty circuit must yield a SAT miter whose model distinguishes the
/// two circuits.
#[test]
fn faulty_miter_produces_distinguishing_pattern() {
    let good = generators::carry_lookahead_adder(8);
    // Build a "bad" version by inverting one output.
    let mut bad = Aig::new();
    let inputs: Vec<_> = (0..good.inputs().len()).map(|_| bad.input()).collect();
    let outs = miter::import(&mut bad, &good, &inputs);
    for (k, (name, _)) in good.outputs().iter().enumerate() {
        let lit = if k == 5 { !outs[k] } else { outs[k] };
        bad.set_output(name.clone(), lit);
    }
    let m = miter::build_fresh(&good, &bad, Default::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    match solver.solve(m.objective) {
        Verdict::Sat(model) => {
            assert_ne!(good.evaluate_outputs(&model), bad.evaluate_outputs(&model));
        }
        other => panic!("expected SAT, got {other:?}"),
    }
}

/// `.bench` round trip feeds the solver identically.
#[test]
fn bench_roundtrip_preserves_solver_verdicts() {
    let circuit = generators::alu(4);
    let text = bench::write(&circuit);
    let reparsed = bench::parse(&text).expect("reparse");
    let m1 = miter::self_miter(&circuit, Default::default());
    let m2 = miter::self_miter(&reparsed, Default::default());
    let mut s1 = Solver::new(&m1.aig, SolverOptions::default());
    let mut s2 = Solver::new(&m2.aig, SolverOptions::default());
    assert!(s1.solve(m1.objective).is_unsat());
    assert!(s2.solve(m2.objective).is_unsat());
}

/// DIMACS → 2-level circuit → circuit solver agrees with the CNF solver.
#[test]
fn dimacs_two_level_flow_agrees_with_cnf_solver() {
    let sources = [
        // UNSAT: xor chain contradiction.
        "p cnf 3 6\n1 2 0\n-1 -2 0\n2 3 0\n-2 -3 0\n1 3 0\n-1 -3 0\n",
        // SAT.
        "p cnf 4 4\n1 2 0\n-2 3 0\n-3 -4 0\n4 1 0\n",
        // SAT with a unit.
        "p cnf 2 2\n1 0\n-1 2 0\n",
    ];
    for source in sources {
        let cnf = csat::netlist::cnf::Cnf::from_dimacs(source).expect("dimacs");
        let cnf_verdict = csat::cnf::Solver::new(&cnf, Default::default()).solve();
        let tl = two_level::from_cnf(&cnf);
        let mut solver = Solver::new(&tl.aig, SolverOptions::default());
        match (solver.solve(tl.objective), cnf_verdict) {
            (Verdict::Sat(inputs), Verdict::Sat(_)) => {
                let assignment = tl.cnf_assignment(&inputs);
                assert!(cnf.evaluate(&assignment), "{source}");
            }
            (Verdict::Unsat, Verdict::Unsat) => {}
            other => panic!("verdict mismatch on {source}: {other:?}"),
        }
    }
}

/// The multiplier miter — the C6288 reproduction — is solved by explicit
/// learning in well under a second.
#[test]
fn multiplier_miter_solved_by_explicit_learning() {
    let mult = generators::array_multiplier(10);
    let m = miter::self_miter(&mult, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    let start = std::time::Instant::now();
    explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED,
        &mut NoOpObserver,
    );
    assert!(solver.solve(m.objective).is_unsat());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "explicit learning should make this fast, took {:?}",
        start.elapsed()
    );
}

/// Structurally different multiplier architectures are equivalent.
#[test]
fn multiplier_architectures_are_equivalent() {
    let a = generators::array_multiplier(5);
    let b = generators::carry_save_multiplier(5);
    let m = miter::build(&a, &b, Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED,
        &mut NoOpObserver,
    );
    assert!(solver.solve(m.objective).is_unsat());
}

/// Learned clauses persist across queries and stay sound.
#[test]
fn incremental_queries_stay_sound() {
    let circuit = generators::comparator(8);
    let lt = circuit.output("lt").expect("lt output");
    let eq = circuit.output("eq").expect("eq output");
    let gt = circuit.output("gt").expect("gt output");
    let mut solver = Solver::new(&circuit, SolverOptions::default());
    // All three outcomes are individually reachable.
    for obj in [lt, eq, gt] {
        match solver.solve(obj) {
            Verdict::Sat(model) => {
                let values = circuit.evaluate(&model);
                assert!(circuit.lit_value(&values, obj));
            }
            other => panic!("{other:?}"),
        }
    }
    // But no two can hold at once.
    for (x, y) in [(lt, eq), (lt, gt), (eq, gt)] {
        use csat::core::{Budget, SubVerdict};
        match solver.solve_under(&[x, y], &Budget::UNLIMITED, &mut NoOpObserver) {
            SubVerdict::UnsatUnderAssumptions(_) | SubVerdict::Unsat => {}
            other => panic!("{x:?},{y:?} should exclude each other: {other:?}"),
        }
    }
}
