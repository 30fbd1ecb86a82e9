//! Behavioral tests for the CNF CDCL baseline: classic benchmark families,
//! database reduction, restarts, and budget handling.

use csat_cnf::{Budget, Solver, SolverOptions, Verdict};
use csat_netlist::cnf::{Cnf, Lit, Var};
use csat_telemetry::NoOpObserver;

/// Pigeonhole principle: n+1 pigeons into n holes, always UNSAT.
fn pigeonhole(n: usize) -> Cnf {
    let pigeons = n + 1;
    let mut cnf = Cnf::with_vars(pigeons * n);
    let var = |p: usize, h: usize| Var((p * n + h) as u32);
    for p in 0..pigeons {
        cnf.add_clause((0..n).map(|h| var(p, h).positive()).collect());
    }
    for h in 0..n {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    cnf
}

/// Parity (XOR) chain: x1 ^ x2 ^ ... ^ xn = 1 with each XOR encoded over
/// auxiliary chain variables; satisfiable.
fn xor_chain(n: usize) -> Cnf {
    // c0 = false; c_i = c_{i-1} ^ x_i; assert c_n = true.
    // Variables: x1..xn are 0..n-1, c1..cn are n..2n-1.
    let mut cnf = Cnf::with_vars(2 * n);
    let x = |i: usize| Var(i as u32).positive();
    let c = |i: usize| Var((n + i - 1) as u32).positive(); // c_i, i >= 1
    for i in 1..=n {
        let prev: Option<Lit> = if i == 1 { None } else { Some(c(i - 1)) };
        let (ci, xi) = (c(i), x(i - 1));
        match prev {
            None => {
                // c1 = x1.
                cnf.add_clause(vec![!ci, xi]);
                cnf.add_clause(vec![ci, !xi]);
            }
            Some(p) => {
                // ci = p ^ xi.
                cnf.add_clause(vec![!ci, p, xi]);
                cnf.add_clause(vec![!ci, !p, !xi]);
                cnf.add_clause(vec![ci, !p, xi]);
                cnf.add_clause(vec![ci, p, !xi]);
            }
        }
    }
    cnf.add_unit(c(n));
    cnf
}

#[test]
fn pigeonhole_family_is_unsat() {
    for n in 2..=6 {
        let cnf = pigeonhole(n);
        let outcome = Solver::new(&cnf, SolverOptions::default()).solve();
        assert!(outcome.is_unsat(), "php({n})");
    }
}

#[test]
fn xor_chains_are_sat_with_odd_parity_models() {
    for n in [1usize, 2, 5, 16, 40] {
        let cnf = xor_chain(n);
        match Solver::new(&cnf, SolverOptions::default()).solve() {
            Verdict::Sat(model) => {
                assert!(cnf.evaluate(&model), "n={n}: model must satisfy");
                let parity = (0..n).filter(|&i| model[i]).count() % 2;
                assert_eq!(parity, 1, "n={n}: parity must be odd");
            }
            other => panic!("n={n}: {other:?}"),
        }
    }
}

#[test]
fn php_stats_show_learning_and_restarts() {
    let cnf = pigeonhole(7);
    let mut solver = Solver::new(
        &cnf,
        SolverOptions::builder()
            .restart(csat_cnf::RestartPolicy::Geometric {
                first: 20,
                factor: 1.1,
            })
            .build(),
    );
    assert!(solver.solve().is_unsat());
    let stats = *solver.stats();
    assert!(stats.conflicts > 100);
    assert!(stats.restarts > 0);
    assert!(stats.learnt_clauses > 0 || stats.deleted_clauses > 0);
}

#[test]
fn clause_db_reduction_fires_with_tiny_threshold() {
    // max_learnts = max(clauses/3, 1000); make the instance conflict-heavy
    // enough to cross 1000 learned clauses.
    let cnf = pigeonhole(8);
    let mut solver = Solver::new(&cnf, SolverOptions::default());
    assert!(solver.solve().is_unsat());
    // php(8) takes thousands of conflicts; reduction must have fired.
    assert!(
        solver.stats().deleted_clauses > 0,
        "stats: {:?}",
        solver.stats()
    );
}

#[test]
fn time_budget_is_respected() {
    use std::time::{Duration, Instant};
    let cnf = pigeonhole(10);
    let mut solver = Solver::new(&cnf, SolverOptions::default());
    let start = Instant::now();
    let outcome =
        solver.solve_observed(&Budget::time(Duration::from_millis(100)), &mut NoOpObserver);
    // Either it solved fast or it gave up near the deadline.
    if let Verdict::Unknown(reason) = outcome {
        assert_eq!(reason, csat_cnf::Interrupt::Timeout);
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}

#[test]
fn assignment_independent_formulas_solved_repeatedly() {
    // Fresh solvers on the same formula agree.
    let cnf = xor_chain(12);
    let a = Solver::new(&cnf, SolverOptions::default()).solve();
    let b = Solver::new(&cnf, SolverOptions::default()).solve();
    assert_eq!(a.is_sat(), b.is_sat());
}

#[test]
fn unit_only_formula() {
    let mut cnf = Cnf::with_vars(4);
    for v in 0..4u32 {
        cnf.add_unit(Lit::new(Var(v), v % 2 == 0));
    }
    match Solver::new(&cnf, SolverOptions::default()).solve() {
        Verdict::Sat(model) => assert_eq!(model, vec![false, true, false, true]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn wide_clause_watching_works() {
    // One very wide clause plus units forcing all but the last literal
    // false: the watch must walk the clause and propagate the survivor.
    let n = 200;
    let mut cnf = Cnf::with_vars(n);
    cnf.add_clause((0..n as u32).map(|v| Var(v).positive()).collect());
    for v in 0..n as u32 - 1 {
        cnf.add_unit(Var(v).negative());
    }
    match Solver::new(&cnf, SolverOptions::default()).solve() {
        Verdict::Sat(model) => assert!(model[n - 1]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn graph_coloring_instances() {
    // 3-coloring of K3 is SAT; of K4 is UNSAT. Encode one-hot colors.
    let coloring = |vertices: usize, colors: usize| -> Cnf {
        let mut cnf = Cnf::with_vars(vertices * colors);
        let var = |v: usize, c: usize| Var((v * colors + c) as u32);
        for v in 0..vertices {
            cnf.add_clause((0..colors).map(|c| var(v, c).positive()).collect());
            for c1 in 0..colors {
                for c2 in c1 + 1..colors {
                    cnf.add_clause(vec![var(v, c1).negative(), var(v, c2).negative()]);
                }
            }
        }
        // Complete graph: all pairs adjacent.
        for v1 in 0..vertices {
            for v2 in v1 + 1..vertices {
                for c in 0..colors {
                    cnf.add_clause(vec![var(v1, c).negative(), var(v2, c).negative()]);
                }
            }
        }
        cnf
    };
    assert!(Solver::new(&coloring(3, 3), SolverOptions::default())
        .solve()
        .is_sat());
    assert!(Solver::new(&coloring(4, 3), SolverOptions::default())
        .solve()
        .is_unsat());
}
