//! Combinational equivalence checking — the paper's flagship application.
//!
//! Builds two structurally different 16-bit adders (ripple-carry vs
//! carry-lookahead), miters them, and proves the miter unsatisfiable three
//! ways: with the CNF baseline, with the plain circuit solver, and with the
//! full correlation-guided explicit learning pipeline, printing the
//! run-time comparison the paper's Table V is about.
//!
//! ```sh
//! cargo run --release --example equivalence_checking
//! ```

use std::time::Instant;

use csat::core::{explicit, Budget, ExplicitOptions, Solver, SolverOptions};
use csat::netlist::{generators, miter, tseitin};
use csat::sim::{find_correlations, SimulationOptions};
use csat::telemetry::NoOpObserver;

fn main() {
    let left = generators::ripple_carry_adder(16);
    let right = generators::carry_lookahead_adder(16);
    let m = miter::build_fresh(&left, &right, Default::default());
    println!(
        "miter of rca16 vs cla16: {} AND gates, {} inputs",
        m.aig.and_count(),
        m.aig.inputs().len()
    );

    // 1. ZChaff-class CNF baseline on the Tseitin encoding.
    let t = Instant::now();
    let enc = tseitin::encode_with_objective(&m.aig, m.objective);
    let outcome = csat::cnf::Solver::new(&enc.cnf, Default::default()).solve();
    assert!(outcome.is_unsat(), "the adders are equivalent");
    println!("cnf baseline:      UNSAT in {:?}", t.elapsed());

    // 2. Circuit solver, no correlation learning.
    let t = Instant::now();
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    assert!(solver.solve(m.objective).is_unsat());
    println!("c-sat-jnode:       UNSAT in {:?}", t.elapsed());

    // 3. Full pipeline: random simulation, implicit + explicit learning.
    let t = Instant::now();
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    println!(
        "simulation: {} correlation pairs in {:?}",
        correlations.correlations.len(),
        correlations.elapsed
    );
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    let report = explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED,
        &mut NoOpObserver,
    );
    println!(
        "explicit learning: {} sub-problems ({} refuted, {} aborted)",
        report.subproblems, report.refuted, report.aborted
    );
    assert!(solver.solve(m.objective).is_unsat());
    println!("with learning:     UNSAT in {:?}", t.elapsed());
}
