//! Telemetry integration tests: the [`MetricsRecorder`] counters must
//! reconcile with the solvers' own `Stats`, and the default no-op observer
//! must not change solver behavior.

use csat::core::{explicit, ExplicitOptions, Solver, SolverOptions};
use csat::netlist::{generators, miter, tseitin};
use csat::sim::{find_correlations_observed, SimulationOptions};
use csat::telemetry::{MetricsRecorder, NoOpObserver, Observer, SolverEvent};
use csat::types::{Budget, Interrupt, Verdict};

/// A miter that exercises the full pipeline: simulation rounds, explicit
/// sub-problems, implicit grouped decisions, conflicts and restarts.
fn adder_miter() -> csat::netlist::miter::Miter {
    let left = generators::ripple_carry_adder(10);
    let right = generators::carry_select_adder(10, 3);
    miter::build_fresh(&left, &right, Default::default())
}

/// One recorder absorbs the whole circuit-solver pipeline; its counters
/// must agree with `Solver::stats()` exactly: `decisions`, `conflicts`,
/// `restarts` and `grouped_decisions` match, and `learned` equals
/// `learnt_clauses + deleted_clauses` (events count learn calls, the stats
/// track the live database).
#[test]
fn recorder_reconciles_with_circuit_solver_stats() {
    let m = adder_miter();
    let mut metrics = MetricsRecorder::default();

    let correlations =
        find_correlations_observed(&m.aig, &SimulationOptions::default(), &mut metrics);
    assert!(metrics.sim_rounds > 0);
    assert!(metrics.sim_patterns >= metrics.sim_rounds);

    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    let report = explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED,
        &mut metrics,
    );
    assert_eq!(metrics.subproblems, report.subproblems as u64);
    assert_eq!(
        metrics.subproblems,
        metrics.subproblems_refuted + metrics.subproblems_aborted + metrics.subproblems_satisfiable
    );

    let verdict = solver.solve_observed(m.objective, &Budget::UNLIMITED, &mut metrics);
    assert!(verdict.is_unsat());

    let stats = *solver.stats();
    assert_eq!(metrics.decisions, stats.decisions);
    assert_eq!(metrics.grouped_decisions, stats.grouped_decisions);
    assert_eq!(metrics.conflicts, stats.conflicts);
    assert_eq!(metrics.restarts, stats.restarts);
    assert_eq!(
        metrics.learned,
        stats.learnt_clauses + stats.deleted_clauses
    );
    // The miter forces real search: the histograms must have absorbed it.
    assert_eq!(metrics.decision_depth.count(), metrics.decisions);
    assert_eq!(metrics.backjump_distance.count(), metrics.conflicts);
    assert_eq!(metrics.learned_length.count(), metrics.learned);
    assert!(metrics.conflicts > 0, "miter should not be conflict-free");
}

/// The same reconciliation for the CNF baseline on the Tseitin encoding.
/// Since the kernel extraction both backends account for learns
/// identically: every learned clause — including the length-1 learns the
/// solver asserts at the root instead of storing — counts towards
/// `learnt_clauses`, so the recorder's `learned` counter reconciles with
/// the stats symmetrically.
#[test]
fn recorder_reconciles_with_cnf_solver_stats() {
    let m = adder_miter();
    let enc = tseitin::encode_with_objective(&m.aig, m.objective);
    let mut metrics = MetricsRecorder::default();
    let mut solver = csat::cnf::Solver::new(&enc.cnf, Default::default());
    let verdict = solver.solve_observed(&Budget::UNLIMITED, &mut metrics);
    assert!(verdict.is_unsat());

    let stats = *solver.stats();
    assert_eq!(metrics.decisions, stats.decisions);
    assert_eq!(metrics.conflicts, stats.conflicts);
    assert_eq!(metrics.restarts, stats.restarts);
    assert_eq!(
        metrics.learned,
        stats.learnt_clauses + stats.deleted_clauses
    );
    assert!(metrics.conflicts > 0);
}

/// The JSON report carries exactly the counters the recorder holds.
#[test]
fn metrics_report_json_carries_the_counters() {
    let m = adder_miter();
    let mut metrics = MetricsRecorder::default();
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    let verdict = solver.solve_observed(m.objective, &Budget::UNLIMITED, &mut metrics);
    assert!(verdict.is_unsat());
    let report = metrics.report_json("UNSAT", std::time::Duration::from_secs(1));
    assert!(report.contains("\"verdict\": \"UNSAT\""));
    assert!(report.contains(&format!("\"decisions\": {}", metrics.decisions)));
    assert!(report.contains(&format!("\"conflicts\": {}", metrics.conflicts)));
    assert!(report.contains(&format!("\"restarts\": {}", metrics.restarts)));
    assert!(report.contains(&format!("\"learned\": {}", metrics.learned)));
}

/// The default observer is free: zero-sized, and the observed entry point
/// with a `NoOpObserver` reaches the identical verdict and stats as the
/// plain one on a deterministic solver.
#[test]
fn noop_observer_is_free_and_transparent() {
    assert_eq!(std::mem::size_of::<NoOpObserver>(), 0);

    let m = adder_miter();
    let mut plain = Solver::new(&m.aig, SolverOptions::default());
    let v1 = plain.solve(m.objective);
    let mut observed = Solver::new(&m.aig, SolverOptions::default());
    let v2 = observed.solve_observed(m.objective, &Budget::UNLIMITED, &mut NoOpObserver);
    assert_eq!(v1.is_unsat(), v2.is_unsat());
    assert_eq!(plain.stats(), observed.stats());
}

/// Events recorded through `&mut dyn Observer` — the CLIs' dispatch mode —
/// land in the recorder exactly as through static dispatch.
#[test]
fn dyn_dispatch_records_identically() {
    let events = [
        SolverEvent::Decision {
            level: 1,
            grouped: false,
        },
        SolverEvent::Conflict {
            level: 1,
            backjump: 1,
        },
        SolverEvent::Learn { literals: 2 },
        SolverEvent::Restart,
    ];
    let mut direct = MetricsRecorder::default();
    for e in events {
        direct.record(e);
    }
    let mut boxed = MetricsRecorder::default();
    {
        let dynamic: &mut dyn Observer = &mut boxed;
        for e in events {
            dynamic.record(e);
        }
    }
    assert_eq!(direct.counters_json(), boxed.counters_json());
}

/// A budgeted run that aborts must return `Unknown`, not a fabricated
/// verdict, and the recorder still reconciles with the partial stats.
#[test]
fn budget_abort_keeps_metrics_consistent() {
    let m = adder_miter();
    let mut metrics = MetricsRecorder::default();
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    let verdict = solver.solve_observed(m.objective, &Budget::conflicts(3), &mut metrics);
    assert_eq!(verdict, Verdict::Unknown(Interrupt::Conflicts));
    let stats = *solver.stats();
    assert_eq!(metrics.decisions, stats.decisions);
    assert_eq!(metrics.conflicts, stats.conflicts);
    assert!(metrics.conflicts >= 3);
    assert_eq!(metrics.exhausted(Interrupt::Conflicts), 1);
    assert_eq!(metrics.exhausted_total(), 1);
}
