//! Fault-injection suite (requires `--features fault-injection`).
//!
//! Exercises every [`Interrupt`] reason end-to-end — structured verdict,
//! telemetry `BudgetExhausted` event, and (for panics) containment — by
//! forcing the failure at a deterministic budget checkpoint instead of
//! waiting for a real resource to run out.

#![cfg(feature = "fault-injection")]

use std::time::Duration;

use csat::core::{explicit, ExplicitOptions, Solver, SolverOptions};
use csat::netlist::{generators, miter};
use csat::sim::{find_correlations, SimulationOptions};
use csat::telemetry::{MetricsRecorder, NoOpObserver};
use csat::types::{Budget, FaultPlan, Interrupt, Verdict};

fn unsat_miter(bits: usize) -> csat::netlist::miter::Miter {
    miter::self_miter(&generators::array_multiplier(bits), Default::default())
}

/// One row per interrupt reason reachable from a plain solve: the budget
/// (or injected fault) that triggers it, the expected structured verdict,
/// and the matching telemetry counter.
#[test]
fn every_budget_reason_yields_its_structured_verdict() {
    let cases: Vec<(&str, Budget, Interrupt)> = vec![
        ("timeout", Budget::time(Duration::ZERO), Interrupt::Timeout),
        ("conflicts", Budget::conflicts(1), Interrupt::Conflicts),
        (
            "decisions",
            Budget {
                max_decisions: Some(2),
                ..Budget::UNLIMITED
            },
            Interrupt::Decisions,
        ),
        (
            "memory",
            Budget::UNLIMITED.with_fault(FaultPlan::memory_at(4)),
            Interrupt::Memory,
        ),
        (
            "cancelled",
            Budget::UNLIMITED.with_fault(FaultPlan::cancel_at(4)),
            Interrupt::Cancelled,
        ),
    ];
    let m = unsat_miter(8);
    for (name, budget, expected) in cases {
        let mut metrics = MetricsRecorder::default();
        let mut solver = Solver::new(&m.aig, SolverOptions::default());
        let verdict = solver.solve_observed(m.objective, &budget, &mut metrics);
        assert_eq!(
            verdict,
            Verdict::Unknown(expected),
            "case '{name}': wrong verdict"
        );
        assert_eq!(
            metrics.exhausted(expected),
            1,
            "case '{name}': BudgetExhausted event missing"
        );
        assert_eq!(metrics.exhausted_total(), 1, "case '{name}'");
    }
}

/// The CNF baseline honors injected faults identically.
#[test]
fn cnf_solver_honors_injected_faults() {
    let m = unsat_miter(6);
    let enc = csat::netlist::tseitin::encode_with_objective(&m.aig, m.objective);
    for (plan, expected) in [
        (FaultPlan::memory_at(3), Interrupt::Memory),
        (FaultPlan::cancel_at(3), Interrupt::Cancelled),
    ] {
        let mut metrics = MetricsRecorder::default();
        let mut solver = csat::cnf::Solver::new(&enc.cnf, Default::default());
        let budget = Budget::UNLIMITED.with_fault(plan.clone());
        let verdict = solver.solve_observed(&budget, &mut metrics);
        assert_eq!(verdict, Verdict::Unknown(expected));
        assert!(plan.fired());
        assert_eq!(metrics.exhausted(expected), 1);
    }
}

/// A forced memory fault is sticky: the emergency DB reduction runs but
/// cannot satisfy it, so the solver must conclude `Memory` — and the fault
/// plan must report having fired exactly where scheduled.
#[test]
fn injected_memory_fault_fires_once_and_aborts() {
    let m = unsat_miter(8);
    let plan = FaultPlan::memory_at(6);
    let budget = Budget::memory(1 << 30).with_fault(plan.clone());
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    assert!(!plan.fired());
    let verdict = solver.solve_observed(m.objective, &budget, &mut NoOpObserver);
    assert_eq!(verdict, Verdict::Unknown(Interrupt::Memory));
    assert!(plan.fired());
}

/// A panic injected into one explicit-learning sub-solve is contained:
/// the pass reports it, rebuilds the solver, continues with the remaining
/// sub-problems, and the solver stays fully usable afterwards.
#[test]
fn injected_panic_in_one_subsolve_does_not_abort_the_pass() {
    let m = unsat_miter(6);
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    // Checkpoint counts restart per sub-solve and quickly-refuted
    // sub-problems may see none at all, so schedule the panic at the first
    // checkpoint any sub-solve reaches.
    let plan = FaultPlan::panic_at(1);
    let mut metrics = MetricsRecorder::default();
    let report = explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED.with_fault(plan.clone()),
        &mut metrics,
    );
    assert!(plan.fired(), "the scheduled panic never triggered");
    assert_eq!(report.panicked, 1, "report: {report:?}");
    assert!(
        report.subproblems > 1,
        "pass stopped at the panic instead of continuing: {report:?}"
    );
    assert_eq!(report.interrupted, None, "a panic is not an interrupt");
    assert_eq!(metrics.subproblems_panicked, 1);
    // The rebuilt solver still proves the miter UNSAT.
    assert!(solver.solve(m.objective).is_unsat());
}

/// The differential fuzzer treats a panicking oracle as a disagreement
/// (finding), never as an abstention, and the panic does not take down the
/// other oracles on the same instance.
#[test]
fn fuzz_oracle_panic_is_reported_not_fatal() {
    // A hand-built hard instance: every oracle needs well over the five
    // checkpoints the fault is scheduled at, so it reliably fires in the
    // first oracle of the matrix.
    let m = unsat_miter(6);
    let instance = csat::fuzz::Instance {
        seed: 0,
        kind: csat::fuzz::InstanceKind::EquivMiter,
        aig: m.aig.clone(),
        objective: m.objective,
        cnf: None,
    };
    let matrix = csat::fuzz::oracles(csat::fuzz::Matrix::Quick);
    let plan = FaultPlan::panic_at(5);
    let budget = Budget::conflicts(10_000).with_fault(plan.clone());
    let report = csat::fuzz::check_instance(&instance, &matrix, &budget, None);
    assert!(plan.fired(), "the scheduled panic never triggered");
    let panicked = report.outcomes.iter().filter(|o| o.panicked).count();
    assert_eq!(panicked, 1, "exactly one oracle absorbs the one-shot fault");
    assert_eq!(
        report.outcomes.len(),
        matrix.len(),
        "remaining oracles must still run: {report:?}"
    );
    let disagreement = report.disagreement.as_deref().unwrap_or_default();
    assert!(
        disagreement.contains("panicked"),
        "panic must surface as a finding, got: {report:?}"
    );
}
