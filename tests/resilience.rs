//! Resilience integration tests (always-on; see `fault_injection.rs` for
//! the feature-gated injected-fault suite).
//!
//! Covers the cooperative interrupt machinery end-to-end without any
//! injection: cancellation from another thread lands promptly and is
//! reported as `Unknown(Cancelled)`; memory budgets trigger clause-DB
//! reduction instead of wrong answers; the explicit-learning pass honors
//! an outer budget; and the `csat` CLI exits 0 with `s UNKNOWN` on an
//! interrupted run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use csat::core::{explicit, ExplicitOptions, Solver, SolverOptions};
use csat::netlist::{generators, miter};
use csat::par::{run_portfolio, JobVerdict, PortfolioOptions, PortfolioWorker, WorkerOutcome};
use csat::sim::{find_correlations, SimulationOptions};
use csat::telemetry::{MetricsRecorder, NoOpObserver, Observer};
use csat::types::{Budget, BudgetMeter, CancelToken, Interrupt, SearchStats, Verdict};

/// A self-miter hard enough that no solver configuration finishes it in
/// the few hundred milliseconds these tests allow.
fn hard_miter() -> csat::netlist::miter::Miter {
    miter::self_miter(&generators::array_multiplier(12), Default::default())
}

#[test]
fn cancellation_from_another_thread_lands_promptly() {
    let m = hard_miter();
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    let start = Instant::now();
    let verdict = solver.solve_observed(
        m.objective,
        &Budget::UNLIMITED.with_cancel(token),
        &mut NoOpObserver,
    );
    canceller.join().expect("canceller thread");
    assert_eq!(verdict, Verdict::Unknown(Interrupt::Cancelled));
    // Checkpoints run at every conflict and decision, so the latency from
    // token trip to abort is bounded by one propagation pass. Seconds of
    // slack keep this robust on loaded CI machines.
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "cancellation latency too high: {:?}",
        start.elapsed()
    );
}

#[test]
fn cnf_cancellation_from_another_thread_lands_promptly() {
    let m = hard_miter();
    let enc = csat::netlist::tseitin::encode_with_objective(&m.aig, m.objective);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let mut solver = csat::cnf::Solver::new(&enc.cnf, csat::cnf::SolverOptions::default());
    let verdict = solver.solve_observed(&Budget::UNLIMITED.with_cancel(token), &mut NoOpObserver);
    canceller.join().expect("canceller thread");
    assert_eq!(verdict, Verdict::Unknown(Interrupt::Cancelled));
}

#[test]
fn memory_budget_reduces_db_instead_of_answering_wrong() {
    // A real UNSAT miter under a budget far below what its learned clauses
    // want: the solver must either still prove UNSAT (after emergency
    // reductions) or abort with the Memory reason — never anything else.
    let m = miter::self_miter(&generators::array_multiplier(7), Default::default());
    let mut metrics = MetricsRecorder::default();
    let mut solver = Solver::new(&m.aig, SolverOptions::default());
    let verdict = solver.solve_observed(m.objective, &Budget::memory(16 * 1024), &mut metrics);
    match verdict {
        Verdict::Unsat => {
            // Finishing under this budget requires reductions to have fired.
            assert!(metrics.db_reductions > 0, "metrics: {metrics:?}");
        }
        Verdict::Unknown(Interrupt::Memory) => {
            assert_eq!(metrics.exhausted(Interrupt::Memory), 1);
        }
        other => panic!("unsound under memory pressure: {other:?}"),
    }
}

#[test]
fn explicit_pass_honors_a_cancelled_outer_budget() {
    let m = miter::self_miter(&generators::array_multiplier(6), Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    let token = CancelToken::new();
    token.cancel();
    let report = explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::UNLIMITED.with_cancel(token),
        &mut NoOpObserver,
    );
    assert_eq!(report.interrupted, Some(Interrupt::Cancelled));
    assert!(report.subproblems <= 1, "report: {report:?}");
    // The solver survives the interrupted pass and still solves.
    assert!(solver.solve(m.objective).is_unsat());
}

#[test]
fn explicit_pass_honors_an_expired_outer_clock() {
    let m = miter::self_miter(&generators::array_multiplier(6), Default::default());
    let correlations = find_correlations(&m.aig, &SimulationOptions::default());
    let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
    solver.set_correlations(&correlations);
    let report = explicit::run_budgeted_observed(
        &mut solver,
        &correlations,
        &ExplicitOptions::default(),
        &Budget::time(Duration::ZERO),
        &mut NoOpObserver,
    );
    assert_eq!(report.interrupted, Some(Interrupt::Timeout));
}

/// A scripted portfolio member: worker 0 "solves" the instance after a
/// short delay; every other worker spins on budget checkpoints (exactly
/// what the real kernel does at each conflict and decision) and records
/// how many it took before the cancellation landed.
struct ScriptedWorker<'a> {
    idx: usize,
    observed_checkpoints: &'a [AtomicU64],
    observed_cancelled: &'a [AtomicU64],
}

impl PortfolioWorker for ScriptedWorker<'_> {
    type Lit = u32;

    fn configure_export(&mut self, _: u32, _: usize, _: usize) {}

    fn take_exported(&mut self) -> Vec<(Vec<u32>, u32)> {
        Vec::new()
    }

    fn import_clause(&mut self, _: Vec<u32>) {}

    fn solve_round(&mut self, budget: &Budget, _: &mut dyn Observer) -> JobVerdict {
        if self.idx == 0 {
            std::thread::sleep(Duration::from_millis(30));
            return JobVerdict::Sat(vec![true]);
        }
        let mut meter = BudgetMeter::new(budget);
        loop {
            match meter.checkpoint(0, 0, 0, 0) {
                Some(reason) => {
                    self.observed_checkpoints[self.idx]
                        .store(meter.checkpoints(), Ordering::SeqCst);
                    if reason == Interrupt::Cancelled {
                        self.observed_cancelled[self.idx].store(1, Ordering::SeqCst);
                    }
                    return JobVerdict::Aborted(reason);
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn stats(&self) -> SearchStats {
        SearchStats::default()
    }
}

#[test]
fn portfolio_losers_observe_cancellation_within_bounded_checkpoints() {
    const WORKERS: usize = 4;
    let observed_checkpoints: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
    let observed_cancelled: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
    let workers: Vec<ScriptedWorker<'_>> = (0..WORKERS)
        .map(|idx| ScriptedWorker {
            idx,
            observed_checkpoints: &observed_checkpoints,
            observed_cancelled: &observed_cancelled,
        })
        .collect();
    let outcome = run_portfolio(workers, &PortfolioOptions::default(), &Budget::UNLIMITED);

    // Worker 0 wins with its model; every loser observed Cancelled through
    // the ordinary budget-checkpoint path, not a kill.
    assert_eq!(outcome.verdict, Verdict::Sat(vec![true]));
    assert_eq!(outcome.winner, Some(0));
    for idx in 1..WORKERS {
        assert_eq!(
            outcome.workers[idx].outcome,
            WorkerOutcome::Aborted(Interrupt::Cancelled),
            "worker {idx}: {:?}",
            outcome.workers[idx].outcome
        );
        assert_eq!(observed_cancelled[idx].load(Ordering::SeqCst), 1);
        // The winner finishes after ~30ms and losers checkpoint every
        // ~1ms, so cancellation must land within a bounded number of
        // checkpoints — generous slack for loaded CI machines, but far
        // below an unbounded spin.
        let checkpoints = observed_checkpoints[idx].load(Ordering::SeqCst);
        assert!(
            (1..=60_000).contains(&checkpoints),
            "worker {idx} took {checkpoints} checkpoints to see the cancellation"
        );
    }
    // Telemetry from all workers was merged: one win, all started.
    assert_eq!(outcome.metrics.workers_started, WORKERS as u64);
    assert_eq!(outcome.metrics.worker_wins, 1);
}

#[test]
fn cli_interrupted_run_exits_zero_with_unknown() {
    // Pigeonhole 8-into-7 in DIMACS: far beyond a zero-second timeout.
    let mut text = String::from("p cnf 56 204\n");
    let var = |p: usize, h: usize| p * 7 + h + 1;
    for p in 0..8 {
        for h in 0..7 {
            text.push_str(&format!("{} ", var(p, h)));
        }
        text.push_str("0\n");
    }
    for h in 0..7 {
        for p1 in 0..8 {
            for p2 in p1 + 1..8 {
                text.push_str(&format!("-{} -{} 0\n", var(p1, h), var(p2, h)));
            }
        }
    }
    let path = std::env::temp_dir().join(format!("csat-resilience-{}.cnf", std::process::id()));
    std::fs::write(&path, text).expect("write instance");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_csat"))
        .arg("--timeout")
        .arg("0")
        .arg(&path)
        .output()
        .expect("run csat");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}\nstdout: {stdout}\nstderr: {stderr}",
        out.status
    );
    assert!(stdout.contains("s UNKNOWN"), "stdout: {stdout}");
    assert!(stderr.contains("interrupted"), "stderr: {stderr}");
}
