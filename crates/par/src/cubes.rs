//! Cube-and-conquer: split on the most active variables, solve the
//! subcubes in parallel as assumption jobs.
//!
//! The splitter is the sequential solver itself: a bounded *probe* solve
//! first warms the VSIDS activities (and may settle the instance
//! outright), then the `k` most active unassigned variables become the
//! split set — every one of the `2^k` sign combinations is one subcube.
//! Each worker clones the probed solver (inheriting its learned-clause
//! database) and owns a deque of cubes; owners pop from the back while
//! idle workers steal from the front of the fullest peer deque, the
//! classic work-stealing arrangement that keeps an owner's hot end and a
//! thief's cold end from contending.
//!
//! Verdict accounting: a SAT cube is a global SAT; a cube refuted
//! *regardless* of its assumptions ([`JobVerdict::Unsat`]) is a global
//! UNSAT; and because the cubes enumerate every assignment of the split
//! variables, refuting all `2^k` of them under their assumptions is also
//! a global UNSAT. A cube abandoned to a budget poisons only the UNSAT
//! claim — the race keeps hunting for SAT in the remaining cubes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use csat_telemetry::{MetricsRecorder, Observer, SolverEvent};
use csat_types::{Budget, CancelToken, Interrupt, SearchStats, Verdict};

use crate::exchange::lock;
use crate::portfolio::{
    job_budget, merge_abort_reason, watchdog, Control, JobVerdict, ParOutcome, WorkerOutcome,
    WorkerReport,
};

/// One clonable backend instance for cube-and-conquer.
///
/// `probe` and `solve_cube` must share learned state (clones made after
/// the probe inherit its clause database), and literals built by
/// `make_lit` must be valid assumption literals for `solve_cube`.
pub trait CubeSolver: Send + Clone {
    /// The assumption-literal type.
    type Lit: Send + Copy;

    /// The assumption literal for variable `var` with the given sign.
    fn make_lit(&self, var: usize, negated: bool) -> Self::Lit;

    /// A bounded look at the whole instance; definitive verdicts end the
    /// run before any splitting.
    fn probe(&mut self, budget: &Budget, obs: &mut dyn Observer) -> JobVerdict;

    /// The variables to split on — at most `k`, most promising first
    /// (highest VSIDS activity after the probe).
    fn split_vars(&self, k: usize) -> Vec<usize>;

    /// Solves one subcube under `cube` as extra assumptions.
    fn solve_cube(
        &mut self,
        cube: &[Self::Lit],
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> JobVerdict;

    /// Cumulative kernel statistics.
    fn stats(&self) -> SearchStats;
}

/// Tuning knobs of the cube-and-conquer scheduler.
#[derive(Clone, Copy, Debug)]
pub struct CubeOptions {
    /// Variables to split on: `2^cube_vars` subcubes.
    pub cube_vars: usize,
    /// Conflict budget of the activity-warming probe solve.
    pub probe_conflicts: u64,
}

impl Default for CubeOptions {
    fn default() -> CubeOptions {
        CubeOptions {
            cube_vars: 4,
            probe_conflicts: 3_000,
        }
    }
}

/// Per-worker cube deques plus the refutation counter that turns
/// "every cube refuted under its assumptions" into a global UNSAT.
struct CubePool<L> {
    deques: Vec<Mutex<std::collections::VecDeque<Vec<L>>>>,
    total: usize,
    refuted: AtomicUsize,
    /// Set when any cube is abandoned to a budget: the covering argument
    /// breaks, so exhausting the counter no longer proves UNSAT.
    abandoned: AtomicBool,
}

impl<L> CubePool<L> {
    /// Owner end: LIFO on one's own deque.
    fn pop_own(&self, worker: usize) -> Option<Vec<L>> {
        lock(&self.deques[worker]).pop_back()
    }

    /// Thief end: FIFO steal from the fullest peer deque.
    fn steal(&self, worker: usize) -> Option<Vec<L>> {
        let victim = (0..self.deques.len())
            .filter(|&i| i != worker)
            .max_by_key(|&i| lock(&self.deques[i]).len())?;
        lock(&self.deques[victim]).pop_front()
    }

    /// Records one refuted cube; true when that was the last one and no
    /// cube was abandoned — the global UNSAT condition.
    fn record_refuted(&self) -> bool {
        let done = self.refuted.fetch_add(1, Ordering::AcqRel) + 1;
        done == self.total && !self.abandoned.load(Ordering::Acquire)
    }
}

/// Splits the instance held by `base` and conquers the subcubes on
/// `threads` workers under `budget`.
///
/// `base` should already carry any preprocessing (correlations, pushed
/// frames); the probe and all cube jobs run on clones of it.
pub fn run_cubes<S: CubeSolver>(
    mut base: S,
    threads: usize,
    options: &CubeOptions,
    budget: &Budget,
) -> ParOutcome {
    assert!(threads >= 1, "cube-and-conquer needs at least one worker");
    let start = Instant::now();
    let deadline = budget.max_time.map(|d| start + d);
    let control = Control::new();

    // Phase 1: the probe. Definitive answers end the run; an aborted
    // probe still leaves the activities warm for splitting.
    let mut probe_metrics = MetricsRecorder::default();
    let probe_budget = job_budget(budget, &control, start, Some(options.probe_conflicts));
    let probe_verdict = base.probe(&probe_budget, &mut probe_metrics);
    let definitive = match probe_verdict {
        JobVerdict::Sat(model) => Some(Verdict::Sat(model)),
        // The probe runs with no cube assumptions, so either UNSAT
        // flavor is global.
        JobVerdict::Unsat | JobVerdict::UnsatUnderAssumptions => Some(Verdict::Unsat),
        JobVerdict::Aborted(Interrupt::Conflicts) => None,
        // A non-conflict abort means the outer budget itself is spent.
        JobVerdict::Aborted(reason) => Some(Verdict::Unknown(reason)),
    };
    if let Some(verdict) = definitive {
        let outcome = match &verdict {
            Verdict::Sat(_) => WorkerOutcome::Sat,
            Verdict::Unsat => WorkerOutcome::Unsat,
            Verdict::Unknown(reason) => WorkerOutcome::Aborted(*reason),
        };
        let winner = !matches!(verdict, Verdict::Unknown(_));
        return ParOutcome {
            verdict,
            winner: if winner { Some(0) } else { None },
            workers: vec![WorkerReport {
                worker: 0,
                outcome,
                winner,
                rounds: 1,
                exported: 0,
                imported: 0,
                stats: base.stats(),
                metrics: probe_metrics.clone(),
            }],
            metrics: probe_metrics,
            elapsed: start.elapsed(),
        };
    }

    // Phase 2: split. Fewer unassigned actives than asked for is fine —
    // the cube set shrinks accordingly.
    let vars = base.split_vars(options.cube_vars);
    let cubes: Vec<Vec<S::Lit>> = (0..1usize << vars.len())
        .map(|mask| {
            vars.iter()
                .enumerate()
                .map(|(j, &v)| base.make_lit(v, mask >> j & 1 == 1))
                .collect()
        })
        .collect();
    let pool = CubePool {
        deques: (0..threads)
            .map(|_| Mutex::new(std::collections::VecDeque::new()))
            .collect(),
        total: cubes.len(),
        refuted: AtomicUsize::new(0),
        abandoned: AtomicBool::new(false),
    };
    for (i, cube) in cubes.into_iter().enumerate() {
        lock(&pool.deques[i % threads]).push_back(cube);
    }

    // Phase 3: conquer. Each worker clones the probed base (inheriting
    // its learned clauses) and races over the pool.
    let mut reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let (control, pool, base) = (&control, &pool, &base);
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let mut solver = base.clone();
                scope.spawn(move || cube_worker(i, &mut solver, pool, control, budget, start))
            })
            .collect();
        let dog = scope.spawn(move || watchdog(control, budget, deadline));
        let reports = handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                h.join().unwrap_or_else(|_| WorkerReport {
                    worker: i,
                    outcome: WorkerOutcome::Aborted(Interrupt::Panicked),
                    winner: false,
                    rounds: 0,
                    exported: 0,
                    imported: 0,
                    stats: SearchStats::default(),
                    metrics: MetricsRecorder::default(),
                })
            })
            .collect();
        control.shut_down();
        let _ = dog.join();
        reports
    });

    let outer_cancelled = budget
        .cancel
        .as_ref()
        .is_some_and(CancelToken::is_cancelled);
    let deadline_passed = deadline.is_some_and(|d| Instant::now() >= d);
    let (winner, verdict) = match control.into_winner() {
        Some((i, v)) => (Some(i), v),
        None => (
            None,
            Verdict::Unknown(merge_abort_reason(
                &reports,
                outer_cancelled,
                deadline_passed,
            )),
        ),
    };
    let mut metrics = probe_metrics;
    for report in &mut reports {
        report.winner = winner == Some(report.worker);
        metrics.merge(&report.metrics);
    }
    ParOutcome {
        verdict,
        winner,
        workers: reports,
        metrics,
        elapsed: start.elapsed(),
    }
}

fn cube_worker<S: CubeSolver>(
    idx: usize,
    solver: &mut S,
    pool: &CubePool<S::Lit>,
    control: &Control,
    outer: &Budget,
    start: Instant,
) -> WorkerReport {
    let mut metrics = MetricsRecorder::default();
    metrics.record(SolverEvent::WorkerStart { worker: idx as u32 });
    let mut jobs = 0u64;
    let mut won = false;
    let outcome = loop {
        if control.done() {
            break WorkerOutcome::Aborted(Interrupt::Cancelled);
        }
        let (cube, stolen) = match pool.pop_own(idx) {
            Some(c) => (c, false),
            None => match pool.steal(idx) {
                Some(c) => (c, true),
                // Pool empty: remaining cubes are in flight elsewhere.
                None => break WorkerOutcome::Aborted(Interrupt::Cancelled),
            },
        };
        let cube_budget = job_budget(outer, control, start, outer.max_conflicts);
        let verdict = solver.solve_cube(&cube, &cube_budget, &mut metrics);
        jobs += 1;
        metrics.record(SolverEvent::CubeSolved {
            worker: idx as u32,
            stolen,
        });
        match verdict {
            JobVerdict::Sat(model) => {
                won = control.try_win(idx, Verdict::Sat(model));
                break WorkerOutcome::Sat;
            }
            JobVerdict::Unsat => {
                won = control.try_win(idx, Verdict::Unsat);
                break WorkerOutcome::Unsat;
            }
            JobVerdict::UnsatUnderAssumptions => {
                if pool.record_refuted() {
                    won = control.try_win(idx, Verdict::Unsat);
                    break WorkerOutcome::Unsat;
                }
            }
            JobVerdict::Aborted(reason) => {
                // This cube is lost to the UNSAT covering argument, but
                // another cube may still be SAT — keep going unless the
                // whole run is being shut down.
                pool.abandoned.store(true, Ordering::Release);
                if matches!(reason, Interrupt::Cancelled) || control.done() {
                    break WorkerOutcome::Aborted(Interrupt::Cancelled);
                }
                break WorkerOutcome::Aborted(reason);
            }
        }
    };
    metrics.record(SolverEvent::WorkerFinish {
        worker: idx as u32,
        winner: won,
    });
    WorkerReport {
        worker: idx,
        outcome,
        winner: won,
        rounds: jobs,
        exported: 0,
        imported: 0,
        stats: solver.stats(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_pool_owner_pops_back_thief_steals_front() {
        let pool: CubePool<u32> = CubePool {
            deques: vec![
                Mutex::new([vec![1], vec![2], vec![3]].into_iter().collect()),
                Mutex::new(std::collections::VecDeque::new()),
            ],
            total: 3,
            refuted: AtomicUsize::new(0),
            abandoned: AtomicBool::new(false),
        };
        assert_eq!(pool.pop_own(0), Some(vec![3]));
        assert_eq!(pool.steal(1), Some(vec![1]));
        assert_eq!(pool.pop_own(1), None);
        assert_eq!(pool.pop_own(0), Some(vec![2]));
        assert_eq!(pool.steal(0), None);
    }

    #[test]
    fn refutation_counter_requires_all_cubes_and_no_abandonment() {
        let pool: CubePool<u32> = CubePool {
            deques: vec![],
            total: 2,
            refuted: AtomicUsize::new(0),
            abandoned: AtomicBool::new(false),
        };
        assert!(!pool.record_refuted());
        assert!(pool.record_refuted());

        let poisoned: CubePool<u32> = CubePool {
            deques: vec![],
            total: 1,
            refuted: AtomicUsize::new(0),
            abandoned: AtomicBool::new(true),
        };
        assert!(!poisoned.record_refuted());
    }
}
