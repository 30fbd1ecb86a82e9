//! The portfolio race: N diversified workers, first verdict wins.
//!
//! Control flow per worker is *round-chunked*: each round is one
//! `solve_under` call bounded by a per-round conflict budget. Learned
//! clauses, VSIDS activities and saved phases persist across rounds (the
//! kernel's contract), so chunking costs only the restart-to-root at each
//! round boundary — and buys a natural point for the clause exchange:
//! between rounds a worker drains its export buffer into its peers'
//! inboxes and ingests a bounded, glue-sorted batch from its own. No lock
//! is ever held inside a solve.
//!
//! Cancellation is cooperative and layered. The portfolio owns an
//! *internal* [`CancelToken`] carried by every round budget; the first
//! definitive verdict cancels it, and every losing worker observes
//! [`Interrupt::Cancelled`] at its next budget checkpoint (each conflict
//! or decision). The caller's outer budget is honored by a watchdog
//! thread that forwards outer cancellation and the outer deadline onto
//! the internal token, plus per-round accounting of the outer conflict
//! budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use csat_telemetry::{MetricsRecorder, Observer, SolverEvent};
use csat_types::{Budget, CancelToken, Interrupt, SearchStats, Verdict};

use crate::exchange::{lock, Exchange};

/// Result of one worker round or cube job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobVerdict {
    /// Satisfiable; backend model (same shape as [`Verdict::Sat`]).
    Sat(Vec<bool>),
    /// Unsatisfiable regardless of any assumptions — a global verdict.
    Unsat,
    /// Unsatisfiable under the job's assumption cube only (the cube is
    /// refuted; the instance may still be satisfiable elsewhere).
    UnsatUnderAssumptions,
    /// No answer within the round budget.
    Aborted(Interrupt),
}

/// How one worker's participation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Found a satisfying assignment.
    Sat,
    /// Proved unsatisfiability (in cube mode: refuted the final cube).
    Unsat,
    /// Stopped without a verdict for this reason. Losing workers report
    /// `Aborted(Interrupt::Cancelled)`.
    Aborted(Interrupt),
}

/// One backend instance raced by [`run_portfolio`].
///
/// Implemented by [`CircuitWorker`](crate::CircuitWorker) and
/// [`CnfWorker`](crate::CnfWorker); tests implement it directly to
/// exercise the race machinery with scripted workers.
pub trait PortfolioWorker: Send {
    /// The literal type clauses are exchanged in.
    type Lit: Send + Copy;

    /// Configures the kernel's clause-export filter (glue cap, length
    /// cap, buffer bound). Called once before the first round.
    fn configure_export(&mut self, glue_cap: u32, len_cap: usize, max_buffered: usize);

    /// Drains clauses learned since the last drain that passed the
    /// export filter.
    fn take_exported(&mut self) -> Vec<(Vec<Self::Lit>, u32)>;

    /// Ingests a clause learned by a peer (implied by the shared
    /// instance, so safe to pin).
    fn import_clause(&mut self, lits: Vec<Self::Lit>);

    /// One bounded search round. Learned state must persist across
    /// calls.
    fn solve_round(&mut self, budget: &Budget, obs: &mut dyn Observer) -> JobVerdict;

    /// Cumulative kernel statistics.
    fn stats(&self) -> SearchStats;
}

/// Tuning knobs of the portfolio race.
#[derive(Clone, Copy, Debug)]
pub struct PortfolioOptions {
    /// Conflicts per worker round (the clause-exchange cadence).
    pub round_conflicts: u64,
    /// Export filter: only clauses with glue ≤ this are shared (the
    /// classic "glue clause" bar is 2).
    pub export_glue_cap: u32,
    /// Export filter: only clauses with at most this many literals.
    pub export_len_cap: usize,
    /// Bound on a worker's un-drained export buffer.
    pub export_buffer: usize,
    /// Clauses a worker may import per round (spent lowest-glue-first).
    pub import_budget: usize,
    /// Bound on each worker's inbox; overflow is shed.
    pub inbox_capacity: usize,
}

impl Default for PortfolioOptions {
    fn default() -> PortfolioOptions {
        PortfolioOptions {
            round_conflicts: 2_000,
            export_glue_cap: 2,
            export_len_cap: 8,
            export_buffer: 256,
            import_budget: 64,
            inbox_capacity: 512,
        }
    }
}

/// Per-worker summary of a portfolio or cube run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// How this worker's participation ended.
    pub outcome: WorkerOutcome,
    /// True when this worker's verdict was adopted.
    pub winner: bool,
    /// Search rounds (portfolio) or cube jobs (cube mode) executed.
    pub rounds: u64,
    /// Clauses this worker exported to peers.
    pub exported: u64,
    /// Peer clauses this worker imported.
    pub imported: u64,
    /// Cumulative kernel statistics at exit.
    pub stats: SearchStats,
    /// This worker's full telemetry.
    pub metrics: MetricsRecorder,
}

/// Result of a parallel solve: the adopted verdict plus per-worker and
/// merged telemetry.
#[derive(Clone, Debug)]
pub struct ParOutcome {
    /// The adopted verdict.
    pub verdict: Verdict,
    /// Index of the worker whose verdict was adopted, if any.
    pub winner: Option<usize>,
    /// Per-worker reports, in worker order.
    pub workers: Vec<WorkerReport>,
    /// Every worker's telemetry merged into one recorder.
    pub metrics: MetricsRecorder,
    /// Wall-clock time of the whole parallel solve.
    pub elapsed: Duration,
}

/// Shared race state: the internal cancel token, the done latch and the
/// winner slot. Used by both the portfolio and the cube scheduler.
pub(crate) struct Control {
    pub(crate) cancel: CancelToken,
    done: AtomicBool,
    winner: Mutex<Option<(usize, Verdict)>>,
}

impl Control {
    pub(crate) fn new() -> Control {
        Control {
            cancel: CancelToken::new(),
            done: AtomicBool::new(false),
            winner: Mutex::new(None),
        }
    }

    /// True once a verdict was adopted (or the run was shut down).
    pub(crate) fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    pub(crate) fn shut_down(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Adopts `verdict` if no verdict has been adopted yet; cancels all
    /// other workers either way. Returns true for the winner.
    pub(crate) fn try_win(&self, worker: usize, verdict: Verdict) -> bool {
        let mut slot = lock(&self.winner);
        let won = if slot.is_none() {
            *slot = Some((worker, verdict));
            true
        } else {
            false
        };
        drop(slot);
        self.done.store(true, Ordering::Release);
        self.cancel.cancel();
        won
    }

    pub(crate) fn into_winner(self) -> Option<(usize, Verdict)> {
        self.winner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Forwards outer-budget cancellation and the outer deadline onto the
/// internal token so in-flight rounds stop promptly, then exits when the
/// run completes. Poll interval 2ms: cheap against any real solve,
/// responsive against Ctrl-C.
pub(crate) fn watchdog(control: &Control, outer: &Budget, deadline: Option<Instant>) {
    loop {
        if control.done() {
            return;
        }
        let outer_cancelled = outer.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let deadline_passed = deadline.is_some_and(|d| Instant::now() >= d);
        if outer_cancelled || deadline_passed {
            control.cancel.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Derives one round/cube budget from the outer budget: the caller's
/// limits minus what this worker already spent, with the internal cancel
/// token swapped in.
pub(crate) fn job_budget(
    outer: &Budget,
    control: &Control,
    start: Instant,
    max_conflicts: Option<u64>,
) -> Budget {
    let mut b = Budget::UNLIMITED
        .with_conflict_limit(max_conflicts)
        .with_time_limit(outer.max_time.map(|d| d.saturating_sub(start.elapsed())))
        .with_memory_limit(outer.max_memory_bytes)
        .with_cancel(control.cancel.clone());
    b.max_learned = outer.max_learned;
    b.max_decisions = outer.max_decisions;
    // Fault plans ride along so a served parallel job can be fault-
    // injected like a sequential one. The plan's armed flag is shared
    // across clones, so it still fires exactly once per outer solve no
    // matter how many round budgets are derived from it.
    #[cfg(feature = "fault-injection")]
    {
        b.fault = outer.fault.clone();
    }
    b
}

/// The most informative abort reason across all workers. Losers report
/// `Cancelled` whenever the watchdog fired, so a real resource reason
/// from any worker outranks it; a pure-deadline shutdown is translated
/// back to `Timeout`.
pub(crate) fn merge_abort_reason(
    reports: &[WorkerReport],
    outer_cancelled: bool,
    deadline_passed: bool,
) -> Interrupt {
    if outer_cancelled {
        return Interrupt::Cancelled;
    }
    let aborted = |r: &WorkerReport| match r.outcome {
        WorkerOutcome::Aborted(reason) => Some(reason),
        _ => None,
    };
    for preferred in [
        Interrupt::Timeout,
        Interrupt::Memory,
        Interrupt::Learned,
        Interrupt::Conflicts,
        Interrupt::Decisions,
        Interrupt::Panicked,
    ] {
        if reports.iter().filter_map(aborted).any(|r| r == preferred) {
            return preferred;
        }
    }
    if deadline_passed {
        Interrupt::Timeout
    } else {
        Interrupt::Cancelled
    }
}

/// Races `workers` (already built and diversified) under `budget`.
///
/// Blocks until a verdict is adopted or every worker exhausts the outer
/// budget. Panicking workers are contained: their report says
/// `Aborted(Panicked)` and the race continues without them.
pub fn run_portfolio<W: PortfolioWorker>(
    workers: Vec<W>,
    options: &PortfolioOptions,
    budget: &Budget,
) -> ParOutcome {
    assert!(!workers.is_empty(), "a portfolio needs at least one worker");
    let start = Instant::now();
    let deadline = budget.max_time.map(|d| start + d);
    let control = Control::new();
    let n = workers.len();
    let exchange: Exchange<W::Lit> = Exchange::new(n, options.inbox_capacity);
    let mut reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let (control, exchange) = (&control, &exchange);
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                scope.spawn(move || worker_loop(i, w, exchange, control, budget, options, start))
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
    let mut metrics = MetricsRecorder::default();
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

fn worker_loop<W: PortfolioWorker>(
    idx: usize,
    mut worker: W,
    exchange: &Exchange<W::Lit>,
    control: &Control,
    outer: &Budget,
    options: &PortfolioOptions,
    start: Instant,
) -> WorkerReport {
    let mut metrics = MetricsRecorder::default();
    metrics.record(SolverEvent::WorkerStart { worker: idx as u32 });
    worker.configure_export(
        options.export_glue_cap,
        options.export_len_cap,
        options.export_buffer,
    );
    let mut rounds = 0u64;
    let mut spent_conflicts = 0u64;
    let mut exported_total = 0u64;
    let mut imported_total = 0u64;
    let mut won = false;
    let outcome = loop {
        if control.done() {
            break WorkerOutcome::Aborted(Interrupt::Cancelled);
        }
        let mut round_cap = options.round_conflicts;
        if let Some(max) = outer.max_conflicts {
            let remaining = max.saturating_sub(spent_conflicts);
            if remaining == 0 {
                break WorkerOutcome::Aborted(Interrupt::Conflicts);
            }
            round_cap = round_cap.min(remaining);
        }
        let round_budget = job_budget(outer, control, start, Some(round_cap));
        if round_budget.max_time == Some(Duration::ZERO) {
            break WorkerOutcome::Aborted(Interrupt::Timeout);
        }
        let before = worker.stats().conflicts;
        let verdict = worker.solve_round(&round_budget, &mut metrics);
        rounds += 1;
        spent_conflicts += worker.stats().conflicts.saturating_sub(before);
        match verdict {
            JobVerdict::Sat(model) => {
                won = control.try_win(idx, Verdict::Sat(model));
                break WorkerOutcome::Sat;
            }
            JobVerdict::Unsat | JobVerdict::UnsatUnderAssumptions => {
                won = control.try_win(idx, Verdict::Unsat);
                break WorkerOutcome::Unsat;
            }
            JobVerdict::Aborted(Interrupt::Conflicts) => {
                // Round budget spent: the clause-exchange point.
                let exported = worker.take_exported();
                exchange.publish(idx, &exported);
                let inbox = exchange.drain(idx, options.import_budget);
                let imported = inbox.len();
                for (lits, _) in inbox {
                    worker.import_clause(lits);
                }
                metrics.record(SolverEvent::ClausesShared {
                    worker: idx as u32,
                    exported: exported.len() as u32,
                    imported: imported as u32,
                });
                exported_total += exported.len() as u64;
                imported_total += imported as u64;
            }
            JobVerdict::Aborted(reason) => break WorkerOutcome::Aborted(reason),
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
        rounds,
        exported: exported_total,
        imported: imported_total,
        stats: worker.stats(),
        metrics,
    }
}
