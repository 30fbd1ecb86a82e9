//! Zero-cost-when-disabled observability for the csat solvers.
//!
//! The paper's value lies in *where* the solver spends its effort —
//! implicit-learning grouped decisions, explicit-learning sub-problems
//! aborted at the learned-gate budget, restarts driven by back-jump
//! distance. This crate is the plumbing that makes those choices visible
//! at runtime without taxing the search loop:
//!
//! * [`SolverEvent`] — a `Copy` event vocabulary shared by the circuit
//!   solver, the CNF baseline and the simulation engine. Emitting an event
//!   never allocates: every variant is a handful of machine words.
//! * [`Observer`] — the hook trait. Every method has a no-op default, so
//!   the zero-sized [`NoOpObserver`] compiles to nothing; solver entry
//!   points are generic over the observer, so the default path
//!   monomorphizes the hooks away entirely.
//! * [`MetricsRecorder`] — the aggregate implementation: monotonic
//!   counters plus log-scale [`Histogram`]s (decision depth, back-jump
//!   distance, learned-clause length), serializable to JSON without any
//!   external dependency via [`json::JsonObject`].
//! * [`ProgressObserver`] — wraps a recorder and periodically emits
//!   one-line JSON snapshots (JSONL) to any writer, which is what the
//!   CLIs' `--progress <secs>` flag uses; the final recorder state backs
//!   `--metrics-out <file.json>`.
//! * [`json`] — the workspace's one JSON codec: the writer behind every
//!   report, and the hardened reader `csat-serve` parses frames with.
//!
//! # Example
//!
//! ```
//! use csat_telemetry::{MetricsRecorder, Observer, SolverEvent};
//!
//! let mut metrics = MetricsRecorder::default();
//! metrics.record(SolverEvent::Decision { level: 3, grouped: false });
//! metrics.record(SolverEvent::Conflict { level: 3, backjump: 2 });
//! metrics.record(SolverEvent::Learn { literals: 5 });
//! assert_eq!(metrics.decisions, 1);
//! assert_eq!(metrics.conflicts, 1);
//! assert_eq!(metrics.learned_length.mean(), 5.0);
//! assert!(metrics.to_json().contains("\"decisions\": 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
mod progress;

pub use metrics::{Histogram, MetricsRecorder};
pub use progress::ProgressObserver;

use csat_types::Interrupt;

/// How an explicit-learning sub-problem ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubproblemOutcome {
    /// Every likely-conflicting orientation was refuted; its negation is
    /// now a learned clause.
    Refuted,
    /// Aborted at the learned-gate (or decision) budget — the paper's
    /// normal case.
    Aborted,
    /// At least one orientation was satisfiable (the correlation does not
    /// actually hold).
    Satisfiable,
    /// The sub-problem exposed a root-level contradiction: the whole
    /// instance is UNSAT.
    RootUnsat,
    /// A panic escaped the sub-solve and was contained by the isolation
    /// layer; the solver was rebuilt and the sequence continued.
    Panicked,
}

/// One solver event. All variants are plain `Copy` data — recording an
/// event performs no allocation, so even a fully-instrumented run only
/// pays for the arithmetic its observer does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverEvent {
    /// A branching decision was made at `level` (1-based: the level the
    /// decision opened). `grouped` marks implicit-learning grouped
    /// decisions (Algorithm IV.1 partner assignments).
    Decision {
        /// Decision level the decision opened.
        level: u32,
        /// True when chosen by implicit-learning signal grouping.
        grouped: bool,
    },
    /// A conflict was analyzed at `level`; the solver back-jumped
    /// `backjump` levels (the paper's restart policy watches the average
    /// of exactly this distance).
    Conflict {
        /// Decision level at which the conflict occurred.
        level: u32,
        /// Back-jump distance in levels.
        backjump: u32,
    },
    /// A clause of `literals` literals was learned.
    Learn {
        /// Length of the learned clause (1 = unit).
        literals: u32,
    },
    /// The restart policy fired.
    Restart,
    /// Learned-clause database reduction removed `dropped` clauses,
    /// keeping `kept` alive (pinned explicit-learning clauses, locked
    /// reasons, binaries and the hot half of the activity order).
    DbReduced {
        /// Clauses deleted by this reduction pass.
        dropped: u64,
        /// Learned clauses still alive after the pass.
        kept: u64,
    },
    /// A resource budget was exhausted (or the solve was cancelled): the
    /// solver is about to return an interrupted verdict carrying `reason`.
    BudgetExhausted {
        /// The structured interrupt reason.
        reason: Interrupt,
    },
    /// An explicit-learning sub-problem (0-based `index`) started.
    SubproblemStart {
        /// Position in the sub-problem sequence.
        index: u64,
    },
    /// The sub-problem at `index` finished.
    SubproblemEnd {
        /// Position in the sub-problem sequence.
        index: u64,
        /// How it ended.
        outcome: SubproblemOutcome,
    },
    /// One random-simulation round completed during correlation discovery.
    SimRound {
        /// 1-based round number.
        round: u64,
        /// Patterns applied this round.
        patterns: u64,
        /// Equivalence classes alive after refinement.
        classes: u64,
    },
    /// A solver pushed an assumption scope; `depth` is the
    /// scope-stack depth after the push.
    SessionPush {
        /// Scope-stack depth after the push.
        depth: u32,
    },
    /// A solver popped an assumption scope; `depth` is the
    /// scope-stack depth after the pop.
    SessionPop {
        /// Scope-stack depth after the pop.
        depth: u32,
    },
    /// An incremental solver simplified at the root before its next solve
    /// and retains `clauses` learned clauses from earlier calls — the
    /// reuse incremental solving exists to enable.
    ClausesRetained {
        /// Live learned clauses carried into this solve.
        clauses: u64,
    },
    /// A parallel worker (0-based) started searching.
    WorkerStart {
        /// Worker index within the portfolio.
        worker: u32,
    },
    /// A parallel worker finished; `winner` marks the worker whose
    /// verdict the portfolio adopted (losers report `false`, typically
    /// after observing cancellation).
    WorkerFinish {
        /// Worker index within the portfolio.
        worker: u32,
        /// True when this worker's verdict was adopted.
        winner: bool,
    },
    /// One clause-sharing round completed on a worker: `exported` clauses
    /// were published to peers and `imported` peer clauses were ingested.
    ClausesShared {
        /// Worker index within the portfolio.
        worker: u32,
        /// Clauses this worker published this round.
        exported: u32,
        /// Peer clauses this worker ingested this round.
        imported: u32,
    },
    /// A cube-and-conquer subcube was solved to completion on `worker`;
    /// `stolen` marks a cube taken from another worker's deque.
    CubeSolved {
        /// Worker index that solved the cube.
        worker: u32,
        /// True when the cube was stolen from another worker's deque.
        stolen: bool,
    },
    /// A served job (daemon sequence number `job`) was admitted to the
    /// bounded queue; `depth` is the queue depth after the enqueue.
    JobQueued {
        /// Daemon-wide job sequence number.
        job: u64,
        /// Queue depth right after this job was admitted.
        depth: u32,
    },
    /// A served job started solving on `worker`.
    JobStart {
        /// Daemon-wide job sequence number.
        job: u64,
        /// Daemon worker index executing the job.
        worker: u32,
    },
    /// A served job finished (any status — the result frame says which).
    JobFinish {
        /// Daemon-wide job sequence number.
        job: u64,
        /// Daemon worker index that executed the job.
        worker: u32,
    },
    /// A served job hit a transient failure (memory pressure) and is
    /// being retried once under a halved budget.
    JobRetried {
        /// Daemon-wide job sequence number.
        job: u64,
    },
    /// A served job was shed at admission (queue full, draining, or an
    /// open circuit breaker) and never ran.
    JobShed {
        /// Daemon-wide job sequence number.
        job: u64,
    },
    /// A preprocessing pass completed. `pass` is 1-based within the
    /// pipeline's fixed order (1 strash rebuild, 2 constant propagation +
    /// cone pruning, 3 simulation-guided candidate classes, 4 SAT-sweep
    /// rewrite); `nodes` is the AIG node count after the pass.
    PrepPassCompleted {
        /// 1-based position in the pass order.
        pass: u32,
        /// AIG nodes (constant + inputs + gates) after the pass.
        nodes: u64,
    },
    /// SAT sweeping proved `nodes` candidate equivalences and merged the
    /// later node of each pair into its representative.
    NodesMerged {
        /// Proven-equivalent nodes rewritten onto their representatives.
        nodes: u64,
    },
    /// Cone pruning dropped `nodes` nodes that sit outside the fanin cone
    /// of every preserved root (dead logic and unobservable inputs).
    ConesPruned {
        /// Nodes removed by the pruning pass.
        nodes: u64,
    },
}

/// Observer hook for solver events.
///
/// The single method has a no-op default; implementors override it to
/// aggregate, stream, or forward events. Solver entry points take
/// `&mut O where O: Observer + ?Sized`, so both a concrete observer
/// (statically dispatched, inlined away for [`NoOpObserver`]) and
/// `&mut dyn Observer` (one indirect call per event) work.
pub trait Observer {
    /// Called once per event, synchronously, from the solver hot path.
    #[inline]
    fn record(&mut self, event: SolverEvent) {
        let _ = event;
    }
}

/// The default observer: zero-sized, does nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoOpObserver;

impl Observer for NoOpObserver {}

impl Observer for &mut dyn Observer {
    #[inline]
    fn record(&mut self, event: SolverEvent) {
        (**self).record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_zero_sized_and_events_are_copy() {
        // The no-op path must not carry any state the optimizer has to
        // preserve, and events must never own heap data.
        assert_eq!(std::mem::size_of::<NoOpObserver>(), 0);
        fn assert_copy<T: Copy>() {}
        assert_copy::<SolverEvent>();
        assert_copy::<SubproblemOutcome>();
        // An event is a couple of machine words, nothing more.
        assert!(std::mem::size_of::<SolverEvent>() <= 32);
    }

    #[test]
    fn noop_observer_accepts_every_event() {
        let mut obs = NoOpObserver;
        for event in [
            SolverEvent::Decision {
                level: 1,
                grouped: true,
            },
            SolverEvent::Conflict {
                level: 1,
                backjump: 1,
            },
            SolverEvent::Learn { literals: 3 },
            SolverEvent::Restart,
            SolverEvent::DbReduced {
                dropped: 10,
                kept: 20,
            },
            SolverEvent::BudgetExhausted {
                reason: Interrupt::Memory,
            },
            SolverEvent::SubproblemStart { index: 0 },
            SolverEvent::SubproblemEnd {
                index: 0,
                outcome: SubproblemOutcome::Aborted,
            },
            SolverEvent::SubproblemEnd {
                index: 1,
                outcome: SubproblemOutcome::Panicked,
            },
            SolverEvent::SimRound {
                round: 1,
                patterns: 256,
                classes: 7,
            },
            SolverEvent::SessionPush { depth: 1 },
            SolverEvent::SessionPop { depth: 0 },
            SolverEvent::ClausesRetained { clauses: 42 },
            SolverEvent::WorkerStart { worker: 0 },
            SolverEvent::WorkerFinish {
                worker: 0,
                winner: true,
            },
            SolverEvent::ClausesShared {
                worker: 1,
                exported: 3,
                imported: 5,
            },
            SolverEvent::CubeSolved {
                worker: 2,
                stolen: true,
            },
            SolverEvent::JobQueued { job: 1, depth: 3 },
            SolverEvent::JobStart { job: 1, worker: 0 },
            SolverEvent::JobFinish { job: 1, worker: 0 },
            SolverEvent::JobRetried { job: 2 },
            SolverEvent::JobShed { job: 3 },
            SolverEvent::PrepPassCompleted {
                pass: 1,
                nodes: 100,
            },
            SolverEvent::NodesMerged { nodes: 12 },
            SolverEvent::ConesPruned { nodes: 30 },
        ] {
            obs.record(event);
        }
    }

    #[test]
    fn dyn_observer_forwards() {
        let mut metrics = MetricsRecorder::default();
        {
            let mut dynamic: &mut dyn Observer = &mut metrics;
            Observer::record(&mut dynamic, SolverEvent::Restart);
        }
        assert_eq!(metrics.restarts, 1);
    }
}
