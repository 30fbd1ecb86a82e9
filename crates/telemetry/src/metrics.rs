//! Counters, histograms and the aggregating [`MetricsRecorder`].

use std::time::Duration;

use csat_types::Interrupt;

use crate::json::JsonObject;
use crate::{Observer, SolverEvent, SubproblemOutcome};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (for `i >= 1`) holds values with bit length `i`, i.e. the range
/// `[2^(i-1), 2^i)`. 33 buckets cover the full `u32` event payloads.
const BUCKETS: usize = 33;

/// A fixed-size logarithmic histogram over `u64` observations.
///
/// Observation is allocation-free and O(1): a value lands in the bucket of
/// its bit length, so bucket boundaries are powers of two — plenty for
/// distribution-shape questions like "are back-jumps mostly 1 level?".
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let bucket = (u64::BITS - v.leading_zeros()) as usize; // 0 for v=0
        self.buckets[bucket.min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Bucket counts; bucket `i >= 1` covers `[2^(i-1), 2^i)`, bucket 0
    /// covers exactly 0. Trailing empty buckets are trimmed.
    pub fn buckets(&self) -> &[u64] {
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        &self.buckets[..last]
    }

    /// Renders as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("count", self.count)
            .field_u64("sum", self.sum)
            .field_u64("max", self.max)
            .field_f64("mean", self.mean())
            .field_u64_array("log2_buckets", self.buckets());
        o.finish()
    }
}

/// The aggregate [`Observer`]: monotonic counters for every event kind
/// plus histograms of decision depth, back-jump distance and
/// learned-clause length.
///
/// One recorder can absorb a whole pipeline — simulation rounds, the
/// explicit-learning pass and the final solve — and its counters
/// reconcile with the solvers' own `Stats` (see the workspace integration
/// tests): `decisions`, `conflicts` and `restarts` match exactly, and
/// `learned` equals `Stats::learnt_clauses + Stats::deleted_clauses`
/// (the recorder counts learn events; the stats track the live database).
/// The one asymmetry is the CNF baseline's learned *units*, which are
/// asserted at the root rather than stored — the `learned_length`
/// histogram's bucket 1 counts exactly those.
#[derive(Clone, Debug, Default)]
pub struct MetricsRecorder {
    /// Branching decisions.
    pub decisions: u64,
    /// Decisions taken by implicit-learning signal grouping.
    pub grouped_decisions: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Clauses learned (including units).
    pub learned: u64,
    /// Restarts fired.
    pub restarts: u64,
    /// Clauses removed by database reductions.
    pub deleted_clauses: u64,
    /// Database reduction passes.
    pub db_reductions: u64,
    /// Learned clauses alive after the most recent database reduction.
    pub kept_clauses: u64,
    /// Budget-exhaustion returns by reason, indexed per
    /// [`Interrupt::index`] (see [`MetricsRecorder::exhausted`]).
    pub budget_exhausted: [u64; Interrupt::COUNT],
    /// Explicit-learning sub-problems started.
    pub subproblems: u64,
    /// ... of which refuted outright.
    pub subproblems_refuted: u64,
    /// ... of which aborted at the budget.
    pub subproblems_aborted: u64,
    /// ... of which satisfiable (correlation did not hold).
    pub subproblems_satisfiable: u64,
    /// ... of which panicked and were contained by the isolation layer.
    pub subproblems_panicked: u64,
    /// Simulation rounds observed during correlation discovery.
    pub sim_rounds: u64,
    /// Total random patterns those rounds applied.
    pub sim_patterns: u64,
    /// Equivalence classes alive after the last observed round.
    pub sim_classes: u64,
    /// Assumption scopes pushed on incremental solvers.
    pub session_pushes: u64,
    /// Assumption scopes popped on incremental solvers.
    pub session_pops: u64,
    /// Learned clauses retained at the most recent between-solve
    /// simplification (the incremental-reuse gauge).
    pub clauses_retained: u64,
    /// Parallel workers started.
    pub workers_started: u64,
    /// Parallel workers finished (winners and losers alike).
    pub workers_finished: u64,
    /// ... of which supplied the adopted verdict.
    pub worker_wins: u64,
    /// Clause-sharing rounds observed across all workers.
    pub share_rounds: u64,
    /// Clauses published to peers across all sharing rounds.
    pub clauses_exported: u64,
    /// Peer clauses ingested across all sharing rounds.
    pub clauses_imported: u64,
    /// Cube-and-conquer subcubes solved to completion.
    pub cubes_solved: u64,
    /// ... of which were stolen from another worker's deque.
    pub cubes_stolen: u64,
    /// Served jobs admitted to the daemon queue.
    pub jobs_queued: u64,
    /// Served jobs that started solving on a daemon worker.
    pub jobs_started: u64,
    /// Served jobs that finished (any status).
    pub jobs_finished: u64,
    /// Served jobs retried once after a transient (memory) failure.
    pub jobs_retried: u64,
    /// Served jobs shed at admission (queue full, draining, open breaker).
    pub jobs_shed: u64,
    /// Deepest daemon queue observed across all enqueues (gauge).
    pub queue_depth_peak: u64,
    /// Preprocessing passes completed.
    pub prep_passes: u64,
    /// Nodes merged by SAT sweeping (proven-equivalent rewrites).
    pub nodes_merged: u64,
    /// Nodes dropped by cone pruning (dead logic + unobservable inputs).
    pub cones_pruned: u64,
    /// Depth (decision level) of every decision.
    pub decision_depth: Histogram,
    /// Back-jump distance of every conflict.
    pub backjump_distance: Histogram,
    /// Length of every learned clause.
    pub learned_length: Histogram,
}

impl Observer for MetricsRecorder {
    #[inline]
    fn record(&mut self, event: SolverEvent) {
        match event {
            SolverEvent::Decision { level, grouped } => {
                self.decisions += 1;
                self.grouped_decisions += grouped as u64;
                self.decision_depth.observe(level as u64);
            }
            SolverEvent::Conflict { backjump, .. } => {
                self.conflicts += 1;
                self.backjump_distance.observe(backjump as u64);
            }
            SolverEvent::Learn { literals } => {
                self.learned += 1;
                self.learned_length.observe(literals as u64);
            }
            SolverEvent::Restart => self.restarts += 1,
            SolverEvent::DbReduced { dropped, kept } => {
                self.db_reductions += 1;
                self.deleted_clauses += dropped;
                self.kept_clauses = kept;
            }
            SolverEvent::BudgetExhausted { reason } => {
                self.budget_exhausted[reason.index()] += 1;
            }
            SolverEvent::SubproblemStart { .. } => self.subproblems += 1,
            SolverEvent::SubproblemEnd { outcome, .. } => match outcome {
                SubproblemOutcome::Refuted | SubproblemOutcome::RootUnsat => {
                    self.subproblems_refuted += 1;
                }
                SubproblemOutcome::Aborted => self.subproblems_aborted += 1,
                SubproblemOutcome::Satisfiable => self.subproblems_satisfiable += 1,
                SubproblemOutcome::Panicked => self.subproblems_panicked += 1,
            },
            SolverEvent::SimRound {
                patterns, classes, ..
            } => {
                self.sim_rounds += 1;
                self.sim_patterns += patterns;
                self.sim_classes = classes;
            }
            SolverEvent::SessionPush { .. } => self.session_pushes += 1,
            SolverEvent::SessionPop { .. } => self.session_pops += 1,
            SolverEvent::ClausesRetained { clauses } => self.clauses_retained = clauses,
            SolverEvent::WorkerStart { .. } => self.workers_started += 1,
            SolverEvent::WorkerFinish { winner, .. } => {
                self.workers_finished += 1;
                self.worker_wins += winner as u64;
            }
            SolverEvent::ClausesShared {
                exported, imported, ..
            } => {
                self.share_rounds += 1;
                self.clauses_exported += exported as u64;
                self.clauses_imported += imported as u64;
            }
            SolverEvent::CubeSolved { stolen, .. } => {
                self.cubes_solved += 1;
                self.cubes_stolen += stolen as u64;
            }
            SolverEvent::JobQueued { depth, .. } => {
                self.jobs_queued += 1;
                self.queue_depth_peak = self.queue_depth_peak.max(depth as u64);
            }
            SolverEvent::JobStart { .. } => self.jobs_started += 1,
            SolverEvent::JobFinish { .. } => self.jobs_finished += 1,
            SolverEvent::JobRetried { .. } => self.jobs_retried += 1,
            SolverEvent::JobShed { .. } => self.jobs_shed += 1,
            SolverEvent::PrepPassCompleted { .. } => self.prep_passes += 1,
            SolverEvent::NodesMerged { nodes } => self.nodes_merged += nodes,
            SolverEvent::ConesPruned { nodes } => self.cones_pruned += nodes,
        }
    }
}

impl MetricsRecorder {
    /// Folds another recorder into this one: counters sum, gauges take
    /// the other's value when set, histograms merge bucket-wise. Used to
    /// combine per-worker recorders into one portfolio-wide report.
    pub fn merge(&mut self, other: &MetricsRecorder) {
        self.decisions += other.decisions;
        self.grouped_decisions += other.grouped_decisions;
        self.conflicts += other.conflicts;
        self.learned += other.learned;
        self.restarts += other.restarts;
        self.deleted_clauses += other.deleted_clauses;
        self.db_reductions += other.db_reductions;
        self.kept_clauses += other.kept_clauses;
        for (b, &o) in self
            .budget_exhausted
            .iter_mut()
            .zip(other.budget_exhausted.iter())
        {
            *b += o;
        }
        self.subproblems += other.subproblems;
        self.subproblems_refuted += other.subproblems_refuted;
        self.subproblems_aborted += other.subproblems_aborted;
        self.subproblems_satisfiable += other.subproblems_satisfiable;
        self.subproblems_panicked += other.subproblems_panicked;
        self.sim_rounds += other.sim_rounds;
        self.sim_patterns += other.sim_patterns;
        self.sim_classes = self.sim_classes.max(other.sim_classes);
        self.session_pushes += other.session_pushes;
        self.session_pops += other.session_pops;
        self.clauses_retained += other.clauses_retained;
        self.workers_started += other.workers_started;
        self.workers_finished += other.workers_finished;
        self.worker_wins += other.worker_wins;
        self.share_rounds += other.share_rounds;
        self.clauses_exported += other.clauses_exported;
        self.clauses_imported += other.clauses_imported;
        self.cubes_solved += other.cubes_solved;
        self.cubes_stolen += other.cubes_stolen;
        self.jobs_queued += other.jobs_queued;
        self.jobs_started += other.jobs_started;
        self.jobs_finished += other.jobs_finished;
        self.jobs_retried += other.jobs_retried;
        self.jobs_shed += other.jobs_shed;
        self.queue_depth_peak = self.queue_depth_peak.max(other.queue_depth_peak);
        self.prep_passes += other.prep_passes;
        self.nodes_merged += other.nodes_merged;
        self.cones_pruned += other.cones_pruned;
        self.decision_depth.merge(&other.decision_depth);
        self.backjump_distance.merge(&other.backjump_distance);
        self.learned_length.merge(&other.learned_length);
    }

    /// Budget-exhaustion returns recorded for `reason`.
    pub fn exhausted(&self, reason: Interrupt) -> u64 {
        self.budget_exhausted[reason.index()]
    }

    /// Budget-exhaustion returns recorded across all reasons.
    pub fn exhausted_total(&self) -> u64 {
        self.budget_exhausted.iter().sum()
    }

    /// Counters only, as a flat JSON object — the shape embedded in
    /// progress snapshots and bench rows. Per-reason exhaustion counters
    /// appear as `exhausted_<reason>` and are emitted only when non-zero
    /// (almost every run has none).
    pub fn counters_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("decisions", self.decisions)
            .field_u64("grouped_decisions", self.grouped_decisions)
            .field_u64("conflicts", self.conflicts)
            .field_u64("learned", self.learned)
            .field_u64("restarts", self.restarts)
            .field_u64("deleted_clauses", self.deleted_clauses)
            .field_u64("db_reductions", self.db_reductions)
            .field_u64("kept_clauses", self.kept_clauses)
            .field_u64("subproblems", self.subproblems)
            .field_u64("subproblems_refuted", self.subproblems_refuted)
            .field_u64("subproblems_aborted", self.subproblems_aborted)
            .field_u64("subproblems_satisfiable", self.subproblems_satisfiable)
            .field_u64("subproblems_panicked", self.subproblems_panicked)
            .field_u64("sim_rounds", self.sim_rounds)
            .field_u64("sim_patterns", self.sim_patterns)
            .field_u64("sim_classes", self.sim_classes)
            .field_u64("session_pushes", self.session_pushes)
            .field_u64("session_pops", self.session_pops)
            .field_u64("clauses_retained", self.clauses_retained)
            .field_u64("workers_started", self.workers_started)
            .field_u64("workers_finished", self.workers_finished)
            .field_u64("worker_wins", self.worker_wins)
            .field_u64("share_rounds", self.share_rounds)
            .field_u64("clauses_exported", self.clauses_exported)
            .field_u64("clauses_imported", self.clauses_imported)
            .field_u64("cubes_solved", self.cubes_solved)
            .field_u64("cubes_stolen", self.cubes_stolen)
            .field_u64("jobs_queued", self.jobs_queued)
            .field_u64("jobs_started", self.jobs_started)
            .field_u64("jobs_finished", self.jobs_finished)
            .field_u64("jobs_retried", self.jobs_retried)
            .field_u64("jobs_shed", self.jobs_shed)
            .field_u64("queue_depth_peak", self.queue_depth_peak)
            .field_u64("prep_passes", self.prep_passes)
            .field_u64("nodes_merged", self.nodes_merged)
            .field_u64("cones_pruned", self.cones_pruned);
        for reason in Interrupt::ALL {
            let n = self.exhausted(reason);
            if n != 0 {
                o.field_u64(&format!("exhausted_{}", reason.as_str()), n);
            }
        }
        o.finish()
    }

    /// Full metrics object: counters plus the three histograms.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_raw("counters", &self.counters_json())
            .field_raw("decision_depth", &self.decision_depth.to_json())
            .field_raw("backjump_distance", &self.backjump_distance.to_json())
            .field_raw("learned_length", &self.learned_length.to_json());
        o.finish()
    }

    /// One-line progress snapshot (JSONL row) at `elapsed` into the run.
    pub fn snapshot_json(&self, elapsed: Duration) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "progress")
            .field_f64("elapsed_s", elapsed.as_secs_f64())
            .field_raw("counters", &self.counters_json());
        o.finish()
    }

    /// End-of-run report: a verdict string, wall-clock time, and the full
    /// metrics — the document `--metrics-out` writes.
    pub fn report_json(&self, verdict: &str, elapsed: Duration) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "report")
            .field_str("verdict", verdict)
            .field_f64("elapsed_s", elapsed.as_secs_f64())
            .field_raw("metrics", &self.to_json());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1023);
        assert_eq!(h.sum(), 1048);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4,7 → bucket 3;
        // 8 → bucket 4; 1023 → bucket 10.
        assert_eq!(h.buckets(), &[1, 1, 2, 2, 1, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn recorder_aggregates_events() {
        let mut m = MetricsRecorder::default();
        m.record(SolverEvent::Decision {
            level: 1,
            grouped: false,
        });
        m.record(SolverEvent::Decision {
            level: 2,
            grouped: true,
        });
        m.record(SolverEvent::Conflict {
            level: 2,
            backjump: 1,
        });
        m.record(SolverEvent::Learn { literals: 4 });
        m.record(SolverEvent::Restart);
        m.record(SolverEvent::DbReduced {
            dropped: 12,
            kept: 30,
        });
        m.record(SolverEvent::BudgetExhausted {
            reason: Interrupt::Cancelled,
        });
        m.record(SolverEvent::SubproblemStart { index: 0 });
        m.record(SolverEvent::SubproblemEnd {
            index: 0,
            outcome: SubproblemOutcome::Refuted,
        });
        m.record(SolverEvent::SimRound {
            round: 1,
            patterns: 256,
            classes: 5,
        });
        m.record(SolverEvent::SessionPush { depth: 1 });
        m.record(SolverEvent::SessionPush { depth: 2 });
        m.record(SolverEvent::SessionPop { depth: 1 });
        m.record(SolverEvent::ClausesRetained { clauses: 17 });
        m.record(SolverEvent::PrepPassCompleted { pass: 1, nodes: 50 });
        m.record(SolverEvent::PrepPassCompleted { pass: 2, nodes: 40 });
        m.record(SolverEvent::NodesMerged { nodes: 7 });
        m.record(SolverEvent::ConesPruned { nodes: 3 });
        assert_eq!(m.decisions, 2);
        assert_eq!(m.grouped_decisions, 1);
        assert_eq!(m.conflicts, 1);
        assert_eq!(m.learned, 1);
        assert_eq!(m.restarts, 1);
        assert_eq!(m.deleted_clauses, 12);
        assert_eq!(m.kept_clauses, 30);
        assert_eq!(m.exhausted(Interrupt::Cancelled), 1);
        assert_eq!(m.exhausted_total(), 1);
        assert!(m.counters_json().contains("\"exhausted_cancelled\": 1"));
        assert!(!m.counters_json().contains("exhausted_timeout"));
        assert_eq!(m.subproblems, 1);
        assert_eq!(m.subproblems_refuted, 1);
        assert_eq!(m.sim_patterns, 256);
        assert_eq!(m.sim_classes, 5);
        assert_eq!(m.session_pushes, 2);
        assert_eq!(m.session_pops, 1);
        assert_eq!(m.clauses_retained, 17);
        assert_eq!(m.prep_passes, 2);
        assert_eq!(m.nodes_merged, 7);
        assert_eq!(m.cones_pruned, 3);
        assert!(m.counters_json().contains("\"session_pushes\": 2"));
        assert!(m.counters_json().contains("\"nodes_merged\": 7"));
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let mut m = MetricsRecorder::default();
        m.record(SolverEvent::Conflict {
            level: 3,
            backjump: 2,
        });
        let report = m.report_json("UNSAT", Duration::from_millis(1500));
        assert!(report.starts_with('{') && report.ends_with('}'));
        assert!(report.contains("\"verdict\": \"UNSAT\""));
        assert!(report.contains("\"elapsed_s\": 1.5"));
        assert!(report.contains("\"conflicts\": 1"));
        assert!(report.contains("\"backjump_distance\""));
    }
}
