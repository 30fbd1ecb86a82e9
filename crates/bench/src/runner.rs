//! The table runner: one configuration on one workload, through the
//! shipped pipeline ([`csat_pipeline::solve`]), with timing and a
//! soundness check against the workload's ground truth.

use std::time::{Duration, Instant};

use csat_core::{Budget, ExplicitOptions, Verdict};
use csat_pipeline::{Engine, Request};
use csat_telemetry::MetricsRecorder;

use crate::workload::{Expected, Workload};

/// What a run concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Satisfiable, model verified by simulation.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Timeout / budget exhausted (printed as `*`, like the paper's aborts).
    Timeout,
}

/// Timing and statistics of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub name: String,
    /// Verdict.
    pub outcome: RunOutcome,
    /// Solve time in seconds (excluding simulation).
    pub seconds: f64,
    /// Random-simulation time in seconds (correlation discovery).
    pub sim_seconds: f64,
    /// Number of explicit-learning sub-problems attempted, if the pass
    /// ran.
    pub subproblems: Option<usize>,
    /// Decisions made (0 when no search ran).
    pub decisions: u64,
    /// Conflicts analyzed (0 when no search ran).
    pub conflicts: u64,
    /// True when the verdict contradicts the workload's ground truth.
    pub unsound: bool,
    /// Telemetry metrics recorded during the run (counters + histograms).
    pub metrics: MetricsRecorder,
}

impl RunResult {
    /// Paper-style cell: seconds with 3 significant digits, or `*`.
    pub fn time_cell(&self) -> String {
        match self.outcome {
            RunOutcome::Timeout => "*".to_string(),
            _ => format_seconds(self.seconds),
        }
    }
}

/// Formats seconds the way the paper's tables do (2-3 significant digits).
pub fn format_seconds(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.3}")
    }
}

fn check(expected: Expected, outcome: RunOutcome) -> bool {
    !matches!(
        (expected, outcome),
        (_, RunOutcome::Timeout)
            | (Expected::Sat, RunOutcome::Sat)
            | (Expected::Unsat, RunOutcome::Unsat)
    )
}

/// Runs `engine`, after the `explicit` pass when given, on a workload
/// under one `timeout` for the whole run. The pipeline checks every SAT
/// model against the workload's netlist.
///
/// Simulation time (correlation discovery) is reported apart from solve
/// time, matching the paper's table layout.
pub fn run(
    workload: &Workload,
    engine: Engine,
    explicit: Option<ExplicitOptions>,
    timeout: Duration,
) -> RunResult {
    let start = Instant::now();
    let mut metrics = MetricsRecorder::default();
    let request = Request {
        engine,
        explicit,
        ..Request::new(&workload.aig, workload.objective)
    };
    let report = csat_pipeline::solve(&request, &Budget::time(timeout), &mut metrics);
    let seconds = start.elapsed().as_secs_f64();
    let sim_seconds = report
        .correlations
        .as_ref()
        .map_or(0.0, |c| c.elapsed.as_secs_f64());
    let outcome = match report.verdict {
        Verdict::Sat(_) => RunOutcome::Sat,
        Verdict::Unsat => RunOutcome::Unsat,
        Verdict::Unknown(_) => RunOutcome::Timeout,
    };
    let stats = report.stats.unwrap_or_default();
    RunResult {
        name: workload.name.clone(),
        outcome,
        seconds: seconds - sim_seconds,
        sim_seconds,
        subproblems: report.explicit.map(|x| x.subproblems),
        decisions: stats.decisions,
        conflicts: stats.conflicts,
        unsound: check(workload.expected, outcome),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{equiv_suite, vliw_suite, Scale};
    use csat_core::SolverOptions;

    const T: Duration = Duration::from_secs(30);

    fn baseline() -> Engine {
        Engine::Cnf(Default::default())
    }

    #[test]
    fn baseline_agrees_with_ground_truth_on_quick_equiv() {
        for w in equiv_suite(Scale::Quick).into_iter().take(2) {
            let r = run(&w, baseline(), None, T);
            assert!(!r.unsound, "{}: {:?}", r.name, r.outcome);
        }
    }

    #[test]
    fn circuit_solver_all_modes_on_quick_rows() {
        let suite = equiv_suite(Scale::Quick);
        let w = &suite[0];
        for (options, explicit) in [
            (SolverOptions::default(), None),
            (SolverOptions::plain_csat(), None),
            (SolverOptions::paper(), None),
            (SolverOptions::paper(), Some(ExplicitOptions::default())),
        ] {
            let r = run(w, Engine::Circuit(options), explicit, T);
            assert!(!r.unsound, "{}: {:?} with {options:?}", r.name, r.outcome);
            // Simulation runs only for learning, and the time split adds
            // up to a non-negative solve time.
            assert_eq!(r.sim_seconds > 0.0, options.implicit_learning);
            assert!(r.seconds >= 0.0);
        }
    }

    #[test]
    fn sat_instances_verify_models() {
        for w in vliw_suite(Scale::Quick, &[1, 2]) {
            let r = run(&w, Engine::Circuit(SolverOptions::paper()), None, T);
            assert_eq!(r.outcome, RunOutcome::Sat, "{}", r.name);
            let rb = run(&w, baseline(), None, T);
            assert_eq!(rb.outcome, RunOutcome::Sat, "{}", rb.name);
        }
    }

    #[test]
    fn explicit_reports_subproblem_count() {
        let suite = equiv_suite(Scale::Quick);
        let r = run(
            &suite[0],
            Engine::Circuit(SolverOptions::paper()),
            Some(ExplicitOptions::default()),
            T,
        );
        assert!(r.subproblems.unwrap_or(0) > 0);
    }

    #[test]
    fn format_seconds_matches_paper_style() {
        assert_eq!(format_seconds(215.4), "215");
        assert_eq!(format_seconds(3.812), "3.81");
        assert_eq!(format_seconds(0.13), "0.130");
    }
}
