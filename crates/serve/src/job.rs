//! Per-job fault domain: load, solve, isolate.
//!
//! Every served job runs inside its own fault domain:
//!
//! * its own [`Budget`] — wall clock, conflicts and a memory share from
//!   the [`crate::governor::MemoryGovernor`];
//! * its own [`CancelToken`], so a client `cancel` (or the watchdog)
//!   stops *this* job and nothing else;
//! * `catch_unwind` around the whole solve, so a panicking job becomes a
//!   `result` frame with `status: "panicked"` while the daemon keeps
//!   serving;
//! * a single retry with exponential backoff under a **halved** memory
//!   budget when the first attempt died of memory pressure — transient
//!   co-tenancy spikes recover, genuine hogs fail cleanly the second time.
//!
//! The [`JobObserver`] threads through every solver call, counting events
//! into a [`MetricsRecorder`], bumping the worker's heartbeat (what the
//! watchdog reads), and emitting job-tagged `progress` frames.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csat_netlist::{Aig, Lit};
use csat_pipeline::{load, solve, Format, Request};
use csat_telemetry::{MetricsRecorder, Observer, SolverEvent};
use csat_types::{Budget, CancelToken, Interrupt, Verdict};

use crate::breaker::fingerprint;
use crate::governor::MemoryGovernor;
use crate::protocol::{reply, JobSource, JobStatus, SolveRequest};
use crate::OutMsg;

/// Backoff before the single memory retry. Long enough for a transient
/// co-tenant spike to pass, short enough not to wedge a drain.
const RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// An instance loaded and ready to solve.
#[derive(Clone, Debug)]
pub struct LoadedInstance {
    /// The circuit (DIMACS inputs arrive via the two-level translation).
    pub aig: Aig,
    /// Objective literal (output choice and `negate` already applied).
    pub objective: Lit,
    /// FNV-1a fingerprint of the instance text — the circuit-breaker key.
    pub fingerprint: u64,
}

/// Resolves a job's [`JobSource`] into a solvable circuit. Errors are
/// client-safe strings (they become `reject` frames with
/// `reason: "invalid"`).
pub fn load_instance(req: &SolveRequest) -> Result<LoadedInstance, String> {
    let (text, format) = match &req.source {
        JobSource::Path(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            let format = Format::from_path(path).ok_or_else(|| {
                format!("'{path}': unrecognized extension (use .bench, .aag or .cnf)")
            })?;
            (text, format)
        }
        JobSource::Inline { format, text } => (text.clone(), *format),
    };
    let (aig, objective) = load(format, &text, req.output.as_deref(), req.negate)?;
    Ok(LoadedInstance {
        aig,
        objective,
        fingerprint: fingerprint(text.as_bytes()),
    })
}

/// Observer wrapped around every solver call a job makes: aggregates
/// metrics, keeps the worker's heartbeat fresh for the watchdog, and
/// emits job-tagged `progress` frames at the requested cadence.
pub struct JobObserver {
    /// Aggregated job telemetry (merged into the daemon recorder after
    /// the job finishes).
    pub recorder: MetricsRecorder,
    heartbeat: Arc<AtomicU64>,
    progress: Option<ProgressEmitter>,
    until_check: u32,
}

struct ProgressEmitter {
    out: Sender<OutMsg>,
    id: String,
    worker: u32,
    interval: Duration,
    started: Instant,
    last: Instant,
}

impl JobObserver {
    /// Events between clock checks for progress emission (heartbeats are
    /// bumped on every event regardless).
    const CHECK_EVERY: u32 = 256;

    /// A fresh observer for one job on one worker.
    pub fn new(
        heartbeat: Arc<AtomicU64>,
        progress: Option<(Sender<OutMsg>, String, u32, Duration)>,
    ) -> JobObserver {
        JobObserver {
            recorder: MetricsRecorder::default(),
            heartbeat,
            progress: progress.map(|(out, id, worker, interval)| ProgressEmitter {
                out,
                id,
                worker,
                interval,
                started: Instant::now(),
                last: Instant::now(),
            }),
            until_check: JobObserver::CHECK_EVERY,
        }
    }

    fn maybe_emit_progress(&mut self) {
        if let Some(p) = &mut self.progress {
            let now = Instant::now();
            if now.duration_since(p.last) >= p.interval {
                p.last = now;
                let frame = reply::progress(
                    &p.id,
                    p.worker,
                    now.duration_since(p.started).as_millis() as u64,
                    self.recorder.conflicts,
                    self.recorder.decisions,
                );
                // A gone writer just means the daemon is exiting.
                let _ = p.out.send(OutMsg::Line(frame));
            }
        }
    }
}

impl Observer for JobObserver {
    fn record(&mut self, event: SolverEvent) {
        self.recorder.record(event);
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = JobObserver::CHECK_EVERY;
            self.maybe_emit_progress();
        }
    }
}

/// Everything the server needs to report one finished job.
#[derive(Debug)]
pub struct ExecOutcome {
    /// How the job ended.
    pub status: JobStatus,
    /// Conflicts across the whole job (both attempts if retried).
    pub conflicts: u64,
    /// Decisions across the whole job.
    pub decisions: u64,
    /// Wall-clock from first attempt start to finish.
    pub elapsed_ms: u64,
    /// True when the job was re-run after a transient memory failure.
    pub retried: bool,
    /// Job telemetry, for merging into the daemon recorder.
    pub metrics: MetricsRecorder,
}

/// Runs one job to completion inside its fault domain. Never panics:
/// solver panics (including injected ones) are caught and reported as
/// [`JobStatus::Panicked`].
pub fn execute(
    req: &SolveRequest,
    instance: &LoadedInstance,
    governor: &MemoryGovernor,
    token: &CancelToken,
    heartbeat: Arc<AtomicU64>,
    progress_out: Sender<OutMsg>,
    worker: u32,
) -> ExecOutcome {
    let started = Instant::now();
    let make_obs = || {
        let progress = req.progress_ms.map(|ms| {
            (
                progress_out.clone(),
                req.id.clone(),
                worker,
                Duration::from_millis(ms),
            )
        });
        JobObserver::new(Arc::clone(&heartbeat), progress)
    };
    let budget = job_budget(req, governor.share(req.mem), token);
    let mut obs = make_obs();
    let first = attempt(req, instance, &budget, &mut obs);
    let mut metrics = obs.recorder;
    let mut retried = false;
    let status = match first {
        // Transient memory pressure: back off, then one retry under half
        // the share. `memory_at` style injected faults fire only once, so
        // the retry demonstrates recovery; a genuinely oversized instance
        // fails again and is reported as a memory abort.
        Some(Verdict::Unknown(Interrupt::Memory)) if !token.is_cancelled() => {
            retried = true;
            std::thread::sleep(RETRY_BACKOFF);
            // Derived from the first budget, not rebuilt from the request:
            // a cloned fault plan shares its armed flag, so an injected
            // transient fault that already fired stays fired — the retry
            // runs clean, which is the whole point of retrying.
            let retry_budget = budget
                .clone()
                .with_memory_limit(governor.retry_share(req.mem));
            let mut retry_obs = make_obs();
            let second = attempt(req, instance, &retry_budget, &mut retry_obs);
            metrics.merge(&retry_obs.recorder);
            match second {
                Some(v) => JobStatus::from_verdict(v),
                None => JobStatus::Panicked,
            }
        }
        Some(v) => JobStatus::from_verdict(v),
        None => JobStatus::Panicked,
    };
    ExecOutcome {
        conflicts: metrics.conflicts,
        decisions: metrics.decisions,
        elapsed_ms: started.elapsed().as_millis() as u64,
        retried,
        status,
        metrics,
    }
}

/// Builds the per-attempt budget from the request limits, the governor's
/// memory share and the job's own cancel token.
fn job_budget(req: &SolveRequest, mem_share: Option<u64>, token: &CancelToken) -> Budget {
    let budget = Budget::UNLIMITED
        .with_time_limit(req.timeout_ms.map(Duration::from_millis))
        .with_conflict_limit(req.conflicts)
        .with_memory_limit(mem_share)
        .with_cancel(token.clone());
    #[cfg(feature = "fault-injection")]
    let budget = match &req.fault {
        Some(spec) => budget.with_fault(csat_types::FaultPlan::new(spec.kind, spec.at)),
        None => budget,
    };
    budget
}

/// One solve attempt under one budget; `None` means it panicked.
fn attempt(
    req: &SolveRequest,
    instance: &LoadedInstance,
    budget: &Budget,
    obs: &mut JobObserver,
) -> Option<Verdict> {
    let result = catch_unwind(AssertUnwindSafe(|| solve_once(req, instance, budget, obs)));
    result.ok()
}

/// The actual solve, shared by the daemon and by tests that need a serial
/// reference answer for the same request (identical options ⇒ identical
/// verdict, which is what the chaos suite asserts).
///
/// A served job runs the pipeline's plain circuit flow: prep when asked,
/// then the J-node search with no correlation step. An interrupt during
/// prep (client cancel, watchdog, timeout, memory) ends the job with that
/// reason, and a SAT model is checked against the job's netlist before it
/// leaves the fault domain.
pub fn solve_once(
    req: &SolveRequest,
    instance: &LoadedInstance,
    budget: &Budget,
    obs: &mut JobObserver,
) -> Verdict {
    let request = Request {
        prep: req.prep,
        implicit: false,
        explicit: false,
        threads: req.threads,
        par_mode: req.mode,
        ..Request::new(&instance.aig, instance.objective)
    };
    let report = solve(&request, budget, obs);
    if let Some(outcome) = &report.parallel {
        obs.recorder.merge(&outcome.metrics);
    }
    report.verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_par::ParMode;
    use csat_prep::PrepLevel;
    use std::sync::mpsc;

    fn req_inline(id: &str, text: &str) -> SolveRequest {
        SolveRequest {
            id: id.to_string(),
            source: JobSource::Inline {
                format: Format::Bench,
                text: text.to_string(),
            },
            output: None,
            negate: false,
            threads: 1,
            mode: ParMode::Portfolio,
            prep: PrepLevel::Off,
            timeout_ms: None,
            conflicts: None,
            mem: None,
            progress_ms: None,
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    const AND2: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";

    // Parity of eight inputs, asserted to 1. Justifying an XOR output is
    // ambiguous, so the solver must branch — unlike AND2, this fixture is
    // guaranteed to reach budget checkpoints and emit observer events,
    // which cancellation, fault injection and heartbeats all hang off.
    const XOR8: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nINPUT(g)\nINPUT(h)\nOUTPUT(y)\nx1 = XOR(a, b)\nx2 = XOR(x1, c)\nx3 = XOR(x2, d)\nx4 = XOR(x3, e)\nx5 = XOR(x4, f)\nx6 = XOR(x5, g)\ny = XOR(x6, h)\n";

    fn run(req: &SolveRequest) -> ExecOutcome {
        let instance = load_instance(req).unwrap();
        let (tx, _rx) = mpsc::channel();
        execute(
            req,
            &instance,
            &MemoryGovernor::new(None, 1),
            &CancelToken::new(),
            Arc::new(AtomicU64::new(0)),
            tx,
            0,
        )
    }

    #[test]
    fn solves_a_tiny_instance_both_polarities() {
        let sat = run(&req_inline("j1", AND2));
        match sat.status {
            JobStatus::Sat(model) => assert_eq!(model, vec![true, true]),
            other => panic!("expected sat, got {other:?}"),
        }
        let mut negated = req_inline("j2", AND2);
        negated.negate = true;
        assert!(matches!(run(&negated).status, JobStatus::Sat(_)));
    }

    #[test]
    fn load_errors_are_client_safe_strings() {
        let mut bad = req_inline("j", "this is not bench");
        assert!(load_instance(&bad).unwrap_err().contains("bench parse"));
        bad.source = JobSource::Path("/no/such/file.bench".to_string());
        assert!(load_instance(&bad).unwrap_err().contains("cannot read"));
        bad.source = JobSource::Path("/etc/hostname".to_string());
        assert!(load_instance(&bad).unwrap_err().contains("extension"));
        let mut named = req_inline("j", AND2);
        named.output = Some("zz".to_string());
        assert!(load_instance(&named).unwrap_err().contains("no output"));
    }

    #[test]
    fn identical_text_gets_identical_fingerprints() {
        let a = load_instance(&req_inline("a", AND2)).unwrap();
        let b = load_instance(&req_inline("b", AND2)).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn cancelled_jobs_report_cancelled() {
        let req = req_inline("j", XOR8);
        let instance = load_instance(&req).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let (tx, _rx) = mpsc::channel();
        let out = execute(
            &req,
            &instance,
            &MemoryGovernor::new(None, 1),
            &token,
            Arc::new(AtomicU64::new(0)),
            tx,
            0,
        );
        assert_eq!(out.status, JobStatus::Unknown(Interrupt::Cancelled));
        assert!(!out.retried);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_panics_are_caught_not_propagated() {
        use crate::protocol::FaultSpec;
        let mut req = req_inline("j", XOR8);
        req.fault = Some(FaultSpec {
            kind: csat_types::FaultKind::Panic,
            at: 1,
        });
        let out = run(&req);
        assert_eq!(out.status, JobStatus::Panicked);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_memory_failures_retry_once_and_recover() {
        use crate::protocol::FaultSpec;
        let mut req = req_inline("j", XOR8);
        // Fires once: the first attempt dies of (forced) memory
        // exhaustion, the retry runs clean under half budget.
        req.fault = Some(FaultSpec {
            kind: csat_types::FaultKind::MemoryExhaustion,
            at: 1,
        });
        let out = run(&req);
        assert!(out.retried);
        assert!(matches!(out.status, JobStatus::Sat(_)), "{:?}", out.status);
    }

    #[test]
    fn prep_jobs_solve_with_lifted_models() {
        // XOR8 has no sweepable redundancy, but the strash/prune passes
        // still run; the verdict must match the prep-off answer and the
        // model must validate on the ORIGINAL netlist (the pipeline
        // asserts that, so a bad model would report `panicked`).
        for level in [PrepLevel::Light, PrepLevel::Full] {
            let mut req = req_inline("j", XOR8);
            req.prep = level;
            let out = run(&req);
            assert!(
                matches!(out.status, JobStatus::Sat(_)),
                "{level:?}: {:?}",
                out.status
            );
        }
    }

    #[test]
    fn cancelled_prep_jobs_abort_mid_sweep() {
        let mut req = req_inline("j", XOR8);
        req.prep = PrepLevel::Full;
        let instance = load_instance(&req).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let (tx, _rx) = mpsc::channel();
        let out = execute(
            &req,
            &instance,
            &MemoryGovernor::new(None, 1),
            &token,
            Arc::new(AtomicU64::new(0)),
            tx,
            0,
        );
        assert_eq!(out.status, JobStatus::Unknown(Interrupt::Cancelled));
    }

    #[test]
    fn heartbeat_moves_while_solving() {
        let req = req_inline("j", XOR8);
        let instance = load_instance(&req).unwrap();
        let beat = Arc::new(AtomicU64::new(0));
        let (tx, _rx) = mpsc::channel();
        execute(
            &req,
            &instance,
            &MemoryGovernor::new(None, 1),
            &CancelToken::new(),
            Arc::clone(&beat),
            tx,
            0,
        );
        assert!(beat.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn progress_frames_are_emitted_when_asked() {
        let mut req = req_inline("j", AND2);
        req.progress_ms = Some(1);
        // A tiny instance may finish before the first interval; don't
        // assert emission, just that asking for progress doesn't break.
        let out = run(&req);
        assert!(matches!(out.status, JobStatus::Sat(_)));
    }
}
