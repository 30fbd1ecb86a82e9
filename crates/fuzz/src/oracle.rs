//! The multi-oracle harness.
//!
//! An *oracle* is one complete way of answering an instance. All but one
//! are a [`Request`] through the shipped pipeline
//! ([`csat_pipeline::solve`]): a circuit solver configuration (with or
//! without correlation discovery, implicit grouping and the explicit
//! learning pass), a prep level, the parallel layer, or the CNF baseline
//! on the Tseitin encoding. So each column checks exactly what `csat`,
//! `cec` and `csat-serve` ship, the witness step included. The one
//! exception, `cnf-direct`, solves the raw DIMACS formula, which the
//! pipeline only reads through its two-level circuit.
//!
//! [`check_instance`] runs every oracle of a matrix on one instance and
//! cross-checks:
//!
//! * **verdicts** — no oracle may answer SAT while another answers UNSAT
//!   (budget-limited `Unknown`s abstain);
//! * **models** — every SAT model must satisfy the instance under direct
//!   evaluation (the pipeline checks each one with
//!   [`csat_core::check_model`] and panics on a bad one;
//!   [`csat_cnf::check_model`] for `cnf-direct`);
//! * **proofs** — every sequential UNSAT answer is logged and re-checked
//!   by reverse unit propagation ([`csat_core::proof::verify_unsat`] /
//!   [`csat_cnf::proof::verify_unsat`]).
//!
//! Every sequential oracle is deterministic: budgets count conflicts,
//! simulation is seeded, and nothing consults the clock.

use std::panic::{catch_unwind, AssertUnwindSafe};

use csat_core::{ReductionPolicy, RestartPolicy, SolverOptions};
use csat_par::ParMode;
use csat_pipeline::{Engine, Request};
use csat_prep::PrepLevel;
use csat_sim::SimulationOptions;
use csat_telemetry::{MetricsRecorder, NoOpObserver, Observer};
use csat_types::{Budget, Interrupt, Verdict};

use crate::instances::Instance;

/// Which oracle matrix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    /// Three oracles: the J-node circuit solver with proof logging, the full
    /// paper configuration (implicit + explicit learning), and the CNF
    /// baseline on the Tseitin encoding with proof logging.
    Quick,
    /// Everything in [`Matrix::Quick`] plus plain-VSIDS, implicit-only,
    /// explicit-only, an aggressive-restart circuit configuration, a
    /// single-word simulation variant, an aggressive-restart CNF
    /// configuration, and the CNF solver on the raw formula (CNF-born
    /// instances only).
    Full,
    /// Incremental-trajectory differential testing: random interleavings
    /// of grow/push/assume/pop/solve on a long-lived session, checked
    /// against a fresh monolithic solver at every solve point (see
    /// [`crate::trajectory`]). This matrix drives sessions directly
    /// instead of the per-instance oracle list.
    Incremental,
    /// Serve-protocol frame fuzzing: seed-derived batches of malformed,
    /// truncated, mutated and duplicate-id JSONL frames thrown at the
    /// daemon's request parser, asserting it never panics, rejects with
    /// structured errors, and stays deterministic (see
    /// [`crate::serve_frames`]). Like [`Matrix::Incremental`], this
    /// matrix bypasses the per-instance oracle list.
    Serve,
    /// Preprocessing differential: the plain circuit solver (`prep-off`),
    /// the same solve behind light and full `csat_prep` pipelines
    /// (`prep-light`, `prep-full` — solved on the reduced netlist with
    /// models lifted back and checked on the *original* one), and the CNF
    /// baseline. Any verdict flip or unliftable model is a disagreement.
    Prep,
}

impl Matrix {
    /// Stable lowercase name (CLI `--matrix` value, JSONL field).
    pub fn name(self) -> &'static str {
        match self {
            Matrix::Quick => "quick",
            Matrix::Full => "full",
            Matrix::Incremental => "incremental",
            Matrix::Serve => "serve",
            Matrix::Prep => "prep",
        }
    }

    /// Parses a CLI `--matrix` value.
    pub fn parse(s: &str) -> Option<Matrix> {
        match s {
            "quick" => Some(Matrix::Quick),
            "full" => Some(Matrix::Full),
            "incremental" => Some(Matrix::Incremental),
            "serve" => Some(Matrix::Serve),
            "prep" => Some(Matrix::Prep),
            _ => None,
        }
    }
}

/// How one oracle answers an instance.
#[derive(Clone, Copy, Debug)]
enum Spec {
    /// The shipped pipeline on the request `request` makes for the
    /// instance, on `threads` workers.
    Solve {
        request: fn(&Instance) -> Request<'_>,
        threads: usize,
    },
    /// The CNF baseline on the raw source formula (skipped for instances
    /// that were not born as CNF).
    CnfDirect { options: csat_cnf::SolverOptions },
}

/// One named solver configuration of the matrix.
#[derive(Clone, Debug)]
pub struct Oracle {
    /// Stable name (JSONL rows, disagreement reports).
    pub name: &'static str,
    spec: Spec,
    /// Per-oracle learned-clause memory clamp layered on the run budget —
    /// lets one matrix column exercise DB reduction under memory pressure
    /// while the rest run unconstrained.
    mem_limit: Option<u64>,
}

/// A sequential pipeline column.
fn column(name: &'static str, request: fn(&Instance) -> Request<'_>) -> Oracle {
    Oracle {
        name,
        spec: Spec::Solve {
            request,
            threads: 1,
        },
        mem_limit: None,
    }
}

/// The paper's flow ([`Request::new`]: implicit and explicit learning,
/// so simulation runs first) with every UNSAT proof checked.
fn paper(i: &Instance) -> Request<'_> {
    Request {
        check_proof: true,
        ..Request::new(&i.aig, i.objective)
    }
}

/// The circuit engine with `options` and no explicit pass; simulation
/// runs only when `options` turn implicit learning on.
fn circuit(i: &Instance, options: SolverOptions) -> Request<'_> {
    Request {
        engine: Engine::Circuit(options),
        explicit: None,
        ..paper(i)
    }
}

/// The CNF baseline with `options` on the Tseitin encoding.
fn cnf(i: &Instance, options: csat_cnf::SolverOptions) -> Request<'_> {
    Request {
        engine: Engine::Cnf(options),
        explicit: None,
        ..paper(i)
    }
}

/// Builds the oracle list of a matrix.
///
/// [`Matrix::Incremental`] has no per-instance oracle list — the runner
/// drives [`crate::trajectory::check_trajectory`] directly — so it maps
/// to an empty vector.
pub fn oracles(matrix: Matrix) -> Vec<Oracle> {
    oracles_with_threads(matrix, 1)
}

/// Builds the oracle list of a matrix, appending the parallel columns
/// (`par-portfolio`, `par-cubes` on `threads` workers each) when
/// `threads > 1` — the parallel-vs-sequential differential: every
/// parallel verdict is cross-checked against the proof-backed sequential
/// oracles of the same matrix. Parallel runs log no proof; their UNSAT
/// answers are vouched for by that cross-check.
pub fn oracles_with_threads(matrix: Matrix, threads: usize) -> Vec<Oracle> {
    let mut list = oracles_sequential(matrix);
    if threads > 1 && !matches!(matrix, Matrix::Incremental | Matrix::Serve) {
        let parallel = |name, request| Oracle {
            name,
            spec: Spec::Solve { request, threads },
            mem_limit: None,
        };
        // As a served `"threads": N` job runs: learning off, so every
        // instance reaches the workers.
        list.push(parallel("par-portfolio", |i| Request {
            par_mode: ParMode::Portfolio,
            ..circuit(i, SolverOptions::default())
        }));
        // As `csat --threads N --par-mode cubes` runs: implicit learning
        // on, so simulation may answer first, and otherwise hands its
        // correlations to every worker.
        list.push(parallel("par-cubes", |i| Request {
            par_mode: ParMode::Cubes,
            ..paper(i)
        }));
    }
    list
}

fn oracles_sequential(matrix: Matrix) -> Vec<Oracle> {
    if matches!(matrix, Matrix::Incremental | Matrix::Serve) {
        return Vec::new();
    }
    if matrix == Matrix::Prep {
        // The preprocessing differential: the same kernel configuration
        // with no prep, light prep and full prep, cross-checked against
        // the independent CNF baseline. Verdicts must match columnwise
        // and every lifted model must validate on the original netlist.
        // Proofs are checked against the reduced netlist; constant
        // objectives carry none and are vouched for by the cross-check.
        return vec![
            column("prep-off", |i| circuit(i, SolverOptions::default())),
            column("prep-light", |i| Request {
                prep: PrepLevel::Light,
                ..circuit(i, SolverOptions::default())
            }),
            column("prep-full", |i| Request {
                prep: PrepLevel::Full,
                ..circuit(i, SolverOptions::default())
            }),
            column("cnf-tseitin", |i| cnf(i, Default::default())),
        ];
    }
    let mut list = vec![
        column("jnode", |i| circuit(i, SolverOptions::default())),
        column("paper-full", paper),
        column("cnf-tseitin", |i| cnf(i, Default::default())),
    ];
    if matrix == Matrix::Full {
        list.extend([
            column("plain-vsids", |i| circuit(i, SolverOptions::plain_csat())),
            column("implicit-only", |i| circuit(i, SolverOptions::paper())),
            column("explicit-only", |i| Request {
                engine: Engine::Circuit(SolverOptions::default()),
                ..paper(i)
            }),
            column("fast-restarts", |i| {
                let restart = RestartPolicy::BackjumpAverage {
                    window: 512,
                    threshold: 2.0,
                };
                circuit(i, SolverOptions::builder().restart(restart).build())
            }),
            // The kernel-policy column: Luby restarts, LBD-aware database
            // reduction and phase saving on the circuit backend — the
            // non-default `csat_types::SearchOptions` switches must never
            // change a verdict.
            column("jnode-kernel-policies", |i| {
                let options = SolverOptions::builder()
                    .restart(RestartPolicy::Luby { unit: 64 })
                    .reduction(ReductionPolicy::LbdActivity { glue_keep: 2 })
                    .phase_saving(true)
                    .build();
                circuit(i, options)
            }),
            column("implicit-sim1", |i| Request {
                simulation: SimulationOptions {
                    words: 1,
                    ..SimulationOptions::default()
                },
                ..circuit(i, SolverOptions::paper())
            }),
            column("cnf-fast-restarts", |i| {
                let options = csat_cnf::SolverOptions::builder()
                    .restart(csat_cnf::RestartPolicy::Geometric {
                        first: 32,
                        factor: 1.3,
                    })
                    .build();
                cnf(i, options)
            }),
            // Same kernel-policy sweep on the CNF backend.
            column("cnf-kernel-policies", |i| {
                let options = csat_cnf::SolverOptions::builder()
                    .restart(csat_cnf::RestartPolicy::Luby { unit: 64 })
                    .reduction(csat_cnf::ReductionPolicy::LbdActivity { glue_keep: 2 })
                    .phase_saving(true)
                    .build();
                cnf(i, options)
            }),
            Oracle {
                name: "cnf-direct",
                spec: Spec::CnfDirect {
                    options: csat_cnf::SolverOptions::default(),
                },
                mem_limit: None,
            },
            // Exercises emergency DB reduction and Memory aborts inside the
            // differential loop; its Unknowns abstain like any other.
            Oracle {
                mem_limit: Some(64 * 1024),
                ..column("jnode-tiny-mem", |i| circuit(i, SolverOptions::default()))
            },
        ]);
    }
    list
}

/// One oracle's answer on one instance, with the ground-truth checks.
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// The oracle's name.
    pub name: &'static str,
    /// Its verdict.
    pub verdict: Verdict,
    /// For SAT answers: did the model survive direct evaluation?
    pub model_ok: Option<bool>,
    /// For UNSAT answers: did the logged proof verify?
    pub proof_ok: Option<bool>,
    /// The oracle panicked mid-solve (caught; always a disagreement).
    pub panicked: bool,
}

impl OracleOutcome {
    /// `name=VERDICT` (the JSONL `verdicts` array element). Interrupted
    /// runs carry their reason, e.g. `jnode=UNKNOWN:memory`.
    pub fn label(&self) -> String {
        let v = match &self.verdict {
            _ if self.panicked => "PANIC".to_string(),
            Verdict::Sat(_) => "SAT".to_string(),
            Verdict::Unsat => "UNSAT".to_string(),
            Verdict::Unknown(reason) => format!("UNKNOWN:{reason}"),
        };
        format!("{}={v}", self.name)
    }
}

/// The cross-checked result of running a matrix on one instance.
#[derive(Clone, Debug)]
pub struct InstanceReport {
    /// Per-oracle answers, in matrix order (oracles inapplicable to the
    /// instance — `cnf-direct` on circuit-born instances — are omitted).
    pub outcomes: Vec<OracleOutcome>,
    /// Human-readable description of the first detected disagreement, if
    /// any: a SAT/UNSAT split, a model failing direct evaluation, or an
    /// UNSAT proof failing verification.
    pub disagreement: Option<String>,
}

/// Runs one oracle, isolating panics: a crash in one solver configuration
/// becomes an [`OracleOutcome::panicked`] report (and a disagreement), not
/// an abort of the whole differential run.
fn run_oracle(
    oracle: &Oracle,
    instance: &Instance,
    budget: &Budget,
    obs: &mut dyn Observer,
) -> Option<OracleOutcome> {
    let clamped;
    let budget = match oracle.mem_limit {
        Some(bytes) => {
            let limit = budget.max_memory_bytes.map_or(bytes, |b| b.min(bytes));
            clamped = budget.clone().with_memory_limit(Some(limit));
            &clamped
        }
        None => budget,
    };
    match catch_unwind(AssertUnwindSafe(|| {
        run_oracle_inner(oracle, instance, budget, obs)
    })) {
        Ok(outcome) => outcome,
        Err(_) => Some(OracleOutcome {
            name: oracle.name,
            verdict: Verdict::Unknown(Interrupt::Panicked),
            model_ok: None,
            proof_ok: None,
            panicked: true,
        }),
    }
}

/// Runs one oracle. `obs` absorbs solver events (pass a
/// [`MetricsRecorder`] to aggregate, [`NoOpObserver`] to discard).
fn run_oracle_inner(
    oracle: &Oracle,
    instance: &Instance,
    budget: &Budget,
    obs: &mut dyn Observer,
) -> Option<OracleOutcome> {
    match oracle.spec {
        Spec::Solve { request, threads } => {
            let request = Request {
                threads,
                ..request(instance)
            };
            let report = csat_pipeline::solve(&request, budget, obs);
            Some(OracleOutcome {
                name: oracle.name,
                // `solve` checks every model on the instance and panics
                // on a bad one.
                model_ok: report.verdict.is_sat().then_some(true),
                proof_ok: report.proof.map(|p| p.is_ok()),
                verdict: report.verdict,
                panicked: false,
            })
        }
        Spec::CnfDirect { options } => {
            let cnf = instance.cnf.as_ref()?;
            let mut solver = csat_cnf::Solver::new(cnf, options);
            solver.start_proof();
            let verdict = solver.solve_observed(budget, &mut *obs);
            let (model_ok, proof_ok) = match &verdict {
                Verdict::Sat(model) => (Some(csat_cnf::check_model(cnf, model)), None),
                Verdict::Unsat => {
                    let proof = solver.take_proof();
                    (
                        None,
                        Some(csat_cnf::proof::verify_unsat(cnf, &proof).is_ok()),
                    )
                }
                Verdict::Unknown(_) => (None, None),
            };
            Some(OracleOutcome {
                name: oracle.name,
                verdict,
                model_ok,
                proof_ok,
                panicked: false,
            })
        }
    }
}

/// Runs every applicable oracle of the matrix on `instance` and
/// cross-checks the answers.
///
/// `recorder` (when given) aggregates the solver events of *all* oracle
/// runs on this instance — the per-row metrics the runner embeds in JSONL.
pub fn check_instance(
    instance: &Instance,
    matrix: &[Oracle],
    budget: &Budget,
    recorder: Option<&mut MetricsRecorder>,
) -> InstanceReport {
    let mut noop = NoOpObserver;
    let obs: &mut dyn Observer = match recorder {
        Some(r) => r,
        None => &mut noop,
    };
    let mut outcomes = Vec::with_capacity(matrix.len());
    for oracle in matrix {
        if let Some(outcome) = run_oracle(oracle, instance, budget, &mut *obs) {
            outcomes.push(outcome);
        }
    }
    let disagreement = find_disagreement(&outcomes);
    InstanceReport {
        outcomes,
        disagreement,
    }
}

/// The cross-check proper: first panic, failed model, failed proof, or
/// SAT/UNSAT split, described for humans. Interrupted (`Unknown`) runs
/// abstain; a panic never does.
fn find_disagreement(outcomes: &[OracleOutcome]) -> Option<String> {
    for o in outcomes {
        if o.panicked {
            return Some(format!("oracle '{}' panicked mid-solve", o.name));
        }
        if o.model_ok == Some(false) {
            return Some(format!(
                "oracle '{}' returned a SAT model that fails direct evaluation",
                o.name
            ));
        }
        if o.proof_ok == Some(false) {
            return Some(format!(
                "oracle '{}' returned UNSAT with a proof that fails verification",
                o.name
            ));
        }
    }
    let sat: Vec<&str> = outcomes
        .iter()
        .filter(|o| o.verdict.is_sat())
        .map(|o| o.name)
        .collect();
    let unsat: Vec<&str> = outcomes
        .iter()
        .filter(|o| o.verdict.is_unsat())
        .map(|o| o.name)
        .collect();
    if !sat.is_empty() && !unsat.is_empty() {
        return Some(format!(
            "verdict split: SAT from [{}] vs UNSAT from [{}]",
            sat.join(", "),
            unsat.join(", ")
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::generate;

    #[test]
    fn quick_matrix_agrees_on_a_seed_sweep() {
        let matrix = oracles(Matrix::Quick);
        let budget = Budget::conflicts(50_000);
        for seed in 0..6 {
            let instance = generate(seed);
            let report = check_instance(&instance, &matrix, &budget, None);
            assert!(
                report.disagreement.is_none(),
                "seed {seed}: {:?}",
                report.disagreement
            );
            assert_eq!(report.outcomes.len(), 3);
        }
    }

    #[test]
    fn parallel_columns_join_the_matrix_and_agree() {
        let matrix = oracles_with_threads(Matrix::Quick, 4);
        assert_eq!(matrix.len(), 5, "quick + par-portfolio + par-cubes");
        assert!(matrix.iter().any(|o| o.name == "par-portfolio"));
        assert!(matrix.iter().any(|o| o.name == "par-cubes"));
        let budget = Budget::conflicts(50_000);
        for seed in 0..4 {
            let instance = generate(seed);
            let report = check_instance(&instance, &matrix, &budget, None);
            assert!(
                report.disagreement.is_none(),
                "seed {seed}: {:?}",
                report.disagreement
            );
            assert_eq!(report.outcomes.len(), 5);
        }
    }

    #[test]
    fn threads_of_one_keeps_the_matrix_sequential() {
        assert_eq!(
            oracles_with_threads(Matrix::Quick, 1).len(),
            oracles(Matrix::Quick).len()
        );
        assert!(oracles_with_threads(Matrix::Incremental, 4).is_empty());
    }

    #[test]
    fn full_matrix_includes_cnf_direct_only_for_cnf_instances() {
        let matrix = oracles(Matrix::Full);
        let budget = Budget::conflicts(50_000);
        let circuit_born = generate(0);
        let cnf_born = generate(5);
        let a = check_instance(&circuit_born, &matrix, &budget, None);
        let b = check_instance(&cnf_born, &matrix, &budget, None);
        assert_eq!(a.outcomes.len(), matrix.len() - 1);
        assert_eq!(b.outcomes.len(), matrix.len());
        assert!(a.disagreement.is_none(), "{:?}", a.disagreement);
        assert!(b.disagreement.is_none(), "{:?}", b.disagreement);
    }

    #[test]
    fn verdict_split_is_detected() {
        let outcomes = vec![
            OracleOutcome {
                name: "a",
                verdict: Verdict::Sat(vec![]),
                model_ok: Some(true),
                proof_ok: None,
                panicked: false,
            },
            OracleOutcome {
                name: "b",
                verdict: Verdict::Unsat,
                model_ok: None,
                proof_ok: Some(true),
                panicked: false,
            },
        ];
        let d = find_disagreement(&outcomes).expect("split detected");
        assert!(d.contains("verdict split"));
    }

    #[test]
    fn unknowns_abstain() {
        let outcomes = vec![
            OracleOutcome {
                name: "a",
                verdict: Verdict::Unknown(Interrupt::Conflicts),
                model_ok: None,
                proof_ok: None,
                panicked: false,
            },
            OracleOutcome {
                name: "b",
                verdict: Verdict::Unsat,
                model_ok: None,
                proof_ok: Some(true),
                panicked: false,
            },
        ];
        assert!(find_disagreement(&outcomes).is_none());
        assert_eq!(outcomes[0].label(), "a=UNKNOWN:conflicts");
    }

    #[test]
    fn panics_never_abstain() {
        let outcomes = vec![OracleOutcome {
            name: "a",
            verdict: Verdict::Unknown(Interrupt::Panicked),
            model_ok: None,
            proof_ok: None,
            panicked: true,
        }];
        let d = find_disagreement(&outcomes).expect("panic is a disagreement");
        assert!(d.contains("panicked"));
        assert_eq!(outcomes[0].label(), "a=PANIC");
    }

    #[test]
    fn prep_matrix_agrees_on_a_seed_sweep() {
        let matrix = oracles(Matrix::Prep);
        assert_eq!(matrix.len(), 4);
        assert!(matrix.iter().any(|o| o.name == "prep-full"));
        let budget = Budget::conflicts(50_000);
        for seed in 0..6 {
            let instance = generate(seed);
            let report = check_instance(&instance, &matrix, &budget, None);
            assert!(
                report.disagreement.is_none(),
                "seed {seed}: {:?}",
                report.disagreement
            );
            assert_eq!(report.outcomes.len(), 4, "seed {seed}");
        }
    }

    #[test]
    fn full_matrix_tiny_mem_oracle_stays_sound() {
        // The memory-clamped column must agree with the rest (or abstain).
        let matrix = oracles(Matrix::Full);
        assert!(matrix.iter().any(|o| o.mem_limit.is_some()));
        let budget = Budget::conflicts(50_000);
        for seed in [0u64, 1] {
            let instance = generate(seed);
            let report = check_instance(&instance, &matrix, &budget, None);
            assert!(
                report.disagreement.is_none(),
                "seed {seed}: {:?}",
                report.disagreement
            );
        }
    }
}
