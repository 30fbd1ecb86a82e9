//! The multi-oracle harness.
//!
//! An *oracle* is one complete way of answering an instance: a circuit
//! solver configuration (optionally preceded by correlation discovery,
//! implicit grouping and the explicit learning pass) or the CNF baseline on
//! the Tseitin encoding (or on the raw formula, for CNF-born instances).
//! [`check_instance`] runs every oracle of a matrix on one instance and
//! cross-checks:
//!
//! * **verdicts** — no oracle may answer SAT while another answers UNSAT
//!   (budget-limited `Unknown`s abstain);
//! * **models** — every SAT model must satisfy the instance under direct
//!   evaluation ([`csat_core::check_model`] / [`csat_cnf::check_model`]);
//! * **proofs** — every UNSAT answer is logged and re-checked by reverse
//!   unit propagation ([`csat_core::proof::verify_unsat`] /
//!   [`csat_cnf::proof::verify_unsat`]).
//!
//! Every oracle is deterministic: budgets count conflicts, simulation is
//! seeded, and nothing consults the clock.

use std::panic::{catch_unwind, AssertUnwindSafe};

use csat_core::{explicit, ExplicitOptions};
use csat_netlist::tseitin;
use csat_pipeline::Request;
use csat_prep::PrepLevel;
use csat_sim::{find_correlations, SimulationOptions};
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
#[derive(Clone, Debug)]
enum Spec {
    /// The circuit solver, optionally with correlation-guided learning.
    Circuit {
        options: csat_core::SolverOptions,
        /// Run the explicit learning pass before the final solve.
        explicit_pass: bool,
        /// Run correlation discovery (required for implicit grouping and
        /// the explicit pass) with these options.
        simulation: Option<SimulationOptions>,
    },
    /// The CNF baseline on the Tseitin encoding of the circuit.
    CnfTseitin { options: csat_cnf::SolverOptions },
    /// The CNF baseline on the raw source formula (skipped for instances
    /// that were not born as CNF).
    CnfDirect { options: csat_cnf::SolverOptions },
    /// The parallel portfolio on the circuit backend: `threads`
    /// diversified workers racing with clause sharing. Individually
    /// deterministic workers make the *verdict* deterministic (soundness
    /// forbids a SAT/UNSAT split between workers), which is exactly the
    /// contract this oracle differentials against the sequential columns.
    ParPortfolio { threads: usize },
    /// Cube-and-conquer on the circuit backend: probe, split on the
    /// hottest variables, conquer subcubes with work stealing.
    ParCubes { threads: usize },
    /// The shipped solve pipeline ([`csat_pipeline::solve`]) behind a
    /// `csat_prep` level: preprocess, solve the reduced netlist (with
    /// proof logging against it), lift SAT models through the
    /// reconstruction map and check them on the original netlist.
    Prep { level: PrepLevel },
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

/// Fixed simulation seed: correlation discovery must not depend on the
/// instance seed, or implicit-learning runs would not be reproducible from
/// the JSONL row alone.
fn sim_options(words: usize) -> SimulationOptions {
    SimulationOptions {
        words,
        threads: 1,
        ..SimulationOptions::default()
    }
}

/// Shorthand for an unclamped matrix entry.
fn oracle(name: &'static str, spec: Spec) -> Oracle {
    Oracle {
        name,
        spec,
        mem_limit: None,
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
/// oracles of the same matrix.
pub fn oracles_with_threads(matrix: Matrix, threads: usize) -> Vec<Oracle> {
    let mut list = oracles_sequential(matrix);
    if threads > 1 && !matches!(matrix, Matrix::Incremental | Matrix::Serve) {
        list.push(oracle("par-portfolio", Spec::ParPortfolio { threads }));
        list.push(oracle("par-cubes", Spec::ParCubes { threads }));
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
        return vec![
            oracle(
                "prep-off",
                Spec::Circuit {
                    options: csat_core::SolverOptions::default(),
                    explicit_pass: false,
                    simulation: None,
                },
            ),
            oracle(
                "prep-light",
                Spec::Prep {
                    level: PrepLevel::Light,
                },
            ),
            oracle(
                "prep-full",
                Spec::Prep {
                    level: PrepLevel::Full,
                },
            ),
            oracle(
                "cnf-tseitin",
                Spec::CnfTseitin {
                    options: csat_cnf::SolverOptions::default(),
                },
            ),
        ];
    }
    let mut list = vec![
        oracle(
            "jnode",
            Spec::Circuit {
                options: csat_core::SolverOptions::default(),
                explicit_pass: false,
                simulation: None,
            },
        ),
        oracle(
            "paper-full",
            Spec::Circuit {
                options: csat_core::SolverOptions::paper(),
                explicit_pass: true,
                simulation: Some(sim_options(4)),
            },
        ),
        oracle(
            "cnf-tseitin",
            Spec::CnfTseitin {
                options: csat_cnf::SolverOptions::default(),
            },
        ),
    ];
    if matrix == Matrix::Full {
        list.extend([
            oracle(
                "plain-vsids",
                Spec::Circuit {
                    options: csat_core::SolverOptions::plain_csat(),
                    explicit_pass: false,
                    simulation: None,
                },
            ),
            oracle(
                "implicit-only",
                Spec::Circuit {
                    options: csat_core::SolverOptions::with_implicit_learning(),
                    explicit_pass: false,
                    simulation: Some(sim_options(4)),
                },
            ),
            oracle(
                "explicit-only",
                Spec::Circuit {
                    options: csat_core::SolverOptions::default(),
                    explicit_pass: true,
                    simulation: Some(sim_options(4)),
                },
            ),
            oracle(
                "fast-restarts",
                Spec::Circuit {
                    options: csat_core::SolverOptions::builder()
                        .restart(csat_core::RestartPolicy::BackjumpAverage {
                            window: 512,
                            threshold: 2.0,
                        })
                        .build(),
                    explicit_pass: false,
                    simulation: None,
                },
            ),
            // The kernel-policy column: Luby restarts, LBD-aware database
            // reduction and phase saving on the circuit backend — the
            // non-default `csat_types::SearchOptions` switches must never
            // change a verdict.
            oracle(
                "jnode-kernel-policies",
                Spec::Circuit {
                    options: csat_core::SolverOptions::builder()
                        .restart(csat_core::RestartPolicy::Luby { unit: 64 })
                        .reduction(csat_core::ReductionPolicy::LbdActivity { glue_keep: 2 })
                        .phase_saving(true)
                        .build(),
                    explicit_pass: false,
                    simulation: None,
                },
            ),
            oracle(
                "implicit-sim1",
                Spec::Circuit {
                    options: csat_core::SolverOptions::paper(),
                    explicit_pass: false,
                    simulation: Some(sim_options(1)),
                },
            ),
            oracle(
                "cnf-fast-restarts",
                Spec::CnfTseitin {
                    options: csat_cnf::SolverOptions::builder()
                        .restart(csat_cnf::RestartPolicy::Geometric {
                            first: 32,
                            factor: 1.3,
                        })
                        .build(),
                },
            ),
            // Same kernel-policy sweep on the CNF backend.
            oracle(
                "cnf-kernel-policies",
                Spec::CnfTseitin {
                    options: csat_cnf::SolverOptions::builder()
                        .restart(csat_cnf::RestartPolicy::Luby { unit: 64 })
                        .reduction(csat_cnf::ReductionPolicy::LbdActivity { glue_keep: 2 })
                        .phase_saving(true)
                        .build(),
                },
            ),
            oracle(
                "cnf-direct",
                Spec::CnfDirect {
                    options: csat_cnf::SolverOptions::default(),
                },
            ),
            // Exercises emergency DB reduction and Memory aborts inside the
            // differential loop; its Unknowns abstain like any other.
            Oracle {
                name: "jnode-tiny-mem",
                spec: Spec::Circuit {
                    options: csat_core::SolverOptions::default(),
                    explicit_pass: false,
                    simulation: None,
                },
                mem_limit: Some(64 * 1024),
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
    match &oracle.spec {
        Spec::Circuit {
            options,
            explicit_pass,
            simulation,
        } => {
            let mut solver = csat_core::Solver::new(&instance.aig, *options);
            solver.start_proof();
            if let Some(sim) = simulation {
                let correlations = find_correlations(&instance.aig, sim);
                if options.implicit_learning {
                    solver.set_correlations(&correlations);
                }
                if *explicit_pass {
                    explicit::run_observed(
                        &mut solver,
                        &correlations,
                        &ExplicitOptions::default(),
                        &mut *obs,
                    );
                }
            }
            let verdict = solver.solve_observed(instance.objective, budget, &mut *obs);
            let (model_ok, proof_ok) = match &verdict {
                Verdict::Sat(model) => (
                    Some(csat_core::check_model(
                        &instance.aig,
                        model,
                        instance.objective,
                    )),
                    None,
                ),
                Verdict::Unsat => {
                    let proof = solver.take_proof();
                    let ok =
                        csat_core::proof::verify_unsat(&instance.aig, &proof, instance.objective)
                            .is_ok();
                    (None, Some(ok))
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
        Spec::CnfTseitin { options } => {
            let enc = tseitin::encode_with_objective(&instance.aig, instance.objective);
            let mut solver = csat_cnf::Solver::new(&enc.cnf, *options);
            solver.start_proof();
            let verdict = solver.solve_observed(budget, &mut *obs);
            let (model_ok, proof_ok) = match &verdict {
                Verdict::Sat(model) => {
                    // Map the CNF model back to circuit inputs and check on
                    // the circuit itself — this also cross-checks the
                    // Tseitin encoding's input mapping.
                    let inputs = enc.input_values(&instance.aig, model);
                    (
                        Some(csat_core::check_model(
                            &instance.aig,
                            &inputs,
                            instance.objective,
                        )),
                        None,
                    )
                }
                Verdict::Unsat => {
                    let proof = solver.take_proof();
                    let ok = csat_cnf::proof::verify_unsat(&enc.cnf, &proof).is_ok();
                    (None, Some(ok))
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
        Spec::CnfDirect { options } => {
            let cnf = instance.cnf.as_ref()?;
            let mut solver = csat_cnf::Solver::new(cnf, *options);
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
        Spec::Prep { level } => {
            // The shipped pipeline itself: prep, the constant shortcut,
            // the plain J-node solve with its proof checked against the
            // reduced netlist, and the lifted model checked (by `solve`,
            // which panics on a bad one) against the ORIGINAL netlist.
            // Constant-objective answers carry no proof log; like the
            // parallel columns they are vouched for by the cross-check.
            let report = csat_pipeline::solve(
                &Request {
                    prep: *level,
                    implicit: false,
                    explicit: false,
                    simulation: sim_options(4),
                    check_proof: true,
                    ..Request::new(&instance.aig, instance.objective)
                },
                budget,
                obs,
            );
            Some(OracleOutcome {
                name: oracle.name,
                model_ok: report.verdict.is_sat().then_some(true),
                proof_ok: report.proof.map(|p| p.is_ok()),
                verdict: report.verdict,
                panicked: false,
            })
        }
        Spec::ParPortfolio { threads } => {
            let outcome = csat_par::solve_aig_portfolio(
                &instance.aig,
                instance.objective,
                csat_core::SolverOptions::default(),
                *threads,
                &csat_par::PortfolioOptions::default(),
                budget,
                |_, _| {},
            );
            Some(par_outcome(oracle.name, instance, outcome))
        }
        Spec::ParCubes { threads } => {
            let outcome = csat_par::solve_aig_cubes(
                &instance.aig,
                instance.objective,
                csat_core::SolverOptions::default(),
                *threads,
                // A small probe pushes most instances into the actual
                // split/conquer path instead of settling in the probe.
                &csat_par::CubeOptions {
                    cube_vars: 3,
                    probe_conflicts: 500,
                },
                budget,
                |_, _| {},
            );
            Some(par_outcome(oracle.name, instance, outcome))
        }
    }
}

/// Wraps a parallel run's verdict as an oracle outcome. Parallel runs
/// carry no proof log (clauses arrive from several workers), so UNSAT
/// answers are vouched for by the verdict cross-check against the
/// proof-backed sequential columns, and SAT models are still checked by
/// direct evaluation.
fn par_outcome(
    name: &'static str,
    instance: &Instance,
    outcome: csat_par::ParOutcome,
) -> OracleOutcome {
    let model_ok = match &outcome.verdict {
        Verdict::Sat(model) => Some(csat_core::check_model(
            &instance.aig,
            model,
            instance.objective,
        )),
        _ => None,
    };
    OracleOutcome {
        name,
        verdict: outcome.verdict,
        model_ok,
        proof_ok: None,
        panicked: false,
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
