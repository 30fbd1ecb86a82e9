//! The one solve pipeline (`csat-pipeline`) behind every caller.
//!
//! `csat`, `cec`, the `csat-serve` daemon, the paper-table runner
//! (`csat_bench::runner`) and the fuzz oracles (`csat_fuzz::oracle`) all
//! answer an instance the same way, so the flow lives here once. [`load`]
//! parses an instance and picks its objective; [`solve`] runs the rest:
//!
//! 1. **prep** — the [`csat_prep`] pipeline at [`Request::prep`]; an
//!    interrupt during prep ends the run with that reason;
//! 2. **constant shortcut** — an objective prep folded to a constant is
//!    decided without a kernel solve;
//! 3. **correlate** — random simulation finds signal correlations, when
//!    implicit or explicit learning wants them. It also watches the
//!    objective: the first pattern that sets it to 1 is a *witness*, and
//!    the witness is the model, with no explicit pass and no search (an
//!    unsatisfiable objective never has one, so UNSAT runs go on as
//!    below);
//! 4. **explicit learning** — the paper's learn-from-conflict pass over
//!    the correlations (sequential circuit engine only); an interrupt
//!    (timeout, memory, cancel) during the pass ends the run with that
//!    reason;
//! 5. **dispatch** — the circuit or CNF engine, sequentially or on the
//!    parallel layer (portfolio or cubes);
//! 6. **lift** — reduced-netlist models back to the caller's inputs;
//! 7. **check** — every SAT model against the caller's netlist (a bad one
//!    panics), and with [`Request::check_proof`] the UNSAT proof against
//!    the netlist the kernel solved.
//!
//! The budget's wall-clock limit is one deadline for the whole run: it is
//! fixed when [`solve`] starts, and each step gets only the time left.
//!
//! ```
//! use csat_netlist::{generators, miter};
//! use csat_pipeline::{solve, Request};
//! use csat_telemetry::NoOpObserver;
//! use csat_types::Budget;
//!
//! let adder = generators::ripple_carry_adder(4);
//! let m = miter::self_miter(&adder, Default::default());
//! let request = Request { check_proof: true, ..Request::new(&m.aig, m.objective) };
//! let report = solve(&request, &Budget::UNLIMITED, &mut NoOpObserver);
//! assert!(report.verdict.is_unsat());
//! assert!(matches!(report.proof, Some(Ok(_))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use csat_core::{explicit, ExplicitOptions, ExplicitReport, Solver, SolverOptions};
use csat_netlist::{aiger, bench, cnf::Cnf, tseitin, two_level, Aig, Lit};
use csat_par::{
    solve_aig_cubes, solve_aig_portfolio, solve_cnf_cubes, solve_cnf_portfolio, CubeOptions,
    ParMode, ParOutcome, PortfolioOptions,
};
use csat_prep::{PrepLevel, PrepOptions, PrepPipeline, PrepStats};
use csat_sim::{find_correlations_or_witness, CorrelationResult, SimulationOptions};
use csat_telemetry::Observer;
use csat_types::{Budget, SearchStats, Verdict};
use std::time::Instant;

/// An instance's input format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// ISCAS `.bench` netlist; the objective defaults to the first output.
    Bench,
    /// ASCII AIGER (`.aag`); the objective defaults to the first output.
    Aiger,
    /// DIMACS CNF, solved through its two-level circuit.
    Dimacs,
}

impl Format {
    /// The format a file name's extension names (`.bench`, `.aag`/`.aig`,
    /// `.cnf`/`.dimacs`, any case).
    pub fn from_path(path: &str) -> Option<Format> {
        let lower = path.to_lowercase();
        if lower.ends_with(".bench") {
            Some(Format::Bench)
        } else if lower.ends_with(".aag") || lower.ends_with(".aig") {
            Some(Format::Aiger)
        } else if lower.ends_with(".cnf") || lower.ends_with(".dimacs") {
            Some(Format::Dimacs)
        } else {
            None
        }
    }

    /// The format a serve job names: `bench`, `aiger` or `dimacs`.
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "bench" => Some(Format::Bench),
            "aiger" => Some(Format::Aiger),
            "dimacs" => Some(Format::Dimacs),
            _ => None,
        }
    }
}

/// Parses `text` and picks the objective: the output named `output`, else
/// the first output (the formula itself for DIMACS), complemented when
/// `negate` is set. Errors are short messages fit for a client.
pub fn load(
    format: Format,
    text: &str,
    output: Option<&str>,
    negate: bool,
) -> Result<(Aig, Lit), String> {
    let (aig, default_objective) = match format {
        Format::Bench => {
            with_first_output(bench::parse(text).map_err(|e| format!("bench parse: {e}"))?)?
        }
        Format::Aiger => {
            with_first_output(aiger::parse(text).map_err(|e| format!("aiger parse: {e}"))?)?
        }
        Format::Dimacs => {
            let cnf = Cnf::from_dimacs(text).map_err(|e| format!("dimacs parse: {e}"))?;
            let tl = two_level::from_cnf(&cnf);
            (tl.aig, tl.objective)
        }
    };
    let objective = match output {
        Some(name) => aig
            .output(name)
            .ok_or_else(|| format!("no output named '{name}'"))?,
        None => default_objective,
    };
    Ok((aig, objective.xor_complement(negate)))
}

fn with_first_output(aig: Aig) -> Result<(Aig, Lit), String> {
    let first = aig.outputs().first().map(|&(_, l)| l);
    first
        .map(|l| (aig, l))
        .ok_or_else(|| "circuit has no outputs".to_string())
}

/// Which search engine answers the instance, with its options.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// The circuit solver. Its options pick J-node decisions (the paper's
    /// C-SAT-Jnode) or plain VSIDS over all signals (C-SAT), and implicit
    /// (correlation-guided) learning.
    Circuit(SolverOptions),
    /// The CNF baseline on the Tseitin encoding.
    Cnf(csat_cnf::SolverOptions),
}

/// One solve: the caller's netlist and objective, plus the settings the
/// front-ends expose as flags or job fields and the paper tables vary.
#[derive(Clone, Debug)]
pub struct Request<'a> {
    /// The caller's netlist; SAT models are checked against it.
    pub aig: &'a Aig,
    /// Find an assignment making this literal 1.
    pub objective: Lit,
    /// Search engine and its options.
    pub engine: Engine,
    /// Preprocessing level.
    pub prep: PrepLevel,
    /// The explicit learning pass before a sequential circuit solve, with
    /// its options; `None` skips it.
    pub explicit: Option<ExplicitOptions>,
    /// Simulation settings for correlation discovery and prep.
    pub simulation: SimulationOptions,
    /// Log the sequential solve's proof and check UNSAT answers by
    /// reverse unit propagation.
    pub check_proof: bool,
    /// Workers; more than one solves on the parallel layer.
    pub threads: usize,
    /// Parallel scheduler when `threads > 1`.
    pub par_mode: ParMode,
}

impl<'a> Request<'a> {
    /// The paper's flow on one thread: the circuit engine with J-node
    /// decisions and implicit learning ([`SolverOptions::paper`]), the
    /// explicit pass at its defaults, no prep, no proof.
    pub fn new(aig: &'a Aig, objective: Lit) -> Request<'a> {
        Request {
            aig,
            objective,
            engine: Engine::Circuit(SolverOptions::paper()),
            prep: PrepLevel::Off,
            explicit: Some(ExplicitOptions::default()),
            simulation: SimulationOptions::default(),
            check_proof: false,
            threads: 1,
            par_mode: ParMode::Portfolio,
        }
    }
}

/// What a [`solve`] did; each part is `None` when its step did not run.
#[derive(Debug)]
pub struct Report {
    /// The verdict; a SAT model is over the caller's inputs and has been
    /// checked against the caller's netlist.
    pub verdict: Verdict,
    /// Prep statistics, including an interrupt that ended the run.
    pub prep: Option<PrepStats>,
    /// The constant prep folded the objective to; no kernel solve ran.
    pub constant: Option<bool>,
    /// Correlation discovery's result; its `witness` is the model when
    /// simulation answered.
    pub correlations: Option<CorrelationResult>,
    /// The explicit learning pass's report.
    pub explicit: Option<ExplicitReport>,
    /// Search statistics of a sequential solve.
    pub stats: Option<SearchStats>,
    /// The parallel layer's outcome (workers, winner, merged metrics).
    pub parallel: Option<ParOutcome>,
    /// The proof check of an UNSAT answer: the proof's length, or why it
    /// failed.
    pub proof: Option<Result<usize, String>>,
}

/// Runs the pipeline on `request` under `budget`, reporting solver
/// events to `obs`. The budget's time limit counts from this call, over
/// every step together.
///
/// # Panics
///
/// Panics when a SAT model fails evaluation on the caller's netlist: an
/// internal error no answer may hide. The daemon's per-job `catch_unwind`
/// turns it into a `panicked` result.
pub fn solve<O: Observer + ?Sized>(request: &Request<'_>, budget: &Budget, obs: &mut O) -> Report {
    let deadline = Deadline::start(budget);
    let mut report = Report {
        verdict: Verdict::Unsat,
        prep: None,
        constant: None,
        correlations: None,
        explicit: None,
        stats: None,
        parallel: None,
        proof: None,
    };
    // Prep runs under the solve's budget; `Off` skips it outright.
    let prepped = (request.prep != PrepLevel::Off).then(|| {
        let pipeline = PrepPipeline::new(PrepOptions {
            level: request.prep,
            simulation: request.simulation,
            ..PrepOptions::default()
        });
        pipeline.run_under(request.aig, &[request.objective], &deadline.left(), obs)
    });
    if let Some(result) = &prepped {
        report.prep = Some(result.stats.clone());
        if let Some(reason) = result.stats.interrupted {
            report.verdict = Verdict::Unknown(reason);
            return report;
        }
    }
    let (aig, objective) = match &prepped {
        Some(r) => (
            &r.reduced,
            r.map_lit(request.objective)
                .expect("the objective is a preserved root"),
        ),
        None => (request.aig, request.objective),
    };
    let verdict = if objective.is_constant() {
        // Constant true is satisfied by every assignment: all-false over
        // the reduced inputs, lifted below like any model.
        report.constant = Some(objective == Lit::TRUE);
        if objective == Lit::TRUE {
            Verdict::Sat(vec![false; aig.inputs().len()])
        } else {
            Verdict::Unsat
        }
    } else {
        match request.engine {
            Engine::Cnf(options) => solve_cnf(
                request,
                options,
                aig,
                objective,
                &deadline,
                obs,
                &mut report,
            ),
            Engine::Circuit(options) => solve_circuit(
                request,
                options,
                aig,
                objective,
                &deadline,
                obs,
                &mut report,
            ),
        }
    };
    report.verdict = match verdict {
        Verdict::Sat(model) => {
            let model = match &prepped {
                Some(r) => r.lift_model(&model),
                None => model,
            };
            assert!(
                csat_core::check_model(request.aig, &model, request.objective),
                "internal error: bad model"
            );
            Verdict::Sat(model)
        }
        v => v,
    };
    report
}

/// The caller's wall-clock limit as one deadline, fixed when [`solve`]
/// starts. Each step runs under the caller's budget with only the time
/// left, so prep, the explicit pass and the search share one clock.
struct Deadline<'b> {
    budget: &'b Budget,
    at: Option<Instant>,
}

impl<'b> Deadline<'b> {
    fn start(budget: &'b Budget) -> Deadline<'b> {
        let at = budget.max_time.and_then(|t| Instant::now().checked_add(t));
        Deadline { budget, at }
    }

    /// The caller's budget with the time left until the deadline.
    fn left(&self) -> Budget {
        let budget = self.budget.clone();
        match self.at {
            Some(at) => budget.with_time_limit(Some(at.saturating_duration_since(Instant::now()))),
            None => budget,
        }
    }
}

/// The CNF baseline on the Tseitin encoding; models come back over CNF
/// variables and are mapped to circuit inputs.
fn solve_cnf<O: Observer + ?Sized>(
    request: &Request<'_>,
    options: csat_cnf::SolverOptions,
    aig: &Aig,
    objective: Lit,
    deadline: &Deadline<'_>,
    obs: &mut O,
    report: &mut Report,
) -> Verdict {
    let enc = tseitin::encode_with_objective(aig, objective);
    let verdict = if request.threads > 1 {
        let outcome = match request.par_mode {
            ParMode::Portfolio => solve_cnf_portfolio(
                &enc.cnf,
                options,
                request.threads,
                &PortfolioOptions::default(),
                &deadline.left(),
            ),
            ParMode::Cubes => solve_cnf_cubes(
                &enc.cnf,
                options,
                request.threads,
                &CubeOptions::default(),
                &deadline.left(),
            ),
        };
        parallel_verdict(outcome, report)
    } else {
        let mut solver = csat_cnf::Solver::new(&enc.cnf, options);
        if request.check_proof {
            solver.start_proof();
        }
        let verdict = solver.solve_observed(&deadline.left(), obs);
        report.stats = Some(*solver.stats());
        if request.check_proof && verdict.is_unsat() {
            let proof = solver.take_proof();
            report.proof = Some(
                csat_cnf::proof::verify_unsat(&enc.cnf, &proof)
                    .map(|()| proof.len())
                    .map_err(|e| e.to_string()),
            );
        }
        verdict
    };
    match verdict {
        Verdict::Sat(model) => Verdict::Sat(enc.input_values(aig, &model)),
        v => v,
    }
}

/// The circuit solver, sequential (with the explicit pass) or parallel
/// (one correlation analysis shared by every worker). Simulation runs
/// first and watches the objective: a pattern that satisfies it is the
/// model, and no solver is built.
fn solve_circuit<O: Observer + ?Sized>(
    request: &Request<'_>,
    options: SolverOptions,
    aig: &Aig,
    objective: Lit,
    deadline: &Deadline<'_>,
    obs: &mut O,
    report: &mut Report,
) -> Verdict {
    // Parallel workers take the correlations for implicit learning only;
    // the explicit pass is sequential.
    let explicit = request.explicit.filter(|_| request.threads == 1);
    let simulate = options.implicit_learning || explicit.is_some();
    let correlations =
        simulate.then(|| find_correlations_or_witness(aig, &request.simulation, objective, obs));
    let witness = correlations.as_ref().and_then(|c| c.witness.clone());
    if let Some(model) = witness {
        report.correlations = correlations;
        return Verdict::Sat(model);
    }
    if request.threads > 1 {
        let configure = |_: usize, solver: &mut Solver<'_>| {
            if let Some(c) = &correlations {
                solver.set_correlations(c);
            }
        };
        let outcome = match request.par_mode {
            ParMode::Portfolio => solve_aig_portfolio(
                aig,
                objective,
                options,
                request.threads,
                &PortfolioOptions::default(),
                &deadline.left(),
                configure,
            ),
            ParMode::Cubes => solve_aig_cubes(
                aig,
                objective,
                options,
                request.threads,
                &CubeOptions::default(),
                &deadline.left(),
                configure,
            ),
        };
        report.correlations = correlations;
        return parallel_verdict(outcome, report);
    }
    let mut solver = Solver::new(aig, options);
    if request.check_proof {
        solver.start_proof();
    }
    if let Some(correlations) = correlations {
        solver.set_correlations(&correlations);
        report.explicit = explicit.map(|explicit| {
            explicit::run_budgeted_observed(
                &mut solver,
                &correlations,
                &explicit,
                &deadline.left(),
                obs,
            )
        });
        report.correlations = Some(correlations);
        // A limit that stopped the pass leaves nothing for the search.
        if let Some(reason) = report.explicit.and_then(|x| x.interrupted) {
            return Verdict::Unknown(reason);
        }
    }
    let verdict = solver.solve_observed(objective, &deadline.left(), obs);
    report.stats = Some(*solver.stats());
    if request.check_proof && verdict.is_unsat() {
        let proof = solver.take_proof();
        report.proof = Some(
            csat_core::proof::verify_unsat(aig, &proof, objective)
                .map(|()| proof.len())
                .map_err(|e| e.to_string()),
        );
    }
    verdict
}

fn parallel_verdict(outcome: ParOutcome, report: &mut Report) -> Verdict {
    let verdict = outcome.verdict.clone();
    report.parallel = Some(outcome);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_netlist::{generators, miter};
    use csat_telemetry::{MetricsRecorder, NoOpObserver};
    use csat_types::{CancelToken, Interrupt};

    fn run(request: &Request<'_>) -> Report {
        solve(request, &Budget::UNLIMITED, &mut NoOpObserver)
    }

    #[test]
    fn formats_resolve_from_extensions_and_job_names() {
        assert_eq!(Format::from_path("x/C17.BENCH"), Some(Format::Bench));
        assert_eq!(Format::from_path("a.aig"), Some(Format::Aiger));
        assert_eq!(Format::from_path("f.dimacs"), Some(Format::Dimacs));
        assert_eq!(Format::from_path("notes.txt"), None);
        assert_eq!(Format::from_name("aiger"), Some(Format::Aiger));
        assert_eq!(Format::from_name("vhdl"), None);
    }

    #[test]
    fn load_picks_and_negates_the_objective() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n";
        let (aig, first) = load(Format::Bench, text, None, false).unwrap();
        assert_eq!(first, aig.outputs()[0].1);
        let (aig, z) = load(Format::Bench, text, Some("z"), true).unwrap();
        assert_eq!(z, !aig.output("z").unwrap());
        assert!(load(Format::Bench, text, Some("w"), false)
            .unwrap_err()
            .contains("no output named 'w'"));
        assert!(load(Format::Bench, "junk", None, false)
            .unwrap_err()
            .starts_with("bench parse"));
        let (aig, formula) = load(Format::Dimacs, "p cnf 2 1\n1 -2 0\n", None, false).unwrap();
        assert_eq!(aig.inputs().len(), 2);
        assert!(!formula.is_constant());
    }

    #[test]
    fn every_engine_agrees_and_models_are_lifted() {
        // Output 0 of a small adder: simulation sets it in round 0. All
        // outputs of a wide adder at once: one input pattern in 2^33,
        // which simulation never draws, so the engines search for it.
        let small = generators::ripple_carry_adder(4);
        let mut wide = generators::ripple_carry_adder(16);
        let outputs: Vec<Lit> = wide.outputs().iter().map(|&(_, l)| l).collect();
        let all_ones = outputs
            .into_iter()
            .fold(Lit::TRUE, |acc, l| wide.and(acc, l));
        for (aig, objective, simulation_hits) in [
            (&small, small.outputs()[0].1, true),
            (&wide, all_ones, false),
        ] {
            for learning in [true, false] {
                let circuit = |jnode| {
                    Engine::Circuit(
                        SolverOptions::builder()
                            .jnode_decisions(jnode)
                            .implicit_learning(learning)
                            .build(),
                    )
                };
                let cnf = Engine::Cnf(Default::default());
                for engine in [circuit(true), circuit(false), cnf] {
                    for prep in [PrepLevel::Off, PrepLevel::Light, PrepLevel::Full] {
                        for threads in [1, 2] {
                            let case = format!(
                                "{engine:?} {prep:?} threads {threads} \
                                 learning {learning} drawn {simulation_hits}"
                            );
                            let report = run(&Request {
                                engine,
                                prep,
                                threads,
                                explicit: learning.then(ExplicitOptions::default),
                                ..Request::new(aig, objective)
                            });
                            // `solve` itself asserts the model on the
                            // original netlist.
                            assert!(report.verdict.is_sat(), "{case}");
                            assert_eq!(report.constant, None, "{case}");
                            // Only the circuit engines simulate, and only
                            // with learning on.
                            let witnessed = report
                                .correlations
                                .as_ref()
                                .is_some_and(|c| c.witness.is_some());
                            let simulated = learning && matches!(engine, Engine::Circuit(_));
                            assert_eq!(witnessed, simulated && simulation_hits, "{case}");
                            // Otherwise the engine searched: on the parallel
                            // layer with threads, sequentially without.
                            assert_eq!(
                                report.parallel.is_some(),
                                threads > 1 && !witnessed,
                                "{case}"
                            );
                            assert_eq!(
                                report.stats.is_some(),
                                threads == 1 && !witnessed,
                                "{case}"
                            );
                            assert_eq!(
                                report.explicit.is_some(),
                                simulated && threads == 1 && !witnessed,
                                "{case}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `base` with its `k`-th AND gate computing OR instead.
    fn with_or_at(base: &Aig, k: usize) -> Aig {
        let mut g = Aig::new();
        let mut map = vec![Lit::FALSE; base.len()];
        let mut ands = 0;
        for (i, node) in base.nodes().iter().enumerate() {
            let at = |l: Lit| map[l.node().index()].xor_complement(l.is_complemented());
            map[i] = match *node {
                csat_netlist::Node::False => Lit::FALSE,
                csat_netlist::Node::Input => g.input(),
                csat_netlist::Node::And(a, b) => {
                    ands += 1;
                    if ands == k + 1 {
                        g.or(at(a), at(b))
                    } else {
                        g.and(at(a), at(b))
                    }
                }
            };
        }
        for (name, l) in base.outputs() {
            g.set_output(
                name.clone(),
                map[l.node().index()].xor_complement(l.is_complemented()),
            );
        }
        g
    }

    /// A multiplier against a copy with one AND gate turned into an OR,
    /// the first such gate whose change simulation sees.
    fn planted_difference() -> miter::Miter {
        let base = generators::array_multiplier(4);
        (0..base.and_count())
            .map(|k| miter::build_fresh(&base, &with_or_at(&base, k), Default::default()))
            .find(|m| {
                let sim = SimulationOptions::default();
                find_correlations_or_witness(&m.aig, &sim, m.objective, &mut NoOpObserver)
                    .witness
                    .is_some()
            })
            .expect("some gate's change is visible")
    }

    #[test]
    fn a_witness_answers_without_explicit_learning_or_search() {
        let m = planted_difference();
        let report = run(&Request::new(&m.aig, m.objective));
        let Verdict::Sat(model) = &report.verdict else {
            panic!("expected SAT, got {:?}", report.verdict);
        };
        let witness = report.correlations.and_then(|c| c.witness);
        assert_eq!(witness.as_ref(), Some(model));
        assert!(report.explicit.is_none() && report.stats.is_none());
        assert!(report.parallel.is_none() && report.proof.is_none());
    }

    #[test]
    fn witnesses_are_lifted_and_checked_on_threads_and_prep() {
        let m = planted_difference();
        for (threads, prep) in [(2, PrepLevel::Off), (1, PrepLevel::Light)] {
            let report = run(&Request {
                threads,
                prep,
                ..Request::new(&m.aig, m.objective)
            });
            let Verdict::Sat(model) = &report.verdict else {
                panic!("{threads} {prep:?}: expected SAT, got {:?}", report.verdict);
            };
            assert!(report.correlations.is_some_and(|c| c.witness.is_some()));
            assert!(report.explicit.is_none() && report.stats.is_none());
            assert!(report.parallel.is_none());
            assert_eq!(report.prep.is_some(), prep != PrepLevel::Off);
            assert_eq!(model.len(), m.aig.inputs().len());
            assert!(csat_core::check_model(&m.aig, model, m.objective));
        }
    }

    #[test]
    fn an_unsat_miter_makes_the_calls_it_always_made() {
        let m = miter::build_fresh(
            &generators::carry_select_adder(4, 2),
            &generators::kogge_stone_adder(4),
            Default::default(),
        );
        let mut recorder = MetricsRecorder::default();
        let report = solve(
            &Request::new(&m.aig, m.objective),
            &Budget::UNLIMITED,
            &mut recorder,
        );

        // The flow as written before simulation watched the objective.
        let mut expected = MetricsRecorder::default();
        let options = SolverOptions::builder()
            .jnode_decisions(true)
            .implicit_learning(true)
            .build();
        let mut solver = Solver::new(&m.aig, options);
        let correlations = csat_sim::find_correlations_observed(
            &m.aig,
            &SimulationOptions::default(),
            &mut expected,
        );
        solver.set_correlations(&correlations);
        let pass = explicit::run_budgeted_observed(
            &mut solver,
            &correlations,
            &ExplicitOptions::default(),
            &Budget::UNLIMITED,
            &mut expected,
        );
        let verdict = solver.solve_observed(m.objective, &Budget::UNLIMITED, &mut expected);

        assert!(verdict.is_unsat() && report.verdict.is_unsat());
        assert_eq!(report.stats, Some(*solver.stats()));
        let got = report.explicit.expect("explicit pass ran");
        assert_eq!(
            (got.subproblems, got.refuted, got.aborted, got.satisfiable),
            (
                pass.subproblems,
                pass.refuted,
                pass.aborted,
                pass.satisfiable
            )
        );
        let sim = report.correlations.expect("simulation ran");
        assert_eq!(sim.witness, None);
        assert_eq!(sim.classes, correlations.classes);
        assert_eq!(sim.correlations, correlations.correlations);
        assert_eq!(sim.rounds, correlations.rounds);
        assert_eq!(
            recorder.report_json("UNSAT", std::time::Duration::ZERO),
            expected.report_json("UNSAT", std::time::Duration::ZERO)
        );
    }

    /// Counts `ClausesRetained` events (the recorder's field keeps only
    /// the last value).
    #[derive(Default)]
    struct RetainedEvents(u64);

    impl Observer for RetainedEvents {
        fn record(&mut self, event: csat_telemetry::SolverEvent) {
            if let csat_telemetry::SolverEvent::ClausesRetained { .. } = event {
                self.0 += 1;
            }
        }
    }

    #[test]
    fn only_incremental_callers_simplify_between_solves() {
        let base = generators::random_logic(11, 6, 40, 2);
        let variant = csat_netlist::optimize::restructure_seeded(&base, 0xBEEF);
        let m = miter::build_fresh(&base, &variant, Default::default());
        let request = Request::new(&m.aig, m.objective);

        // Defaults: explicit learning's sub-problems and the final search
        // run on one solver, with no housekeeping in between.
        let mut events = RetainedEvents::default();
        let report = solve(&request, &Budget::UNLIMITED, &mut events);
        assert!(report.verdict.is_unsat());
        assert!(report.explicit.is_some_and(|e| e.subproblems > 0));
        assert_eq!(events.0, 0);

        // Prep's sweep is incremental and simplifies before every check.
        let mut events = RetainedEvents::default();
        let report = solve(
            &Request {
                prep: PrepLevel::Full,
                ..request
            },
            &Budget::UNLIMITED,
            &mut events,
        );
        assert!(report.verdict.is_unsat());
        assert!(events.0 >= 1);
    }

    #[test]
    fn proofs_are_checked_on_both_engines() {
        let m = miter::build_fresh(
            &generators::carry_select_adder(4, 2),
            &generators::kogge_stone_adder(4),
            Default::default(),
        );
        let plain = SolverOptions {
            jnode_decisions: false,
            ..SolverOptions::paper()
        };
        for engine in [
            Engine::Circuit(SolverOptions::paper()),
            Engine::Circuit(plain),
            Engine::Cnf(Default::default()),
        ] {
            let report = run(&Request {
                engine,
                check_proof: true,
                ..Request::new(&m.aig, m.objective)
            });
            assert!(report.verdict.is_unsat());
            assert!(matches!(report.proof, Some(Ok(n)) if n > 0), "{engine:?}");
        }
    }

    #[test]
    fn prep_folds_constant_objectives_without_a_solve() {
        let m = miter::self_miter(&generators::ripple_carry_adder(4), Default::default());
        let report = run(&Request {
            prep: PrepLevel::Light,
            ..Request::new(&m.aig, m.objective)
        });
        assert!(report.verdict.is_unsat());
        assert_eq!(report.constant, Some(false));
        assert!(report.stats.is_none() && report.correlations.is_none());
        let report = run(&Request {
            prep: PrepLevel::Light,
            ..Request::new(&m.aig, !m.objective)
        });
        assert_eq!(report.constant, Some(true));
        assert!(report.verdict.is_sat());
    }

    #[test]
    fn the_steps_run_only_when_asked() {
        let m = miter::build_fresh(
            &generators::carry_select_adder(4, 2),
            &generators::kogge_stone_adder(4),
            Default::default(),
        );
        let full = run(&Request::new(&m.aig, m.objective));
        assert!(full.correlations.is_some() && full.explicit.is_some());
        assert!(full.prep.is_none() && full.proof.is_none());
        let plain = run(&Request {
            engine: Engine::Circuit(SolverOptions::default()),
            explicit: None,
            ..Request::new(&m.aig, m.objective)
        });
        assert!(plain.correlations.is_none() && plain.explicit.is_none());
        assert!(plain.stats.is_some());
    }

    #[test]
    fn a_prep_interrupt_ends_the_run_with_its_reason() {
        let m = miter::self_miter(&generators::ripple_carry_adder(6), Default::default());
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::UNLIMITED.with_cancel(token);
        let mut recorder = MetricsRecorder::default();
        let report = solve(
            &Request {
                prep: PrepLevel::Full,
                ..Request::new(&m.aig, m.objective)
            },
            &budget,
            &mut recorder,
        );
        assert_eq!(report.verdict, Verdict::Unknown(Interrupt::Cancelled));
        assert_eq!(
            report.prep.and_then(|s| s.interrupted),
            Some(Interrupt::Cancelled)
        );
        assert!(report.stats.is_none() && report.correlations.is_none());
        assert_eq!(recorder.conflicts, 0);
    }

    /// Sleeps at the first simulation round.
    struct SlowFirstRound {
        nap: std::time::Duration,
        slept: bool,
    }

    impl Observer for SlowFirstRound {
        fn record(&mut self, event: csat_telemetry::SolverEvent) {
            if let csat_telemetry::SolverEvent::SimRound { .. } = event {
                if !self.slept {
                    self.slept = true;
                    std::thread::sleep(self.nap);
                }
            }
        }
    }

    #[test]
    fn one_deadline_covers_every_step() {
        // Simulation outlasts the whole limit, so the explicit pass gets
        // no time at all and the run ends before any search.
        let m = miter::build_fresh(
            &generators::carry_select_adder(4, 2),
            &generators::kogge_stone_adder(4),
            Default::default(),
        );
        let limit = std::time::Duration::from_millis(50);
        let mut slow = SlowFirstRound {
            nap: 2 * limit,
            slept: false,
        };
        let report = solve(
            &Request::new(&m.aig, m.objective),
            &Budget::time(limit),
            &mut slow,
        );
        assert_eq!(report.verdict, Verdict::Unknown(Interrupt::Timeout));
        assert_eq!(report.explicit.map(|x| x.subproblems), Some(0));
        assert!(report.stats.is_none());
    }

    /// Cancels the run when the first explicit sub-problem starts.
    struct CancelAtFirstSubproblem(CancelToken);

    impl Observer for CancelAtFirstSubproblem {
        fn record(&mut self, event: csat_telemetry::SolverEvent) {
            if let csat_telemetry::SolverEvent::SubproblemStart { .. } = event {
                self.0.cancel();
            }
        }
    }

    #[test]
    fn an_explicit_pass_interrupt_ends_the_run_with_its_reason() {
        let m = miter::build_fresh(
            &generators::carry_select_adder(4, 2),
            &generators::kogge_stone_adder(4),
            Default::default(),
        );
        let token = CancelToken::new();
        let report = solve(
            &Request::new(&m.aig, m.objective),
            &Budget::UNLIMITED.with_cancel(token.clone()),
            &mut CancelAtFirstSubproblem(token),
        );
        assert_eq!(report.verdict, Verdict::Unknown(Interrupt::Cancelled));
        let pass = report.explicit.expect("the pass started");
        assert_eq!(pass.interrupted, Some(Interrupt::Cancelled));
        assert!(report.stats.is_none());
    }
}
