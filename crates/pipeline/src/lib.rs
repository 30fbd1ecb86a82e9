//! The one solve pipeline (`csat-pipeline`) behind every front-end.
//!
//! `csat`, `cec`, the `csat-serve` daemon and the fuzz preprocessing
//! oracle all answer an instance the same way, so the flow lives here
//! once. [`load`] parses an instance and picks its objective; [`solve`]
//! runs the rest:
//!
//! 1. **prep** — the [`csat_prep`] pipeline at [`Request::prep`]; an
//!    interrupt during prep ends the run with that reason;
//! 2. **constant shortcut** — an objective prep folded to a constant is
//!    decided without a kernel solve;
//! 3. **correlate** — random simulation finds signal correlations, when
//!    implicit or explicit learning wants them;
//! 4. **explicit learning** — the paper's learn-from-conflict pass over
//!    the correlations (sequential circuit engine only);
//! 5. **dispatch** — the circuit or CNF engine, sequentially or on the
//!    parallel layer (portfolio or cubes);
//! 6. **lift** — reduced-netlist models back to the caller's inputs;
//! 7. **check** — every SAT model against the caller's netlist (a bad one
//!    panics), and with [`Request::check_proof`] the UNSAT proof against
//!    the netlist the kernel solved.
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
use csat_sim::{find_correlations_observed, CorrelationResult, SimulationOptions};
use csat_telemetry::Observer;
use csat_types::{Budget, SearchStats, Verdict};

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

/// Which search engine answers the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The circuit solver with J-node decisions (the paper's C-SAT-Jnode).
    Circuit,
    /// The circuit solver with plain VSIDS over all signals.
    CircuitPlain,
    /// The CNF baseline on the Tseitin encoding.
    Cnf,
}

/// One solve: the caller's netlist and objective, plus the settings the
/// front-ends expose as flags or job fields.
#[derive(Clone, Debug)]
pub struct Request<'a> {
    /// The caller's netlist; SAT models are checked against it.
    pub aig: &'a Aig,
    /// Find an assignment making this literal 1.
    pub objective: Lit,
    /// Search engine.
    pub engine: Engine,
    /// Preprocessing level.
    pub prep: PrepLevel,
    /// Implicit (correlation-guided) learning in the circuit engine.
    pub implicit: bool,
    /// The explicit learning pass before a sequential circuit solve.
    pub explicit: bool,
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
    /// The paper's flow on one thread: circuit engine with J-node
    /// decisions, implicit and explicit learning, no prep, no proof.
    pub fn new(aig: &'a Aig, objective: Lit) -> Request<'a> {
        Request {
            aig,
            objective,
            engine: Engine::Circuit,
            prep: PrepLevel::Off,
            implicit: true,
            explicit: true,
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
    /// Correlation discovery's result.
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
/// events to `obs`.
///
/// # Panics
///
/// Panics when a SAT model fails evaluation on the caller's netlist: an
/// internal error no answer may hide. The daemon's per-job `catch_unwind`
/// turns it into a `panicked` result.
pub fn solve<O: Observer + ?Sized>(request: &Request<'_>, budget: &Budget, obs: &mut O) -> Report {
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
        pipeline.run_under(request.aig, &[request.objective], budget, obs)
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
    } else if request.engine == Engine::Cnf {
        solve_cnf(request, aig, objective, budget, obs, &mut report)
    } else {
        solve_circuit(request, aig, objective, budget, obs, &mut report)
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

/// The CNF baseline on the Tseitin encoding; models come back over CNF
/// variables and are mapped to circuit inputs.
fn solve_cnf<O: Observer + ?Sized>(
    request: &Request<'_>,
    aig: &Aig,
    objective: Lit,
    budget: &Budget,
    obs: &mut O,
    report: &mut Report,
) -> Verdict {
    let enc = tseitin::encode_with_objective(aig, objective);
    let options = csat_cnf::SolverOptions::default();
    let verdict = if request.threads > 1 {
        let outcome = match request.par_mode {
            ParMode::Portfolio => solve_cnf_portfolio(
                &enc.cnf,
                options,
                request.threads,
                &PortfolioOptions::default(),
                budget,
            ),
            ParMode::Cubes => solve_cnf_cubes(
                &enc.cnf,
                options,
                request.threads,
                &CubeOptions::default(),
                budget,
            ),
        };
        parallel_verdict(outcome, report)
    } else {
        let mut solver = csat_cnf::Solver::new(&enc.cnf, options);
        if request.check_proof {
            solver.start_proof();
        }
        let verdict = solver.solve_observed(budget, obs);
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
/// (one correlation analysis shared by every worker).
fn solve_circuit<O: Observer + ?Sized>(
    request: &Request<'_>,
    aig: &Aig,
    objective: Lit,
    budget: &Budget,
    obs: &mut O,
    report: &mut Report,
) -> Verdict {
    let options = SolverOptions::builder()
        .jnode_decisions(request.engine == Engine::Circuit)
        .implicit_learning(request.implicit)
        .build();
    if request.threads > 1 {
        let correlations = request
            .implicit
            .then(|| find_correlations_observed(aig, &request.simulation, obs));
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
                budget,
                configure,
            ),
            ParMode::Cubes => solve_aig_cubes(
                aig,
                objective,
                options,
                request.threads,
                &CubeOptions::default(),
                budget,
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
    if request.implicit || request.explicit {
        let correlations = find_correlations_observed(aig, &request.simulation, obs);
        solver.set_correlations(&correlations);
        if request.explicit {
            report.explicit = Some(explicit::run_budgeted_observed(
                &mut solver,
                &correlations,
                &ExplicitOptions::default(),
                budget,
                obs,
            ));
        }
        report.correlations = Some(correlations);
    }
    let verdict = solver.solve_observed(objective, budget, obs);
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
        let adder = generators::ripple_carry_adder(4);
        let objective = adder.outputs()[0].1;
        for engine in [Engine::Circuit, Engine::CircuitPlain, Engine::Cnf] {
            for prep in [PrepLevel::Off, PrepLevel::Light, PrepLevel::Full] {
                for threads in [1, 2] {
                    let report = run(&Request {
                        engine,
                        prep,
                        threads,
                        ..Request::new(&adder, objective)
                    });
                    // `solve` itself asserts the model on the original netlist.
                    assert!(report.verdict.is_sat(), "{engine:?} {prep:?} {threads}");
                    assert_eq!(report.parallel.is_some(), threads > 1);
                }
            }
        }
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
        for engine in [Engine::Circuit, Engine::CircuitPlain, Engine::Cnf] {
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
            implicit: false,
            explicit: false,
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
}
