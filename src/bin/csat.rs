//! `csat` — command-line circuit SAT solver.
//!
//! ```text
//! csat [OPTIONS] <FILE>
//!
//! FILE formats (by extension): .bench, .aag, .cnf / .dimacs
//!
//! OPTIONS:
//!   --output <NAME>     objective output (default: first output) = 1
//!   --negate            ask for objective = 0 instead
//!   --engine <E>        circuit | circuit-plain | cnf     [default: circuit]
//!   --prep[=<L>]        preprocessing level: off | light | full
//!                       (bare --prep means full)          [default: off]
//!   --no-implicit       disable implicit correlation learning
//!   --no-explicit       disable the explicit learning pass
//!   --check-proof       verify UNSAT answers by reverse unit propagation
//!   --timeout <SECS>    abort after this many seconds
//!   --mem-limit <SIZE>  learned-clause memory budget, k/m/g suffixes
//!                       accepted (DB reduction under pressure; abort only
//!                       if still over the limit)
//!   --sim-words <N>     u64 words simulated per node per round [default: 4]
//!   --sim-threads <N>   simulation threads (needs the `parallel` feature)
//!   --stats             print solver statistics
//!   --progress <SECS>   emit JSONL progress snapshots to stderr
//!   --metrics-out <F>   write an end-of-run JSON metrics report to F
//!   --threads <N>       solve on N parallel workers [default: 1]
//!   --par-mode <M>      portfolio | cubes            [default: portfolio]
//! ```
//!
//! The solve runs through [`csat::pipeline::solve`]: optional prep, then
//! correlation discovery and the explicit learning pass (circuit engines),
//! then the search. A simulated pattern that already sets the objective
//! to 1 is the model (`c witness: simulation round R` on stderr), and the
//! explicit pass and the search are skipped. With `--threads N` (N > 1) the search runs on the
//! parallel layer: `portfolio` races N diversified solver configurations
//! with learned-clause sharing; `cubes` splits on the hottest variables
//! after a probe and conquers the subcubes with work stealing. The verdict
//! is always the same as a sequential solve's; the winning worker,
//! statistics and timing vary run to run. `--check-proof` checks the
//! proof of the circuit or CNF engine and is rejected with `--threads >
//! 1` (parallel runs assemble no single proof log); a failed check exits
//! with status 3.
//!
//! With `--prep` the netlist first runs through the `csat-prep` pipeline
//! (strash rebuild and cone pruning at `light`; plus simulation-guided
//! SAT sweeping at `full`) under the same time/memory/cancel budget as
//! the solve; an interrupt during prep ends the run `s UNKNOWN`. SAT
//! models are lifted back to the original inputs and checked against the
//! original netlist. If preprocessing alone proves the objective
//! constant, the verdict is reported without any kernel solve.
//! `--check-proof` verifies the UNSAT proof against the netlist the
//! kernel actually solved — the reduced one when `--prep` is active.
//!
//! Ctrl-C interrupts the solve cooperatively: the first strike yields
//! `s UNKNOWN` (reason `cancelled`) with partial statistics and a clean
//! exit; the second kills the process with status 130.

use std::process::ExitCode;

use csat::cli;
use csat::core::{ExplicitOptions, SolverOptions};
use csat::pipeline::{load, Engine, Request};
use csat::types::Verdict;

const USAGE: &str = "usage: csat [--output NAME] [--negate] [--engine circuit|circuit-plain|cnf]
            [--prep[=off|light|full]]
            [--no-implicit] [--no-explicit] [--check-proof]
            [--timeout SECS] [--mem-limit SIZE]
            [--sim-words N] [--sim-threads N]
            [--stats] [--progress SECS] [--metrics-out FILE]
            [--threads N] [--par-mode portfolio|cubes]
            <file.{bench,aag,cnf}>";

fn main() -> ExitCode {
    let mut output = None;
    let mut negate = false;
    let mut cnf = false;
    let mut circuit = SolverOptions::paper();
    let mut explicit = true;
    let (options, files) = cli::parse_args(USAGE, |flag, args| {
        match flag {
            "--output" => output = Some(args.next().unwrap_or_else(|| cli::usage(USAGE))),
            "--negate" => negate = true,
            "--engine" => match args.next().as_deref() {
                Some("circuit") => (cnf, circuit.jnode_decisions) = (false, true),
                Some("circuit-plain") => (cnf, circuit.jnode_decisions) = (false, false),
                Some("cnf") => cnf = true,
                _ => cli::usage(USAGE),
            },
            "--no-implicit" => circuit.implicit_learning = false,
            "--no-explicit" => explicit = false,
            _ => return false,
        }
        true
    });
    let [file] = &files[..] else {
        cli::usage(USAGE)
    };
    let loaded =
        cli::read(file).and_then(|(format, text)| load(format, &text, output.as_deref(), negate));
    let (aig, objective) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "c {file}: {} inputs, {} AND gates, objective {objective:?}",
        aig.inputs().len(),
        aig.and_count()
    );
    let engine = if cnf {
        Engine::Cnf(Default::default())
    } else {
        Engine::Circuit(circuit)
    };
    let request = Request {
        engine,
        explicit: explicit.then(ExplicitOptions::default),
        ..options.request(&aig, objective)
    };
    match cli::solve(&options, &request) {
        Ok(Verdict::Sat(model)) => {
            println!("s SATISFIABLE");
            println!("v {}", cli::bits(&model));
            ExitCode::from(10)
        }
        Ok(Verdict::Unsat) => {
            println!("s UNSATISFIABLE");
            ExitCode::from(20)
        }
        Ok(Verdict::Unknown(reason)) => {
            eprintln!("c interrupted: {reason}");
            println!("s UNKNOWN");
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}
