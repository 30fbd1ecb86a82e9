//! `cec` — combinational equivalence checker.
//!
//! The paper's motivating application: given two circuit files with the
//! same interface, prove them equivalent (UNSAT miter) or print a
//! counterexample, using the full signal-correlation pipeline.
//!
//! ```text
//! cec [OPTIONS] <LEFT> <RIGHT>
//!
//! LEFT/RIGHT: .bench or .aag circuit files (matched by input/output count)
//!
//! OPTIONS:
//!   --prep[=<L>]        preprocessing level: off | light | full
//!                       (bare --prep means full)          [default: off]
//!   --no-learning       plain C-SAT-Jnode (no correlation learning)
//!   --check-proof       verify an EQUIVALENT verdict by unit propagation
//!   --timeout <SECS>    abort after this many seconds
//!   --mem-limit <SIZE>  learned-clause memory budget, k/m/g suffixes
//!                       accepted (DB reduction under pressure; abort only
//!                       if still over the limit)
//!   --sim-words <N>     u64 words simulated per node per round [default: 4]
//!   --sim-threads <N>   simulation threads (needs the `parallel` feature)
//!   --stats             print solver statistics
//!   --progress <SECS>   emit JSONL progress snapshots to stderr
//!   --metrics-out <F>   write an end-of-run JSON metrics report to F
//!   --threads <N>       solve the miter on N parallel workers [default: 1]
//!   --par-mode <M>      portfolio | cubes            [default: portfolio]
//! ```
//!
//! The miter is solved by [`csat::pipeline::solve`], exactly as `csat`
//! would solve it. With `--threads N` (N > 1) the final solve runs on the
//! parallel layer (see `csat --help` for the portfolio/cubes split); the
//! correlation analysis is shared across workers but the explicit
//! learning pass is skipped (it targets a single solver's clause
//! database). `--check-proof` is rejected with `--threads > 1`.
//!
//! The correlation simulation also watches the miter output. When one of
//! its random patterns already tells the two circuits apart, that pattern
//! is the counterexample: `cec` prints `c witness: simulation round R` on
//! stderr and answers DIFFERENT with no explicit learning and no search,
//! on one thread or many, with or without `--prep`. An equivalent pair
//! never has such a pattern, so its check runs the whole flow; with
//! `--no-learning` nothing is simulated and the search finds every
//! counterexample.
//!
//! With `--prep full` the miter first runs through the `csat-prep`
//! pipeline, which usually collapses equivalent circuit pairs outright:
//! when preprocessing proves the miter objective constant false the
//! verdict is EQUIVALENT with no kernel solve at all (in that fast path
//! there is no resolution proof, so `--check-proof` has nothing to
//! verify and is skipped). Counterexample models found on the reduced
//! miter are lifted back to the original inputs before display.
//!
//! Exit code 0 = equivalent, 1 = different, 2 = usage/input error,
//! 3 = proof check failure, 4 = interrupted (timeout, memory, Ctrl-C).
//!
//! Ctrl-C interrupts prep, the explicit-learning pass and the final solve
//! cooperatively (`UNKNOWN (cancelled)`, exit 4); a second Ctrl-C kills
//! the process with status 130.

use std::process::ExitCode;

use csat::cli;
use csat::netlist::{aiger, bench, miter, Aig};
use csat::pipeline::{Format, Request};
use csat::types::Verdict;

const USAGE: &str =
    "usage: cec [--prep[=off|light|full]] [--no-learning] [--check-proof] [--timeout SECS]
           [--mem-limit SIZE] [--sim-words N] [--sim-threads N]
           [--stats] [--progress SECS] [--metrics-out FILE]
           [--threads N] [--par-mode portfolio|cubes]
           <left> <right>";

/// Reads one side of the check; only circuit formats make sense here.
fn circuit(path: &str) -> Result<Aig, String> {
    match cli::read(path)? {
        (Format::Bench, text) => bench::parse(&text).map_err(|e| e.to_string()),
        (Format::Aiger, text) => aiger::parse(&text).map_err(|e| e.to_string()),
        _ => Err("unrecognized file extension (use .bench or .aag)".to_string()),
    }
}

fn main() -> ExitCode {
    let mut learning = true;
    let (options, files) = cli::parse_args(USAGE, |flag, _| {
        let ours = flag == "--no-learning";
        if ours {
            learning = false;
        }
        ours
    });
    let [left, right] = &files[..] else {
        cli::usage(USAGE)
    };
    let (left, right) = match (circuit(left), circuit(right)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if left.inputs().len() != right.inputs().len() || left.outputs().len() != right.outputs().len()
    {
        eprintln!(
            "error: interface mismatch ({}×{} vs {}×{} inputs×outputs)",
            left.inputs().len(),
            left.outputs().len(),
            right.inputs().len(),
            right.outputs().len()
        );
        return ExitCode::from(2);
    }
    let m = miter::build_fresh(&left, &right, Default::default());
    eprintln!(
        "c miter: {} AND gates over {} inputs",
        m.aig.and_count(),
        m.aig.inputs().len()
    );
    let request = Request {
        implicit: learning,
        explicit: learning,
        ..options.request(&m.aig, m.objective)
    };
    match cli::solve(&options, &request) {
        Ok(Verdict::Unsat) => {
            println!("EQUIVALENT");
            ExitCode::SUCCESS
        }
        Ok(Verdict::Sat(model)) => {
            // The pipeline checked the model against the miter; show which
            // outputs it tells apart.
            let lo = left.evaluate_outputs(&model);
            let ro = right.evaluate_outputs(&model);
            println!("DIFFERENT");
            println!("input: {}", cli::bits(&model));
            for (k, (name, _)) in left.outputs().iter().enumerate() {
                if lo[k] != ro[k] {
                    println!("output {name}: left={} right={}", lo[k] as u8, ro[k] as u8);
                }
            }
            ExitCode::from(1)
        }
        Ok(Verdict::Unknown(reason)) => {
            println!("UNKNOWN ({reason})");
            ExitCode::from(4)
        }
        Err(code) => code,
    }
}
