//! `csat-fuzz` — deterministic differential fuzzing of the solver matrix.
//!
//! ```text
//! csat-fuzz [OPTIONS]
//!
//! OPTIONS:
//!   --seed <N>          base seed [default: 0]
//!   --iters <N>         instances to generate and cross-check [default: 100]
//!   --time-budget <S>   stop early after this many seconds of wall clock
//!   --matrix <M>        quick | full | incremental | serve | prep
//!                       [default: quick]
//!   --json              emit one JSONL row per instance to stdout
//!   --corpus-dir <D>    where disagreement repros are written
//!                       [default: fuzz/corpus]
//!   --conflict-budget <N>  per-oracle conflict budget [default: 100000]
//!   --mem-limit <SIZE>  per-oracle learned-clause memory budget
//!                       (k/m/g suffixes accepted)
//!   --threads <N>       workers for the parallel oracle columns
//!                       [default: 1 = sequential matrix only]
//! ```
//!
//! With `--threads N` (N > 1) the `par-portfolio` and `par-cubes` columns
//! join the matrix: each races N diversified workers on the circuit
//! backend and its verdict is cross-checked against the sequential,
//! proof-backed oracles — the parallel-vs-sequential differential gate.
//!
//! Exit codes: 0 — all oracles agreed on every instance; 1 — at least one
//! disagreement (repros written to the corpus directory); 2 — usage error.
//!
//! `--matrix incremental` switches to the session-trajectory family: each
//! iteration replays a random add/push/assume/pop/solve trajectory on one
//! incremental [`csat::core::Solver`] or [`csat::cnf::Solver`] and
//! cross-checks every solve point against a fresh monolithic solver. Trajectory disagreements
//! are replayed from the seed alone, so no corpus repro is written.
//!
//! `--matrix prep` runs the preprocessing differential: every instance is
//! solved through `csat-prep` at `off`, `light` and `full` levels plus the
//! CNF baseline, with SAT models lifted back through the reconstruction
//! map and re-checked on the *original* netlist. Any verdict flip or
//! invalid lifted model is a disagreement.
//!
//! `--matrix serve` switches to the daemon-protocol family: each iteration
//! feeds one seed-derived batch of hostile JSONL frames — malformed,
//! truncated, byte-mutated, duplicate-id — to the `csat-serve` request
//! parser and asserts it never panics, rejects with structured errors, and
//! parses deterministically. Violations replay from the seed alone.
//!
//! Ctrl-C stops the sweep cooperatively: the current oracle aborts at its
//! next checkpoint, the summary row is still written, and the exit code
//! reflects the disagreements found so far. A second Ctrl-C kills the
//! process with status 130.
//!
//! With equal options two runs produce byte-identical JSONL except for the
//! `seconds` timing fields (and, under `--time-budget`, possibly the row
//! count); see the `csat-fuzz` crate docs for the reproducibility contract.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use csat::fuzz::{run, FuzzOptions, Matrix};
use csat::types::parse_byte_size;

fn usage() -> ! {
    eprintln!(
        "usage: csat-fuzz [--seed N] [--iters N] [--time-budget SECS]\n\
         \x20               [--matrix quick|full|incremental|serve|prep] [--json]\n\
         \x20               [--corpus-dir DIR]\n\
         \x20               [--conflict-budget N] [--mem-limit SIZE]\n\
         \x20               [--threads N]"
    );
    std::process::exit(2)
}

fn parse_args() -> FuzzOptions {
    let mut options = FuzzOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--iters" => {
                options.iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--time-budget" => {
                let secs: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&s| s > 0.0)
                    .unwrap_or_else(|| usage());
                options.time_budget = Some(Duration::from_secs_f64(secs));
            }
            "--matrix" => {
                options.matrix = args
                    .next()
                    .and_then(|s| Matrix::parse(&s))
                    .unwrap_or_else(|| usage());
            }
            "--json" => options.json = true,
            "--corpus-dir" => {
                options.corpus_dir = PathBuf::from(args.next().unwrap_or_else(|| usage()));
            }
            "--conflict-budget" => {
                options.conflict_budget = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                options.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--mem-limit" => {
                let text = args.next().unwrap_or_else(|| usage());
                match parse_byte_size(&text) {
                    Ok(bytes) => options.mem_limit = Some(bytes),
                    Err(e) => {
                        eprintln!("error: --mem-limit: {e}");
                        std::process::exit(2);
                    }
                }
            }
            _ => usage(),
        }
    }
    options
}

fn main() -> ExitCode {
    let mut options = parse_args();
    options.cancel = Some(csat::signal::install());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let summary = match run(&options, &mut out) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("c error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "c {} instances ({} sat, {} unsat, {} unknown) in {:.1}s, {} disagreement(s)",
        summary.iters_run,
        summary.sat,
        summary.unsat,
        summary.unknown_only,
        summary.elapsed.as_secs_f64(),
        summary.disagreements
    );
    if summary.cancelled {
        eprintln!(
            "c cancelled by Ctrl-C after {} instance(s)",
            summary.iters_run
        );
    }
    for repro in &summary.repros {
        eprintln!("c repro written: {}", repro.bench.display());
    }
    if summary.disagreements > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
