//! What the `csat` and `cec` command lines share.
//!
//! Both binaries are argument parsers and verdict printers over
//! [`csat_pipeline`]. This module holds the rest: the eleven flags both
//! accept, the budget (timeout, memory limit, Ctrl-C) and observer
//! (`--progress`, `--metrics-out`) set-up, the `c` diagnostic lines
//! printed from the pipeline's [`Report`] after the solve, and the
//! `--metrics-out` report.

use std::iter::{Peekable, Skip};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use csat_netlist::{Aig, Lit};
use csat_par::ParMode;
use csat_pipeline::{Format, Report, Request};
use csat_prep::PrepLevel;
use csat_sim::SimulationOptions;
use csat_telemetry::{NoOpObserver, Observer, ProgressObserver};
use csat_types::{parse_byte_size, Budget, Verdict};

/// The command line after the program name.
pub type Args = Peekable<Skip<std::env::Args>>;

/// The flags both binaries accept.
#[derive(Clone, Debug)]
pub struct Options {
    /// `--prep[=LEVEL]`: preprocessing level (bare `--prep` means full).
    pub prep: PrepLevel,
    /// `--check-proof`: verify UNSAT answers by reverse unit propagation.
    pub check_proof: bool,
    /// `--timeout SECS`.
    pub timeout: Option<Duration>,
    /// `--mem-limit SIZE`: learned-clause memory budget in bytes.
    pub mem_limit: Option<u64>,
    /// `--sim-words N` and `--sim-threads N`.
    pub simulation: SimulationOptions,
    /// `--stats`: print solver statistics.
    pub stats: bool,
    /// `--progress SECS`: JSONL progress snapshots on stderr.
    pub progress: Option<Duration>,
    /// `--metrics-out FILE`: end-of-run JSON metrics report.
    pub metrics_out: Option<String>,
    /// `--threads N`: parallel workers.
    pub threads: usize,
    /// `--par-mode portfolio|cubes`.
    pub par_mode: ParMode,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            prep: PrepLevel::Off,
            check_proof: false,
            timeout: None,
            mem_limit: None,
            simulation: SimulationOptions::default(),
            stats: false,
            progress: None,
            metrics_out: None,
            threads: 1,
            par_mode: ParMode::Portfolio,
        }
    }
}

impl Options {
    /// A pipeline request carrying these options; the caller sets the
    /// engine and learning switches.
    pub fn request<'a>(&self, aig: &'a Aig, objective: Lit) -> Request<'a> {
        Request {
            prep: self.prep,
            simulation: self.simulation,
            check_proof: self.check_proof,
            threads: self.threads,
            par_mode: self.par_mode,
            ..Request::new(aig, objective)
        }
    }
}

/// Prints `text` to stderr and exits with status 2.
pub fn usage(text: &str) -> ! {
    eprintln!("{text}");
    std::process::exit(2)
}

/// The next argument parsed as `T` and accepted by `ok`; anything else
/// is a usage error.
fn value<T: FromStr>(args: &mut Args, text: &str, ok: impl Fn(&T) -> bool) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(ok)
        .unwrap_or_else(|| usage(text))
}

/// Parses the command line. The shared flags land in [`Options`]; `own`
/// gets every other flag first and returns whether it took it (reading
/// any value from the iterator it is given). Non-flag arguments come back
/// in order. An unknown flag, a bad value or `--help` prints `text` and
/// exits with status 2.
pub fn parse_args(
    text: &str,
    mut own: impl FnMut(&str, &mut Args) -> bool,
) -> (Options, Vec<String>) {
    let mut options = Options::default();
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `--prep` alone means full; `--prep LEVEL` / `--prep=LEVEL`
            // pick a level explicitly.
            "--prep" => {
                options.prep = match args.peek().and_then(|s| PrepLevel::parse(s)) {
                    Some(level) => {
                        args.next();
                        level
                    }
                    None => PrepLevel::Full,
                }
            }
            prep_eq if prep_eq.starts_with("--prep=") => {
                options.prep =
                    PrepLevel::parse(&prep_eq["--prep=".len()..]).unwrap_or_else(|| usage(text));
            }
            "--check-proof" => options.check_proof = true,
            "--timeout" => {
                options.timeout = Some(Duration::from_secs(value(&mut args, text, |_| true)));
            }
            "--mem-limit" => {
                let size = args.next().unwrap_or_else(|| usage(text));
                match parse_byte_size(&size) {
                    Ok(bytes) => options.mem_limit = Some(bytes),
                    Err(e) => {
                        eprintln!("error: --mem-limit: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--sim-words" => options.simulation.words = value(&mut args, text, |&w| w >= 1),
            "--sim-threads" => options.simulation.threads = value(&mut args, text, |&t| t >= 1),
            "--stats" => options.stats = true,
            "--progress" => {
                options.progress = Some(Duration::from_secs(value(&mut args, text, |_| true)));
            }
            "--metrics-out" => {
                options.metrics_out = Some(args.next().unwrap_or_else(|| usage(text)));
            }
            "--threads" => options.threads = value(&mut args, text, |&t| t >= 1),
            "--par-mode" => options.par_mode = value(&mut args, text, |_| true),
            "--help" | "-h" => usage(text),
            flag if own(flag, &mut args) => {}
            other if !other.starts_with('-') => positional.push(other.to_string()),
            _ => usage(text),
        }
    }
    if options.threads > 1 && options.check_proof {
        eprintln!("error: --check-proof requires the sequential engine (drop --threads)");
        std::process::exit(2);
    }
    (options, positional)
}

/// Reads an instance file, naming its format by extension.
pub fn read(path: &str) -> Result<(Format, String), String> {
    let format =
        Format::from_path(path).ok_or("unrecognized file extension (use .bench, .aag or .cnf)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    Ok((format, text))
}

/// A model as the `0`/`1` string both binaries print.
pub fn bits(model: &[bool]) -> String {
    model.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Solves `request` under the options' budget and observer, then prints
/// the `c` lines and writes `--metrics-out`. Returns the verdict, or exit
/// status 3 when an UNSAT proof failed its check.
///
/// Ctrl-C interrupts cooperatively: the verdict comes back `Unknown`
/// (reason `cancelled`); a second Ctrl-C kills the process.
pub fn solve(options: &Options, request: &Request<'_>) -> Result<Verdict, ExitCode> {
    let start = Instant::now();
    // Aggregate metrics whenever either telemetry flag is set; otherwise
    // the solvers run with the no-op observer.
    let observing = options.progress.is_some() || options.metrics_out.is_some();
    let mut progress = ProgressObserver::new(std::io::stderr(), options.progress);
    let mut noop = NoOpObserver;
    let obs: &mut dyn Observer = if observing { &mut progress } else { &mut noop };
    let budget = Budget::from_timeout(options.timeout)
        .with_memory_limit(options.mem_limit)
        .with_cancel(crate::signal::install());
    let report = csat_pipeline::solve(request, &budget, obs);
    print_report(options, &report);
    if let Some(Err(e)) = &report.proof {
        eprintln!("c proof: FAILED — {e}");
        return Err(ExitCode::from(3));
    }
    let elapsed = start.elapsed();
    eprintln!("c solved in {elapsed:?}");
    if let Some(path) = &options.metrics_out {
        let name = match &report.verdict {
            Verdict::Sat(_) => "SAT",
            Verdict::Unsat => "UNSAT",
            Verdict::Unknown(_) => "UNKNOWN",
        };
        // Parallel workers record into their own recorders; fold the
        // merged copy in so the report covers every worker.
        if let Some(outcome) = &report.parallel {
            progress.recorder.merge(&outcome.metrics);
        }
        let json = progress.recorder.report_json(name, elapsed);
        match std::fs::write(path, json + "\n") {
            Ok(()) => eprintln!("c metrics written to {path}"),
            Err(e) => eprintln!("c warning: could not write {path}: {e}"),
        }
    }
    Ok(report.verdict)
}

/// The `c` lines for each step the pipeline ran.
fn print_report(options: &Options, report: &Report) {
    if let Some(s) = &report.prep {
        eprintln!(
            "c prep({}): {} -> {} nodes ({} folded, {} pruned, {} of {} candidates merged)",
            options.prep.name(),
            s.nodes_before,
            s.nodes_after,
            s.strash_folded,
            s.cones_pruned,
            s.merged,
            s.candidates
        );
        if let Some(reason) = s.interrupted {
            eprintln!("c prep interrupted: {reason}");
        }
    }
    if let Some(value) = report.constant {
        eprintln!("c objective is constant {value} — no kernel solve needed");
    }
    if let Some(c) = &report.correlations {
        eprintln!(
            "c simulation: {} correlations in {:?} ({} rounds, {} patterns, \
             sim {:?} + refine {:?})",
            c.correlations.len(),
            c.elapsed,
            c.stats.rounds,
            c.stats.patterns,
            c.stats.sim_time,
            c.stats.refine_time
        );
        if c.witness.is_some() {
            // Simulation stops after the round that found the model.
            eprintln!("c witness: simulation round {}", c.rounds - 1);
        }
    }
    if let Some(x) = &report.explicit {
        eprintln!(
            "c explicit learning: {} sub-problems ({} refuted)",
            x.subproblems, x.refuted
        );
        if x.panicked > 0 {
            eprintln!(
                "c explicit learning: {} sub-solve(s) panicked (isolated)",
                x.panicked
            );
        }
        if let Some(reason) = x.interrupted {
            eprintln!("c explicit learning interrupted: {reason}");
        }
    }
    if let Some(p) = &report.parallel {
        eprintln!(
            "c parallel: {} workers ({:?}), winner {:?}, {} rounds total in {:?}",
            p.workers.len(),
            options.par_mode,
            p.winner,
            p.workers.iter().map(|w| w.rounds).sum::<u64>(),
            p.elapsed
        );
        if options.stats {
            for w in &p.workers {
                eprintln!(
                    "c worker {}: {:?}{} {:?}",
                    w.worker,
                    w.outcome,
                    if w.winner { " (winner)" } else { "" },
                    w.stats
                );
            }
        }
    }
    if let (true, Some(stats)) = (options.stats, &report.stats) {
        eprintln!("c stats: {stats:?}");
    }
    if let Some(Ok(clauses)) = report.proof {
        eprintln!("c proof: VERIFIED ({clauses} clauses)");
    }
}
