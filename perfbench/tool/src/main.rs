//! Input generator and traced layer replay for the end-to-end benchmark.
//!
//! ```text
//! perfbench-tool gen <cec-batch|sat-vliw|serve-mix|warmup> <seed> <dir>
//! perfbench-tool trace <dir> <out.json> <traced|untraced>   (jobs on stdin)
//! ```
//!
//! `gen` writes the instance files of one workload into `<dir>` and lists
//! them in `<dir>/instances.tsv`; the driver (`run.py`) turns that list into
//! jobs. `trace` replays the jobs it reads from stdin (paths relative to
//! `<dir>`) in this process, calling the same public library functions the
//! `cec`, `csat` and `csat-serve` front-ends call at their defaults, and
//! prints `done` after each job. Each job runs twice, untraced and traced,
//! in alternating order (the last argument names the first job's first
//! pass); the traced pass wraps each call in a span (name, job, parent,
//! start, end) kept in memory and written out at exit, together with the
//! counts those calls return and whether both passes returned the same
//! counts.

use std::fmt::Write as _;
use std::io::{BufRead, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use csat_bench::workload::{self, Scale};
use csat_core::{check_model, explicit, Budget, ExplicitOptions, Solver, SolverOptions, Verdict};
use csat_netlist::generators::{self, VliwOptions};
use csat_netlist::{aiger, bench, cnf::Cnf, miter, optimize, tseitin, two_level, Aig, Lit};
use csat_prep::{PrepLevel, PrepOptions, PrepPipeline};
use csat_sim::{find_correlations_observed, SimulationOptions};
use csat_telemetry::{NoOpObserver, Observer, SolverEvent};

/// The paper-table circuits behind `cec-batch`: the ISCAS-85 stand-ins of
/// `csat-bench` at full scale, plus 20- and 32-bit array multipliers.
fn cec_families() -> Vec<(&'static str, Aig)> {
    let mut families = workload::c_series(Scale::Full);
    families.push(("c6288", workload::c6288(Scale::Full)));
    families.push(("mul20", generators::array_multiplier(20)));
    families.push(("mul32", generators::array_multiplier(32)));
    families
}

/// Satisfiable serve jobs: small (under 10 ms from send to verdict at the
/// median), so the open loop gets many samples at a low worker load. J-node
/// search on the two-level form of a DIMACS payload is heavy-tailed: at 400
/// gates and clauses 13 of 500 such jobs ran past 50 ms (one 300 ms) and the
/// jobs queued behind them set the open loop's p95; at 300, 2 to 5 of 500.
const SERVE_VLIW: VliwOptions = VliwOptions {
    inputs: 32,
    core_gates: 300,
    clauses: 300,
    clause_width: 4,
};

/// The serve-mix pool holds 499 jobs, which puts the open loop's tail at p95
/// with 24 samples beyond it: 10 restructured miters of the paper-table
/// stand-ins and SERVE_HEAVY_MITERS of a SERVE_HEAVY_BITS-bit multiplier,
/// all sent with full prep, 2 self-miters, and satisfiable jobs.
const SERVE_SAT_JOBS: u64 = 499 - 10 - SERVE_HEAVY_MITERS - 2;

/// Heavy prep jobs (25-40 ms of sweeping each): enough of them that the open
/// loop's p95 falls among them, a dense band, rather than among a few rare
/// slow satisfiable jobs and the jobs queued behind those.
const SERVE_HEAVY_MITERS: u64 = 48;
const SERVE_HEAVY_BITS: usize = 12;

/// Restructured variants written per `cec-batch` family.
const CEC_VARIANTS: usize = 32;

/// The SAT side: `vliw_like` between the repo's quick and full scales.
const VLIW: VliwOptions = VliwOptions {
    inputs: 40,
    core_gates: 1500,
    clauses: 1500,
    clause_width: 4,
};

/// splitmix64: derives independent generator seeds from the workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn write(dir: &Path, name: &str, text: &str) {
    std::fs::write(dir.join(name), text).unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
}

/// Writes the instances of one workload; each line of `instances.tsv` is
/// `<family>\t<role>\t<format>\t<expect>\t<gates>\t<file>`.
fn generate(workload: &str, seed: u64, dir: &Path) {
    std::fs::create_dir_all(dir).expect("cannot create the output directory");
    let mut list = String::new();
    let mut add =
        |family: &str, role: &str, format: &str, expect: &str, aig: &Aig, text: String| {
            let ext = match format {
                "aiger" => "aag",
                "dimacs" => "cnf",
                _ => "bench",
            };
            let file = format!("{family}.{role}.{ext}");
            write(dir, &file, &text);
            let gates = aig.and_count();
            let _ = writeln!(
                list,
                "{family}\t{role}\t{format}\t{expect}\t{gates}\t{file}"
            );
        };
    // `vliw_like` registers its objective as the only output, `sat`.
    let vliw = |k: u64| generators::vliw_like(mix(seed, 0x5A7 + k), &VLIW).0;
    match workload {
        "cec-batch" => {
            // Restructured variants per family, one per pass the driver
            // makes, so a run averages over many variants of each circuit.
            // mul32 is only checked against itself: about 1 in 80 of its
            // variants runs for minutes at defaults, too long for a timed run.
            for (k, (family, aig)) in cec_families().into_iter().enumerate() {
                add(family, "left", "bench", "-", &aig, bench::write(&aig));
                let variants = if family == "mul32" { 0 } else { CEC_VARIANTS };
                for p in 0..variants {
                    let variant =
                        optimize::restructure_seeded(&aig, mix(seed, (k * 64 + p) as u64));
                    add(
                        family,
                        &format!("opt{p}"),
                        "bench",
                        "-",
                        &variant,
                        bench::write(&variant),
                    );
                }
            }
        }
        "sat-vliw" => {
            for k in 0..64 {
                let aig = vliw(k);
                add(
                    &format!("vliw{k:02}"),
                    "sat",
                    "bench",
                    "sat",
                    &aig,
                    bench::write(&aig),
                );
            }
        }
        "serve-mix" => {
            // The pool is the same at every seed; `run.py` draws the
            // arrival times and the order of the jobs from the seed. Which
            // rare slow jobs a seed drew decided too much: with seeded SAT
            // jobs, spreads over seeds 1-5 of 0.24 on the p95 and 0.26 on
            // jobs/s, against 0.11 and 0.10 with a fixed set; with seeded
            // miter variants a seed could draw miters that took up to 240 ms
            // to answer, and the p95 spread over seeds 1-5 was 0.20.
            //
            // SAT jobs in all three formats; DIMACS payloads are the Tseitin
            // encoding of the same family with the objective as a unit.
            for k in 0..SERVE_SAT_JOBS {
                let aig = generators::vliw_like(mix(0, 0x5E7 + k), &SERVE_VLIW).0;
                let family = format!("vliw{k:03}");
                let (format, text) = match k % 3 {
                    0 => ("bench", bench::write(&aig)),
                    1 => ("aiger", aiger::write(&aig)),
                    _ => {
                        let enc = tseitin::encode_with_objective(&aig, aig.outputs()[0].1);
                        ("dimacs", enc.cnf.to_dimacs())
                    }
                };
                add(&family, "sat", format, "sat", &aig, text);
            }
            // Restructured UNSAT miters, sent with full prep: two variants of
            // each stand-in up to c7552, one as `.bench` and one as AIGER.
            // The c6288 miter (a 120-ms sweep) and, below, the 32-bit
            // self-miter (1 MB, over 100 ms of parsing) are left out: with
            // them, how many jobs queue behind them moved the p95 spread over
            // seeds 1-5 from 0.11 to 0.30.
            for (k, (family, aig)) in workload::c_series(Scale::Full).into_iter().enumerate() {
                for (v, format) in ["bench", "aiger"].into_iter().enumerate() {
                    let salt = 0x0B7 + (2 * k + v) as u64;
                    let variant = optimize::restructure_seeded(&aig, mix(0, salt));
                    // Miters register their objective as the only output.
                    let out = miter::build_fresh(&aig, &variant, Default::default()).aig;
                    let text = if format == "bench" {
                        bench::write(&out)
                    } else {
                        aiger::write(&out)
                    };
                    add(
                        &format!("{family}v{v}"),
                        "opt-miter",
                        format,
                        "unsat",
                        &out,
                        text,
                    );
                }
            }
            let heavy = generators::array_multiplier(SERVE_HEAVY_BITS);
            for v in 0..SERVE_HEAVY_MITERS {
                let variant = optimize::restructure_seeded(&heavy, mix(0, 0x3B7 + v));
                let out = miter::build_fresh(&heavy, &variant, Default::default()).aig;
                let (format, text) = if v % 2 == 0 {
                    ("bench", bench::write(&out))
                } else {
                    ("aiger", aiger::write(&out))
                };
                add(
                    &format!("mul{SERVE_HEAVY_BITS}v{v:02}"),
                    "opt-miter",
                    format,
                    "unsat",
                    &out,
                    text,
                );
            }
            // Large self-miters: one file holding both copies.
            for (family, aig) in [
                ("c6288", workload::c6288(Scale::Full)),
                ("mul20", generators::array_multiplier(20)),
            ] {
                let out = miter::self_miter(&aig, Default::default()).aig;
                add(
                    family,
                    "self-miter",
                    "bench",
                    "unsat",
                    &out,
                    bench::write(&out),
                );
            }
        }
        "warmup" => {
            // Fixed (seed-independent) instances answered before timing.
            for (family, aig) in cec_families().into_iter().take(6).step_by(2) {
                add(family, "left", "bench", "-", &aig, bench::write(&aig));
                let variant = optimize::restructure_seeded(&aig, 0xA11CE);
                add(
                    family,
                    "opt",
                    "bench",
                    "-",
                    &variant,
                    bench::write(&variant),
                );
                let m = miter::build_fresh(&aig, &variant, Default::default()).aig;
                add(family, "opt-miter", "bench", "unsat", &m, bench::write(&m));
            }
            let small = VliwOptions {
                inputs: 32,
                core_gates: 600,
                clauses: 600,
                clause_width: 3,
            };
            for k in 0..3u64 {
                let (aig, _) = generators::vliw_like(0xA11CE + k, &small);
                add(
                    &format!("small{k}"),
                    "sat",
                    "bench",
                    "sat",
                    &aig,
                    bench::write(&aig),
                );
            }
        }
        other => panic!("unknown workload '{other}'"),
    }
    write(dir, "instances.tsv", &list);
}

/// One timed call: what `run.py` turns into per-layer self times.
struct Span {
    name: &'static str,
    job: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Records spans when on; when off, runs the call and nothing else.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    job: usize,
    root: Option<usize>,
}

impl Tracer {
    fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        let start = self.origin.elapsed();
        let out = call();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.root,
            start,
            end,
        });
        out
    }
}

/// Counts the clause-database reductions of one search call.
#[derive(Default)]
struct Reductions(u64);

impl Observer for Reductions {
    fn record(&mut self, event: SolverEvent) {
        if let SolverEvent::DbReduced { .. } = event {
            self.0 += 1;
        }
    }
}

/// Counts returned by the replayed calls, in output order.
type Counts = Vec<(&'static str, u64)>;

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("cannot read {file}: {e}"))
}

/// Loads an instance like `csat` and `csat-serve` do: the first output is
/// the objective, DIMACS arrives through the two-level translation.
fn load(t: &mut Tracer, format: &str, text: &str, counts: &mut Counts) -> (Aig, Lit) {
    let (aig, objective) = t.span("netlist.parse", || match format {
        "bench" => {
            let aig = bench::parse(text).expect("generated .bench parses");
            let objective = aig.outputs()[0].1;
            (aig, objective)
        }
        "aiger" => {
            let aig = aiger::parse(text).expect("generated .aag parses");
            let objective = aig.outputs()[0].1;
            (aig, objective)
        }
        _ => {
            let cnf = Cnf::from_dimacs(text).expect("generated DIMACS parses");
            let tl = two_level::from_cnf(&cnf);
            (tl.aig, tl.objective)
        }
    });
    counts.push(("netlist.bytes", text.len() as u64));
    counts.push(("netlist.ands", aig.and_count() as u64));
    (aig, objective)
}

/// Simulation, explicit learning and the final search, as `cec` and
/// `csat` run them at their defaults.
fn learn_and_solve(
    t: &mut Tracer,
    aig: &Aig,
    objective: Lit,
    options: SolverOptions,
    counts: &mut Counts,
) -> Verdict {
    let budget = Budget::UNLIMITED;
    let mut solver = t.span("search.build", || Solver::new(aig, options));
    let correlations = t.span("sim.correlate", || {
        find_correlations_observed(aig, &SimulationOptions::default(), &mut NoOpObserver)
    });
    counts.push(("sim.rounds", correlations.stats.rounds as u64));
    counts.push(("sim.patterns", correlations.stats.patterns));
    counts.push(("sim.correlations", correlations.correlations.len() as u64));
    solver.set_correlations(&correlations);
    let before = *solver.stats();
    let report = t.span("explicit.run", || {
        explicit::run_budgeted_observed(
            &mut solver,
            &correlations,
            &ExplicitOptions::default(),
            &budget,
            &mut NoOpObserver,
        )
    });
    let mid = *solver.stats();
    counts.push(("explicit.subproblems", report.subproblems as u64));
    counts.push(("explicit.refuted", report.refuted as u64));
    counts.push(("explicit.aborted", report.aborted as u64));
    counts.push(("explicit.conflicts", mid.conflicts - before.conflicts));
    search(t, &mut solver, objective, mid, counts)
}

fn search(
    t: &mut Tracer,
    solver: &mut Solver<'_>,
    objective: Lit,
    before: csat_core::Stats,
    counts: &mut Counts,
) -> Verdict {
    let mut reductions = Reductions::default();
    let verdict = t.span("search.solve", || {
        solver.solve_observed(objective, &Budget::UNLIMITED, &mut reductions)
    });
    let after = *solver.stats();
    counts.push(("search.conflicts", after.conflicts - before.conflicts));
    counts.push(("search.decisions", after.decisions - before.decisions));
    counts.push((
        "search.propagations",
        after.propagations - before.propagations,
    ));
    counts.push(("search.restarts", after.restarts - before.restarts));
    counts.push(("search.db_reductions", reductions.0));
    verdict
}

/// Replays one job; returns its verdict name for the cross-check.
fn replay(t: &mut Tracer, dir: &Path, fields: &[&str], counts: &mut Counts) -> &'static str {
    let verdict = match fields[0] {
        // cec <id> <expect> <left> <right>
        "cec" => {
            let (lt, rt) = (read(dir, fields[3]), read(dir, fields[4]));
            let (left, _) = load(t, "bench", &lt, counts);
            let (right, _) = load(t, "bench", &rt, counts);
            let m = t.span("netlist.miter", || {
                miter::build_fresh(&left, &right, Default::default())
            });
            let options = SolverOptions::builder().implicit_learning(true).build();
            let verdict = learn_and_solve(t, &m.aig, m.objective, options, counts);
            if let Verdict::Sat(model) = &verdict {
                let differs = t.span("cli.validate", || {
                    left.evaluate_outputs(model) != right.evaluate_outputs(model)
                });
                assert!(differs, "counterexample does not distinguish");
            }
            verdict
        }
        // csat <id> <expect> <file>
        "csat" => {
            let text = read(dir, fields[3]);
            let (aig, objective) = load(t, "bench", &text, counts);
            let options = SolverOptions::builder()
                .jnode_decisions(true)
                .implicit_learning(true)
                .build();
            let verdict = learn_and_solve(t, &aig, objective, options, counts);
            if let Verdict::Sat(model) = &verdict {
                let ok = t.span("cli.validate", || check_model(&aig, model, objective));
                assert!(ok, "model does not satisfy the objective");
            }
            verdict
        }
        // serve <id> <expect> <format> <prep> <file>: `solve_once` at one
        // thread — optional prep, then plain J-node search.
        "serve" => {
            let text = read(dir, fields[5]);
            let (aig, objective) = load(t, fields[3], &text, counts);
            let prepped = (fields[4] == "full").then(|| {
                let pipeline = PrepPipeline::new(PrepOptions {
                    level: PrepLevel::Full,
                    ..PrepOptions::default()
                });
                let r = t.span("prep.run", || {
                    pipeline.run_under(&aig, &[objective], &Budget::UNLIMITED, &mut NoOpObserver)
                });
                counts.push(("prep.nodes_in", r.stats.nodes_before as u64));
                counts.push(("prep.nodes_out", r.stats.nodes_after as u64));
                counts.push(("prep.candidates", r.stats.candidates as u64));
                counts.push(("prep.merged", r.stats.merged as u64));
                counts.push(("prep.sweep_conflicts", r.stats.sweep_conflicts));
                r
            });
            let (solve_aig, solve_objective) = match &prepped {
                Some(r) => (
                    &r.reduced,
                    r.map_lit(objective).expect("objective is a root"),
                ),
                None => (&aig, objective),
            };
            let verdict = if solve_objective == Lit::FALSE {
                Verdict::Unsat
            } else if solve_objective == Lit::TRUE {
                Verdict::Sat(vec![false; solve_aig.inputs().len()])
            } else {
                let options = SolverOptions::builder()
                    .jnode_decisions(true)
                    .implicit_learning(false)
                    .build();
                let mut solver = t.span("search.build", || Solver::new(solve_aig, options));
                let before = *solver.stats();
                search(t, &mut solver, solve_objective, before, counts)
            };
            match (verdict, &prepped) {
                (Verdict::Sat(model), Some(r)) => {
                    Verdict::Sat(t.span("prep.lift", || r.lift_model(&model)))
                }
                (v, _) => v,
            }
        }
        other => panic!("unknown job kind '{other}'"),
    };
    match verdict {
        Verdict::Sat(_) => "sat",
        Verdict::Unsat => "unsat",
        Verdict::Unknown(_) => "unknown",
    }
}

/// Replays the jobs read from stdin, one `jobs.tsv` line each, and prints
/// `done` after each so the caller can interleave them with CLI runs. Each
/// job runs twice, untraced and traced, in an order that alternates from job
/// to job (traced first on even jobs when `traced_first`), so cold-cache
/// effects fall on both passes alike.
fn trace(dir: &Path, out: &Path, traced_first: bool) {
    let mut t = Tracer {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        job: 0,
        root: None,
    };
    let mut stdout = std::io::stdout();
    let mut json = String::from("{\"jobs\": [");
    let lines = std::io::stdin().lock().lines();
    for (job, line) in lines.map(|l| l.expect("cannot read a job")).enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        let mut untraced_counts = Counts::new();
        let mut counts = Counts::new();
        let mut untraced = Duration::ZERO;
        let mut verdict = "";
        let first = traced_first == (job % 2 == 0);
        for traced in [first, !first] {
            if !traced {
                t.on = false;
                let started = Instant::now();
                replay(&mut t, dir, &fields, &mut untraced_counts);
                untraced = started.elapsed();
                continue;
            }
            t.on = true;
            t.job = job;
            let root = t.spans.len();
            t.spans.push(Span {
                name: "job",
                job,
                parent: None,
                start: t.origin.elapsed(),
                end: Duration::ZERO,
            });
            t.root = Some(root);
            verdict = replay(&mut t, dir, &fields, &mut counts);
            t.spans[root].end = t.origin.elapsed();
            t.root = None;
        }
        let _ = write!(
            json,
            "{}\n  {{\"id\": \"{}\", \"verdict\": \"{verdict}\", \"untraced_s\": {:.9}, \
             \"traced_first\": {first}, \"counts_repeat\": {}, \"counts\": {{",
            if job == 0 { "" } else { "," },
            fields[1],
            untraced.as_secs_f64(),
            untraced_counts == counts
        );
        for (k, (name, value)) in counts.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {value}");
        }
        json.push_str("}}");
        writeln!(stdout, "done")
            .and_then(|()| stdout.flush())
            .expect("cannot answer");
    }
    json.push_str("\n], \"spans\": [");
    for (k, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            json,
            "{}\n  [\"{}\", {}, {parent}, {:.9}, {:.9}]",
            if k == 0 { "" } else { "," },
            s.name,
            s.job,
            s.start.as_secs_f64(),
            s.end.as_secs_f64()
        );
    }
    json.push_str("\n]}\n");
    std::fs::write(out, json).expect("cannot write the trace");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["gen", workload, seed, dir] => {
            let seed = seed.parse().expect("seed must be an unsigned integer");
            generate(workload, seed, Path::new(dir));
        }
        ["trace", dir, out, first @ ("traced" | "untraced")] => {
            trace(Path::new(dir), Path::new(out), *first == "traced");
        }
        _ => {
            eprintln!(
                "usage: perfbench-tool gen <workload> <seed> <dir> \
                 | trace <dir> <out.json> <traced|untraced>  (jobs on stdin)"
            );
            std::process::exit(2);
        }
    }
}
