//! Solve-side performance trajectory: the rows of `BENCH_solve.json`.
//!
//! Every row measures one `(family, solver)` pair over a deterministic
//! workload set under a fixed conflict budget, reporting nanoseconds per
//! conflict, propagations per second and conflicts per second. The file
//! keeps two row sets side by side:
//!
//! * `baseline` — captured once (pre-optimization) and preserved verbatim
//!   by later runs, so the perf delta of any change stays visible, and
//! * `rows` — the current measurement, refreshed by each `solve_bench` run.
//!
//! The `solve_bench --check` mode backs the `scripts/ci.sh perf-smoke`
//! gate: it re-measures the quick subset and fails when host-adjusted
//! ns/conflict regresses more than [`REGRESSION_THRESHOLD`] against the
//! checked-in `rows`.
//!
//! **Host adjustment.** A shared host changes speed by tens of percent
//! over minutes, so absolute ns/conflict compares hosts as much as code.
//! Every row therefore also records [`calibration_ms`]: the pass time of
//! a fixed CRC-32 loop, which is not solver code, averaged over a window
//! as long as each repetition and taken right after it (the best of the
//! repetitions, like the wall time). The check divides each row's
//! ns/conflict by its loop time before comparing, so a host that runs
//! everything 20% slower moves both alike and a solver that got 20% slower
//! moves only one (the idea of `perfbench/host.py`). DESIGN.md §5g has
//! how closely the loop follows the rows under load.

use std::time::Instant;

use csat_core::{explicit, Budget, ExplicitOptions, Solver, SolverOptions};
use csat_netlist::{tseitin, Aig, Lit};
use csat_prep::{PrepLevel, PrepPipeline};
use csat_sim::{find_correlations, Relation, SimulationOptions};
use csat_telemetry::json::{self, Json, JsonObject};
use csat_telemetry::NoOpObserver;

use crate::workload::{
    c6288_opt, equiv_suite, mul12_opt, opt_suite, scan_suite, sweep_workload, Scale, Workload,
};

/// Which solver a perf row drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// The circuit solver in its default J-node configuration (no
    /// correlation simulation — the row isolates the search hot loops).
    CircuitJnode,
    /// The ZChaff-class CNF baseline on the Tseitin encoding.
    Cnf,
    /// One incremental circuit [`Solver`] over the workload's whole
    /// SAT-sweeping candidate sequence, with the between-solve housekeeping
    /// before each check: learned clauses, VSIDS activities and saved
    /// phases carry across checks.
    SweepSession,
    /// The same candidate sequence with a fresh [`Solver`] per candidate —
    /// the pre-session baseline the sweep-session row is read against
    /// (its `conflicts` column shows what learned-clause reuse saves).
    SweepFresh,
    /// The parallel portfolio (`csat-par`) racing `FamilySpec::threads`
    /// diversified circuit workers; rows at several thread counts form the
    /// threads-sweep. Conflicts/propagations aggregate over all workers, so
    /// `conflicts_per_sec` is the scaling signal (read it against the
    /// row's `host_cpus` — on a 1-CPU host the workers timeslice one core).
    CircuitPortfolio,
    /// The `csat-prep` pipeline at the given level followed by the circuit
    /// solver on the reduced netlist, timed end-to-end (preprocessing plus
    /// solve). `PrepLevel::Off` is the unpreprocessed control row; the
    /// `nodes_before`/`nodes_after` columns record what the pipeline
    /// removed. Conflicts, propagations and decisions aggregate the sweep's
    /// proofs and the final solve.
    CircuitPrep(PrepLevel),
    /// The paper's explicit learning as `cec` runs it: the circuit solver
    /// with implicit learning, the explicit-learning pass over the
    /// correlations, then the objective. Simulation runs outside the
    /// timed window; the pass and the final solve run inside it, and the
    /// counts cover both.
    CircuitExplicit,
}

impl SolverKind {
    /// Stable row label.
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::CircuitJnode => "circuit-jnode",
            SolverKind::Cnf => "cnf",
            SolverKind::SweepSession => "circuit-session",
            SolverKind::SweepFresh => "circuit-fresh",
            SolverKind::CircuitPortfolio => "circuit-portfolio",
            SolverKind::CircuitPrep(PrepLevel::Off) => "prep-off",
            SolverKind::CircuitPrep(PrepLevel::Light) => "prep-light",
            SolverKind::CircuitPrep(PrepLevel::Full) => "prep-full",
            SolverKind::CircuitExplicit => "circuit-explicit",
        }
    }
}

/// One measured `(family, solver)` row.
#[derive(Clone, Debug)]
pub struct SolveRow {
    /// Workload family name (paper-style instance name or suite name).
    pub family: String,
    /// Solver label (see [`SolverKind::label`]).
    pub solver: String,
    /// Instances aggregated into the row.
    pub instances: u64,
    /// Worker threads driving the row (1 for every sequential solver).
    pub threads: u64,
    /// CPUs the host exposed when *this row* was measured. Recorded per
    /// row (not just per file) so thread-scaling rows stay honest when
    /// files are merged across differently sized machines: a 4-thread row
    /// with `host_cpus: 1` measures timeslicing overhead, not speedup.
    pub host_cpus: u64,
    /// Total conflicts analyzed across the family.
    pub conflicts: u64,
    /// Total trail literals propagated.
    pub propagations: u64,
    /// Total decisions.
    pub decisions: u64,
    /// Wall-clock solve time (best of the measurement repetitions).
    pub wall_s: f64,
    /// Nanoseconds of solve time per conflict; `None` on a row with no
    /// conflicts, which has no such rate (the check skips it).
    pub ns_per_conflict: Option<f64>,
    /// Propagations per second.
    pub props_per_sec: f64,
    /// Conflicts per second.
    pub conflicts_per_sec: f64,
    /// AIG nodes summed over the family's instances before preprocessing
    /// (0 on rows measured without the prep pipeline).
    pub nodes_before: u64,
    /// AIG nodes after preprocessing (0 on non-prep rows).
    pub nodes_after: u64,
    /// The calibration loop's pass time ([`calibration_ms`]) over a
    /// window as long as a repetition, best over the repetitions; `None`
    /// on rows measured before the loop existed, which the check refuses.
    pub calibration_ms: Option<f64>,
}

impl SolveRow {
    /// More worker threads than the host had CPUs: the row measures
    /// timeslicing overhead, not speedup.
    pub fn overhead_only(&self) -> bool {
        self.host_cpus > 0 && self.threads > self.host_cpus
    }
}

/// A row regresses when its host-adjusted ns/conflict exceeds the
/// checked-in one by more than this fraction.
pub const REGRESSION_THRESHOLD: f64 = 0.15;

/// The calibration loop's buffer.
const CALIBRATION_BYTES: usize = 8 << 20;

/// The mean time, in milliseconds, of one pass of a fixed loop that is not
/// solver code — a byte-at-a-time table-driven CRC-32 over an 8-MiB
/// buffer, a serial chain of table lookups — over back-to-back passes that
/// fill at least `window_s` seconds (at least one pass). A window as long
/// as the measurement it adjusts meets the same share of a contended CPU:
/// a single short pass can fit between other processes' time slices and
/// read the host as idle while a longer solve beside it runs slower.
pub fn calibration_ms(window_s: f64) -> f64 {
    let table: Vec<u32> = (0..256u32)
        .map(|n| {
            (0..8).fold(n, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
        .collect();
    let buffer: Vec<u8> = (0..CALIBRATION_BYTES).map(|i| i as u8).collect();
    // `black_box` keeps the loop from being folded away or moved out of
    // the timed window.
    let buffer = std::hint::black_box(buffer);
    let start = Instant::now();
    let mut passes = 0u32;
    loop {
        let crc = buffer.iter().fold(!0u32, |c, &b| {
            table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
        });
        std::hint::black_box(crc);
        passes += 1;
        if start.elapsed().as_secs_f64() >= window_s {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(passes)
}

/// A family to measure: its workloads, the driving solver and the
/// per-instance conflict budget that bounds the run.
pub struct FamilySpec {
    /// Row name.
    pub family: &'static str,
    /// Which solver the row drives.
    pub solver: SolverKind,
    /// Worker threads (only read by [`SolverKind::CircuitPortfolio`]).
    pub threads: usize,
    /// The instances aggregated into the row.
    pub workloads: Vec<Workload>,
    /// Conflict budget per instance (the row's workload size).
    pub conflict_budget: u64,
    /// Fresh-solver repeats of each instance per repetition — sized so
    /// every row's measurement window is a few hundred milliseconds even
    /// when the instance solves quickly.
    pub solves: u32,
    /// Whether the quick (CI perf-smoke) subset includes this row.
    pub quick: bool,
}

fn named(suite: &[Workload], name: &str) -> Vec<Workload> {
    suite
        .iter()
        .filter(|w| w.name == name)
        .cloned()
        .collect::<Vec<_>>()
}

/// The measured families. `quick` restricts to the perf-smoke subset;
/// budgets are identical in both modes so quick rows compare 1:1 against
/// the full file.
pub fn family_specs(quick: bool) -> Vec<FamilySpec> {
    let equiv = equiv_suite(Scale::Quick);
    let scan = scan_suite(Scale::Quick);
    let specs = vec![
        FamilySpec {
            family: "c3540.equiv",
            solver: SolverKind::CircuitJnode,
            threads: 1,
            workloads: named(&equiv, "c3540.equiv"),
            conflict_budget: 20_000,
            solves: 10,
            quick: true,
        },
        FamilySpec {
            family: "c6288.equiv",
            solver: SolverKind::CircuitJnode,
            threads: 1,
            workloads: named(&equiv, "c6288.equiv"),
            conflict_budget: 20_000,
            solves: 1,
            quick: false,
        },
        FamilySpec {
            family: "c7552.equiv",
            solver: SolverKind::CircuitJnode,
            threads: 1,
            workloads: named(&equiv, "c7552.equiv"),
            conflict_budget: 20_000,
            solves: 10,
            quick: false,
        },
        FamilySpec {
            family: "scan",
            solver: SolverKind::CircuitJnode,
            threads: 1,
            workloads: scan.clone(),
            conflict_budget: 8_000,
            solves: 1,
            quick: true,
        },
        FamilySpec {
            family: "c3540.equiv",
            solver: SolverKind::Cnf,
            threads: 1,
            workloads: named(&equiv, "c3540.equiv"),
            conflict_budget: 20_000,
            solves: 10,
            quick: true,
        },
        FamilySpec {
            family: "c6288.equiv",
            solver: SolverKind::Cnf,
            threads: 1,
            workloads: named(&equiv, "c6288.equiv"),
            conflict_budget: 20_000,
            solves: 1,
            quick: false,
        },
        FamilySpec {
            family: "c7552.equiv",
            solver: SolverKind::Cnf,
            threads: 1,
            workloads: named(&equiv, "c7552.equiv"),
            conflict_budget: 20_000,
            solves: 10,
            quick: false,
        },
        FamilySpec {
            family: "mac.sweep",
            solver: SolverKind::SweepSession,
            threads: 1,
            workloads: vec![sweep_workload(Scale::Quick)],
            conflict_budget: 1_000,
            solves: 1,
            quick: false,
        },
        FamilySpec {
            family: "mac.sweep",
            solver: SolverKind::SweepFresh,
            threads: 1,
            workloads: vec![sweep_workload(Scale::Quick)],
            conflict_budget: 1_000,
            solves: 1,
            quick: false,
        },
    ];
    // Preprocessing trajectory: the prep pipeline at every level on one
    // self-miter family (collapses during the strash rebuild — measures
    // pure pipeline overhead against the prep-off search cost) and one
    // restructured-variant family (survives the rebuild, so the full row
    // exercises simulation + SAT sweeping). End-to-end wall time; the
    // nodes_before/nodes_after columns record the reduction. One run takes
    // from about 15 µs (a collapsing miter) to 60 ms, so each level has
    // its own repeat count.
    let mut specs = specs;
    let opt = opt_suite(Scale::Quick);
    for (family, solves) in [
        ("c3540.equiv", [6, 12_000, 12_000]),
        ("c3540.opt", [12, 16, 200]),
    ] {
        let workloads = if family.ends_with(".opt") {
            named(&opt, family)
        } else {
            named(&equiv, family)
        };
        let levels = [PrepLevel::Off, PrepLevel::Light, PrepLevel::Full];
        for (level, solves) in levels.into_iter().zip(solves) {
            specs.push(FamilySpec {
                family,
                solver: SolverKind::CircuitPrep(level),
                threads: 1,
                workloads: workloads.clone(),
                conflict_budget: 20_000,
                solves,
                quick: false,
            });
        }
    }
    // The serve-mix miter family that sets that workload's latency tail:
    // its full preprocessing folds the miter to a constant, so the row
    // times the sweep (read it by `wall_s`: when the sweep proves less by
    // search its conflict count falls and its ns/conflict rises).
    specs.push(FamilySpec {
        family: "mul12.opt",
        solver: SolverKind::CircuitPrep(PrepLevel::Full),
        threads: 1,
        workloads: vec![mul12_opt()],
        conflict_budget: 20_000,
        solves: 10,
        quick: false,
    });
    // Explicit learning, the layer `cec` spends most of an equivalence
    // check in, on a multiply-accumulate and a multiplier `.opt` miter.
    for (family, workloads, solves) in [
        ("c3540.opt", named(&opt, "c3540.opt"), 200),
        ("c6288.opt", vec![c6288_opt(Scale::Quick)], 40),
    ] {
        specs.push(FamilySpec {
            family,
            solver: SolverKind::CircuitExplicit,
            threads: 1,
            workloads,
            conflict_budget: 20_000,
            solves,
            quick: false,
        });
    }
    // Threads-sweep: the portfolio at 1/2/4 workers on the two hardest
    // miter families. The per-worker conflict budget is fixed, so total
    // work grows with the worker count and `conflicts_per_sec` measures
    // aggregate search throughput (ideal scaling ≈ linear on ≥4 CPUs).
    for family in ["c6288.equiv", "c7552.equiv"] {
        for threads in [1usize, 2, 4] {
            specs.push(FamilySpec {
                family,
                solver: SolverKind::CircuitPortfolio,
                threads,
                workloads: named(&equiv, family),
                conflict_budget: 20_000,
                solves: 1,
                quick: false,
            });
        }
    }
    specs
        .into_iter()
        .filter(|s| !quick || s.quick)
        .collect::<Vec<_>>()
}

/// The candidate-equivalence check sequence SAT sweeping runs over a
/// redundant netlist: random simulation proposes correlated pairs, and
/// each candidate is proven by refuting its two difference orientations.
/// Deterministic (fixed simulation seed), so the session and fresh rows
/// solve the identical sequence.
fn sweep_checks(aig: &Aig) -> Vec<[Lit; 2]> {
    let correlations = find_correlations(aig, &SimulationOptions::default());
    let mut candidates = correlations.correlations.clone();
    candidates.sort_by_key(|c| c.a.index().max(c.b.index()));
    let mut checks = Vec::with_capacity(candidates.len() * 2);
    for c in &candidates {
        let (later, earlier) = if c.a.index() >= c.b.index() {
            (c.a, c.b)
        } else {
            (c.b, c.a)
        };
        let target = Lit::new(earlier, c.relation == Relation::Opposite);
        let l = later.lit();
        checks.push([l, !target]);
        checks.push([!l, target]);
    }
    checks
}

struct Totals {
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    wall_s: f64,
    nodes_before: u64,
    nodes_after: u64,
}

fn run_once(spec: &FamilySpec) -> Totals {
    let mut totals = Totals {
        conflicts: 0,
        propagations: 0,
        decisions: 0,
        wall_s: 0.0,
        nodes_before: 0,
        nodes_after: 0,
    };
    for w in &spec.workloads {
        let budget = Budget::conflicts(spec.conflict_budget);
        for solve in 0..spec.solves.max(1) {
            match spec.solver {
                SolverKind::CircuitJnode => {
                    let mut solver = Solver::new(&w.aig, SolverOptions::default());
                    let start = Instant::now();
                    let _ = solver.solve_observed(w.objective, &budget, &mut NoOpObserver);
                    totals.wall_s += start.elapsed().as_secs_f64();
                    let stats = solver.stats();
                    totals.conflicts += stats.conflicts;
                    totals.propagations += stats.propagations;
                    totals.decisions += stats.decisions;
                }
                SolverKind::Cnf => {
                    let enc = tseitin::encode_with_objective(&w.aig, w.objective);
                    let mut solver =
                        csat_cnf::Solver::new(&enc.cnf, csat_cnf::SolverOptions::default());
                    let start = Instant::now();
                    let _ = solver.solve_observed(&budget, &mut NoOpObserver);
                    totals.wall_s += start.elapsed().as_secs_f64();
                    let stats = solver.stats();
                    totals.conflicts += stats.conflicts;
                    totals.propagations += stats.propagations;
                    totals.decisions += stats.decisions;
                }
                SolverKind::SweepSession => {
                    // Candidate discovery is shared setup, not solve time.
                    let checks = sweep_checks(&w.aig);
                    let mut solver = Solver::new(&w.aig, SolverOptions::default());
                    let start = Instant::now();
                    for chk in &checks {
                        solver.simplify(&mut NoOpObserver);
                        let _ = solver.solve_under(chk, &budget, &mut NoOpObserver);
                    }
                    totals.wall_s += start.elapsed().as_secs_f64();
                    let stats = solver.stats();
                    totals.conflicts += stats.conflicts;
                    totals.propagations += stats.propagations;
                    totals.decisions += stats.decisions;
                }
                SolverKind::CircuitPortfolio => {
                    let start = Instant::now();
                    let outcome = csat_par::solve_aig_portfolio(
                        &w.aig,
                        w.objective,
                        SolverOptions::default(),
                        spec.threads,
                        &csat_par::PortfolioOptions::default(),
                        &budget,
                        |_, _| {},
                    );
                    totals.wall_s += start.elapsed().as_secs_f64();
                    for wk in &outcome.workers {
                        totals.conflicts += wk.stats.conflicts;
                        totals.propagations += wk.stats.propagations;
                        totals.decisions += wk.stats.decisions;
                    }
                }
                SolverKind::CircuitPrep(level) => {
                    // End-to-end: the pipeline run is inside the window —
                    // preprocessing only pays off if reduction plus the
                    // reduced solve beats solving the original outright.
                    let pipeline = PrepPipeline::with_level(level);
                    let start = Instant::now();
                    let result =
                        pipeline.run_under(&w.aig, &[w.objective], &budget, &mut NoOpObserver);
                    let mapped = result
                        .map_lit(w.objective)
                        .expect("objective is a preserved root");
                    if !mapped.is_constant() {
                        let mut solver = Solver::new(&result.reduced, SolverOptions::default());
                        let _ = solver.solve_observed(mapped, &budget, &mut NoOpObserver);
                        let stats = solver.stats();
                        totals.conflicts += stats.conflicts;
                        totals.propagations += stats.propagations;
                        totals.decisions += stats.decisions;
                    }
                    totals.wall_s += start.elapsed().as_secs_f64();
                    totals.conflicts += result.stats.sweep_conflicts;
                    totals.propagations += result.stats.sweep_propagations;
                    totals.decisions += result.stats.sweep_decisions;
                    // Node counts size the family; they are not work, so
                    // the repeats do not add up.
                    if solve == 0 {
                        totals.nodes_before += result.stats.nodes_before as u64;
                        totals.nodes_after += result.stats.nodes_after as u64;
                    }
                }
                SolverKind::CircuitExplicit => {
                    let sim = SimulationOptions {
                        threads: 1,
                        ..SimulationOptions::default()
                    };
                    let correlations = find_correlations(&w.aig, &sim);
                    let mut solver = Solver::new(&w.aig, SolverOptions::with_implicit_learning());
                    solver.set_correlations(&correlations);
                    let start = Instant::now();
                    explicit::run_budgeted_observed(
                        &mut solver,
                        &correlations,
                        &ExplicitOptions::default(),
                        &Budget::UNLIMITED,
                        &mut NoOpObserver,
                    );
                    let _ = solver.solve_observed(w.objective, &budget, &mut NoOpObserver);
                    totals.wall_s += start.elapsed().as_secs_f64();
                    let stats = solver.stats();
                    totals.conflicts += stats.conflicts;
                    totals.propagations += stats.propagations;
                    totals.decisions += stats.decisions;
                }
                SolverKind::SweepFresh => {
                    let checks = sweep_checks(&w.aig);
                    // Construction is inside the window: paying it per
                    // check is exactly what the baseline costs.
                    let start = Instant::now();
                    for chk in &checks {
                        let mut solver = Solver::new(&w.aig, SolverOptions::default());
                        let _ = solver.solve_under(chk, &budget, &mut NoOpObserver);
                        let stats = solver.stats();
                        totals.conflicts += stats.conflicts;
                        totals.propagations += stats.propagations;
                        totals.decisions += stats.decisions;
                    }
                    totals.wall_s += start.elapsed().as_secs_f64();
                }
            }
        }
    }
    totals
}

/// Measures one family: `reps` repetitions, keeping the fastest (least
/// noisy) wall time. The instance set and conflict budgets make the work
/// itself deterministic; only the clock varies between repetitions.
pub fn measure_family(spec: &FamilySpec, reps: usize) -> SolveRow {
    let mut best: Option<Totals> = None;
    let mut calibration = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = run_once(spec);
        // The loop over a window as long as the repetition, right after
        // it; the best of the repetitions, like the wall time.
        calibration = calibration.min(calibration_ms(t.wall_s));
        if best.as_ref().is_none_or(|b| t.wall_s < b.wall_s) {
            best = Some(t);
        }
    }
    let t = best.expect("at least one repetition");
    SolveRow {
        family: spec.family.to_string(),
        solver: spec.solver.label().to_string(),
        instances: spec.workloads.len() as u64,
        threads: spec.threads.max(1) as u64,
        host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        conflicts: t.conflicts,
        propagations: t.propagations,
        decisions: t.decisions,
        wall_s: t.wall_s,
        ns_per_conflict: (t.conflicts > 0).then(|| t.wall_s * 1e9 / t.conflicts as f64),
        props_per_sec: t.propagations as f64 / t.wall_s.max(1e-12),
        conflicts_per_sec: t.conflicts as f64 / t.wall_s.max(1e-12),
        nodes_before: t.nodes_before,
        nodes_after: t.nodes_after,
        calibration_ms: Some(calibration),
    }
}

/// The `BENCH_solve.json` document.
#[derive(Clone, Debug, Default)]
pub struct PerfReport {
    /// CPUs the measuring host exposed.
    pub host_cpus: u64,
    /// Note attached to the baseline capture (when one exists).
    pub baseline_note: String,
    /// The preserved pre-optimization rows.
    pub baseline: Vec<SolveRow>,
    /// The current measurement.
    pub rows: Vec<SolveRow>,
}

fn row_json(r: &SolveRow) -> String {
    let mut o = JsonObject::new();
    o.field_str("family", &r.family)
        .field_str("solver", &r.solver)
        .field_u64("instances", r.instances)
        .field_u64("threads", r.threads)
        .field_u64("host_cpus", r.host_cpus)
        .field_u64("conflicts", r.conflicts)
        .field_u64("propagations", r.propagations)
        .field_u64("decisions", r.decisions)
        .field_f64("wall_s", r.wall_s);
    if let Some(ns) = r.ns_per_conflict {
        o.field_f64("ns_per_conflict", ns);
    }
    o.field_f64("props_per_sec", r.props_per_sec)
        .field_f64("conflicts_per_sec", r.conflicts_per_sec);
    // Only meaningful on prep rows; omitted elsewhere to keep the
    // pre-prep row shape (and the frozen baseline section) byte-stable.
    if r.nodes_before != 0 || r.nodes_after != 0 {
        o.field_u64("nodes_before", r.nodes_before)
            .field_u64("nodes_after", r.nodes_after);
    }
    if let Some(ms) = r.calibration_ms {
        o.field_f64("calibration_ms", ms);
    }
    if r.overhead_only() {
        o.field_raw("overhead_only", "true");
    }
    o.finish()
}

fn rows_json(rows: &[SolveRow]) -> String {
    let rows: Vec<String> = rows.iter().map(row_json).collect();
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

fn find<'a>(
    rows: &'a [SolveRow],
    family: &str,
    solver: &str,
    threads: u64,
) -> Option<&'a SolveRow> {
    rows.iter()
        .find(|r| r.family == family && r.solver == solver && r.threads == threads)
}

impl PerfReport {
    /// Renders the document, including a `comparison` section (speedups vs
    /// the baseline) when a baseline is present: one top-level field per
    /// line and one row per line.
    pub fn to_json(&self) -> String {
        let mut fields = vec![format!("\"host_cpus\": {}", self.host_cpus)];
        if !self.baseline.is_empty() {
            let mut b = JsonObject::new();
            b.field_str("note", &self.baseline_note)
                .field_raw("rows", &rows_json(&self.baseline));
            fields.push(format!("\"baseline\": {}", b.finish()));
        }
        fields.push(format!("\"rows\": {}", rows_json(&self.rows)));
        if !self.baseline.is_empty() {
            let cmp: Vec<String> = self
                .rows
                .iter()
                .filter_map(|r| {
                    let b = find(&self.baseline, &r.family, &r.solver, r.threads)?;
                    let mut c = JsonObject::new();
                    c.field_str("family", &r.family)
                        .field_str("solver", &r.solver)
                        .field_u64("threads", r.threads);
                    if let (Some(base_ns), Some(ns)) = (b.ns_per_conflict, r.ns_per_conflict) {
                        c.field_f64("baseline_ns_per_conflict", base_ns)
                            .field_f64("ns_per_conflict", ns)
                            .field_f64("speedup", base_ns / ns)
                            .field_f64("props_per_sec_ratio", r.props_per_sec / b.props_per_sec);
                    }
                    // Wall time is what a prep row is read by: a sweep that
                    // proves more without search spends fewer conflicts, so
                    // its ns/conflict rises as it gets faster.
                    c.field_f64("wall_speedup", b.wall_s / r.wall_s.max(1e-12));
                    Some(c.finish())
                })
                .collect();
            fields.push(format!(
                "\"comparison\": [\n    {}\n  ]",
                cmp.join(",\n    ")
            ));
        }
        format!("{{\n  {}\n}}\n", fields.join(",\n  "))
    }

    /// Parses a document previously written by [`PerfReport::to_json`].
    ///
    /// # Errors
    ///
    /// A human-readable message when the text is not valid JSON or lacks
    /// the expected shape.
    pub fn from_json(text: &str) -> Result<PerfReport, String> {
        let top = json::parse(text).map_err(|e| e.to_string())?;
        if !matches!(top, Json::Obj(_)) {
            return Err("top level is not an object".to_string());
        }
        let mut report = PerfReport {
            host_cpus: top.get("host_cpus").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            ..PerfReport::default()
        };
        if let Some(b @ Json::Obj(_)) = top.get("baseline") {
            report.baseline_note = b
                .get("note")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            report.baseline = parse_rows(b.get("rows"))?;
        }
        report.rows = parse_rows(top.get("rows"))?;
        Ok(report)
    }
}

fn parse_rows(value: Option<&Json>) -> Result<Vec<SolveRow>, String> {
    let arr = value.and_then(Json::as_array).ok_or("missing rows array")?;
    let mut rows = Vec::with_capacity(arr.len());
    for o in arr {
        if !matches!(o, Json::Obj(_)) {
            return Err("row is not an object".to_string());
        }
        let s = |k: &str| -> String {
            o.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let n = |k: &str| -> f64 { o.get(k).and_then(Json::as_f64).unwrap_or(0.0) };
        let opt = |k: &str| o.get(k).and_then(Json::as_f64);
        rows.push(SolveRow {
            family: s("family"),
            solver: s("solver"),
            instances: n("instances") as u64,
            // Absent in files written before the parallel layer: those
            // rows were all sequential, measured on an unknown host.
            threads: o.get("threads").and_then(Json::as_f64).unwrap_or(1.0) as u64,
            host_cpus: o.get("host_cpus").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            conflicts: n("conflicts") as u64,
            propagations: n("propagations") as u64,
            decisions: n("decisions") as u64,
            wall_s: n("wall_s"),
            ns_per_conflict: opt("ns_per_conflict"),
            props_per_sec: n("props_per_sec"),
            conflicts_per_sec: n("conflicts_per_sec"),
            nodes_before: n("nodes_before") as u64,
            nodes_after: n("nodes_after") as u64,
            calibration_ms: opt("calibration_ms"),
        });
    }
    Ok(rows)
}

/// Outcome of one row's regression check.
#[derive(Clone, Debug)]
pub struct RegressionRow {
    /// Family name.
    pub family: String,
    /// Solver label.
    pub solver: String,
    /// ns/conflict in the checked-in file.
    pub checked_in: f64,
    /// Freshly measured ns/conflict.
    pub measured: f64,
    /// The fresh calibration loop's time over the checked-in one: how
    /// much slower the host ran.
    pub host_factor: f64,
    /// `measured / checked_in / host_factor`: the host-adjusted change.
    pub ratio: f64,
}

impl RegressionRow {
    /// Whether the host-adjusted ns/conflict regressed past
    /// [`REGRESSION_THRESHOLD`].
    pub fn regressed(&self) -> bool {
        self.ratio > 1.0 + REGRESSION_THRESHOLD
    }
}

/// Compares `fresh` rows with the checked-in `report.rows` and returns
/// every matching row with its host-adjusted ratio. Rows without
/// conflicts on either side have no ns/conflict and are skipped.
///
/// # Errors
///
/// A message naming the first matching checked-in row without a
/// `calibration_ms`: its ns/conflict cannot be adjusted for the host, so
/// the file needs regenerating.
pub fn compare_rows(report: &PerfReport, fresh: &[SolveRow]) -> Result<Vec<RegressionRow>, String> {
    let mut out = Vec::new();
    for m in fresh {
        let Some(c) = find(&report.rows, &m.family, &m.solver, m.threads) else {
            continue;
        };
        let (Some(checked_in), Some(measured)) = (c.ns_per_conflict, m.ns_per_conflict) else {
            continue;
        };
        let (Some(then), Some(now)) = (c.calibration_ms, m.calibration_ms) else {
            return Err(format!(
                "{} / {} has no calibration_ms; regenerate the file with `solve_bench`",
                m.family, m.solver
            ));
        };
        let host_factor = now / then.max(1e-12);
        out.push(RegressionRow {
            family: m.family.clone(),
            solver: m.solver.clone(),
            checked_in,
            measured,
            host_factor,
            ratio: measured / checked_in.max(1e-12) / host_factor,
        });
    }
    Ok(out)
}

/// Formats a ratio as a signed percentage delta (`+7.3%`).
pub fn percent_delta(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(family: &str, solver: &str, ns: f64) -> SolveRow {
        SolveRow {
            family: family.to_string(),
            solver: solver.to_string(),
            instances: 1,
            threads: 1,
            host_cpus: 4,
            conflicts: 1000,
            propagations: 50_000,
            decisions: 2000,
            wall_s: ns * 1000.0 / 1e9,
            ns_per_conflict: Some(ns),
            props_per_sec: 1e6,
            conflicts_per_sec: 1e3,
            nodes_before: 0,
            nodes_after: 0,
            calibration_ms: Some(4.0),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = PerfReport {
            host_cpus: 4,
            baseline_note: "pre-PR".to_string(),
            baseline: vec![row("c3540.equiv", "circuit-jnode", 5000.0)],
            rows: vec![row("c3540.equiv", "circuit-jnode", 4000.0)],
        };
        let text = report.to_json();
        let back = PerfReport::from_json(&text).expect("round trip");
        assert_eq!(back.host_cpus, 4);
        assert_eq!(back.baseline_note, "pre-PR");
        assert_eq!(back.baseline.len(), 1);
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].family, "c3540.equiv");
        assert_eq!(back.rows[0].conflicts, 1000);
        assert!((back.rows[0].ns_per_conflict.unwrap() - 4000.0).abs() < 1e-6);
        assert_eq!(back.rows[0].calibration_ms, Some(4.0));
        assert!(text.contains("\"comparison\""));
        assert!(text.contains("\"speedup\": 1.25"));
    }

    #[test]
    fn comparison_flags_regressions() {
        let report = PerfReport {
            host_cpus: 1,
            baseline_note: String::new(),
            baseline: vec![],
            rows: vec![row("a", "cnf", 1000.0), row("b", "cnf", 1000.0)],
        };
        let fresh = vec![row("a", "cnf", 1300.0), row("b", "cnf", 900.0)];
        let cmp = compare_rows(&report, &fresh).expect("loop times recorded");
        assert_eq!(cmp.len(), 2);
        assert!(cmp[0].regressed(), "a regressed");
        assert!(cmp[1].ratio < 1.0 && !cmp[1].regressed(), "b improved");
        assert_eq!(percent_delta(cmp[0].ratio), "+30.0%");
    }

    #[test]
    fn the_check_adjusts_for_host_speed() {
        let report = PerfReport {
            rows: vec![row("a", "cnf", 1000.0)],
            ..Default::default()
        };
        let compare = |fresh: &SolveRow| {
            compare_rows(&report, std::slice::from_ref(fresh)).expect("loop times recorded")[0]
                .clone()
        };
        // 20% slower at an equal loop time: the solver, so it fails.
        let slower = compare(&row("a", "cnf", 1200.0));
        assert_eq!(slower.host_factor, 1.0);
        assert!(slower.regressed(), "{slower:?}");
        // 30% slower with the loop 30% slower too: the host, so it passes.
        let mut slow_host = row("a", "cnf", 1300.0);
        slow_host.calibration_ms = Some(4.0 * 1.3);
        let cmp = compare(&slow_host);
        assert!((cmp.ratio - 1.0).abs() < 1e-9, "{cmp:?}");
        assert!(!cmp.regressed());
        // A slower host does not hide a slower solver.
        slow_host.ns_per_conflict = Some(1300.0 * 1.2);
        assert!(compare(&slow_host).regressed());
    }

    #[test]
    fn a_checked_in_row_without_a_loop_time_needs_regenerating() {
        let mut old = row("a", "cnf", 1000.0);
        old.calibration_ms = None;
        let report = PerfReport {
            rows: vec![old, row("b", "cnf", 1000.0)],
            ..Default::default()
        };
        let err = compare_rows(&report, &[row("a", "cnf", 1000.0)]).unwrap_err();
        assert!(err.contains("a / cnf has no calibration_ms"), "{err}");
        // Rows the measurement does not reach are not read.
        assert_eq!(
            compare_rows(&report, &[row("b", "cnf", 1000.0)]).map(|c| c.len()),
            Ok(1)
        );
    }

    #[test]
    fn rows_without_conflicts_have_no_rate_and_are_not_checked() {
        let mut idle = row("c3540.equiv", "prep-light", 1.0);
        idle.conflicts = 0;
        idle.ns_per_conflict = None;
        let report = PerfReport {
            rows: vec![idle.clone(), row("b", "cnf", 1000.0)],
            ..Default::default()
        };
        let text = report.to_json();
        assert_eq!(text.matches("ns_per_conflict").count(), 1, "{text}");
        let back = PerfReport::from_json(&text).expect("round trip");
        assert_eq!(back.rows[0].ns_per_conflict, None);
        // A fresh row with conflicts against a checked-in row without,
        // and the other way round: neither is compared.
        let fresh = row("c3540.equiv", "prep-light", 5000.0);
        assert_eq!(compare_rows(&back, &[fresh]).map(|c| c.len()), Ok(0));
        let report = PerfReport {
            rows: vec![row("c3540.equiv", "prep-light", 5000.0)],
            ..Default::default()
        };
        assert_eq!(compare_rows(&report, &[idle]).map(|c| c.len()), Ok(0));
        // And a measured row with no conflicts writes no rate.
        let mut spec = family_specs(false)
            .into_iter()
            .find(|s| {
                s.family == "c3540.equiv" && s.solver == SolverKind::CircuitPrep(PrepLevel::Light)
            })
            .expect("prep-light c3540.equiv row");
        spec.solves = 1;
        let measured = measure_family(&spec, 1);
        assert_eq!(measured.conflicts, 0);
        assert_eq!(measured.ns_per_conflict, None);
        assert!(measured.calibration_ms.is_some_and(|ms| ms > 0.0));
    }

    #[test]
    fn rows_with_more_threads_than_cpus_are_marked_overhead_only() {
        let mut r = row("c6288.equiv", "circuit-portfolio", 800.0);
        for (threads, host_cpus, marked) in
            [(4, 2, true), (2, 2, false), (2, 1, true), (1, 1, false)]
        {
            r.threads = threads;
            r.host_cpus = host_cpus;
            assert_eq!(r.overhead_only(), marked, "{threads} on {host_cpus}");
            let text = PerfReport {
                rows: vec![r.clone()],
                ..Default::default()
            }
            .to_json();
            assert_eq!(text.contains("\"overhead_only\": true"), marked, "{text}");
        }
        // Rows from an unknown host (0 CPUs recorded) are not marked.
        r.host_cpus = 0;
        assert!(!r.overhead_only());
    }

    #[test]
    fn family_specs_quick_is_a_subset() {
        let full = family_specs(false);
        let quick = family_specs(true);
        assert!(quick.len() < full.len());
        for q in &quick {
            assert!(full
                .iter()
                .any(|f| f.family == q.family && f.solver == q.solver));
        }
        // Budgets identical so quick rows compare 1:1 with the full file.
        for q in &quick {
            let f = full
                .iter()
                .find(|f| f.family == q.family && f.solver == q.solver)
                .expect("subset");
            assert_eq!(f.conflict_budget, q.conflict_budget);
        }
    }

    #[test]
    fn threads_and_host_cpus_round_trip_and_default() {
        let mut r = row("c6288.equiv", "circuit-portfolio", 800.0);
        r.threads = 4;
        r.host_cpus = 8;
        let report = PerfReport {
            rows: vec![r],
            ..Default::default()
        };
        let text = report.to_json();
        let back = PerfReport::from_json(&text).expect("round trip");
        assert_eq!(back.rows[0].threads, 4);
        assert_eq!(back.rows[0].host_cpus, 8);
        // Rows from files written before the parallel layer default to
        // sequential on an unknown host.
        let legacy = r#"{"rows": [{"family": "a", "solver": "cnf", "conflicts": 10}]}"#;
        let back = PerfReport::from_json(legacy).expect("legacy rows");
        assert_eq!(back.rows[0].threads, 1);
        assert_eq!(back.rows[0].host_cpus, 0);
    }

    #[test]
    fn family_specs_include_a_threads_sweep() {
        let full = family_specs(false);
        for family in ["c6288.equiv", "c7552.equiv"] {
            for threads in [1usize, 2, 4] {
                assert!(
                    full.iter().any(|s| s.family == family
                        && s.solver == SolverKind::CircuitPortfolio
                        && s.threads == threads),
                    "missing {family} portfolio row at {threads} threads"
                );
            }
        }
        // The perf-smoke quick subset stays sequential: its regression
        // thresholds are tuned for single-thread determinism.
        assert!(family_specs(true)
            .iter()
            .all(|s| s.solver != SolverKind::CircuitPortfolio));
    }

    #[test]
    fn family_specs_include_a_prep_trajectory() {
        let full = family_specs(false);
        for family in ["c3540.equiv", "c3540.opt"] {
            for level in [PrepLevel::Off, PrepLevel::Light, PrepLevel::Full] {
                assert!(
                    full.iter()
                        .any(|s| s.family == family && s.solver == SolverKind::CircuitPrep(level)),
                    "missing {family} {} row",
                    SolverKind::CircuitPrep(level).label()
                );
            }
        }
        assert!(
            full.iter()
                .any(|s| s.family == "mul12.opt"
                    && s.solver == SolverKind::CircuitPrep(PrepLevel::Full)),
            "missing the serve-mix miter family's prep-full row"
        );
        // Prep rows stay out of the quick perf-smoke subset: its
        // regression threshold is tuned for the search hot loops, not for
        // pipeline-dominated end-to-end times.
        assert!(family_specs(true)
            .iter()
            .all(|s| !matches!(s.solver, SolverKind::CircuitPrep(_))));
    }

    #[test]
    fn prep_full_rows_record_the_node_reduction() {
        let mut spec = family_specs(false)
            .into_iter()
            .find(|s| {
                s.family == "c3540.opt" && s.solver == SolverKind::CircuitPrep(PrepLevel::Full)
            })
            .expect("prep-full c3540.opt row");
        spec.solves = 1;
        let t = run_once(&spec);
        assert!(t.nodes_before > 0);
        // The sweep's search is counted, not only its conflicts.
        assert!(t.conflicts > 0 && t.propagations > 0 && t.decisions > 0);
        // Repeats add work but not nodes.
        spec.solves = 2;
        let twice = run_once(&spec);
        assert_eq!(twice.conflicts, 2 * t.conflicts);
        assert_eq!(
            (twice.nodes_before, twice.nodes_after),
            (t.nodes_before, t.nodes_after)
        );
        // The acceptance bar for the prep tentpole: a restructured-variant
        // miter loses at least 30% of its nodes under full preprocessing.
        assert!(
            (t.nodes_after as f64) <= 0.7 * t.nodes_before as f64,
            "only reduced {} -> {} nodes",
            t.nodes_before,
            t.nodes_after
        );
    }

    #[test]
    fn explicit_rows_time_the_pass_outside_the_quick_subset() {
        let full = family_specs(false);
        for family in ["c3540.opt", "c6288.opt"] {
            let spec = full
                .iter()
                .find(|s| s.family == family && s.solver == SolverKind::CircuitExplicit)
                .unwrap_or_else(|| panic!("missing {family} circuit-explicit row"));
            assert_eq!(SolverKind::CircuitExplicit.label(), "circuit-explicit");
            assert!(!spec.quick);
        }
        let mut spec = full
            .into_iter()
            .find(|s| s.family == "c3540.opt" && s.solver == SolverKind::CircuitExplicit)
            .expect("row");
        spec.solves = 1;
        let t = run_once(&spec);
        assert!(t.conflicts > 0 && t.wall_s > 0.0);
    }

    #[test]
    fn rows_are_written_one_per_line() {
        let report = PerfReport {
            host_cpus: 2,
            baseline_note: "frozen, \"quoted\"".to_string(),
            baseline: vec![row("a", "cnf", 1000.0), row("b", "cnf", 1000.0)],
            rows: vec![row("a", "cnf", 900.0), row("b", "cnf", 800.0)],
        };
        let text = report.to_json();
        let lines: Vec<&str> = text.lines().collect();
        let row_lines: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with("    {"))
            .collect();
        // Two baseline rows, two rows, two comparisons: each a whole
        // object on its own line.
        assert_eq!(row_lines.len(), 6, "{text}");
        for line in row_lines {
            let object = line.trim().trim_end_matches(',');
            assert!(json::parse(object).is_ok(), "{line}");
        }
        for field in ["host_cpus", "baseline", "rows", "comparison"] {
            let key = format!("  \"{field}\": ");
            assert_eq!(
                lines.iter().filter(|l| l.starts_with(&key)).count(),
                1,
                "{text}"
            );
        }
        let back = PerfReport::from_json(&text).expect("round trip");
        assert_eq!(back.baseline_note, report.baseline_note);
        assert_eq!((back.baseline.len(), back.rows.len()), (2, 2));
    }

    #[test]
    fn node_columns_round_trip_and_stay_off_legacy_rows() {
        let mut r = row("c3540.opt", "prep-full", 100.0);
        r.nodes_before = 2000;
        r.nodes_after = 600;
        let plain = row("c3540.equiv", "circuit-jnode", 5000.0);
        let report = PerfReport {
            rows: vec![r, plain],
            ..Default::default()
        };
        let text = report.to_json();
        let back = PerfReport::from_json(&text).expect("round trip");
        assert_eq!(back.rows[0].nodes_before, 2000);
        assert_eq!(back.rows[0].nodes_after, 600);
        assert_eq!(back.rows[1].nodes_before, 0);
        // Non-prep rows keep the pre-prep shape on disk.
        assert_eq!(text.matches("nodes_before").count(), 1);
    }

    #[test]
    fn the_checked_in_trajectory_parses() {
        let report = PerfReport::from_json(include_str!("../../../BENCH_solve.json"))
            .expect("BENCH_solve.json parses");
        assert!(!report.rows.is_empty());
        assert!(report
            .rows
            .iter()
            .all(|r| !r.family.is_empty() && r.threads >= 1));
        // `--check` refuses rows without a loop time.
        assert!(report.rows.iter().all(|r| r.calibration_ms.is_some()));
    }

    #[test]
    fn reports_read_back_through_the_shared_parser() {
        let err = PerfReport::from_json("[1, 2]").unwrap_err();
        assert!(err.contains("not an object"), "{err}");
        let err = PerfReport::from_json(r#"{"rows": 3}"#).unwrap_err();
        assert!(err.contains("rows"), "{err}");
        assert!(PerfReport::from_json("{").is_err());
    }
}
