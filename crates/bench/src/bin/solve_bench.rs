//! Solve-side perf trajectory tool: writes and checks `BENCH_solve.json`.
//!
//! Modes:
//!
//! * `solve_bench` — measure every family and rewrite `BENCH_solve.json`,
//!   preserving the checked-in baseline section (and the comparison
//!   against it).
//! * `solve_bench --baseline` — additionally (re)capture the baseline
//!   section from this measurement. Run this once on the pre-optimization
//!   tree; later runs without the flag keep it frozen.
//! * `solve_bench --quick` — measure only the perf-smoke subset (same
//!   budgets, so rows compare 1:1). Does not write the file.
//! * `solve_bench --check` — quick-measure and compare host-adjusted
//!   ns/conflict (each row's over its calibration loop time) against the
//!   checked-in `rows`; exit 1 on a >15% regression, or when a checked-in
//!   row has no loop time (regenerate the file). This is the
//!   `scripts/ci.sh perf-smoke` gate.
//!
//! An optional trailing path overrides the default `BENCH_solve.json` in
//! the repo root / current directory.

use std::process::ExitCode;

use csat_bench::perf::{
    compare_rows, family_specs, measure_family, percent_delta, PerfReport, SolveRow,
    REGRESSION_THRESHOLD,
};

const DEFAULT_REPS: usize = 3;

fn main() -> ExitCode {
    let mut quick = false;
    let mut baseline = false;
    let mut check = false;
    let mut reps = DEFAULT_REPS;
    let mut path = "BENCH_solve.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--baseline" => baseline = true,
            "--check" => {
                check = true;
                quick = true;
            }
            // More repetitions tighten best-of measurements on noisy
            // (shared / single-core) hosts.
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--reps needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                eprintln!("usage: solve_bench [--quick] [--baseline] [--check] [--reps N] [path]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => path = other.to_string(),
            other => {
                eprintln!("unknown flag '{other}' (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let specs = family_specs(quick);
    let mut rows: Vec<SolveRow> = Vec::with_capacity(specs.len());
    for spec in &specs {
        eprintln!(
            "measuring {} / {} t={} ({} instance(s), {} conflicts budget, best of {reps})...",
            spec.family,
            spec.solver.label(),
            spec.threads,
            spec.workloads.len(),
            spec.conflict_budget
        );
        let row = measure_family(spec, reps);
        eprintln!(
            "  {} ns/conflict, {:.2e} props/s, {:.0} conflicts/s ({:.2}s, loop {:.2} ms)",
            row.ns_per_conflict
                .map_or("no".to_string(), |ns| format!("{ns:.0}")),
            row.props_per_sec,
            row.conflicts_per_sec,
            row.wall_s,
            row.calibration_ms.unwrap_or(0.0)
        );
        rows.push(row);
    }

    let existing = std::fs::read_to_string(&path)
        .ok()
        .map(|text| PerfReport::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}")));

    if check {
        let Some(report) = existing else {
            eprintln!("perf-smoke: no {path} to check against");
            return ExitCode::FAILURE;
        };
        let mut cmp = match compare_rows(&report, &rows) {
            Ok(cmp) if !cmp.is_empty() => cmp,
            Ok(_) => {
                eprintln!("perf-smoke: no overlapping rows between measurement and {path}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perf-smoke: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The checked-in rows were read above, so comparing again succeeds.
        let compare = |rows: &[SolveRow]| compare_rows(&report, rows).expect("rows read above");
        // A single noisy window on a shared host can spike one family past
        // the threshold. Before declaring a regression, re-measure the
        // offending family once with doubled repetitions and keep the best
        // — a real regression reproduces, a scheduler hiccup does not.
        let retry: Vec<String> = cmp
            .iter()
            .filter(|c| c.regressed())
            .map(|c| format!("{}/{}", c.family, c.solver))
            .collect();
        if !retry.is_empty() {
            for spec in &specs {
                let key = format!("{}/{}", spec.family, spec.solver.label());
                if !retry.contains(&key) {
                    continue;
                }
                eprintln!("perf-smoke: re-measuring {key} (best of {})...", reps * 2);
                let again = measure_family(spec, reps * 2);
                let ratio = |r: &SolveRow| {
                    compare(std::slice::from_ref(r))
                        .first()
                        .map_or(f64::INFINITY, |c| c.ratio)
                };
                if let Some(row) = rows.iter_mut().find(|r| {
                    r.family == spec.family
                        && r.solver == spec.solver.label()
                        && r.threads == spec.threads as u64
                }) {
                    if ratio(&again) < ratio(row) {
                        *row = again;
                    }
                }
            }
            cmp = compare(&rows);
        }
        let mut failed = false;
        for c in &cmp {
            let verdict = if c.regressed() {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            eprintln!(
                "perf-smoke: {} / {}: {:.0} ns/conflict vs checked-in {:.0}, host {:.2}x \
                 ({} host-adjusted) {}",
                c.family,
                c.solver,
                c.measured,
                c.checked_in,
                c.host_factor,
                percent_delta(c.ratio),
                verdict
            );
        }
        return if failed {
            eprintln!(
                "perf-smoke: host-adjusted ns/conflict regressed more than {:.0}% — \
                 rerun `solve_bench` and commit the refreshed {path} if intentional",
                REGRESSION_THRESHOLD * 100.0
            );
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if quick && !baseline {
        // Measurement-only mode; nothing written.
        return ExitCode::SUCCESS;
    }

    let mut report = existing.unwrap_or_default();
    report.host_cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    if baseline || report.baseline.is_empty() {
        report.baseline_note =
            "pre-optimization baseline (frozen; refresh with --baseline)".to_string();
        report.baseline = rows.clone();
    }
    report.rows = rows;
    let text = report.to_json();
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
}
