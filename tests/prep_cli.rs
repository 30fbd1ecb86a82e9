//! CLI integration tests for the `--prep` preprocessing flag.
//!
//! The interesting contract is the `cec` fast path: when full
//! preprocessing proves every miter output pair equal, the tool must
//! report EQUIVALENT with the normal exit code and no kernel solve, and
//! counterexamples found on the reduced miter must be lifted back to the
//! original inputs.

mod common;

use common::Fixtures;
use csat::core::{Solver, SolverOptions, Verdict};
use csat::netlist::{generators, optimize};

#[test]
fn cec_prep_full_fast_path_reports_equivalent_without_kernel_solve() {
    let fx = Fixtures::new("prep-cli-eq");
    let base = generators::carry_select_adder(6, 2);
    let variant = optimize::restructure_seeded(&base, 41);
    fx.bench("left.bench", &base);
    fx.bench("right.bench", &variant);
    let out = fx.run("cec", &["--prep", "full", "left.bench", "right.bench"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("EQUIVALENT"), "stdout: {stdout}");
    // The fast path: preprocessing decided the instance, no kernel solve.
    assert!(
        stderr.contains("no kernel solve needed"),
        "stderr: {stderr}"
    );
}

#[test]
fn cec_prep_full_lifts_counterexamples_to_original_inputs() {
    // The variant negates one output, so the pair differs on every
    // assignment; prep proves the miter objective constant TRUE and the
    // (lifted) distinguishing input is printed without a kernel solve.
    let fx = Fixtures::new("prep-cli-diff");
    let base = generators::random_logic(19, 6, 30, 3);
    let mut variant = base.clone();
    let outs: Vec<(String, csat::netlist::Lit)> = variant
        .outputs()
        .iter()
        .map(|(n, l)| (n.clone(), *l))
        .collect();
    variant.clear_outputs();
    for (k, (name, l)) in outs.into_iter().enumerate() {
        variant.set_output(name, if k == 0 { !l } else { l });
    }
    fx.bench("left.bench", &base);
    fx.bench("right.bench", &variant);
    let out = fx.run("cec", &["--prep=full", "left.bench", "right.bench"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("DIFFERENT"), "stdout: {stdout}");
    // cec itself asserts the model distinguishes the ORIGINAL circuits
    // before printing it; reaching the "input:" line means lifting worked.
    assert!(stdout.contains("input:"), "stdout: {stdout}");
}

#[test]
fn csat_prep_levels_agree_with_unpreprocessed_verdict() {
    let fx = Fixtures::new("prep-cli-levels");
    let aig = generators::random_logic(23, 7, 40, 2);
    let expected = match Solver::new(&aig, SolverOptions::default()).solve(aig.outputs()[0].1) {
        Verdict::Sat(_) => 10,
        Verdict::Unsat => 20,
        Verdict::Unknown(_) => unreachable!("unlimited budget"),
    };
    fx.bench("levels.bench", &aig);
    for level in ["off", "light", "full"] {
        let out = fx.run("csat", &["--prep", level, "levels.bench"]);
        // On SAT the binary validates the (lifted) model against the
        // original netlist before printing, so a matching exit code also
        // certifies model reconstruction.
        assert_eq!(
            out.status.code(),
            Some(expected),
            "level {level}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
