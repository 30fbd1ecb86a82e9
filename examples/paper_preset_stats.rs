//! Prints per-instance verdicts and search statistics for the paper preset
//! (and the default J-node preset) over a deterministic instance suite.
//!
//! This is the refactor-parity harness. Its output is checked in as
//! `tests/data/paper_preset_stats.txt`, and `scripts/ci.sh kernel-parity`
//! fails on any difference from it: drift in verdicts, conflicts or
//! decisions under default options is a behavior change.
//!
//! ```sh
//! cargo run --release --example paper_preset_stats | diff tests/data/paper_preset_stats.txt -
//! ```

use csat_core::{Solver, SolverOptions};
use csat_netlist::{generators, miter};
use csat_sim::{find_correlations, SimulationOptions};

fn sim_options() -> SimulationOptions {
    SimulationOptions {
        words: 4,
        threads: 1,
        ..SimulationOptions::default()
    }
}

fn report(name: &str, aig: &csat_netlist::Aig, objective: csat_netlist::Lit) {
    for (preset, options) in [
        ("jnode", SolverOptions::default()),
        ("paper", SolverOptions::paper()),
    ] {
        let mut solver = Solver::new(aig, options);
        if options.implicit_learning {
            let correlations = find_correlations(aig, &sim_options());
            solver.set_correlations(&correlations);
        }
        let verdict = solver.solve(objective);
        let label = if verdict.is_sat() {
            "SAT"
        } else if verdict.is_unsat() {
            "UNSAT"
        } else {
            "UNKNOWN"
        };
        let stats = solver.stats();
        println!(
            "{name} {preset} {label} conflicts={} decisions={} propagations={} restarts={}",
            stats.conflicts, stats.decisions, stats.propagations, stats.restarts
        );
    }
}

fn main() {
    for seed in 0..24u64 {
        let instance = csat_fuzz::instances::generate(seed);
        report(&format!("fuzz-{seed}"), &instance.aig, instance.objective);
    }
    for bits in [4usize, 5, 6] {
        let m = miter::self_miter(&generators::ripple_carry_adder(bits), Default::default());
        report(&format!("rca-{bits}"), &m.aig, m.objective);
    }
    for bits in [3usize, 4] {
        let m = miter::self_miter(&generators::array_multiplier(bits), Default::default());
        report(&format!("mul-{bits}"), &m.aig, m.objective);
    }
    let m = miter::build(
        &generators::ripple_carry_adder(5),
        &generators::carry_lookahead_adder(5),
        Default::default(),
    );
    report("rca-vs-cla-5", &m.aig, m.objective);
}
