//! SAT sweeping (fraiging) through the preprocessing pipeline.
//!
//! Sweeping shrinks a redundant netlist by merging nodes the solver
//! proves equivalent. The candidate proofs are a long sequence of closely
//! related sub-solves over one circuit — exactly the workload an
//! incremental [`csat::core::Solver`] exists for, and [`csat::prep`]
//! packages the whole loop (candidate discovery, incremental proving,
//! merging, re-strashing) as pass 3–4 of its [`PrepPipeline`]: one solver
//! keeps the learned clauses, VSIDS activities and saved phases from
//! every earlier check, so later checks start ahead instead of from
//! scratch.
//!
//! This example shows the simulation-proposed candidate set, runs the
//! full pipeline over a redundant netlist, and verifies via the
//! `ClausesRetained` telemetry that the sweep really reused learning
//! across checks. The tracked `BENCH_solve.json` rows `mac.sweep /
//! circuit-session` and `mac.sweep / circuit-fresh` measure the
//! conflict savings of that reuse.
//!
//! ```sh
//! cargo run --release --example sat_sweeping
//! ```

use csat::netlist::{miter, optimize, Aig, Lit};
use csat::prep::{PrepLevel, PrepPipeline};
use csat::sim::{find_correlations, SimulationOptions};
use csat::telemetry::MetricsRecorder;
use csat::types::Budget;

fn main() {
    // A redundant netlist with LIVE outputs: two structurally different
    // implementations of the same 10-bit MAC, both driving outputs.
    let base = csat::netlist::generators::multiply_accumulate(5);
    let variant = optimize::restructure_seeded(&base, 17);
    let mut redundant = Aig::new();
    let inputs: Vec<Lit> = (0..base.inputs().len())
        .map(|_| redundant.input())
        .collect();
    let bouts = miter::import(&mut redundant, &base, &inputs);
    let vouts = miter::import_fresh(&mut redundant, &variant, &inputs);
    for (k, (&bo, &vo)) in bouts.iter().zip(&vouts).enumerate() {
        redundant.set_output(format!("base{k}"), bo);
        redundant.set_output(format!("variant{k}"), vo);
    }
    println!(
        "redundant netlist: {} AND gates ({} inputs, {} outputs)",
        redundant.and_count(),
        redundant.inputs().len(),
        redundant.outputs().len()
    );

    // Random simulation proposes equivalence candidates (paper §III).
    // The pipeline repeats this discovery internally on the strashed
    // netlist; this direct call shows the raw candidate set it starts
    // from.
    let correlations = find_correlations(&redundant, &SimulationOptions::default());
    println!(
        "simulation proposed {} candidates",
        correlations.correlations.len()
    );
    assert_eq!(
        correlations.correlations.len(),
        381,
        "the MAC redundancy workload is deterministic"
    );

    // The full sweep — strash rebuild, cone pruning, candidate discovery
    // and incremental proving on one session — is `PrepPipeline` at
    // level `full`. The metrics recorder sees a `ClausesRetained` event
    // at the start of each sub-solve inside the sweep: the learned
    // clauses every earlier check left behind.
    let mut metrics = MetricsRecorder::default();
    let pipeline = PrepPipeline::with_level(PrepLevel::Full);
    let result = pipeline.run_under(&redundant, &[], &Budget::UNLIMITED, &mut metrics);
    println!(
        "sweep: {} candidates attempted, {} merged, {} refuted, {} undecided \
         — {} conflicts total",
        result.stats.candidates,
        result.stats.merged,
        result.stats.refuted,
        result.stats.undecided,
        result.stats.sweep_conflicts
    );
    println!(
        "       the final check started with {} learned clauses retained",
        metrics.clauses_retained
    );
    assert!(
        metrics.clauses_retained > 0,
        "later checks must reuse clauses learned by earlier ones"
    );
    println!(
        "prep: {} -> {} AND gates ({:.1}% of the original)",
        redundant.and_count(),
        result.reduced.and_count(),
        100.0 * result.reduced.and_count() as f64 / redundant.and_count() as f64
    );
    assert!(result.stats.merged > 0);
    assert!(result.reduced.and_count() < redundant.and_count());

    // Spot-check function preservation: the reduced netlist re-registers
    // the original outputs, so project each random assignment onto the
    // surviving inputs and compare output vectors.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..1000 {
        let bits: Vec<bool> = (0..redundant.inputs().len())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        assert_eq!(
            redundant.evaluate_outputs(&bits),
            result
                .reduced
                .evaluate_outputs(&result.map.project_inputs(&bits))
        );
    }
    println!("sweep verified on 1000 random patterns");
}
