//! Tests for SAT sweeping through the `csat-prep` pipeline at level
//! `Full`: sweeping must preserve function on arbitrary circuits, never
//! grow them, and only ever make the downstream solve easier.

use csat::core::{Solver, SolverOptions};
use csat::netlist::{generators, miter, optimize, Aig, Lit};
use csat::prep::{PrepLevel, PrepPipeline, PrepResult};
use proptest::prelude::*;

fn sweep(aig: &Aig, extra_roots: &[Lit]) -> PrepResult {
    PrepPipeline::with_level(PrepLevel::Full).run(aig, extra_roots)
}

/// Outputs of the swept netlist under an assignment to the ORIGINAL
/// inputs (prep drops inputs no output observes).
fn swept_outputs(result: &PrepResult, bits: &[bool]) -> Vec<bool> {
    result
        .reduced
        .evaluate_outputs(&result.map.project_inputs(bits))
}

fn equivalent_on_sample(a: &Aig, b: &PrepResult, samples: u32) -> bool {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFAB);
    let n = a.inputs().len();
    for _ in 0..samples {
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        if a.evaluate_outputs(&bits) != swept_outputs(b, &bits) {
            return false;
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sweeping random circuits preserves every output function.
    #[test]
    fn fraig_preserves_random_logic(seed in 0u64..5_000) {
        let g = generators::random_logic(seed, 8, 60, 4);
        let result = sweep(&g, &[]);
        prop_assert!(result.reduced.and_count() <= g.and_count());
        for code in 0..256u32 {
            let bits: Vec<bool> = (0..8).map(|i| code >> i & 1 != 0).collect();
            prop_assert_eq!(g.evaluate_outputs(&bits), swept_outputs(&result, &bits));
        }
    }

    /// Sweeping a self-miter always proves the output constant false.
    #[test]
    fn fraig_collapses_self_miters(seed in 0u64..2_000) {
        let g = generators::random_logic(seed, 7, 40, 3);
        let m = miter::self_miter(&g, Default::default());
        let result = sweep(&m.aig, &[]);
        let (_, out) = &result.reduced.outputs()[0];
        prop_assert_eq!(
            *out,
            Lit::FALSE,
            "merged {} of {}",
            result.stats.merged,
            result.stats.candidates
        );
    }

    /// Sweeping the union of a circuit and its restructured variant keeps
    /// all outputs and shrinks the netlist.
    #[test]
    fn fraig_dedups_restructured_variants(seed in 0u64..2_000) {
        let base = generators::random_logic(seed, 8, 50, 3);
        let variant = optimize::restructure_seeded(&base, seed ^ 0xF00D);
        let mut union = Aig::new();
        let inputs: Vec<Lit> = (0..base.inputs().len()).map(|_| union.input()).collect();
        let bouts = miter::import(&mut union, &base, &inputs);
        let vouts = miter::import_fresh(&mut union, &variant, &inputs);
        for (k, (&bo, &vo)) in bouts.iter().zip(&vouts).enumerate() {
            union.set_output(format!("b{k}"), bo);
            union.set_output(format!("v{k}"), vo);
        }
        let result = sweep(&union, &[]);
        prop_assert!(result.reduced.and_count() <= union.and_count());
        prop_assert!(equivalent_on_sample(&union, &result, 200));
    }
}

/// Sweeping twice is idempotent on the gate count.
#[test]
fn double_sweep_is_idempotent() {
    let m = miter::self_miter(&generators::comparator(6), Default::default());
    let once = sweep(&m.aig, &[]);
    let twice = sweep(&once.reduced, &[]);
    assert!(twice.reduced.and_count() <= once.reduced.and_count());
    // Second sweep should find little to nothing new.
    assert!(
        twice.stats.merged <= once.stats.merged,
        "{} then {}",
        once.stats.merged,
        twice.stats.merged
    );
}

/// A swept miter solves faster (or at least never slower in conflicts)
/// than the unswept one.
#[test]
fn sweeping_helps_downstream_solving() {
    let base = generators::array_multiplier(5);
    let variant = optimize::restructure_seeded(&base, 21);
    let m = miter::build_fresh(&base, &variant, Default::default());

    let mut plain = Solver::new(&m.aig, SolverOptions::default());
    assert!(plain.solve(m.objective).is_unsat());
    let plain_conflicts = plain.stats().conflicts;

    let swept = sweep(&m.aig, &[m.objective]);
    let swept_obj = swept.map_lit(m.objective).expect("a preserved root");
    let mut after = Solver::new(&swept.reduced, SolverOptions::default());
    assert!(after.solve(swept_obj).is_unsat());
    assert!(
        after.stats().conflicts <= plain_conflicts,
        "sweeping should not make the proof harder: {} vs {}",
        after.stats().conflicts,
        plain_conflicts
    );
}
