//! Property-based tests for the preprocessing pipeline: across every
//! fuzzer instance family, prep + solve + reconstruct must agree with the
//! unpreprocessed solver, and every lifted model must satisfy the
//! *original* netlist.

use csat::core::{check_model, Solver, SolverOptions, Verdict};
use csat::fuzz::generate;
use csat::netlist::{Aig, Lit};
use csat::prep::{PrepLevel, PrepOptions, PrepPipeline, PrepResult};
use csat::telemetry::NoOpObserver;
use csat::types::Budget;
use proptest::prelude::*;

/// Reference verdict on the untouched instance. `None` when the budget
/// runs out (the property then abstains rather than comparing garbage).
fn reference(aig: &Aig, objective: Lit) -> Option<bool> {
    let mut solver = Solver::new(aig, SolverOptions::default());
    match solver.solve_observed(objective, &Budget::conflicts(100_000), &mut NoOpObserver) {
        Verdict::Sat(_) => Some(true),
        Verdict::Unsat => Some(false),
        Verdict::Unknown(_) => None,
    }
}

/// Solves the reduced problem behind a prep result (honoring a
/// constant-folded objective). `None` when the solve budget runs out.
fn solve_reduced(result: &PrepResult, mapped: Lit) -> Option<Verdict> {
    if mapped.is_constant() {
        return Some(if mapped == Lit::TRUE {
            Verdict::Sat(vec![false; result.reduced.inputs().len()])
        } else {
            Verdict::Unsat
        });
    }
    let mut solver = Solver::new(&result.reduced, SolverOptions::default());
    match solver.solve_observed(mapped, &Budget::conflicts(200_000), &mut NoOpObserver) {
        Verdict::Unknown(_) => None,
        done => Some(done),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Preprocessing at every level never flips a verdict, and every SAT
    /// model lifted through the reconstruction map satisfies the original
    /// circuit. Seeds rotate through all six fuzzer instance families
    /// (random logic, levelized, equiv/faulty miters, constant plants,
    /// random CNF), so each run covers each family at each level.
    #[test]
    fn prep_agrees_with_the_unpreprocessed_solver(seed in 0u64..6_000) {
        let instance = generate(seed);
        if let Some(expect_sat) = reference(&instance.aig, instance.objective) {
            for level in [PrepLevel::Light, PrepLevel::Full] {
                let options = PrepOptions { level, ..PrepOptions::default() };
                let result = PrepPipeline::new(options)
                    .run(&instance.aig, &[instance.objective]);
                prop_assert!(result.stats.interrupted.is_none());
                prop_assert!(result.stats.nodes_after <= result.stats.nodes_before);
                let mapped = result
                    .map_lit(instance.objective)
                    .expect("objective is a preserved root");
                match solve_reduced(&result, mapped) {
                    Some(Verdict::Sat(model)) => {
                        prop_assert!(
                            expect_sat,
                            "{:?} seed {}: prep-{} found SAT, baseline UNSAT",
                            instance.kind, seed, level.name()
                        );
                        let lifted = result.map.lift_model(&model);
                        prop_assert!(
                            check_model(&instance.aig, &lifted, instance.objective),
                            "{:?} seed {}: lifted prep-{} model fails on the original",
                            instance.kind, seed, level.name()
                        );
                    }
                    Some(Verdict::Unsat) => prop_assert!(
                        !expect_sat,
                        "{:?} seed {}: prep-{} found UNSAT, baseline SAT",
                        instance.kind, seed, level.name()
                    ),
                    _ => {}
                }
            }
        }
    }

    /// An exhausted pipeline is still sound: whatever prefix of passes
    /// committed under a tiny conflict budget, the mapped objective solves
    /// to the same verdict.
    #[test]
    fn budgeted_prep_is_sound_at_any_cut(seed in 0u64..3_000, conflicts in 0u64..64) {
        let instance = generate(seed);
        if let Some(expect_sat) = reference(&instance.aig, instance.objective) {
            let pipeline = PrepPipeline::with_level(PrepLevel::Full);
            let result = pipeline.run_under(
                &instance.aig,
                &[instance.objective],
                &Budget::conflicts(conflicts),
                &mut csat::telemetry::NoOpObserver,
            );
            let mapped = result
                .map_lit(instance.objective)
                .expect("objective is a preserved root");
            match solve_reduced(&result, mapped) {
                Some(Verdict::Sat(model)) => {
                    prop_assert!(
                        expect_sat,
                        "{:?} seed {} under a {}-conflict prep budget flipped to SAT",
                        instance.kind, seed, conflicts
                    );
                    let lifted = result.map.lift_model(&model);
                    prop_assert!(check_model(&instance.aig, &lifted, instance.objective));
                }
                Some(Verdict::Unsat) => prop_assert!(
                    !expect_sat,
                    "{:?} seed {} under a {}-conflict prep budget flipped to UNSAT",
                    instance.kind, seed, conflicts
                ),
                _ => {}
            }
        }
    }
}
