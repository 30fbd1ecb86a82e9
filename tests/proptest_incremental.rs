//! Property tests for the incremental solver API.
//!
//! The contract under test: any interleaving of grow / push / assume /
//! pop / solve steps on one [`csat::core::Solver`] or [`csat::cnf::Solver`]
//! must yield, at every solve point, a verdict consistent with a fresh
//! monolithic solver handed the accumulated problem under the same
//! assumptions. Ops are encoded as `(kind, selector, sign)` tuples so the
//! offline proptest stub can generate them (no `prop_oneof` there).

use csat::core::{Budget, Solver, SolverOptions, SubVerdict};
use csat::netlist::cnf::{Cnf, Lit as CLit, Var};
use csat::netlist::{generators, miter, optimize, Aig, Lit, NodeId};
use csat::telemetry::{MetricsRecorder, NoOpObserver};
use proptest::prelude::*;

/// One trajectory step: `kind` selects the op, `sel` feeds the
/// deterministic literal/clause derivation, `sign` flips polarities.
type Op = (u8, u64, bool);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..10, any::<u64>(), any::<bool>()), 1..14)
}

/// SplitMix64 step, for deriving several picks from one selector.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A literal over the circuit's current nodes (never the constant).
fn lit_at(aig: &Aig, sel: u64, sign: bool) -> Lit {
    let idx = 1 + (sel as usize) % (aig.len() - 1);
    Lit::new(NodeId::from_index(idx), sign)
}

/// Cross-checks one circuit solve point; panics (via prop_assert) on any
/// session-vs-fresh verdict split or unsound model.
fn check_circuit_point(
    session: &mut Solver<'_>,
    extra: &[Lit],
    options: SolverOptions,
    budget: &Budget,
) {
    session.simplify(&mut NoOpObserver);
    let verdict = session.solve_under(extra, budget, &mut NoOpObserver);
    let mut active: Vec<Lit> = session.assumptions().to_vec();
    active.extend_from_slice(extra);
    let mut fresh = Solver::new(session.aig(), options);
    let reference = fresh.solve_under(&active, budget, &mut NoOpObserver);
    prop_assert!(
        !(verdict.is_sat() && reference.is_unsat()),
        "session SAT vs fresh UNSAT under {active:?}"
    );
    prop_assert!(
        !(verdict.is_unsat() && reference.is_sat()),
        "session UNSAT vs fresh SAT under {active:?}"
    );
    if let SubVerdict::Sat(model) = &verdict {
        let values = session.aig().evaluate(model);
        for &l in &active {
            prop_assert!(
                session.aig().lit_value(&values, l),
                "session SAT model violates assumption {l:?}"
            );
        }
    }
    if let Some(core) = verdict.failed() {
        for l in core {
            prop_assert!(
                active.contains(l),
                "failed core literal {l:?} never assumed"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Circuit sessions: every solve point along a random
    /// grow/push/assume/pop trajectory agrees with a fresh solver on the
    /// grown circuit under the in-scope assumptions.
    #[test]
    fn circuit_session_matches_fresh_solver(seed in 0u64..10_000, ops in ops()) {
        let aig = generators::random_logic(seed, 5, 15, 2);
        let options = SolverOptions::default();
        let budget = Budget::conflicts(200_000);
        let mut session = Solver::owned(aig, options);
        for (kind, sel, sign) in ops {
            match kind {
                0 | 1 => {
                    let n = 1 + (sel % 3) as usize;
                    let mut s = sel;
                    session.grow(|aig| {
                        for _ in 0..n {
                            s = mix(s);
                            let a = lit_at(aig, s, s & 1 != 0);
                            s = mix(s);
                            let b = lit_at(aig, s, s & 2 != 0);
                            aig.and(a, b);
                        }
                    });
                }
                2 | 3 => {
                    session.push();
                    let lit = lit_at(session.aig(), sel, sign);
                    session.assume(lit);
                }
                4 => {
                    session.pop();
                }
                5 => {
                    let lit = lit_at(session.aig(), sel, sign);
                    session.assume(lit);
                }
                _ => {
                    let extra = if sign {
                        vec![lit_at(session.aig(), sel, sel & 1 != 0)]
                    } else {
                        Vec::new()
                    };
                    check_circuit_point(&mut session, &extra, options, &budget);
                }
            }
        }
        // Every trajectory ends on a solve so the accumulated state is
        // always checked at least once.
        check_circuit_point(&mut session, &[], options, &budget);
    }

    /// CNF sessions: every solve point along a random
    /// add-var/add-clause/push/assume/pop trajectory agrees with a fresh
    /// solver on the accumulated formula.
    #[test]
    fn cnf_session_matches_fresh_solver(
        base in prop::collection::vec(
            prop::collection::vec((0u32..6, any::<bool>()), 1..4), 1..16),
        ops in ops(),
    ) {
        let mut num_vars = 6usize;
        let mut clauses: Vec<Vec<CLit>> = Vec::new();
        let mut cnf = Cnf::with_vars(num_vars);
        for c in base {
            let clause: Vec<CLit> = c
                .into_iter()
                .map(|(v, neg)| CLit::new(Var(v), neg))
                .collect();
            cnf.add_clause(clause.clone());
            clauses.push(clause);
        }
        let options = csat::cnf::SolverOptions::default();
        let budget = Budget::conflicts(200_000);
        let mut session = csat::cnf::Solver::new(&cnf, options);

        let clause_from = |sel: u64, num_vars: usize| -> Vec<CLit> {
            let mut s = sel;
            let width = 1 + (sel % 3) as usize;
            let mut clause: Vec<CLit> = Vec::with_capacity(width);
            while clause.len() < width && clause.len() < num_vars {
                s = mix(s);
                let l = CLit::new(Var((s as usize % num_vars) as u32), s & 1 != 0);
                if clause.iter().all(|c| c.var() != l.var()) {
                    clause.push(l);
                }
            }
            clause
        };
        let lit_from = |sel: u64, sign: bool, num_vars: usize| -> CLit {
            CLit::new(Var((sel as usize % num_vars) as u32), sign)
        };
        let check_point = |session: &mut csat::cnf::Solver,
                               extra: &[CLit],
                               clauses: &[Vec<CLit>],
                               num_vars: usize| {
            session.simplify(&mut NoOpObserver);
            let verdict = session.solve_under(extra, &budget, &mut NoOpObserver);
            let mut active: Vec<CLit> = session.assumptions().to_vec();
            active.extend_from_slice(extra);
            let mut batch = Cnf::with_vars(num_vars);
            for c in clauses {
                batch.add_clause(c.clone());
            }
            let mut fresh = csat::cnf::Solver::new(&batch, options);
            let reference = fresh.solve_under(&active, &budget, &mut NoOpObserver);
            prop_assert!(
                !(verdict.is_sat() && reference.is_unsat()),
                "cnf session SAT vs fresh UNSAT"
            );
            prop_assert!(
                !(verdict.is_unsat() && reference.is_sat()),
                "cnf session UNSAT vs fresh SAT"
            );
            if let SubVerdict::Sat(model) = &verdict {
                prop_assert!(batch.evaluate(model), "cnf session SAT model fails evaluation");
                for l in &active {
                    prop_assert!(
                        model[l.var().index()] != l.is_negative(),
                        "cnf session SAT model violates assumption {}",
                        l.to_dimacs()
                    );
                }
            }
            if let Some(core) = verdict.failed() {
                for l in core {
                    prop_assert!(
                        active.contains(l),
                        "cnf failed core literal {} never assumed",
                        l.to_dimacs()
                    );
                }
            }
        };

        for (kind, sel, sign) in ops {
            match kind {
                0 => {
                    session.add_var();
                    num_vars += 1;
                }
                1 | 2 => {
                    let c = clause_from(sel, num_vars);
                    session.add_clause(c.clone()).expect("clause over live vars");
                    clauses.push(c);
                }
                3 => {
                    session.push();
                    session.assume(lit_from(sel, sign, num_vars));
                }
                4 => {
                    session.pop();
                }
                5 => {
                    session.assume(lit_from(sel, sign, num_vars));
                }
                _ => {
                    let extra = if sign {
                        vec![lit_from(mix(sel), sel & 1 != 0, num_vars)]
                    } else {
                        Vec::new()
                    };
                    check_point(&mut session, &extra, &clauses, num_vars);
                }
            }
        }
        check_point(&mut session, &[], &clauses, num_vars);
    }
}

/// One solver running a sequence of closely-related equivalence checks must
/// actually retain learned clauses between calls — the whole point of the
/// API. Asserted through both the `ClausesRetained` telemetry stream and
/// the solver's own learned-clause count.
#[test]
fn session_retains_learned_clauses_across_solves() {
    let base = generators::multiply_accumulate(2);
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

    let budget = Budget::conflicts(10_000);
    let mut metrics = MetricsRecorder::default();
    let mut session = Solver::new(&redundant, SolverOptions::default());
    // Prove each output pair equivalent: both difference orientations
    // must be UNSAT. Later proofs reuse what earlier ones learned.
    for (&bo, &vo) in bouts.iter().zip(&vouts) {
        for pair in [[bo, !vo], [!bo, vo]] {
            session.simplify(&mut metrics);
            let v = session.solve_under(&pair, &budget, &mut metrics);
            assert!(
                matches!(v, SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_)),
                "equivalent outputs must refute both orientations, got {v:?}"
            );
        }
    }
    assert!(
        metrics.clauses_retained > 0,
        "later checks must start with clauses learned by earlier ones"
    );
    assert!(session.learned_count() > 0);
    assert_eq!(metrics.session_pushes, 0, "no scopes were pushed");
}
