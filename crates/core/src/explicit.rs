//! Signal-correlation guided **explicit learning** — the paper's
//! *incremental learn-from-conflict* strategy (Sections II and V).
//!
//! From the correlations discovered by random simulation, a sequence of
//! likely-unsatisfiable sub-problems is created (`s_i = 1 ∧ s_j = 0` for an
//! equivalence pair, `s = 1` for a signal correlated to constant 0, ...).
//! The solver attacks them one at a time **in topological order**, aborting
//! each after a small number of learned gates (paper: 10). Everything
//! learned persists in the solver; sub-problems proven unsatisfiable under
//! their assumptions additionally record the refuted combination as a
//! learned clause (e.g. proving `s_i=1 ∧ s_j=0` impossible yields
//! `(¬s_i ∨ s_j)`). Finally the original objective is solved with all the
//! accumulated knowledge.
//!
//! The ordering ablation of Table VI (topological / reverse / random) and
//! the partial-learning sweep of Tables VIII–IX (only sub-problems below a
//! topological boundary) are both parameters here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use csat_netlist::Lit;
use csat_sim::{Correlation, CorrelationResult, Relation};
use csat_telemetry::{Observer, SolverEvent, SubproblemOutcome};
use csat_types::Interrupt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::options::{Budget, SubVerdict};
use crate::solver::Solver;

/// Which correlations feed the sub-problem sequence (Table V's columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CorrelationMode {
    /// Only pairs of signals ("Signal Pair").
    Pairs,
    /// Only correlations with the constant 0 ("Signal Vs. 0").
    Constants,
    /// Both kinds ("Both", the paper's best configuration).
    #[default]
    Both,
}

/// Order in which sub-problems are attacked (Table VI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SubproblemOrdering {
    /// Topological order — the paper's strategy.
    #[default]
    Topological,
    /// Reverse topological order (the paper's worst case).
    Reverse,
    /// Random order with the given seed.
    Random(u64),
}

/// Configuration of the explicit-learning pass.
#[derive(Clone, Copy, Debug)]
pub struct ExplicitOptions {
    /// Correlation kinds to use.
    pub mode: CorrelationMode,
    /// Sub-problem ordering.
    pub ordering: SubproblemOrdering,
    /// Learned-gate budget per sub-problem (paper: 10).
    pub learned_budget: u64,
    /// Decision budget per sub-problem. The learned-gate budget only
    /// bounds *conflicting* searches; a satisfiable sub-problem (a
    /// correlation that does not actually hold) would otherwise search
    /// without bound.
    pub decision_budget: u64,
    /// Fraction of the circuit (by topological position) whose correlations
    /// participate, in `[0, 1]` (Tables VIII–IX). 1.0 = all.
    pub fraction: f64,
}

impl Default for ExplicitOptions {
    fn default() -> ExplicitOptions {
        ExplicitOptions {
            mode: CorrelationMode::Both,
            ordering: SubproblemOrdering::Topological,
            learned_budget: 10,
            decision_budget: 20_000,
            fraction: 1.0,
        }
    }
}

/// Outcome of one explicit-learning pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExplicitReport {
    /// Sub-problems attempted (the paper's "Num." columns).
    pub subproblems: usize,
    /// Sub-problems refuted outright (UNSAT under their assumptions).
    pub refuted: usize,
    /// Sub-problems aborted at the learned-gate budget.
    pub aborted: usize,
    /// Sub-problems that turned out satisfiable.
    pub satisfiable: usize,
    /// Sub-problems whose solve panicked; the panic was contained, the
    /// solver rebuilt, and the sequence continued (see
    /// [`run_budgeted_observed`]).
    pub panicked: usize,
    /// Whether a global (assumption-free) contradiction was derived — the
    /// overall instance is UNSAT regardless of the objective.
    pub proved_root_unsat: bool,
    /// Why the pass stopped before exhausting the sub-problem sequence
    /// (outer budget ran out or the run was cancelled), if it did.
    pub interrupted: Option<Interrupt>,
}

/// The assumption sets of one sub-problem, chosen to be *likely conflicting*
/// per the correlation (Section II-A's "select those values that are more
/// likely to cause conflicts").
///
/// A pair correlation has two conflicting orientations (`s_a=1 ∧ s_b=0` and
/// `s_a=0 ∧ s_b=1` for an equivalence); both are attacked so that a refuted
/// pair yields the *full* equivalence as learned gates — which is what lets
/// later sub-problems, higher in the topological order, treat the pair as
/// interchangeable (the incremental cascade of Section II-A).
#[derive(Clone, Copy, Debug)]
struct Orientations {
    lits: [[Lit; 2]; 2],
    /// Orientations in use, and literals in each: 1 for a constant
    /// correlation, 2 for a pair.
    n: usize,
}

impl Orientations {
    fn of(c: &Correlation) -> Orientations {
        if c.is_constant() {
            // s ≈ 0: try s = 1; s ≈ 1: try s = 0.
            let lit = Lit::new(c.a, c.relation == Relation::Opposite);
            Orientations {
                lits: [[lit; 2]; 2],
                n: 1,
            }
        } else {
            let (a, b) = (Lit::new(c.a, false), Lit::new(c.b, false));
            let lits = match c.relation {
                // s_a ≈ s_b: try s_a = 1, s_b = 0, then s_a = 0, s_b = 1.
                Relation::Equal => [[a, !b], [!a, b]],
                // s_a ≈ ¬s_b: try both equal-value orientations.
                Relation::Opposite => [[a, b], [!a, !b]],
            };
            Orientations { lits, n: 2 }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &[Lit]> {
        self.lits[..self.n].iter().map(|o| &o[..self.n])
    }
}

/// Explicit cores recorded so far, flat, for rebuilding a panicked solver.
#[derive(Debug, Default)]
struct RecordedCores {
    lits: Vec<Lit>,
    /// End of each core in `lits`.
    ends: Vec<usize>,
}

impl RecordedCores {
    fn push(&mut self, clause: &[Lit]) {
        self.lits.extend_from_slice(clause);
        self.ends.push(self.lits.len());
    }

    fn iter(&self) -> impl Iterator<Item = &[Lit]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.lits[s..e])
    }
}

/// Runs the explicit-learning pass over the solver: observed, bounded by
/// an outer budget, and panic-isolated.
///
/// Call this once (after [`Solver::set_correlations`] if implicit learning
/// is also wanted) and then solve the original objective on the same
/// solver; the learned clauses carry over. `csat_pipeline::solve` runs
/// exactly this sequence.
///
/// Each sub-problem is reported to `obs` ([`SolverEvent::SubproblemStart`]
/// / [`SolverEvent::SubproblemEnd`]) along with its inner search events.
///
/// `outer` governs the *whole pass* (the per-sub-problem learned/decision
/// budgets come from `options`): its cancel token and memory limit are
/// threaded into every sub-solve, its wall-clock budget is split across
/// sub-problems as time remaining, and when it fires the pass stops early
/// with [`ExplicitReport::interrupted`] set.
///
/// Each sub-solve runs behind `catch_unwind`: a panic inside one
/// sub-problem is contained, the solver is rebuilt over the same circuit
/// (re-installing correlations and any already-recorded explicit cores),
/// and the remaining sequence continues. A contained panic is reported as
/// [`SubproblemOutcome::Panicked`] and counted in
/// [`ExplicitReport::panicked`].
///
/// # Example
///
/// ```
/// use csat_core::{explicit, Budget, ExplicitOptions, Solver, SolverOptions};
/// use csat_netlist::{generators, miter};
/// use csat_sim::{find_correlations, SimulationOptions};
/// use csat_telemetry::NoOpObserver;
///
/// let m = miter::self_miter(&generators::ripple_carry_adder(8), Default::default());
/// let correlations = find_correlations(&m.aig, &SimulationOptions::default());
/// let mut solver = Solver::new(&m.aig, SolverOptions::with_implicit_learning());
/// solver.set_correlations(&correlations);
/// let options = ExplicitOptions::default();
/// let report = explicit::run_budgeted_observed(
///     &mut solver,
///     &correlations,
///     &options,
///     &Budget::UNLIMITED,
///     &mut NoOpObserver,
/// );
/// assert!(report.subproblems > 0);
/// assert!(solver.solve(m.objective).is_unsat());
/// ```
pub fn run_budgeted_observed<O>(
    solver: &mut Solver<'_>,
    correlations: &CorrelationResult,
    options: &ExplicitOptions,
    outer: &Budget,
    obs: &mut O,
) -> ExplicitReport
where
    O: Observer + ?Sized,
{
    let start = Instant::now();
    let mut report = ExplicitReport::default();
    let selected = select_and_order(solver, correlations, options);
    let mut recorded = RecordedCores::default();
    'outer: for c in selected {
        if let Some(token) = &outer.cancel {
            if token.is_cancelled() {
                report.interrupted = Some(Interrupt::Cancelled);
                break;
            }
        }
        let mut sub_budget = Budget {
            max_learned: Some(options.learned_budget.max(1)),
            max_decisions: Some(options.decision_budget.max(1)),
            max_memory_bytes: outer.max_memory_bytes,
            cancel: outer.cancel.clone(),
            ..Budget::UNLIMITED
        };
        #[cfg(feature = "fault-injection")]
        {
            sub_budget.fault = outer.fault.clone();
        }
        if let Some(max) = outer.max_time {
            let remaining = max.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                report.interrupted = Some(Interrupt::Timeout);
                break;
            }
            sub_budget.max_time = Some(remaining);
        }
        let index = report.subproblems as u64;
        report.subproblems += 1;
        obs.record(SolverEvent::SubproblemStart { index });
        let mut any_sat = false;
        let mut any_abort = false;
        let mut panicked = false;
        let mut stop: Option<Interrupt> = None;
        for assumptions in Orientations::of(&c).iter() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                solver.solve_under(assumptions, &sub_budget, &mut *obs)
            }));
            match result {
                Err(_payload) => {
                    // The sub-solve panicked mid-search, which can leave
                    // internal state (trail, watch lists) inconsistent:
                    // rebuild the solver and move on to the next
                    // sub-problem.
                    panicked = true;
                    recover_solver(solver, correlations, &recorded);
                    break;
                }
                // The correlation does not hold on this orientation; the
                // conflicts hit along the way still taught something.
                Ok(SubVerdict::Sat(_)) => any_sat = true,
                Ok(SubVerdict::Aborted(reason)) => match reason {
                    // The outer budget (not the per-sub-problem one) is
                    // exhausted: no later sub-solve can proceed either.
                    Interrupt::Timeout | Interrupt::Memory | Interrupt::Cancelled => {
                        any_abort = true;
                        stop = Some(reason);
                        break;
                    }
                    _ => any_abort = true,
                },
                Ok(SubVerdict::UnsatUnderAssumptions(mut clause)) => {
                    // The refuted combination is circuit-implied knowledge:
                    // record its negation as a learned clause.
                    for l in &mut clause {
                        *l = !*l;
                    }
                    recorded.push(&clause);
                    let added = solver.add_learned_clause(clause);
                    debug_assert!(added.is_ok(), "refuted core literals are in range");
                }
                Ok(SubVerdict::Unsat) => {
                    report.proved_root_unsat = true;
                    obs.record(SolverEvent::SubproblemEnd {
                        index,
                        outcome: SubproblemOutcome::RootUnsat,
                    });
                    break 'outer;
                }
            }
        }
        let outcome = if panicked {
            report.panicked += 1;
            obs.record(SolverEvent::BudgetExhausted {
                reason: Interrupt::Panicked,
            });
            SubproblemOutcome::Panicked
        } else if any_sat {
            report.satisfiable += 1;
            SubproblemOutcome::Satisfiable
        } else if any_abort {
            report.aborted += 1;
            SubproblemOutcome::Aborted
        } else {
            report.refuted += 1;
            SubproblemOutcome::Refuted
        };
        obs.record(SolverEvent::SubproblemEnd { index, outcome });
        if let Some(reason) = stop {
            report.interrupted = Some(reason);
            break;
        }
    }
    report
}

/// Rebuilds a solver whose internal state may have been poisoned by a
/// panic mid-solve, over the same circuit (a borrowed one is not copied).
/// Correlations are re-installed; previously recorded explicit cores are
/// re-added — unless proof logging is active, in which case the proof
/// restarts from scratch so the log stays a consistent RUP derivation for
/// the rebuilt (clause-free) solver.
fn recover_solver(
    solver: &mut Solver<'_>,
    correlations: &CorrelationResult,
    recorded: &RecordedCores,
) {
    let proof_was_active = solver.proof_active();
    solver.rebuild();
    solver.set_correlations(correlations);
    if proof_was_active {
        solver.start_proof();
    } else {
        for clause in recorded.iter() {
            let added = solver.add_learned_clause(clause.to_vec());
            debug_assert!(added.is_ok(), "recorded cores are in range");
        }
    }
}

/// Applies the mode filter, the partial-learning boundary and the ordering.
fn select_and_order(
    solver: &Solver<'_>,
    correlations: &CorrelationResult,
    options: &ExplicitOptions,
) -> Vec<Correlation> {
    let n = solver.aig().len();
    let boundary = ((n as f64) * options.fraction.clamp(0.0, 1.0)) as usize;
    let mut selected: Vec<Correlation> = correlations
        .correlations
        .iter()
        .copied()
        .filter(|c| match options.mode {
            CorrelationMode::Pairs => !c.is_constant(),
            CorrelationMode::Constants => c.is_constant(),
            CorrelationMode::Both => true,
        })
        // Partial learning: only sub-problems whose topological location is
        // before the boundary (paper Section V-C).
        .filter(|c| c.a.index().max(c.b.index()) <= boundary)
        .collect();
    // Node indices are topological positions in an Aig.
    let key = |c: &Correlation| c.a.index().max(c.b.index());
    match options.ordering {
        SubproblemOrdering::Topological => selected.sort_by_key(key),
        SubproblemOrdering::Reverse => {
            selected.sort_by_key(key);
            selected.reverse();
        }
        SubproblemOrdering::Random(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            // Fisher-Yates.
            for i in (1..selected.len()).rev() {
                let j = rng.gen_range(0..=i);
                selected.swap(i, j);
            }
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SolverOptions;
    use csat_netlist::{generators, miter};
    use csat_sim::{find_correlations, SimulationOptions};
    use csat_telemetry::NoOpObserver;

    fn run(
        solver: &mut Solver<'_>,
        correlations: &CorrelationResult,
        options: &ExplicitOptions,
    ) -> ExplicitReport {
        run_budgeted_observed(
            solver,
            correlations,
            options,
            &Budget::UNLIMITED,
            &mut NoOpObserver,
        )
    }

    #[test]
    fn assumptions_pick_conflicting_values() {
        use csat_netlist::NodeId;
        let (s9, s4) = (NodeId::from_index(9), NodeId::from_index(4));
        let pair_eq = Correlation {
            a: s9,
            b: s4,
            relation: Relation::Equal,
        };
        // First orientation: s9 = 1, s4 = 0; second is the mirror image.
        assert_eq!(
            Orientations::of(&pair_eq).iter().collect::<Vec<_>>(),
            [
                &[Lit::new(s9, false), Lit::new(s4, true)][..],
                &[Lit::new(s9, true), Lit::new(s4, false)][..],
            ]
        );
        let pair_opp = Correlation {
            relation: Relation::Opposite,
            ..pair_eq
        };
        assert_eq!(
            Orientations::of(&pair_opp).iter().collect::<Vec<_>>(),
            [
                &[Lit::new(s9, false), Lit::new(s4, false)][..],
                &[Lit::new(s9, true), Lit::new(s4, true)][..],
            ]
        );
        let s7 = NodeId::from_index(7);
        let const_zero = Correlation {
            a: s7,
            b: NodeId::FALSE,
            relation: Relation::Equal,
        };
        assert_eq!(
            Orientations::of(&const_zero).iter().collect::<Vec<_>>(),
            [&[Lit::new(s7, false)][..]]
        );
        let const_one = Correlation {
            relation: Relation::Opposite,
            ..const_zero
        };
        assert_eq!(
            Orientations::of(&const_one).iter().collect::<Vec<_>>(),
            [&[Lit::new(s7, true)][..]]
        );
    }

    #[test]
    fn recorded_cores_read_back_in_order() {
        let lit = |i: usize| Lit::new(csat_netlist::NodeId::from_index(i), i.is_multiple_of(2));
        let mut cores = RecordedCores::default();
        assert_eq!(cores.iter().count(), 0);
        cores.push(&[lit(3), lit(4)]);
        cores.push(&[lit(5)]);
        cores.push(&[lit(6), lit(7), lit(8)]);
        assert_eq!(
            cores.iter().collect::<Vec<_>>(),
            [
                &[lit(3), lit(4)][..],
                &[lit(5)][..],
                &[lit(6), lit(7), lit(8)][..]
            ]
        );
    }

    #[test]
    fn explicit_learning_keeps_soundness_on_self_miter() {
        let adder = generators::ripple_carry_adder(6);
        let m = miter::self_miter(&adder, Default::default());
        let correlations = find_correlations(&m.aig, &SimulationOptions::default());
        for ordering in [
            SubproblemOrdering::Topological,
            SubproblemOrdering::Reverse,
            SubproblemOrdering::Random(3),
        ] {
            let mut solver = Solver::new(&m.aig, SolverOptions::default());
            solver.set_correlations(&correlations);
            let report = run(
                &mut solver,
                &correlations,
                &ExplicitOptions {
                    ordering,
                    ..Default::default()
                },
            );
            assert!(report.subproblems > 0, "{ordering:?}");
            assert!(
                solver.solve(m.objective).is_unsat(),
                "{ordering:?} must stay sound"
            );
        }
    }

    #[test]
    fn explicit_learning_keeps_soundness_on_sat_instance() {
        // A satisfiable mixed instance must stay satisfiable after the
        // learning pass, and the model must check out.
        let (aig, objective) = generators::vliw_like(
            5,
            &generators::VliwOptions {
                inputs: 10,
                core_gates: 120,
                clauses: 50,
                clause_width: 3,
            },
        );
        let correlations = find_correlations(&aig, &SimulationOptions::default());
        let mut solver = Solver::new(&aig, SolverOptions::default());
        let _ = run(&mut solver, &correlations, &ExplicitOptions::default());
        match solver.solve(objective) {
            crate::Verdict::Sat(model) => {
                let values = aig.evaluate(&model);
                assert!(aig.lit_value(&values, objective), "model must satisfy");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn fraction_limits_subproblem_count() {
        let adder = generators::ripple_carry_adder(8);
        let m = miter::self_miter(&adder, Default::default());
        let correlations = find_correlations(&m.aig, &SimulationOptions::default());
        let count_at = |fraction: f64| {
            let mut solver = Solver::new(&m.aig, SolverOptions::default());
            run(
                &mut solver,
                &correlations,
                &ExplicitOptions {
                    fraction,
                    ..Default::default()
                },
            )
            .subproblems
        };
        let half = count_at(0.5);
        let full = count_at(1.0);
        assert!(half < full, "half {half} should be < full {full}");
        assert_eq!(count_at(0.0), 0);
    }

    #[test]
    fn mode_filters_correlation_kinds() {
        let adder = generators::ripple_carry_adder(6);
        let m = miter::self_miter(&adder, Default::default());
        let correlations = find_correlations(&m.aig, &SimulationOptions::default());
        let pairs_total = correlations.pair_correlations().count();
        let consts_total = correlations.constant_correlations().count();
        let count = |mode: CorrelationMode| {
            let mut solver = Solver::new(&m.aig, SolverOptions::default());
            run(
                &mut solver,
                &correlations,
                &ExplicitOptions {
                    mode,
                    ..Default::default()
                },
            )
            .subproblems
        };
        assert_eq!(count(CorrelationMode::Pairs), pairs_total);
        assert_eq!(count(CorrelationMode::Constants), consts_total);
        assert_eq!(count(CorrelationMode::Both), pairs_total + consts_total);
    }
}
