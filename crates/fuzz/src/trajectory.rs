//! Incremental-trajectory differential fuzzing.
//!
//! The incremental solver API ([`csat_core::Solver`] /
//! [`csat_cnf::Solver`] grown, scoped and re-solved) has exactly one
//! correctness contract: at every solve point, the verdict must equal what
//! a fresh monolithic solver says about the *equivalent batch instance* —
//! the formula as grown so far under the assumptions currently in scope.
//! [`check_trajectory`] generates a seeded random interleaving of grow /
//! push / assume / pop / solve steps, replays it on one long-lived solver
//! (running the between-solve housekeeping before every solve), and
//! rebuilds that batch instance from scratch at every solve point:
//!
//! * **verdicts** — SAT from one side and UNSAT from the other is a
//!   disagreement (budget-limited aborts abstain);
//! * **models** — every SAT model must satisfy the grown instance *and*
//!   every in-scope assumption under direct evaluation;
//! * **cores** — every failed-assumption core must be a subset of the
//!   assumptions passed in, and the fresh solver must not find the core
//!   alone satisfiable.
//!
//! Trajectories alternate between the circuit backend (gate growth) and
//! the CNF backend (variable/clause growth) by seed parity. Everything is
//! deterministic: seeded RNG, conflict budgets, no clocks — a disagreeing
//! trajectory replays from its seed alone.

use csat_netlist::cnf::{Cnf, Lit as CnfLit, Var as CnfVar};
use csat_netlist::{Aig, Lit};
use csat_telemetry::{NoOpObserver, Observer};
use csat_types::{Budget, SubVerdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which backend a trajectory drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrajectoryKind {
    /// A [`csat_core::Solver`] growing an AIG gate by gate.
    Circuit,
    /// A [`csat_cnf::Solver`] growing a formula clause by clause.
    Cnf,
}

impl TrajectoryKind {
    /// Stable lowercase name (JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            TrajectoryKind::Circuit => "trajectory_circuit",
            TrajectoryKind::Cnf => "trajectory_cnf",
        }
    }
}

/// The replayed result of one trajectory.
#[derive(Clone, Debug)]
pub struct TrajectoryReport {
    /// Backend driven.
    pub kind: TrajectoryKind,
    /// Steps taken (grow/push/assume/pop/solve).
    pub steps: u64,
    /// Solve points cross-checked against the fresh monolithic solver.
    pub solves: u64,
    /// Solve points with SAT consensus.
    pub sat: u64,
    /// Solve points with UNSAT consensus.
    pub unsat: u64,
    /// Solve points where both sides ran out of budget (abstained).
    pub unknown: u64,
    /// `session=V/fresh=V` label per solve point (JSONL `verdicts` array).
    pub labels: Vec<String>,
    /// First detected disagreement, described for humans.
    pub disagreement: Option<String>,
}

/// Short verdict label for the JSONL row.
fn label<L>(v: &SubVerdict<L>) -> &'static str {
    match v {
        SubVerdict::Sat(_) => "SAT",
        SubVerdict::Unsat => "UNSAT",
        SubVerdict::UnsatUnderAssumptions(_) => "UNSAT*",
        SubVerdict::Aborted(_) => "UNKNOWN",
    }
}

/// Replays the trajectory of `seed` and differentially checks every solve
/// point. `obs` absorbs the *session's* solver events (the reference
/// solves are discarded), so a [`csat_telemetry::MetricsRecorder`] here
/// sees the `SessionPush`/`SessionPop`/`ClausesRetained` stream.
pub fn check_trajectory(seed: u64, budget: &Budget, obs: &mut dyn Observer) -> TrajectoryReport {
    if seed.is_multiple_of(2) {
        circuit_trajectory(seed, budget, obs)
    } else {
        cnf_trajectory(seed, budget, obs)
    }
}

fn circuit_trajectory(seed: u64, budget: &Budget, obs: &mut dyn Observer) -> TrajectoryReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7C_A117);
    let mut report = TrajectoryReport {
        kind: TrajectoryKind::Circuit,
        steps: 0,
        solves: 0,
        sat: 0,
        unsat: 0,
        unknown: 0,
        labels: Vec::new(),
        disagreement: None,
    };

    // Seed circuit: a handful of inputs plus a few random gates.
    let options = if rng.gen_bool(0.5) {
        csat_core::SolverOptions::default()
    } else {
        csat_core::SolverOptions::plain_csat()
    };
    let mut aig = Aig::new();
    for _ in 0..4 + rng.gen_range(0..5) {
        aig.input();
    }
    let initial_gates = 6 + rng.gen_range(0..20);
    grow_gates(&mut aig, &mut rng, initial_gates);
    let mut session = csat_core::Solver::owned(aig, options);

    let steps = 8 + rng.gen_range(0..10);
    for step in 0..=steps {
        report.steps += 1;
        // The final step is always a solve so every trajectory checks at
        // least once with everything it built up.
        let action = if step == steps {
            4
        } else {
            rng.gen_range(0..6u32)
        };
        match action {
            0 => {
                let n = 1 + rng.gen_range(0..5);
                session.grow(|aig| grow_gates(aig, &mut rng, n));
            }
            1 => {
                session.push_observed(&mut *obs);
                for _ in 0..1 + rng.gen_range(0..2) {
                    let lit = random_lit(session.aig(), &mut rng);
                    session.assume(lit);
                }
            }
            2 => {
                session.pop_observed(&mut *obs);
            }
            3 => {
                let lit = random_lit(session.aig(), &mut rng);
                session.assume(lit);
            }
            _ => {
                let mut extra = Vec::new();
                if rng.gen_bool(0.3) {
                    extra.push(random_lit(session.aig(), &mut rng));
                }
                session.simplify(&mut *obs);
                let verdict = session.solve_under(&extra, budget, &mut *obs);

                let mut active: Vec<Lit> = session.assumptions().to_vec();
                active.extend_from_slice(&extra);
                let mut fresh = csat_core::Solver::new(session.aig(), options);
                let reference = fresh.solve_under(&active, budget, &mut NoOpObserver);

                report.solves += 1;
                report.labels.push(format!(
                    "session={}/fresh={}",
                    label(&verdict),
                    label(&reference)
                ));
                if report.disagreement.is_none() {
                    report.disagreement = check_circuit_point(
                        session.aig(),
                        &active,
                        &verdict,
                        &reference,
                        options,
                        budget,
                    );
                }
                tally(&mut report, &verdict, &reference);
            }
        }
    }
    report
}

/// Appends `n` random AND gates over the circuit's existing literals.
fn grow_gates(aig: &mut Aig, rng: &mut StdRng, n: usize) {
    for _ in 0..n {
        let a = random_lit(aig, rng);
        let b = random_lit(aig, rng);
        // `and` folds trivially-constant shapes; `and_fresh` plants a real
        // gate even for them. Mix both so sessions see hidden constants.
        if rng.gen_bool(0.8) {
            aig.and(a, b);
        } else {
            aig.and_fresh(a, b);
        }
    }
}

/// A random literal over the circuit's current nodes (never the constant:
/// assuming FALSE is legal but collapses the whole trajectory).
fn random_lit(aig: &Aig, rng: &mut StdRng) -> Lit {
    let idx = 1 + rng.gen_range(0..aig.len() - 1);
    Lit::new(csat_netlist::NodeId::from_index(idx), rng.gen_bool(0.5))
}

/// Cross-checks one circuit solve point. Returns a description of the
/// first problem found, if any.
fn check_circuit_point(
    aig: &Aig,
    active: &[Lit],
    session: &SubVerdict,
    fresh: &SubVerdict,
    options: csat_core::SolverOptions,
    budget: &Budget,
) -> Option<String> {
    if let SubVerdict::Sat(model) = session {
        let values = aig.evaluate(model);
        if let Some(l) = active.iter().find(|&&l| !aig.lit_value(&values, l)) {
            return Some(format!(
                "circuit session SAT model violates assumption {l:?} under direct evaluation"
            ));
        }
    }
    if let SubVerdict::UnsatUnderAssumptions(core) = session {
        if let Some(&l) = core.iter().find(|&l| !active.contains(l)) {
            return Some(format!(
                "circuit session failed core contains {l:?}, which was never assumed"
            ));
        }
        // The core alone must already be unsatisfiable: a SAT answer from
        // the fresh solver under just the core is a soundness bug
        // (budget-limited aborts abstain).
        let mut solver = csat_core::Solver::new(aig, options);
        if let SubVerdict::Sat(_) = solver.solve_under(core, budget, &mut NoOpObserver) {
            return Some("circuit session failed core is satisfiable on a fresh solver".into());
        }
    }
    match (
        session.is_sat(),
        session.is_unsat(),
        fresh.is_sat(),
        fresh.is_unsat(),
    ) {
        (true, _, _, true) => {
            Some("verdict split: session SAT vs fresh monolithic UNSAT (circuit)".into())
        }
        (_, true, true, _) => {
            Some("verdict split: session UNSAT vs fresh monolithic SAT (circuit)".into())
        }
        _ => None,
    }
}

fn cnf_trajectory(seed: u64, budget: &Budget, obs: &mut dyn Observer) -> TrajectoryReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4F_5EED);
    let mut report = TrajectoryReport {
        kind: TrajectoryKind::Cnf,
        steps: 0,
        solves: 0,
        sat: 0,
        unsat: 0,
        unknown: 0,
        labels: Vec::new(),
        disagreement: None,
    };

    let options = csat_cnf::SolverOptions::default();
    // Seed formula: random 3-CNF below the phase transition, so growth
    // steps decide which side of SAT/UNSAT the trajectory ends on.
    let mut num_vars = 6 + rng.gen_range(0..10);
    let mut clauses: Vec<Vec<CnfLit>> = Vec::new();
    let mut cnf = Cnf::with_vars(num_vars);
    for _ in 0..(num_vars as f64 * 3.0) as usize {
        let c = random_clause(num_vars, &mut rng);
        cnf.add_clause(c.clone());
        clauses.push(c);
    }
    let mut session = csat_cnf::Solver::new(&cnf, options);

    let steps = 8 + rng.gen_range(0..10);
    for step in 0..=steps {
        report.steps += 1;
        let action = if step == steps {
            5
        } else {
            rng.gen_range(0..7u32)
        };
        match action {
            0 => {
                for _ in 0..1 + rng.gen_range(0..3) {
                    session.add_var();
                    num_vars += 1;
                }
            }
            1 | 2 => {
                for _ in 0..1 + rng.gen_range(0..4) {
                    let c = random_clause(num_vars, &mut rng);
                    session
                        .add_clause(c.clone())
                        .expect("clause over live variables");
                    clauses.push(c);
                }
            }
            3 => {
                session.push_observed(&mut *obs);
                for _ in 0..1 + rng.gen_range(0..2) {
                    session.assume(random_cnf_lit(num_vars, &mut rng));
                }
            }
            4 => {
                session.pop_observed(&mut *obs);
            }
            6 => {
                session.assume(random_cnf_lit(num_vars, &mut rng));
            }
            _ => {
                let mut extra = Vec::new();
                if rng.gen_bool(0.3) {
                    extra.push(random_cnf_lit(num_vars, &mut rng));
                }
                session.simplify(&mut *obs);
                let verdict = session.solve_under(&extra, budget, &mut *obs);

                let mut active: Vec<CnfLit> = session.assumptions().to_vec();
                active.extend_from_slice(&extra);
                let mut batch = Cnf::with_vars(num_vars);
                for c in &clauses {
                    batch.add_clause(c.clone());
                }
                let mut fresh = csat_cnf::Solver::new(&batch, options);
                let reference = fresh.solve_under(&active, budget, &mut NoOpObserver);

                report.solves += 1;
                report.labels.push(format!(
                    "session={}/fresh={}",
                    label(&verdict),
                    label(&reference)
                ));
                if report.disagreement.is_none() {
                    report.disagreement =
                        check_cnf_point(&batch, &active, &verdict, &reference, options, budget);
                }
                tally(&mut report, &verdict, &reference);
            }
        }
    }
    report
}

/// A random clause of 1-3 distinct variables.
fn random_clause(num_vars: usize, rng: &mut StdRng) -> Vec<CnfLit> {
    let width = 1 + rng.gen_range(0..3).min(num_vars - 1);
    let mut clause: Vec<CnfLit> = Vec::with_capacity(width);
    while clause.len() < width {
        let l = random_cnf_lit(num_vars, rng);
        if clause.iter().all(|c| c.var() != l.var()) {
            clause.push(l);
        }
    }
    clause
}

fn random_cnf_lit(num_vars: usize, rng: &mut StdRng) -> CnfLit {
    CnfLit::new(CnfVar(rng.gen_range(0..num_vars) as u32), rng.gen_bool(0.5))
}

/// Cross-checks one CNF solve point against the rebuilt batch formula.
fn check_cnf_point(
    batch: &Cnf,
    active: &[CnfLit],
    session: &csat_cnf::SubVerdict,
    fresh: &csat_cnf::SubVerdict,
    options: csat_cnf::SolverOptions,
    budget: &Budget,
) -> Option<String> {
    if let SubVerdict::Sat(model) = session {
        if !batch.evaluate(model) {
            return Some("cnf session SAT model fails direct evaluation".into());
        }
        if let Some(l) = active
            .iter()
            .find(|l| model[l.var().index()] == l.is_negative())
        {
            return Some(format!(
                "cnf session SAT model violates assumption {}",
                l.to_dimacs()
            ));
        }
    }
    if let SubVerdict::UnsatUnderAssumptions(core) = session {
        if let Some(&l) = core.iter().find(|&l| !active.contains(l)) {
            return Some(format!(
                "cnf session failed core contains {}, which was never assumed",
                l.to_dimacs()
            ));
        }
        let mut solver = csat_cnf::Solver::new(batch, options);
        if let SubVerdict::Sat(_) = solver.solve_under(core, budget, &mut NoOpObserver) {
            return Some("cnf session failed core is satisfiable on a fresh solver".into());
        }
    }
    match (
        session.is_sat(),
        session.is_unsat(),
        fresh.is_sat(),
        fresh.is_unsat(),
    ) {
        (true, _, _, true) => {
            Some("verdict split: session SAT vs fresh monolithic UNSAT (cnf)".into())
        }
        (_, true, true, _) => {
            Some("verdict split: session UNSAT vs fresh monolithic SAT (cnf)".into())
        }
        _ => None,
    }
}

/// Books one solve point into the report's consensus counters.
fn tally<L, M>(report: &mut TrajectoryReport, session: &SubVerdict<L>, fresh: &SubVerdict<M>) {
    let sat = session.is_sat() || fresh.is_sat();
    let unsat = session.is_unsat() || fresh.is_unsat();
    match (sat, unsat) {
        (true, false) => report.sat += 1,
        (false, true) => report.unsat += 1,
        (false, false) => report.unknown += 1,
        (true, true) => {} // disagreement; already described
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_telemetry::MetricsRecorder;

    #[test]
    fn trajectories_are_deterministic() {
        let budget = Budget::conflicts(10_000);
        for seed in 0..4u64 {
            let a = check_trajectory(seed, &budget, &mut NoOpObserver);
            let b = check_trajectory(seed, &budget, &mut NoOpObserver);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.disagreement, b.disagreement);
        }
    }

    #[test]
    fn seed_parity_selects_the_backend() {
        let budget = Budget::conflicts(10_000);
        let even = check_trajectory(0, &budget, &mut NoOpObserver);
        let odd = check_trajectory(1, &budget, &mut NoOpObserver);
        assert_eq!(even.kind, TrajectoryKind::Circuit);
        assert_eq!(odd.kind, TrajectoryKind::Cnf);
    }

    #[test]
    fn short_sweep_has_no_disagreements_and_records_session_events() {
        let budget = Budget::conflicts(50_000);
        let mut metrics = MetricsRecorder::default();
        let mut solves = 0;
        for seed in 0..20u64 {
            let report = check_trajectory(seed, &budget, &mut metrics);
            assert!(
                report.disagreement.is_none(),
                "seed {seed}: {:?}",
                report.disagreement
            );
            assert!(report.solves >= 1, "every trajectory solves at least once");
            solves += report.solves;
        }
        assert!(solves >= 20);
        // The trajectories push scopes; the observer must have seen them.
        assert!(metrics.session_pushes > 0);
    }
}
