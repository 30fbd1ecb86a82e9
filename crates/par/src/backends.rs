//! One adapter per backend, plugging it into both the portfolio and the
//! cube-and-conquer scheduler.
//!
//! Both backends expose the same kernel surface (`solve_under`, clause
//! export/ingest, VSIDS activities), so the adapters are thin: they fix
//! the assumption set (the circuit objective rides along on every call),
//! translate [`SubVerdict`] into the scheduler's [`JobVerdict`] and
//! forward the clause-exchange hooks. A portfolio round is one plain
//! `solve_under`; a cube job first runs the solver's between-solve
//! housekeeping (`simplify`), as every incremental caller does.

use csat_netlist::cnf::{Lit as CnfLit, Var};
use csat_netlist::{Lit as AigLit, NodeId};
use csat_telemetry::Observer;
use csat_types::{Budget, SearchStats, SubVerdict};

use crate::cubes::CubeSolver;
use crate::portfolio::{JobVerdict, PortfolioWorker};

/// The scheduler's view of a verdict. A failed-assumption core for which
/// `refutes_instance` holds never used a cube literal, so it refutes the
/// whole instance, not just one cube.
fn job_verdict<L>(verdict: SubVerdict<L>, refutes_instance: impl Fn(&[L]) -> bool) -> JobVerdict {
    match verdict {
        SubVerdict::Sat(model) => JobVerdict::Sat(model),
        SubVerdict::Unsat => JobVerdict::Unsat,
        SubVerdict::UnsatUnderAssumptions(core) if refutes_instance(&core) => JobVerdict::Unsat,
        SubVerdict::UnsatUnderAssumptions(_) => JobVerdict::UnsatUnderAssumptions,
        SubVerdict::Aborted(reason) => JobVerdict::Aborted(reason),
    }
}

/// The circuit backend: a [`csat_core::Solver`] plus the objective literal
/// it must justify. Cloning it for a cube worker shares a borrowed
/// circuit instead of copying it.
#[derive(Clone)]
pub struct CircuitWorker<'a> {
    /// The underlying circuit solver (already diversified and, when the
    /// caller ran simulation, carrying correlations).
    pub solver: csat_core::Solver<'a>,
    /// The objective asserted on every round, probe and cube.
    pub objective: AigLit,
}

impl CircuitWorker<'_> {
    fn solve(&mut self, cube: &[AigLit], budget: &Budget, obs: &mut dyn Observer) -> JobVerdict {
        let objective = self.objective;
        let verdict = if cube.is_empty() {
            self.solver.solve_under(&[objective], budget, obs)
        } else {
            self.solver
                .solve_under(&[&[objective], cube].concat(), budget, obs)
        };
        job_verdict(verdict, |core| core.iter().all(|&l| l == objective))
    }
}

impl PortfolioWorker for CircuitWorker<'_> {
    type Lit = AigLit;

    fn configure_export(&mut self, glue_cap: u32, len_cap: usize, max_buffered: usize) {
        self.solver
            .set_clause_export(glue_cap, len_cap, max_buffered);
    }

    fn take_exported(&mut self) -> Vec<(Vec<AigLit>, u32)> {
        self.solver.take_exported()
    }

    fn import_clause(&mut self, lits: Vec<AigLit>) {
        // Peers solve the identical circuit, so their learned clauses are
        // implied here too; out-of-range cannot happen but is harmless.
        let _ = self.solver.add_learned_clause(lits);
    }

    fn solve_round(&mut self, budget: &Budget, obs: &mut dyn Observer) -> JobVerdict {
        self.solve(&[], budget, obs)
    }

    fn stats(&self) -> SearchStats {
        *self.solver.stats()
    }
}

impl CubeSolver for CircuitWorker<'_> {
    type Lit = AigLit;

    fn make_lit(&self, var: usize, negated: bool) -> AigLit {
        AigLit::new(NodeId::from_index(var), negated)
    }

    fn probe(&mut self, budget: &Budget, obs: &mut dyn Observer) -> JobVerdict {
        self.solve_cube(&[], budget, obs)
    }

    fn split_vars(&self, k: usize) -> Vec<usize> {
        self.solver.top_active_vars(k)
    }

    fn solve_cube(
        &mut self,
        cube: &[AigLit],
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> JobVerdict {
        self.solver.simplify(obs);
        self.solve(cube, budget, obs)
    }

    fn stats(&self) -> SearchStats {
        *self.solver.stats()
    }
}

/// The CNF backend: a [`csat_cnf::Solver`].
#[derive(Clone)]
pub struct CnfWorker {
    /// The underlying CNF solver (already diversified).
    pub solver: csat_cnf::Solver,
}

impl CnfWorker {
    fn solve(&mut self, cube: &[CnfLit], budget: &Budget, obs: &mut dyn Observer) -> JobVerdict {
        job_verdict(self.solver.solve_under(cube, budget, obs), <[_]>::is_empty)
    }
}

impl PortfolioWorker for CnfWorker {
    type Lit = CnfLit;

    fn configure_export(&mut self, glue_cap: u32, len_cap: usize, max_buffered: usize) {
        self.solver
            .set_clause_export(glue_cap, len_cap, max_buffered);
    }

    fn take_exported(&mut self) -> Vec<(Vec<CnfLit>, u32)> {
        self.solver.take_exported()
    }

    fn import_clause(&mut self, lits: Vec<CnfLit>) {
        let _ = self.solver.add_learned_clause(lits);
    }

    fn solve_round(&mut self, budget: &Budget, obs: &mut dyn Observer) -> JobVerdict {
        self.solve(&[], budget, obs)
    }

    fn stats(&self) -> SearchStats {
        *self.solver.stats()
    }
}

impl CubeSolver for CnfWorker {
    type Lit = CnfLit;

    fn make_lit(&self, var: usize, negated: bool) -> CnfLit {
        CnfLit::new(Var(var as u32), negated)
    }

    fn probe(&mut self, budget: &Budget, obs: &mut dyn Observer) -> JobVerdict {
        self.solve_cube(&[], budget, obs)
    }

    fn split_vars(&self, k: usize) -> Vec<usize> {
        self.solver.top_active_vars(k)
    }

    fn solve_cube(
        &mut self,
        cube: &[CnfLit],
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> JobVerdict {
        self.solver.simplify(obs);
        self.solve(cube, budget, obs)
    }

    fn stats(&self) -> SearchStats {
        *self.solver.stats()
    }
}
