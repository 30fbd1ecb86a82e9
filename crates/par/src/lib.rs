//! Parallel portfolio and cube-and-conquer layer over the csat CDCL
//! kernel.
//!
//! Two parallel modes, both built on `std::thread::scope` (no external
//! runtime) and both cooperative via the budget/cancel machinery in
//! `csat-types`:
//!
//! * **Portfolio** ([`run_portfolio`]): N diversified solver instances
//!   race on the *whole* instance. Each worker runs a different search
//!   policy (see [`diversify`]), they exchange low-glue learned clauses
//!   between rounds (see [`Exchange`]), and the first definitive verdict
//!   cancels the rest.
//! * **Cube-and-conquer** ([`run_cubes`]): a bounded probe solve warms
//!   VSIDS activities, the top-`k` active variables split the instance
//!   into `2^k` subcubes, and workers conquer them as assumption jobs on
//!   clones of the probed solver, stealing cubes from each other when
//!   their own deque runs dry.
//!
//! Determinism: each worker is individually deterministic, but *which*
//! worker wins a race is timing-dependent. Soundness makes this benign
//! for the verdict — two workers can never return contradicting
//! SAT/UNSAT answers for the same instance — so parallel runs agree with
//! sequential runs on every verdict, while the winning model, the stats
//! and the telemetry may vary run to run. The parallel-determinism CI
//! gate checks exactly this contract.
//!
//! ```
//! use csat_cnf::{Solver, SolverOptions};
//! use csat_netlist::cnf::Cnf;
//! use csat_par::{diversify, run_portfolio, CnfWorker, PortfolioOptions};
//! use csat_types::Budget;
//!
//! let mut cnf = Cnf::new();
//! let (a, b) = (cnf.fresh_var(), cnf.fresh_var());
//! cnf.add_clause(vec![a.positive(), b.positive()]);
//! cnf.add_clause(vec![a.negative()]);
//!
//! let workers: Vec<CnfWorker> = (0..2)
//!     .map(|i| {
//!         let options = SolverOptions::builder().search(diversify(SolverOptions::default().search, i)).build();
//!         CnfWorker { solver: Solver::new(&cnf, options) }
//!     })
//!     .collect();
//! let outcome = run_portfolio(workers, &PortfolioOptions::default(), &Budget::UNLIMITED);
//! assert!(outcome.verdict.is_sat());
//! ```

#![warn(missing_docs)]

mod backends;
mod cubes;
mod diversify;
mod exchange;
mod portfolio;

pub use backends::{CircuitWorker, CnfWorker};
pub use cubes::{run_cubes, CubeOptions, CubeSolver};
pub use diversify::diversify;
pub use exchange::Exchange;
pub use portfolio::{
    run_portfolio, JobVerdict, ParOutcome, PortfolioOptions, PortfolioWorker, WorkerOutcome,
    WorkerReport,
};

use csat_netlist::cnf::Cnf;
use csat_netlist::{Aig, Lit};
use csat_types::Budget;

/// Which parallel scheduler a multi-threaded solve uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParMode {
    /// Diversified portfolio race with clause sharing (the default).
    Portfolio,
    /// Cube-and-conquer: split on high-activity variables, conquer the
    /// subcubes with work stealing.
    Cubes,
}

impl std::str::FromStr for ParMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ParMode, String> {
        match s {
            "portfolio" => Ok(ParMode::Portfolio),
            "cubes" => Ok(ParMode::Cubes),
            other => Err(format!(
                "unknown parallel mode '{other}' (expected portfolio|cubes)"
            )),
        }
    }
}

/// Portfolio solve of a circuit objective on `threads` workers.
///
/// Worker `i` runs `base` with [`diversify`]\(base.search, i\) swapped
/// in; `configure` then sees every worker's solver before the race
/// starts (the hook to install simulation correlations or tweak options
/// per worker). Worker 0 is always the unmodified base configuration.
pub fn solve_aig_portfolio(
    aig: &Aig,
    objective: Lit,
    base: csat_core::SolverOptions,
    threads: usize,
    options: &PortfolioOptions,
    budget: &Budget,
    mut configure: impl FnMut(usize, &mut csat_core::Solver<'_>),
) -> ParOutcome {
    let workers: Vec<CircuitWorker<'_>> = (0..threads.max(1))
        .map(|i| {
            let mut worker_options = base;
            worker_options.search = diversify(base.search, i);
            let mut solver = csat_core::Solver::new(aig, worker_options);
            configure(i, &mut solver);
            CircuitWorker { solver, objective }
        })
        .collect();
    run_portfolio(workers, options, budget)
}

/// Portfolio solve of a CNF instance on `threads` workers.
pub fn solve_cnf_portfolio(
    cnf: &Cnf,
    base: csat_cnf::SolverOptions,
    threads: usize,
    options: &PortfolioOptions,
    budget: &Budget,
) -> ParOutcome {
    let workers: Vec<CnfWorker> = (0..threads.max(1))
        .map(|i| {
            let mut worker_options = base;
            worker_options.search = diversify(base.search, i);
            CnfWorker {
                solver: csat_cnf::Solver::new(cnf, worker_options),
            }
        })
        .collect();
    run_portfolio(workers, options, budget)
}

/// Cube-and-conquer solve of a circuit objective on `threads` workers.
///
/// `configure` sees the base solver before the probe (the hook to install
/// simulation correlations), with the same signature as in
/// [`solve_aig_portfolio`]; it is called once, with index 0. Every cube
/// worker clones the probed base, sharing `aig` rather than copying it.
pub fn solve_aig_cubes(
    aig: &Aig,
    objective: Lit,
    base: csat_core::SolverOptions,
    threads: usize,
    options: &CubeOptions,
    budget: &Budget,
    mut configure: impl FnMut(usize, &mut csat_core::Solver<'_>),
) -> ParOutcome {
    let mut solver = csat_core::Solver::new(aig, base);
    configure(0, &mut solver);
    run_cubes(
        CircuitWorker { solver, objective },
        threads.max(1),
        options,
        budget,
    )
}

/// Cube-and-conquer solve of a CNF instance on `threads` workers.
pub fn solve_cnf_cubes(
    cnf: &Cnf,
    base: csat_cnf::SolverOptions,
    threads: usize,
    options: &CubeOptions,
    budget: &Budget,
) -> ParOutcome {
    run_cubes(
        CnfWorker {
            solver: csat_cnf::Solver::new(cnf, base),
        },
        threads.max(1),
        options,
        budget,
    )
}
