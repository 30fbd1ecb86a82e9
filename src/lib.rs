//! # csat — a circuit SAT solver with signal correlation guided learning
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *"A Circuit SAT Solver With Signal Correlation Guided Learning"*
//! (Lu, Wang, Cheng, Huang — DATE 2003).
//!
//! * [`netlist`] — AIG circuits, `.bench`/DIMACS I/O, miters, generators.
//! * [`types`] — the shared solver vocabulary: [`types::Verdict`],
//!   [`types::SubVerdict`] and resource [`types::Budget`]s.
//! * [`telemetry`] — the observability layer: [`telemetry::SolverEvent`]s,
//!   [`telemetry::Observer`]s, metrics and JSON progress/report emitters.
//! * [`sim`] — random simulation and signal-correlation discovery.
//! * [`cnf`] — the ZChaff-class CNF CDCL baseline solver.
//! * [`core`] — the circuit-based CDCL solver with J-node decisions and
//!   implicit/explicit correlation-guided learning.
//! * [`prep`] — the preprocessing pass pipeline: strash rebuild, constant
//!   propagation, cone pruning and simulation-guided SAT sweeping, with a
//!   reconstruction map lifting verdicts back to the original netlist.
//! * [`fuzz`] — the deterministic differential-testing engine cross-checking
//!   the full solver configuration matrix.
//! * [`par`] — the parallel portfolio / cube-and-conquer layer.
//! * [`pipeline`] — the one solve flow behind every front-end: load,
//!   prep, correlate, explicit learning, dispatch, lift and check.
//! * [`serve`] — the crash-tolerant solver daemon behind `csat-serve`:
//!   JSONL job protocol, bounded queue, per-job fault domains.
//! * [`signal`] — SIGINT/SIGTERM wiring: a signal-backed
//!   [`types::CancelToken`] shared by the CLI budgets and the daemon's
//!   graceful drain.
//! * [`cli`] — what the `csat` and `cec` command lines share: flags,
//!   budget and observer set-up, diagnostics and `--metrics-out`.
//!
//! # Quickstart
//!
//! ```
//! use csat::core::{Solver, SolverOptions, Verdict};
//! use csat::netlist::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.input();
//! let b = aig.input();
//! let y = aig.and(a, b);
//! aig.set_output("y", y);
//!
//! let mut solver = Solver::new(&aig, SolverOptions::default());
//! match solver.solve(y) {
//!     Verdict::Sat(model) => assert_eq!(model, vec![true, true]),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

pub mod cli;
pub mod signal;

pub use csat_cnf as cnf;
pub use csat_core as core;
pub use csat_fuzz as fuzz;
pub use csat_netlist as netlist;
pub use csat_par as par;
pub use csat_pipeline as pipeline;
pub use csat_prep as prep;
pub use csat_serve as serve;
pub use csat_sim as sim;
pub use csat_telemetry as telemetry;
pub use csat_types as types;
