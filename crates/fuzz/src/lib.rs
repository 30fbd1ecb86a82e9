//! Deterministic differential fuzzing of the csat solver matrix.
//!
//! The paper's two learning techniques — implicit grouping of correlated
//! signals (Section IV) and incremental explicit learning over sub-problems
//! (Section V) — multiply the solver's configuration space, and every
//! configuration must agree on every instance. This crate is the layer that
//! systematically checks they do:
//!
//! * [`instances`] — seeded generators producing a mix of satisfiable and
//!   unsatisfiable circuit instances (random multi-level logic, levelized
//!   fanout-shaped AIGs, equivalence miters, fault miters, planted
//!   constants) plus random 3-CNF near the phase transition, converted to a
//!   circuit through the paper's 2-level OR-AND translation.
//! * [`oracle`] — the multi-oracle harness: each instance is solved under a
//!   matrix of [`csat_pipeline::Request`]s, so through the solve flow that
//!   ships — circuit engine options (implicit/explicit learning on/off,
//!   the `paper()` preset, varied restart policies, varied simulation
//!   widths), the CNF baseline on the Tseitin encoding and, at
//!   `--threads N`, the parallel layer — plus the CNF baseline on the raw
//!   formula of CNF-born instances.
//!   Verdicts are cross-checked against each other, SAT models against
//!   direct circuit evaluation ([`csat_core::check_model`]), and UNSAT
//!   answers against reverse-unit-propagation proof checking
//!   ([`csat_core::proof::verify_unsat`] / [`csat_cnf::proof::verify_unsat`]).
//!   The `prep` matrix solves every instance through the [`csat_prep`]
//!   pipeline at each level plus the CNF baseline, lifting SAT models
//!   through the reconstruction map and re-checking them on the *original*
//!   netlist — the preprocessing-soundness differential.
//! * [`shrink()`] — a greedy minimizer that, given a disagreeing instance,
//!   repeatedly rewires or drops gates while the disagreement persists.
//! * [`corpus`] — writes a standalone `.bench` repro (plus `.meta.json` and,
//!   for CNF-born instances, the original `.cnf`) into a corpus directory.
//! * [`runner`] — the seed-reproducible driver behind the `csat-fuzz`
//!   binary, emitting the same JSONL row shape as the bench binaries.
//! * [`serve_frames`] — hostile-input fuzzing of the `csat-serve` JSONL
//!   request parser (`--matrix serve`): malformed, truncated, mutated and
//!   duplicate-id frames must never panic and must produce structured,
//!   deterministic accept/reject outcomes.
//!
//! # Seed-reproducibility contract
//!
//! Every sequential oracle is deterministic (conflict/decision budgets,
//! never wall-clock; fixed simulation seeds; single-threaded), so a run with
//! a given `--seed`/`--iters`/`--matrix` reproduces the exact same
//! instances, verdicts, metrics and JSONL rows — timing fields (`seconds`)
//! excepted. A disagreement is therefore always replayable from its seed
//! alone.
//!
//! # Example
//!
//! ```
//! use csat_fuzz::{check_instance, generate, oracles, Matrix};
//! use csat_types::Budget;
//!
//! let instance = generate(42);
//! let matrix = oracles(Matrix::Quick);
//! let report = check_instance(&instance, &matrix, &Budget::conflicts(50_000), None);
//! assert!(report.disagreement.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod instances;
pub mod oracle;
pub mod runner;
pub mod serve_frames;
pub mod shrink;
pub mod trajectory;

pub use corpus::{write_repro, Repro};
pub use instances::{generate, Instance, InstanceKind};
pub use oracle::{check_instance, oracles, InstanceReport, Matrix, Oracle, OracleOutcome};
pub use runner::{run, FuzzOptions, FuzzSummary};
pub use serve_frames::{check_frames, FrameKind, FrameReport};
pub use shrink::shrink;
pub use trajectory::{check_trajectory, TrajectoryKind, TrajectoryReport};
