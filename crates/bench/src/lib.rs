//! Benchmark harness reproducing every table of the DATE 2003 paper.
//!
//! The paper's evaluation has ten tables (and no result figures — its two
//! figures are illustrations of the method). Each has a regenerating binary
//! in `src/bin/` plus a Criterion bench in `benches/tables.rs`:
//!
//! | Paper table | Binary | Content |
//! |---|---|---|
//! | Table I    | `table1`  | baseline UNSAT `*.equiv`: ZChaff-class vs C-SAT vs C-SAT-Jnode |
//! | Table II   | `table2`  | baseline SAT (VLIW-like mixed instances) |
//! | Table III  | `table3`  | implicit learning, UNSAT (`*.equiv` + `*.opt`) |
//! | Table IV   | `table4`  | implicit learning, SAT |
//! | Table V    | `table5`  | explicit learning, UNSAT (pair / const / both) |
//! | Table VI   | `table6`  | sub-problem ordering ablation |
//! | Table VII  | `table7`  | explicit learning, SAT degradation |
//! | Table VIII | `table8`  | partial explicit learning sweep, UNSAT |
//! | Table IX   | `table9`  | partial explicit learning sweep, SAT |
//! | Table X    | `table10` | additional SAT + scan-style UNSAT cases |
//!
//! Every row runs through the shipped solve pipeline: [`runner::run`]
//! hands a workload, an engine with its options and the optional explicit
//! pass to [`csat_pipeline::solve`], the same call `csat`, `cec` and
//! `csat-serve` make. So the tables measure what ships, witness step
//! included, and `--timeout` is one deadline per row.
//!
//! Run them with e.g. `cargo run --release -p csat-bench --bin table5 --`
//! `[--quick] [--timeout <secs>] [--json <path>]`. `--json` additionally
//! writes one JSONL row per run, each carrying the full telemetry metrics
//! snapshot. `--quick` shrinks the workloads so every
//! solver finishes in seconds; without it the workloads match the gate
//! counts of the paper's ISCAS-85 / Velev instances (see `DESIGN.md` §3 for
//! the substitution rationale) and the baseline may hit its timeout exactly
//! as ZChaff did on C6288.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
pub mod report;
pub mod runner;
pub mod workload;

pub use report::{BenchArgs, JsonReport};
pub use runner::{run, RunOutcome, RunResult};
pub use workload::{equiv_suite, opt_suite, scan_suite, vliw_suite, Expected, Scale, Workload};
