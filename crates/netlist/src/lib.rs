//! AIG netlist substrate for the `csat` circuit SAT solver.
//!
//! This crate provides every circuit-side building block the DATE 2003 paper
//! *"A Circuit SAT Solver With Signal Correlation Guided Learning"* relies on:
//!
//! * [`Aig`] — an And-Inverter Graph: the 2-input AND primitive with inverter
//!   attributes on edges, exactly the internal representation the paper's
//!   solver uses ("the circuit is transformed into a netlist based upon only
//!   the 2-input AND primitive ... inverters are associated with the AND gate
//!   inputs as attributes").
//! * [`mod@bench`] — reader/writer for the ISCAS `.bench` circuit format the
//!   paper takes as input.
//! * [`cnf`] — CNF formula type plus DIMACS reader/writer.
//! * [`tseitin`] — circuit → CNF translation (for the CNF baseline solver).
//! * [`two_level`] — CNF → 2-level OR-AND circuit translation (the paper's
//!   treatment of CNF-formatted inputs).
//! * [`miter`] — equivalence-checking miter construction (the paper's
//!   `circuit.equiv` / `circuit.opt` workloads).
//! * [`optimize`] — functionality-preserving local rewriting, standing in for
//!   the Design Compiler step that produced the paper's `.opt` circuits.
//! * [`generators`] — parameterized circuit families (adders, array
//!   multipliers, ALUs, comparators, random multilevel logic, scan-style
//!   shallow circuits, mixed circuit+CNF SAT instances) replacing the
//!   ISCAS-85 / Velev benchmark files, which are not redistributable.
//!
//! # Example
//!
//! ```
//! use csat_netlist::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.input();
//! let b = aig.input();
//! let c = aig.and(a, b);
//! aig.set_output("y", c);
//! assert_eq!(aig.inputs().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
pub mod aiger;
pub mod bench;
pub mod cnf;
pub mod cone;
mod error;
pub mod generators;
pub mod miter;
pub mod optimize;
pub mod stats;
pub mod topo;
pub mod tseitin;
pub mod two_level;

pub use aig::{Aig, Lit, Node, NodeId};
pub use aiger::ParseAigerError;
pub use error::{ParseBenchError, ParseDimacsError};
