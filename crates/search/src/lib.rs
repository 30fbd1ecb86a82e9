//! A generic CDCL search kernel with pluggable propagation.
//!
//! The paper's circuit solver (`csat-core`) and the CNF baseline
//! (`csat-cnf`) are the same search wrapped around different constraint
//! representations. This crate is that search, extracted once:
//!
//! * [`SearchContext`] — the shared state: trail, decision levels,
//!   values/reasons/activities, the VSIDS [`ActivityHeap`], the
//!   learned-clause arena with watched literals and blockers, restart
//!   schedule, proof log and statistics.
//! * [`Propagator`] — the backend trait: how one trail literal propagates
//!   (AND-gate implication tables vs. problem-clause watch lists), how an
//!   implication is explained to conflict analysis, and how the next
//!   decision is picked (justification-frontier VSIDS vs. plain VSIDS).
//! * the engine — free functions tying them together: [`solve_under`] (the
//!   conflict/decide loop with assumptions, budgets and telemetry),
//!   [`propagate`], [`ingest_clause`] and [`backtrack`].
//! * [`Scopes`] — IPASIR-style scoped assumptions, and [`RupChecker`] —
//!   the reverse-unit-propagation check of the proof log, each written
//!   once for both backends.
//!
//! Policy — restarts ([`luby`], geometric, the paper's back-jump-average
//! rule), clause-database reduction (activity or LBD-aware), clause
//! activities and phase saving — is configured through
//! [`csat_types::SearchOptions`], shared by every backend.
//!
//! The kernel is deliberately split as *data* ([`SearchContext`]) plus
//! *behavior* ([`Propagator`]) passed side by side: the borrows stay
//! disjoint, so a propagator can keep its own incremental structures (the
//! circuit solver's justification frontier) in sync while the engine
//! drives the search.

// `deny` rather than `forbid`: the one scoped exception is the x86_64
// cache-prefetch hint in `prefetch` (see that module for the soundness
// argument); everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod engine;
mod heap;
mod prefetch;
mod proof;
mod restart;
mod scopes;

pub use context::{Conflict, LitOutOfRange, Reason, SearchContext, SearchLit, FALSE, TRUE, UNDEF};
pub use engine::{
    backtrack, ingest_clause, propagate, reset_to_root, solve_under, Propagator, SearchResult,
};
pub use heap::ActivityHeap;
pub use prefetch::prefetch_read;
pub use proof::{ProofError, RupChecker};
pub use restart::luby;
pub use scopes::Scopes;
