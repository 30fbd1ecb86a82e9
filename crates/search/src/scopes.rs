//! Scoped assumptions (IPASIR-style `push` / `assume` / `pop`), kept once
//! for every backend.
//!
//! Assumptions are asserted as *decisions*, never as root-level facts, so
//! every clause the kernel learns is implied by the instance alone. Popping
//! a scope therefore never invalidates a learned clause; it only shortens
//! the list of literals the next solve asserts first.

use std::borrow::Cow;

use csat_telemetry::{Observer, SolverEvent};

use crate::context::SearchLit;

/// The registered assumptions of a solver, grouped into nested scopes.
#[derive(Clone, Debug)]
pub struct Scopes<L> {
    /// All registered assumptions, outermost scope first.
    assumptions: Vec<L>,
    /// Stack of scope starts into `assumptions` (like a trail_lim).
    marks: Vec<usize>,
}

impl<L> Default for Scopes<L> {
    fn default() -> Scopes<L> {
        Scopes {
            assumptions: Vec::new(),
            marks: Vec::new(),
        }
    }
}

impl<L: SearchLit> Scopes<L> {
    /// Opens a new scope and reports [`SolverEvent::SessionPush`].
    pub fn push<O: Observer + ?Sized>(&mut self, obs: &mut O) {
        self.marks.push(self.assumptions.len());
        obs.record(SolverEvent::SessionPush {
            depth: self.marks.len() as u32,
        });
    }

    /// Closes the innermost scope, discarding its assumptions, and reports
    /// [`SolverEvent::SessionPop`]. Returns `false` (and does nothing) when
    /// no scope is open.
    pub fn pop<O: Observer + ?Sized>(&mut self, obs: &mut O) -> bool {
        match self.marks.pop() {
            Some(mark) => {
                self.assumptions.truncate(mark);
                obs.record(SolverEvent::SessionPop {
                    depth: self.marks.len() as u32,
                });
                true
            }
            None => false,
        }
    }

    /// Registers `lit` in the innermost open scope; with no scope open it
    /// is permanent.
    ///
    /// # Panics
    ///
    /// Panics if `lit` refers to a variable at or beyond `num_vars`.
    pub fn assume(&mut self, lit: L, num_vars: usize) {
        assert!(
            lit.var_index() < num_vars,
            "assumption {lit:?} outside the solver's {num_vars} variables"
        );
        self.assumptions.push(lit);
    }

    /// Number of open scopes.
    pub fn depth(&self) -> usize {
        self.marks.len()
    }

    /// The registered assumptions, outermost scope first.
    pub fn assumptions(&self) -> &[L] {
        &self.assumptions
    }

    /// The registered assumptions followed by `extra` — the order a solve
    /// asserts them in. Borrows `extra` (no allocation) when nothing is
    /// registered.
    ///
    /// # Panics
    ///
    /// Panics if a literal of `extra` refers to a variable at or beyond
    /// `num_vars`.
    pub fn with<'s>(&'s self, extra: &'s [L], num_vars: usize) -> Cow<'s, [L]> {
        for &lit in extra {
            assert!(
                lit.var_index() < num_vars,
                "assumption {lit:?} outside the solver's {num_vars} variables"
            );
        }
        if self.assumptions.is_empty() {
            Cow::Borrowed(extra)
        } else {
            Cow::Owned([self.assumptions.as_slice(), extra].concat())
        }
    }
}
