//! Checking the kernel's proof log by reverse unit propagation (RUP).
//!
//! With logging on ([`SearchContext::start_proof`](crate::SearchContext::start_proof))
//! the kernel records every learned and ingested clause in derivation
//! order. Each of them is *RUP*: asserting its negation and
//! unit-propagating over the axioms plus the earlier clauses reaches a
//! conflict. [`RupChecker`] replays a log against axioms the caller
//! supplies — the circuit's Tseitin clauses or a CNF formula — with its own
//! propagation, independent of the solver that wrote the log: the check
//! DRUP checkers perform, minus deletion tracking.
//!
//! The checker is deliberately simple (a full clause scan to fixpoint);
//! it is meant for validation and tests, not for billion-clause proofs.

use std::error::Error;
use std::fmt;

use crate::context::{SearchLit, FALSE, TRUE, UNDEF};

/// Why a proof failed to check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofError {
    /// Index of the offending clause in the log, or `usize::MAX` for the
    /// final goal.
    pub step: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proof check failed at step {}: {}",
            self.step, self.message
        )
    }
}

impl Error for ProofError {}

/// A clause database with unit propagation, for RUP checks.
#[derive(Clone, Debug)]
pub struct RupChecker<L> {
    clauses: Vec<Vec<L>>,
    /// Scratch assignment per variable: [`FALSE`], [`TRUE`] or [`UNDEF`].
    values: Vec<u8>,
    trail: Vec<L>,
}

impl<L: SearchLit> RupChecker<L> {
    /// A checker over `num_vars` variables, loaded with `axioms`.
    pub fn new(num_vars: usize, axioms: Vec<Vec<L>>) -> RupChecker<L> {
        RupChecker {
            clauses: axioms,
            values: vec![UNDEF; num_vars],
            trail: Vec::new(),
        }
    }

    /// Adds a clause to the database (an axiom or a checked lemma).
    fn add_clause(&mut self, clause: Vec<L>) {
        self.clauses.push(clause);
    }

    /// Checks `proof` step by step — each clause must be RUP with respect
    /// to the axioms and the clauses before it — and then that `goal` is
    /// RUP too (the empty goal asks for a plain contradiction).
    ///
    /// # Errors
    ///
    /// A [`ProofError`] naming the first clause that is not RUP, or step
    /// `usize::MAX` when the goal is not.
    pub fn verify(mut self, proof: &[Vec<L>], goal: &[L]) -> Result<(), ProofError> {
        for (step, clause) in proof.iter().enumerate() {
            if !self.is_rup(clause) {
                return Err(ProofError {
                    step,
                    message: format!("clause {clause:?} is not implied by unit propagation"),
                });
            }
            self.add_clause(clause.clone());
        }
        if !self.is_rup(goal) {
            let message = if goal.is_empty() {
                "proof does not end in a contradiction".to_string()
            } else {
                format!("goal {goal:?} is not refuted by the proof")
            };
            return Err(ProofError {
                step: usize::MAX,
                message,
            });
        }
        Ok(())
    }

    fn value(&self, lit: L) -> u8 {
        let v = self.values[lit.var_index()];
        if v == UNDEF {
            UNDEF
        } else {
            v ^ lit.is_negated() as u8
        }
    }

    fn assign(&mut self, lit: L) {
        self.values[lit.var_index()] = !lit.is_negated() as u8;
        self.trail.push(lit);
    }

    /// RUP check: asserting the negation of `clause` and propagating must
    /// conflict. Leaves the assignment clean.
    fn is_rup(&mut self, clause: &[L]) -> bool {
        debug_assert!(self.trail.is_empty());
        let mut conflict = false;
        for &l in clause {
            match self.value(!l) {
                FALSE => {
                    conflict = true; // negation already falsified: trivial
                    break;
                }
                TRUE => {}
                _ => self.assign(!l),
            }
        }
        if !conflict {
            conflict = self.propagate_to_conflict();
        }
        for &l in &self.trail {
            self.values[l.var_index()] = UNDEF;
        }
        self.trail.clear();
        conflict
    }

    /// Full (non-watched, counter-free) propagation to fixpoint; returns
    /// true on conflict. Simplicity over speed: scans all clauses until no
    /// change.
    fn propagate_to_conflict(&mut self) -> bool {
        loop {
            let mut changed = false;
            for ci in 0..self.clauses.len() {
                let mut unassigned: Option<L> = None;
                let mut satisfied = false;
                let mut free = 0;
                for &l in &self.clauses[ci] {
                    match self.value(l) {
                        TRUE => {
                            satisfied = true;
                            break;
                        }
                        UNDEF => {
                            free += 1;
                            unassigned = Some(l);
                        }
                        _ => {}
                    }
                }
                if satisfied {
                    continue;
                }
                match (free, unassigned) {
                    (0, _) => return true,
                    (1, Some(l)) => {
                        self.assign(l);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return false;
            }
        }
    }
}
