//! The CDCL solver proper: a clause backend over the shared search kernel.
//!
//! The search loop, conflict analysis, learned-clause arena, restarts and
//! budgets all live in [`csat_search`]; this module contributes the
//! CNF-specific half — watched-literal propagation over the *problem*
//! clauses and plain VSIDS decisions — as a [`Propagator`].
//!
//! The [`Solver`] is also the IPASIR-style incremental interface: add
//! variables and clauses *between* solves, manage scoped assumptions with
//! [`Solver::push`] / [`Solver::pop`], and keep everything the kernel
//! learned — learned clauses, VSIDS activities, saved phases — across
//! every [`Solver::solve_under`] call. No invalidation machinery is needed
//! (see `DESIGN.md` §5h): assumptions are asserted as decisions, never as
//! root-level facts, so learned clauses are implied by the formula alone
//! and survive any pop; and added clauses only strengthen the formula, so
//! they never invalidate clauses learned from a weaker one.

use csat_netlist::cnf::{Cnf, Lit, Var};
use csat_search::{
    ingest_clause, reset_to_root, solve_under, Conflict, Propagator, Reason, Scopes, SearchContext,
    FALSE, TRUE,
};
use csat_telemetry::{NoOpObserver, Observer, SolverEvent};

pub use csat_types::{
    Budget, ClauseActivity, Interrupt, ReductionPolicy, RestartPolicy, SearchOptions, SearchStats,
    Verdict,
};

/// Assumption-aware verdict of [`Solver::solve_under`], carrying a
/// failed-assumption core on refutation (the CNF instantiation of
/// [`csat_types::SubVerdict`]).
pub type SubVerdict = csat_types::SubVerdict<Lit>;

/// Search statistics, readable after (or during) solving.
///
/// Now the kernel-wide [`SearchStats`]: the circuit solver reports through
/// the same struct. `grouped_decisions` stays 0 here (the CNF baseline has
/// no implicit learning).
pub type Stats = SearchStats;

/// Error from [`Solver::add_learned_clause`]: a literal referred to a
/// variable outside the formula.
pub type LitOutOfRange = csat_search::LitOutOfRange<Lit>;

/// Tuning knobs.
///
/// All search policy lives in the shared [`SearchOptions`] block (the
/// `search` field); this struct exists so the CNF solver can grow
/// backend-specific switches without touching the kernel vocabulary.
/// Construct with [`SolverOptions::builder`] to override individual
/// fields:
///
/// ```
/// use csat_cnf::{RestartPolicy, SolverOptions};
/// let opts = SolverOptions::builder()
///     .restart(RestartPolicy::Geometric { first: 50, factor: 1.5 })
///     .build();
/// assert_eq!(
///     opts.search.restart,
///     RestartPolicy::Geometric { first: 50, factor: 1.5 }
/// );
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Shared search-policy block (restarts, decay, reduction, phase
    /// saving), interpreted by the `csat-search` kernel.
    pub search: SearchOptions,
}

impl Default for SolverOptions {
    /// ZChaff-style defaults: geometric restarts (first 100, factor 1.5),
    /// use-count clause activities, no clause minimization.
    fn default() -> SolverOptions {
        SolverOptions {
            search: SearchOptions {
                restart: RestartPolicy::geometric_default(),
                clause_activity: ClauseActivity::UseCount,
                minimize_clauses: false,
                ..SearchOptions::default()
            },
        }
    }
}

impl SolverOptions {
    /// The ZChaff-style configuration the paper benchmarks against. Today
    /// this equals [`SolverOptions::default`]; the named preset matches the
    /// `paper()` convention of `csat_core::SolverOptions`.
    pub fn paper() -> SolverOptions {
        SolverOptions::default()
    }

    /// Field-by-field builder starting from [`SolverOptions::default`].
    pub fn builder() -> SolverOptionsBuilder {
        SolverOptionsBuilder {
            options: SolverOptions::default(),
        }
    }
}

/// Builder returned by [`SolverOptions::builder`].
#[derive(Clone, Copy, Debug)]
pub struct SolverOptionsBuilder {
    options: SolverOptions,
}

impl SolverOptionsBuilder {
    /// Replaces the whole shared search-policy block.
    pub fn search(mut self, search: SearchOptions) -> Self {
        self.options.search = search;
        self
    }

    /// See [`SearchOptions::restart`].
    pub fn restart(mut self, policy: RestartPolicy) -> Self {
        self.options.search.restart = policy;
        self
    }

    /// See [`SearchOptions::reduction`].
    pub fn reduction(mut self, policy: ReductionPolicy) -> Self {
        self.options.search.reduction = policy;
        self
    }

    /// See [`SearchOptions::phase_saving`].
    pub fn phase_saving(mut self, on: bool) -> Self {
        self.options.search.phase_saving = on;
        self
    }

    /// See [`SearchOptions::minimize_clauses`].
    pub fn minimize_clauses(mut self, on: bool) -> Self {
        self.options.search.minimize_clauses = on;
        self
    }

    /// Finish, yielding the configured [`SolverOptions`].
    pub fn build(self) -> SolverOptions {
        self.options
    }
}

/// Binary-clause tag in a [`Watcher`]'s cref (mirrors the kernel arena's
/// scheme): the blocker of a binary watcher *is* the other literal, so
/// binary propagation resolves without touching clause memory.
const BINARY_FLAG: u32 = 1 << 31;
const CREF_MASK: u32 = BINARY_FLAG - 1;

/// Problem-clause watch-list entry: tagged clause index plus an inline
/// blocker literal (some other literal of the clause, updated
/// opportunistically — a true blocker means the clause is satisfied and
/// the visit costs no clause-memory access).
#[derive(Clone, Copy, Debug)]
struct Watcher {
    tagged_cref: u32,
    blocker: Lit,
}

/// The CNF-specific backend: watched-literal propagation over the problem
/// clauses and plain VSIDS decisions from the kernel heap.
///
/// Problem clauses live in one flat literal arena (they are never deleted
/// and never change length, so per-clause metadata is a single `u32`
/// start offset with a sentinel at the end): clause `c` is
/// `arena[starts[c]..starts[c + 1]]`.
#[derive(Clone, Debug)]
struct ClausePropagator {
    /// All problem-clause literals, in clause order.
    arena: Vec<Lit>,
    /// Arena start of each clause, plus an end sentinel
    /// (`starts.len() == num_clauses + 1`).
    starts: Vec<u32>,
    /// watches[l.code()]: problem clauses currently watching literal l.
    watches: Vec<Vec<Watcher>>,
}

impl ClausePropagator {
    fn push_clause(&mut self, lits: &[Lit]) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = (self.starts.len() - 1) as u32;
        let tag = if lits.len() == 2 { BINARY_FLAG } else { 0 };
        self.watches[lits[0].code()].push(Watcher {
            tagged_cref: cref | tag,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            tagged_cref: cref | tag,
            blocker: lits[0],
        });
        self.arena.extend_from_slice(lits);
        self.starts.push(self.arena.len() as u32);
        cref
    }

    #[inline]
    fn clause(&self, cref: u32) -> &[Lit] {
        &self.arena[self.starts[cref as usize] as usize..self.starts[cref as usize + 1] as usize]
    }
}

impl Propagator for ClausePropagator {
    type Lit = Lit;

    fn propagate_literal(
        &mut self,
        ctx: &mut SearchContext<Lit>,
        p: Lit,
    ) -> Result<(), Conflict<Lit>> {
        let falsified = !p;
        let mut watch_list = std::mem::take(&mut self.watches[falsified.code()]);
        let mut i = 0;
        let mut result = Ok(());
        while i < watch_list.len() {
            if let Some(next) = watch_list.get(i + 1) {
                if next.tagged_cref & BINARY_FLAG == 0 {
                    csat_search::prefetch_read(
                        &self.arena[self.starts[next.tagged_cref as usize] as usize],
                    );
                }
            }
            let Watcher {
                tagged_cref,
                blocker,
            } = watch_list[i];
            // Blocker check: a true blocker means the clause is satisfied —
            // skip it without dereferencing the clause.
            if ctx.lit_value(blocker) == TRUE {
                i += 1;
                continue;
            }
            if tagged_cref & BINARY_FLAG != 0 {
                // Binary fast path: the blocker is exactly the other
                // literal — unit or conflicting right here.
                let cref = tagged_cref & CREF_MASK;
                match ctx.enqueue(blocker, Reason::External(cref)) {
                    Ok(()) => i += 1,
                    Err(c) => {
                        result = Err(c);
                        break;
                    }
                }
                continue;
            }
            let cref = tagged_cref;
            let (first, new_watch) = {
                let start = self.starts[cref as usize] as usize;
                let end = self.starts[cref as usize + 1] as usize;
                let clause = &mut self.arena[start..end];
                // Normalize: watched literal in position 1.
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], falsified);
                let first = clause[0];
                if ctx.lit_value(first) == TRUE {
                    // Cache the satisfying literal for later rounds.
                    watch_list[i].blocker = first;
                    i += 1;
                    continue; // clause already satisfied
                }
                // Look for a new literal to watch.
                let mut new_watch = None;
                for k in 2..clause.len() {
                    let cand = clause[k];
                    if ctx.lit_value(cand) != FALSE {
                        clause.swap(1, k);
                        new_watch = Some(cand);
                        break;
                    }
                }
                (first, new_watch)
            };
            if let Some(cand) = new_watch {
                self.watches[cand.code()].push(Watcher {
                    tagged_cref: cref,
                    blocker: first,
                });
                watch_list.swap_remove(i);
                continue;
            }
            // No replacement: unit or conflict on `first`.
            match ctx.enqueue(first, Reason::External(cref)) {
                Ok(()) => i += 1,
                Err(c) => {
                    result = Err(c);
                    break;
                }
            }
        }
        self.watches[falsified.code()] = watch_list;
        result
    }

    fn explain(&self, _ctx: &SearchContext<Lit>, of: Lit, token: u32, out: &mut Vec<Lit>) {
        for &l in self.clause(token) {
            if l != of {
                out.push(l);
            }
        }
    }

    fn pick_decision(&mut self, ctx: &mut SearchContext<Lit>) -> Option<(Lit, bool)> {
        ctx.pop_heap_candidate()
            .map(|var| (ctx.decision_lit(var), false))
    }

    fn extract_model(&self, ctx: &SearchContext<Lit>) -> Vec<bool> {
        (0..ctx.num_vars()).map(|v| ctx.value(v) == TRUE).collect()
    }
}

/// A CDCL SAT solver over a [`Cnf`].
///
/// See the [crate docs](crate) for the architecture; construct with
/// [`Solver::new`] and call [`Solver::solve`]. Between solves the caller
/// may add variables ([`Solver::add_var`]) and problem clauses
/// ([`Solver::add_clause`]), push and pop assumption scopes, and ingest
/// implied clauses ([`Solver::add_learned_clause`]).
///
/// # Example
///
/// ```
/// use csat_cnf::{Budget, Solver, SolverOptions, SubVerdict};
/// use csat_netlist::cnf::{Cnf, Lit};
/// use csat_telemetry::NoOpObserver;
///
/// let cnf = Cnf::from_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
/// let mut s = Solver::new(&cnf, SolverOptions::default());
/// assert!(s.solve().is_sat());
///
/// // Grow the formula: x3, with x1 -> !x2 and x1.
/// let x3 = s.add_var();
/// s.add_clause(vec![Lit::from_dimacs(-1), Lit::from_dimacs(-2), x3.positive()])
///     .unwrap();
/// s.add_clause(vec![Lit::from_dimacs(1)]).unwrap();
///
/// // Scoped assumption: !x3 forces x2 false via the new clause.
/// s.push();
/// s.assume(x3.negative());
/// match s.solve_under(&[], &Budget::UNLIMITED, &mut NoOpObserver) {
///     SubVerdict::Sat(_) => assert_eq!(s.value(Lit::from_dimacs(2)), Some(false)),
///     other => panic!("{other:?}"),
/// }
/// s.pop();
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    ctx: SearchContext<Lit>,
    prop: ClausePropagator,
    scopes: Scopes<Lit>,
}

impl Solver {
    /// Builds a solver for the given formula.
    ///
    /// Tautological clauses are dropped and duplicate literals removed.
    pub fn new(cnf: &Cnf, options: SolverOptions) -> Solver {
        let num_vars = cnf.num_vars();
        let max_learnts = (cnf.clauses().len() / 3).max(1000);
        let mut ctx = SearchContext::new(num_vars, options.search, true, max_learnts);
        let mut prop = ClausePropagator {
            arena: Vec::new(),
            starts: vec![0],
            watches: vec![Vec::new(); 2 * num_vars],
        };
        for clause in cnf.clauses() {
            let mut lits = clause.clone();
            lits.sort_unstable();
            lits.dedup();
            if lits.windows(2).any(|w| w[0] == !w[1]) {
                continue; // tautology
            }
            // Bump variables appearing in the input so VSIDS starts with
            // occurrence counts, like ZChaff's literal-count seed.
            for &l in &lits {
                ctx.seed_activity(l.var().index(), 1.0);
            }
            match lits.len() {
                0 => ctx.set_root_conflict(),
                1 => match ctx.lit_value(lits[0]) {
                    FALSE => ctx.set_root_conflict(),
                    TRUE => {}
                    _ => {
                        let enqueued = ctx.enqueue(lits[0], Reason::Axiom);
                        debug_assert!(enqueued.is_ok());
                    }
                },
                _ => {
                    prop.push_clause(&lits);
                }
            }
            if ctx.has_root_conflict() {
                break;
            }
        }
        for v in 0..num_vars {
            ctx.heap_insert(v);
        }
        Solver {
            ctx,
            prop,
            scopes: Scopes::default(),
        }
    }

    /// Runs the search with no resource limits.
    pub fn solve(&mut self) -> Verdict {
        self.solve_observed(&Budget::UNLIMITED, &mut NoOpObserver)
    }

    /// Runs the search under a resource [`Budget`], reporting search
    /// events to the given [`Observer`]. Returns [`Verdict::Unknown`]
    /// (carrying the exhausted [`Interrupt`] reason) when a limit is hit —
    /// or the budget's [`CancelToken`](csat_types::CancelToken) is
    /// triggered — before an answer.
    ///
    /// A memory budget first tries an emergency clause-database reduction
    /// and only aborts with [`Interrupt::Memory`] if the learned clauses
    /// still exceed the limit afterwards.
    ///
    /// All limits are counted per call, so a solver can be resumed with a
    /// fresh budget (learned clauses persist).
    ///
    /// With the default [`NoOpObserver`] this monomorphizes to exactly the
    /// unobserved solve — no event is materialized, no allocation happens.
    pub fn solve_observed<O>(&mut self, budget: &Budget, obs: &mut O) -> Verdict
    where
        O: Observer + ?Sized,
    {
        match self.solve_under(&[], budget, obs) {
            SubVerdict::Sat(model) => Verdict::Sat(model),
            SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_) => Verdict::Unsat,
            SubVerdict::Aborted(reason) => Verdict::Unknown(reason),
        }
    }

    /// Solves under the scoped assumptions plus `assumptions`, with a
    /// budget, reporting search events to the given [`Observer`].
    ///
    /// **This is the canonical entry point** — every other `solve*` method
    /// on this type is a documented thin wrapper around it, mirroring
    /// `csat_core::Solver::solve_under`. Assumptions are asserted as
    /// decisions in order (scoped ones first, outermost scope first);
    /// learned clauses survive the call (they are implied by the formula
    /// alone, never by the assumptions), and a refuted assumption set is
    /// reported as [`SubVerdict::UnsatUnderAssumptions`] carrying a
    /// failed-assumption core (IPASIR `failed()`). Learned clauses are
    /// *not* simplified here (see [`Solver::simplify`]).
    ///
    /// Pass [`NoOpObserver`] when no telemetry is wanted; the observer
    /// hooks monomorphize away entirely.
    ///
    /// # Panics
    ///
    /// Panics if an assumption refers to a variable the solver does not
    /// know.
    pub fn solve_under<O>(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
        obs: &mut O,
    ) -> SubVerdict
    where
        O: Observer + ?Sized,
    {
        let assumptions = self.scopes.with(assumptions, self.ctx.num_vars());
        solve_under(&mut self.ctx, &mut self.prop, &assumptions, budget, obs).into()
    }

    /// Creates a fresh variable (initially unconstrained) and returns it.
    /// The variable joins the VSIDS decision heap immediately and may be
    /// used in clauses and assumptions from now on.
    pub fn add_var(&mut self) -> Var {
        self.reset();
        let v = self.ctx.add_variable();
        self.prop.watches.push(Vec::new());
        self.prop.watches.push(Vec::new());
        Var(v as u32)
    }

    /// Appends a *problem* clause to the live solver between solves — the
    /// incremental half of the IPASIR-style interface. The clause is
    /// normalized like the constructor normalizes input clauses: duplicate
    /// literals are merged, tautologies dropped, and literals already
    /// false at the root level removed (they can never help). An empty or
    /// root-falsified clause makes the instance permanently UNSAT.
    ///
    /// # Errors
    ///
    /// [`LitOutOfRange`] if any literal refers to a variable the solver
    /// does not know (see [`Solver::add_var`]); the solver is left
    /// unchanged.
    pub fn add_clause(&mut self, clause: Vec<Lit>) -> Result<(), LitOutOfRange> {
        let vars = self.ctx.num_vars();
        for &l in &clause {
            if l.var().index() >= vars {
                return Err(LitOutOfRange { lit: l, vars });
            }
        }
        self.reset();
        let mut lits = clause;
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0] == !w[1]) {
            return Ok(()); // tautology
        }
        for &l in &lits {
            self.ctx.seed_activity(l.var().index(), 1.0);
        }
        // Root-level values are permanent: a true literal satisfies the
        // clause forever, false literals can never contribute.
        if lits.iter().any(|&l| self.ctx.lit_value(l) == TRUE) {
            return Ok(());
        }
        lits.retain(|&l| self.ctx.lit_value(l) != FALSE);
        match lits.len() {
            0 => self.ctx.set_root_conflict(),
            1 => {
                let enqueued = self.ctx.enqueue(lits[0], Reason::Axiom);
                debug_assert!(enqueued.is_ok(), "unit literal is unassigned at root");
            }
            _ => {
                self.prop.push_clause(&lits);
            }
        }
        Ok(())
    }

    /// Value of `lit` in the assignment left by the *last* solve (IPASIR
    /// `val()`). After a SAT answer the full assignment is still live (the
    /// engine returns without backtracking); `None` for unassigned
    /// variables, out-of-range literals, or once the assignment has been
    /// reset by a mutating call.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        if lit.var().index() >= self.ctx.num_vars() {
            return None;
        }
        match self.ctx.lit_value(lit) {
            TRUE => Some(true),
            FALSE => Some(false),
            _ => None,
        }
    }

    /// Number of variables the solver currently knows.
    pub fn num_vars(&self) -> usize {
        self.ctx.num_vars()
    }

    /// Number of learned clauses currently alive.
    pub fn learned_count(&self) -> u64 {
        self.ctx.learned_count()
    }

    /// Opens a new assumption scope. Assumptions registered with
    /// [`Solver::assume`] from now on belong to this scope and disappear
    /// when it is popped.
    pub fn push(&mut self) {
        self.push_observed(&mut NoOpObserver);
    }

    /// [`Solver::push`], reporting [`SolverEvent::SessionPush`] to `obs`.
    pub fn push_observed<O: Observer + ?Sized>(&mut self, obs: &mut O) {
        self.scopes.push(obs);
    }

    /// Closes the innermost assumption scope, discarding its assumptions.
    /// Returns `false` (and does nothing) when no scope is open. Learned
    /// clauses are never invalidated by a pop (see the module docs).
    pub fn pop(&mut self) -> bool {
        self.pop_observed(&mut NoOpObserver)
    }

    /// [`Solver::pop`], reporting [`SolverEvent::SessionPop`] to `obs`.
    pub fn pop_observed<O: Observer + ?Sized>(&mut self, obs: &mut O) -> bool {
        self.scopes.pop(obs)
    }

    /// Registers `lit` as an assumption for every subsequent solve. It
    /// lives in the innermost open scope; with no scope open it is
    /// permanent (never popped).
    ///
    /// # Panics
    ///
    /// Panics if `lit` refers to a variable the solver does not know.
    pub fn assume(&mut self, lit: Lit) {
        self.scopes.assume(lit, self.ctx.num_vars());
    }

    /// Number of open assumption scopes.
    pub fn depth(&self) -> usize {
        self.scopes.depth()
    }

    /// The currently registered assumptions, outermost scope first.
    pub fn assumptions(&self) -> &[Lit] {
        self.scopes.assumptions()
    }

    /// Between-solve housekeeping for incremental callers: backtracks to
    /// the root, deletes learned clauses satisfied there and reports the
    /// survivors as [`SolverEvent::ClausesRetained`]. [`Solver::solve_under`]
    /// does none of this itself.
    pub fn simplify<O: Observer + ?Sized>(&mut self, obs: &mut O) {
        self.reset();
        self.ctx.simplify_satisfied_at_root();
        obs.record(SolverEvent::ClausesRetained {
            clauses: self.ctx.learned_count(),
        });
    }

    /// Backtracks to the root level (undoes the live assignment of a SAT
    /// answer) so the instance can be mutated.
    fn reset(&mut self) {
        if self.ctx.decision_level() > 0 {
            reset_to_root(&mut self.ctx, &mut self.prop);
        }
    }

    /// Adds a clause known to be implied by the formula (e.g. from an
    /// external preprocessor or a previous solve's proof log). The clause
    /// is *pinned*: database reduction never drops it.
    ///
    /// # Errors
    ///
    /// [`LitOutOfRange`] if any literal refers to a variable outside the
    /// formula; the solver is left unchanged.
    pub fn add_learned_clause(&mut self, lits: Vec<Lit>) -> Result<(), LitOutOfRange> {
        ingest_clause(&mut self.ctx, &mut self.prop, lits)
    }

    /// Search statistics so far.
    pub fn stats(&self) -> &Stats {
        self.ctx.stats()
    }

    /// Estimated heap footprint of the live learned clauses, in bytes
    /// (what a [`Budget::memory`] limit is metered against).
    pub fn learned_memory_bytes(&self) -> u64 {
        self.ctx.learned_memory_bytes()
    }

    /// Enables clause export for parallel clause sharing (see
    /// [`csat_search::SearchContext::set_clause_export`]): learned clauses
    /// with glue ≤ `glue_cap` and ≤ `len_cap` literals are buffered (up to
    /// `max_buffered`) until drained with [`Solver::take_exported`].
    pub fn set_clause_export(&mut self, glue_cap: u32, len_cap: usize, max_buffered: usize) {
        self.ctx.set_clause_export(glue_cap, len_cap, max_buffered);
    }

    /// Drains the exported-clause buffer: `(literals, glue)` in learn
    /// order.
    pub fn take_exported(&mut self) -> Vec<(Vec<Lit>, u32)> {
        self.ctx.take_exported()
    }

    /// Up to `k` of the hottest currently-unassigned variables by VSIDS
    /// activity, hottest first — cube-and-conquer split candidates.
    pub fn top_active_vars(&self, k: usize) -> Vec<usize> {
        self.ctx.top_active_vars(k)
    }

    /// `(glue, deleted)` for every learned clause ever attached, in
    /// allocation order (ingested clauses carry `u32::MAX` glue). A
    /// diagnostic surface for auditing DB-reduction policy.
    pub fn learned_clause_glues(&self) -> Vec<(u32, bool)> {
        (0..self.ctx.num_clause_refs())
            .map(|c| (self.ctx.clause_glue(c), self.ctx.clause_is_deleted(c)))
            .collect()
    }

    /// Starts recording learned clauses for later checking with
    /// [`crate::proof::verify_unsat`]. Clears any previous log.
    pub fn start_proof(&mut self) {
        self.ctx.start_proof()
    }

    /// Takes the recorded proof log and stops logging.
    pub fn take_proof(&mut self) -> Vec<Vec<Lit>> {
        self.ctx.take_proof()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_netlist::cnf::{Cnf, Var};
    use csat_telemetry::MetricsRecorder;

    fn solve_text(text: &str) -> Verdict {
        let cnf = Cnf::from_dimacs(text).expect("dimacs");
        Solver::new(&cnf, SolverOptions::default()).solve()
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(solve_text("p cnf 0 0\n").is_sat());
    }

    #[test]
    fn single_unit_is_sat() {
        match solve_text("p cnf 1 1\n1 0\n") {
            Verdict::Sat(m) => assert!(m[0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        assert!(solve_text("p cnf 1 2\n1 0\n-1 0\n").is_unsat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::with_vars(1);
        cnf.add_clause(vec![]);
        assert!(Solver::new(&cnf, SolverOptions::default())
            .solve()
            .is_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        // a, a->b, b->c, check c forced true.
        match solve_text("p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n") {
            Verdict::Sat(m) => assert_eq!(m, vec![true, true, true]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable.
        let text = "p cnf 3 12\n1 2 0\n-1 -2 0\n2 3 0\n-2 -3 0\n1 3 0\n-1 -3 0\n";
        assert!(solve_text(text).is_unsat());
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p(i,j): pigeon i in hole j. vars 1..6 = p11 p12 p21 p22 p31 p32.
        let mut text = String::from("p cnf 6 9\n");
        text.push_str("1 2 0\n3 4 0\n5 6 0\n"); // each pigeon somewhere
                                                // no two pigeons share a hole
        text.push_str("-1 -3 0\n-1 -5 0\n-3 -5 0\n");
        text.push_str("-2 -4 0\n-2 -6 0\n-4 -6 0\n");
        assert!(solve_text(&text).is_unsat());
    }

    #[test]
    fn tautologies_are_dropped() {
        assert!(solve_text("p cnf 2 1\n1 -1 0\n").is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        match solve_text("p cnf 1 1\n1 1 1 0\n") {
            Verdict::Sat(m) => assert!(m[0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn model_satisfies_formula_on_random_3sat() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for round in 0..30 {
            let n = 12;
            let m = rng.gen_range(20..60);
            let mut cnf = Cnf::with_vars(n);
            for _ in 0..m {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = Var(rng.gen_range(0..n as u32));
                    clause.push(Lit::new(v, rng.gen_bool(0.5)));
                }
                cnf.add_clause(clause);
            }
            let outcome = Solver::new(&cnf, SolverOptions::default()).solve();
            // Cross-check against brute force.
            let mut brute_sat = false;
            for code in 0..1u32 << n {
                let assignment: Vec<bool> = (0..n).map(|i| code >> i & 1 != 0).collect();
                if cnf.evaluate(&assignment) {
                    brute_sat = true;
                    break;
                }
            }
            match outcome {
                Verdict::Sat(model) => {
                    assert!(brute_sat, "round {round}: solver SAT, brute UNSAT");
                    assert!(cnf.evaluate(&model), "round {round}: bogus model");
                }
                Verdict::Unsat => assert!(!brute_sat, "round {round}: solver UNSAT, brute SAT"),
                Verdict::Unknown(reason) => {
                    panic!("round {round}: unexpected budget exhaustion ({reason})")
                }
            }
        }
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // A hard instance with a 1-conflict budget must give Unknown
        // (pigeonhole 4 into 3).
        let mut cnf = Cnf::with_vars(12);
        let var = |p: usize, h: usize| Var((p * 3 + h) as u32);
        for p in 0..4 {
            cnf.add_clause((0..3).map(|h| var(p, h).positive()).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let outcome = Solver::new(&cnf, SolverOptions::default())
            .solve_observed(&Budget::conflicts(1), &mut NoOpObserver);
        assert_eq!(outcome, Verdict::Unknown(Interrupt::Conflicts));
        // And without the budget it is UNSAT.
        let outcome = Solver::new(&cnf, SolverOptions::default()).solve();
        assert!(outcome.is_unsat());
    }

    #[test]
    fn decision_and_time_budgets_yield_unknown() {
        // Many independent variables: a 1-decision budget cannot finish.
        let mut cnf = Cnf::with_vars(16);
        for v in 0..15u32 {
            cnf.add_clause(vec![Var(v).positive(), Var(v + 1).positive()]);
        }
        let outcome = Solver::new(&cnf, SolverOptions::default()).solve_observed(
            &Budget {
                max_decisions: Some(1),
                ..Budget::UNLIMITED
            },
            &mut NoOpObserver,
        );
        assert_eq!(outcome, Verdict::Unknown(Interrupt::Decisions));
        // A zero time budget: the very first checkpoint polls the clock.
        let outcome = Solver::new(&cnf, SolverOptions::default())
            .solve_observed(&Budget::time(std::time::Duration::ZERO), &mut NoOpObserver);
        // An instance decided purely by propagation takes no checkpoints.
        assert!(matches!(
            outcome,
            Verdict::Sat(_) | Verdict::Unknown(Interrupt::Timeout)
        ));
    }

    #[test]
    fn memory_budget_triggers_reduction_not_wrong_answers() {
        // Pigeonhole 4 into 3 learns enough clauses to hit a tiny memory
        // budget. Whatever happens — emergency reductions, abort — the
        // solver must never produce a wrong answer.
        let mut cnf = Cnf::with_vars(12);
        let var = |p: usize, h: usize| Var((p * 3 + h) as u32);
        for p in 0..4 {
            cnf.add_clause((0..3).map(|h| var(p, h).positive()).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let mut solver = Solver::new(&cnf, SolverOptions::default());
        match solver.solve_observed(&Budget::memory(2048), &mut NoOpObserver) {
            Verdict::Unsat | Verdict::Unknown(Interrupt::Memory) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cancellation_yields_unknown_cancelled() {
        let mut cnf = Cnf::with_vars(16);
        for v in 0..15u32 {
            cnf.add_clause(vec![Var(v).positive(), Var(v + 1).positive()]);
        }
        let token = csat_types::CancelToken::new();
        token.cancel();
        let outcome = Solver::new(&cnf, SolverOptions::default())
            .solve_observed(&Budget::UNLIMITED.with_cancel(token), &mut NoOpObserver);
        assert_eq!(outcome, Verdict::Unknown(Interrupt::Cancelled));
    }

    #[test]
    fn stats_are_populated() {
        let mut cnf = Cnf::with_vars(12);
        let var = |p: usize, h: usize| Var((p * 3 + h) as u32);
        for p in 0..4 {
            cnf.add_clause((0..3).map(|h| var(p, h).positive()).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let mut solver = Solver::new(&cnf, SolverOptions::default());
        let _ = solver.solve();
        assert!(solver.stats().conflicts > 0);
        assert!(solver.stats().decisions > 0);
        assert!(solver.stats().propagations > 0);
    }

    #[test]
    fn ingested_clause_out_of_range_is_rejected() {
        let cnf = Cnf::from_dimacs("p cnf 2 1\n1 2 0\n").expect("dimacs");
        let mut solver = Solver::new(&cnf, SolverOptions::default());
        let bogus = Lit::new(Var(7), false);
        let err = solver
            .add_learned_clause(vec![bogus])
            .expect_err("out-of-range literal must be rejected");
        assert_eq!(
            err,
            csat_search::LitOutOfRange {
                lit: bogus,
                vars: 2
            }
        );
        // The solver is unharmed and still solves.
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn ingested_unit_steers_the_model() {
        let cnf = Cnf::from_dimacs("p cnf 2 1\n1 2 0\n").expect("dimacs");
        let mut solver = Solver::new(&cnf, SolverOptions::default());
        solver
            .add_learned_clause(vec![Lit::new(Var(1), false)])
            .expect("in range");
        match solver.solve() {
            Verdict::Sat(model) => assert!(model[1], "ingested unit forces var 2"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn phase_saving_repeats_flipped_polarities() {
        // A formula whose only models need several variables true: with
        // phase saving, polarities discovered through conflicts persist
        // into later decisions; defaults stay all-false. Either way the
        // verdict must match.
        let text = "p cnf 4 5\n1 2 0\n-1 3 0\n-2 4 0\n-3 -4 1 0\n2 3 4 0\n";
        let cnf = Cnf::from_dimacs(text).expect("dimacs");
        let default = Solver::new(&cnf, SolverOptions::default()).solve();
        let saving = Solver::new(&cnf, SolverOptions::builder().phase_saving(true).build()).solve();
        assert_eq!(default.is_sat(), saving.is_sat());
        if let Verdict::Sat(model) = saving {
            assert!(cnf.evaluate(&model));
        }
    }

    /// One incremental solve: the housekeeping, then the search.
    fn solve_next(s: &mut Solver, extra: &[Lit], obs: &mut MetricsRecorder) -> SubVerdict {
        s.simplify(obs);
        s.solve_under(extra, &Budget::UNLIMITED, obs)
    }

    fn unsat(v: &SubVerdict) -> bool {
        matches!(v, SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_))
    }

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn grows_formula_between_solves() {
        let cnf = Cnf::from_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").expect("dimacs");
        let mut s = Solver::new(&cnf, SolverOptions::default());
        let mut obs = MetricsRecorder::default();
        match solve_next(&mut s, &[], &mut obs) {
            SubVerdict::Sat(m) => assert!(m[1]),
            other => panic!("{other:?}"),
        }
        // x2 -> x3, then force a contradiction with !x3.
        let x3 = s.add_var();
        s.add_clause(vec![lit(-2), x3.positive()]).expect("range");
        s.add_clause(vec![x3.negative()]).expect("range");
        let v = solve_next(&mut s, &[], &mut obs);
        assert!(unsat(&v), "x2 forced true and false: {v:?}");
    }

    #[test]
    fn scoped_assumptions_report_failed_cores() {
        let cnf = Cnf::from_dimacs("p cnf 3 2\n-1 2 0\n-2 3 0\n").expect("dimacs");
        let mut s = Solver::new(&cnf, SolverOptions::default());
        let mut metrics = MetricsRecorder::default();
        s.push_observed(&mut metrics);
        s.assume(lit(1));
        s.push_observed(&mut metrics);
        s.assume(lit(-3));
        assert_eq!((s.depth(), s.assumptions()), (2, &[lit(1), lit(-3)][..]));
        match &solve_next(&mut s, &[], &mut metrics) {
            SubVerdict::UnsatUnderAssumptions(core) => {
                assert!(!core.is_empty());
                for &l in core {
                    assert!([lit(1), lit(-3)].contains(&l), "core literal {l:?}");
                }
            }
            other => panic!("{other:?}"),
        }
        // Drop only the inner scope: x1 alone is satisfiable.
        assert!(s.pop_observed(&mut metrics));
        match solve_next(&mut s, &[], &mut metrics) {
            SubVerdict::Sat(_) => {
                assert_eq!(s.value(lit(1)), Some(true));
                assert_eq!(s.value(lit(3)), Some(true));
            }
            other => panic!("{other:?}"),
        }
        assert!(s.pop());
        assert!(!s.pop());
        assert_eq!(metrics.session_pushes, 2);
        assert_eq!(metrics.session_pops, 1);
    }

    #[test]
    fn learned_clauses_survive_pop_and_resolve() {
        // Pigeonhole 4-into-3 forces real learning; solve it under a
        // throwaway scope, then again without: the second call must start
        // with retained clauses.
        let mut cnf = Cnf::with_vars(12);
        let var = |p: usize, h: usize| Var((p * 3 + h) as u32);
        for p in 0..4 {
            cnf.add_clause((0..3).map(|h| var(p, h).positive()).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    cnf.add_clause(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let mut s = Solver::new(&cnf, SolverOptions::default());
        s.push();
        s.assume(var(0, 0).positive());
        let v = solve_next(&mut s, &[], &mut MetricsRecorder::default());
        assert!(unsat(&v), "{v:?}");
        let learned = s.learned_count();
        assert!(learned > 0, "pigeonhole must learn clauses");
        s.pop();

        let mut metrics = MetricsRecorder::default();
        let v = solve_next(&mut s, &[], &mut metrics);
        assert!(unsat(&v), "{v:?}");
        assert_eq!(
            metrics.clauses_retained, learned,
            "second solve must start with the first call's clauses"
        );
    }

    #[test]
    fn matches_monolithic_solver_after_growth() {
        // Grow a formula in two increments, solving between each; every
        // verdict must match a fresh solver over the formula so far.
        let mut grown = Cnf::with_vars(2);
        grown.add_clause(vec![lit(1), lit(2)]);
        let mut s = Solver::new(&grown, SolverOptions::default());
        let mut obs = MetricsRecorder::default();
        let _ = solve_next(&mut s, &[], &mut obs);

        let batches: Vec<Vec<Vec<Lit>>> = vec![
            vec![vec![lit(-1), lit(2)], vec![lit(-2), lit(1)]],
            vec![vec![lit(-1), lit(-2)]],
        ];
        for batch in batches {
            for clause in batch {
                grown.add_clause(clause.clone());
                s.add_clause(clause).expect("in range");
            }
            let incremental = solve_next(&mut s, &[], &mut obs);
            let fresh = Solver::new(&grown, SolverOptions::default()).solve();
            match (&incremental, &fresh) {
                (SubVerdict::Sat(_), Verdict::Sat(_)) => {}
                (a, Verdict::Unsat) if unsat(a) => {}
                (a, b) => panic!("incremental {a:?} vs fresh {b:?}"),
            }
        }
    }

    #[test]
    fn add_clause_rejects_unknown_variables() {
        let cnf = Cnf::from_dimacs("p cnf 1 1\n1 0\n").expect("dimacs");
        let mut s = Solver::new(&cnf, SolverOptions::default());
        let bogus = Var(5).positive();
        let err = s.add_clause(vec![bogus]).expect_err("unknown variable");
        assert_eq!(err.lit, bogus);
        // Unchanged and still solvable.
        assert!(s.solve().is_sat());
    }

    #[test]
    #[should_panic(expected = "outside the solver's 1 variables")]
    fn out_of_range_extra_assumption_is_named() {
        let cnf = Cnf::from_dimacs("p cnf 1 1\n1 0\n").expect("dimacs");
        let mut s = Solver::new(&cnf, SolverOptions::default());
        s.solve_under(&[Var(5).positive()], &Budget::UNLIMITED, &mut NoOpObserver);
    }

    #[test]
    fn root_level_normalization_of_added_clauses() {
        let cnf = Cnf::from_dimacs("p cnf 2 1\n1 0\n").expect("dimacs");
        let mut s = Solver::new(&cnf, SolverOptions::default());
        let mut obs = MetricsRecorder::default();
        let _ = solve_next(&mut s, &[], &mut obs);
        // Satisfied at root: dropped.
        s.add_clause(vec![lit(1), lit(2)]).expect("range");
        // Tautology: dropped.
        s.add_clause(vec![lit(2), lit(-2)]).expect("range");
        // Root-false literal removed, leaving a unit.
        s.add_clause(vec![lit(-1), lit(-2)]).expect("range");
        match solve_next(&mut s, &[], &mut obs) {
            SubVerdict::Sat(m) => assert_eq!(m, vec![true, false]),
            other => panic!("{other:?}"),
        }
        // An added clause contradicting the root closure: UNSAT forever.
        s.add_clause(vec![lit(2)]).expect("range");
        assert!(unsat(&solve_next(&mut s, &[], &mut obs)));
        assert!(
            unsat(&solve_next(&mut s, &[], &mut obs)),
            "sticky root conflict"
        );
    }

    /// The full scan `SearchContext::simplify_satisfied_at_root` ran before
    /// it tracked what changed: every live, unpinned clause of more than
    /// two literals with a literal true at the root that is not the reason
    /// of its first literal. Ingested (pinned) clauses carry glue
    /// `u32::MAX`.
    fn full_scan_victims(ctx: &SearchContext<Lit>) -> Vec<u32> {
        (0..ctx.num_clause_refs())
            .filter(|&cref| {
                if ctx.clause_is_deleted(cref) || ctx.clause_glue(cref) == u32::MAX {
                    return false;
                }
                let lits = ctx.clause_lits(cref);
                let locked = ctx.lit_value(lits[0]) == TRUE
                    && ctx.reason(lits[0].var().index()) == Reason::Learned(cref);
                lits.len() > 2 && !locked && lits.iter().any(|&l| ctx.lit_value(l) == TRUE)
            })
            .collect()
    }

    #[test]
    fn simplify_matches_the_full_scan_on_random_runs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let tight = Budget {
            max_memory_bytes: Some(2_000),
            max_conflicts: Some(1_500),
            ..Budget::UNLIMITED
        };
        // (calls, calls after the root trail grew, calls that deleted)
        let mut checks = (0u64, 0u64, 0u64);
        let mut ingested = 0u64;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 100u32;
            let mut cnf = Cnf::with_vars(n as usize);
            for _ in 0..420 {
                let clause = (0..3)
                    .map(|_| Lit::new(Var(rng.gen_range(0..n)), rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(clause);
            }
            let mut options = SolverOptions::default();
            if seed % 2 == 1 {
                options.search.restart = RestartPolicy::Luby { unit: 4 };
            }
            let mut s = Solver::new(&cnf, options);
            let mut last_root = 0;
            let lit = |s: &Solver, rng: &mut StdRng| {
                Lit::new(
                    Var(rng.gen_range(0..s.num_vars() as u32)),
                    rng.gen_bool(0.5),
                )
            };
            for _ in 0..60 {
                // `simplify` checked against the full scan on a clone of
                // the root state it starts from.
                s.reset();
                let reference = s.ctx.clone();
                let victims = full_scan_victims(&reference);
                s.simplify(&mut NoOpObserver);
                let deleted: Vec<u32> = (0..reference.num_clause_refs())
                    .filter(|&c| s.ctx.clause_is_deleted(c) && !reference.clause_is_deleted(c))
                    .collect();
                assert_eq!(deleted, victims, "seed {seed}: deleted clauses");
                let k = victims.len() as u64;
                let (got, then) = (s.ctx.stats(), reference.stats());
                assert_eq!(got.deleted_clauses, then.deleted_clauses + k);
                assert_eq!(got.learnt_clauses, then.learnt_clauses - k);
                checks.0 += 1;
                checks.1 += u64::from(reference.trail().len() > last_root);
                checks.2 += u64::from(k > 0);
                last_root = reference.trail().len();

                match rng.gen_range(0..10) {
                    // Growth: a fresh variable in a clause over old ones.
                    0 | 1 => {
                        let v = s.add_var();
                        let clause = vec![v.positive(), lit(&s, &mut rng), lit(&s, &mut rng)];
                        s.add_clause(clause).expect("in range");
                    }
                    // The whole formula under a memory bound: database
                    // reductions, and with them arena compaction.
                    2 => {
                        let _ = s.solve_under(&[], &tight, &mut NoOpObserver);
                    }
                    // Scoped assumptions.
                    3 => {
                        s.push();
                        s.assume(lit(&s, &mut rng));
                        let _ = s.solve_under(&[], &Budget::conflicts(200), &mut NoOpObserver);
                        s.pop();
                    }
                    // Assumption checks; refuted cores are ingested, and a
                    // refuted single literal becomes a root unit.
                    _ => {
                        let pair = [lit(&s, &mut rng), lit(&s, &mut rng)];
                        let v = s.solve_under(&pair, &Budget::conflicts(300), &mut NoOpObserver);
                        if let SubVerdict::UnsatUnderAssumptions(core) = v {
                            ingested += 1;
                            let clause = core.iter().map(|&l| !l).collect();
                            s.add_learned_clause(clause).expect("in range");
                        }
                    }
                }
            }
        }
        let (calls, after_growth, deleting) = checks;
        assert!(ingested > 0, "no refuted core was ingested");
        assert!(
            after_growth > 0 && after_growth < calls,
            "{after_growth} of {calls} calls after root growth"
        );
        assert!(deleting > 0, "no call deleted a clause");
    }
}
