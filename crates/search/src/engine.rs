//! The CDCL search engine: one solve loop shared by every backend.
//!
//! The engine owns everything the paper's solver and the CNF baseline have
//! in common — the conflict/decide loop, first-UIP analysis with optional
//! clause minimization, learned-clause management and reduction, restarts,
//! VSIDS decay, budget checkpoints and proof logging. Everything the
//! backends *disagree* on — how a trail literal propagates, how an
//! implication is explained, how the next decision is picked — goes
//! through a [`Propagator`].
//!
//! The engine is a set of free functions over `(&mut SearchContext, &mut
//! P)` rather than methods of a struct holding both: the split keeps the
//! borrows disjoint, so a propagator can read the search state while the
//! engine mutates its own.
//!
//! The propagation and analysis paths are allocation-free in the steady
//! state: watcher traversal works on the flat clause arena (binary clauses
//! resolve from the watcher alone), and conflict analysis runs entirely in
//! scratch buffers owned by the [`SearchContext`] (epoch-stamped `seen`,
//! reused literal vectors). The only allocations left on a conflict are
//! the amortized growth of those buffers and the arena itself.

use csat_telemetry::{Observer, SolverEvent};
use csat_types::{Budget, BudgetMeter, ClauseActivity, Interrupt, ReductionPolicy, SubVerdict};

use crate::context::{
    Conflict, LitOutOfRange, Reason, SearchContext, SearchLit, Watcher, BINARY_FLAG, CREF_MASK,
    FALSE, TRUE, UNDEF,
};
use crate::prefetch::prefetch_read;

/// Backend-specific half of the solver.
///
/// The engine calls the four required methods on its hot path; the `on_*`
/// hooks have empty defaults and exist for backends that maintain state of
/// their own next to the search (the circuit solver's justification
/// frontier and implicit-learning queue).
pub trait Propagator {
    /// The literal type this backend searches over.
    type Lit: SearchLit;

    /// Propagates one trail literal `lit` (just made true) through the
    /// backend's constraint structure, enqueueing implications on `ctx`.
    ///
    /// The engine follows up with watched propagation over the learned
    /// clauses of the kernel arena, so this only covers backend-owned
    /// constraints: AND gates for the circuit solver, problem clauses for
    /// the CNF solver.
    fn propagate_literal(
        &mut self,
        ctx: &mut SearchContext<Self::Lit>,
        lit: Self::Lit,
    ) -> Result<(), Conflict<Self::Lit>>;

    /// Explains a [`Reason::External`] implication: pushes onto `out` the
    /// premise literals (all currently false) that together with `of` form
    /// the implying clause, excluding `of` itself, in the backend's
    /// canonical order (conflict-analysis bump order depends on it).
    fn explain(
        &self,
        ctx: &SearchContext<Self::Lit>,
        of: Self::Lit,
        token: u32,
        out: &mut Vec<Self::Lit>,
    );

    /// Chooses the next decision literal, or `None` when the backend
    /// considers the assignment complete (all variables assigned, or — for
    /// the circuit solver — every gate justified). The flag marks
    /// implicit-learning grouped decisions.
    fn pick_decision(&mut self, ctx: &mut SearchContext<Self::Lit>) -> Option<(Self::Lit, bool)>;

    /// Extracts the model reported by [`SearchResult::Sat`] from a
    /// complete assignment.
    fn extract_model(&self, ctx: &SearchContext<Self::Lit>) -> Vec<bool>;

    /// Called at the start of every [`solve_under`] call, after the engine
    /// has backtracked to level 0.
    fn on_solve_start(&mut self, ctx: &mut SearchContext<Self::Lit>) {
        let _ = ctx;
    }

    /// Called after a batch of implications: every literal in
    /// `ctx.trail()[from..]` was just enqueued with a non-decision reason.
    /// The circuit solver's implicit learning queues grouped decisions for
    /// the correlation partners of these literals.
    fn on_implications(&mut self, ctx: &SearchContext<Self::Lit>, from: usize) {
        let _ = (ctx, from);
    }

    /// Called after the engine backtracked; `unassigned` holds the trail
    /// suffix that was unassigned, in assignment order.
    fn on_backtrack(&mut self, ctx: &SearchContext<Self::Lit>, unassigned: &[Self::Lit]) {
        let _ = (ctx, unassigned);
    }

    /// Called after a clause was attached to the kernel arena (learned or
    /// ingested); its literals are `ctx.clause_lits(cref)`.
    fn on_learned(&mut self, ctx: &SearchContext<Self::Lit>, cref: u32) {
        let _ = (ctx, cref);
    }

    /// Called after a variable's VSIDS activity was bumped (the kernel
    /// already updated its own heap when it maintains one).
    fn on_bump(&mut self, ctx: &SearchContext<Self::Lit>, var: usize) {
        let _ = (ctx, var);
    }
}

/// Result of [`solve_under`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchResult<L> {
    /// Satisfiable under the assumptions; model as extracted by the
    /// backend's [`Propagator::extract_model`].
    Sat(Vec<bool>),
    /// Unsatisfiable regardless of the assumptions.
    Unsat,
    /// Unsatisfiable under the assumptions; the returned literals are a
    /// failed-assumption core (IPASIR `failed()`): the refuted assumption
    /// plus the earlier assumptions whose propagation forced its negation.
    /// Negating the core yields a clause implied by the instance alone.
    UnsatUnderAssumptions(Vec<L>),
    /// A budget ran out (or the solve was cancelled) before an answer.
    Aborted(Interrupt),
}

impl<L> From<SearchResult<L>> for SubVerdict<L> {
    fn from(result: SearchResult<L>) -> SubVerdict<L> {
        match result {
            SearchResult::Sat(model) => SubVerdict::Sat(model),
            SearchResult::Unsat => SubVerdict::Unsat,
            SearchResult::UnsatUnderAssumptions(core) => SubVerdict::UnsatUnderAssumptions(core),
            SearchResult::Aborted(reason) => SubVerdict::Aborted(reason),
        }
    }
}

/// Runs the CDCL search under a set of assumption literals and a resource
/// budget, reporting events to `obs`.
///
/// Learned clauses, variable activities and statistics persist across
/// calls, so a solver can be resumed with a fresh budget, and the circuit
/// solver's explicit-learning pass can solve many assumption sets against
/// one accumulated database.
pub fn solve_under<P, O>(
    ctx: &mut SearchContext<P::Lit>,
    prop: &mut P,
    assumptions: &[P::Lit],
    budget: &Budget,
    obs: &mut O,
) -> SearchResult<P::Lit>
where
    P: Propagator,
    O: Observer + ?Sized,
{
    let mut meter = BudgetMeter::new(budget);
    let mut learned_this_call = 0u64;
    let mut conflicts_this_call = 0u64;
    let mut decisions_this_call = 0u64;
    backtrack(ctx, prop, 0);
    prop.on_solve_start(ctx);
    ctx.restart.on_solve_start();
    if ctx.root_conflict {
        return SearchResult::Unsat;
    }
    if propagate(ctx, prop).is_some() {
        ctx.root_conflict = true;
        return SearchResult::Unsat;
    }
    loop {
        if let Some(conflict) = propagate(ctx, prop) {
            ctx.stats.conflicts += 1;
            conflicts_this_call += 1;
            if ctx.decision_level() == 0 {
                ctx.root_conflict = true;
                obs.record(SolverEvent::Conflict {
                    level: 0,
                    backjump: 0,
                });
                return SearchResult::Unsat;
            }
            let (backjump, glue) = analyze(ctx, prop, conflict);
            let level = ctx.decision_level();
            obs.record(SolverEvent::Conflict {
                level,
                backjump: level - backjump,
            });
            obs.record(SolverEvent::Learn {
                literals: ctx.analyze_learnt_buf.len() as u32,
            });
            ctx.restart.on_conflict(level - backjump);
            backtrack(ctx, prop, backjump);
            // Reuse the analysis buffer without cloning: take it, learn
            // from the slice, hand it back for the next conflict.
            let learnt = std::mem::take(&mut ctx.analyze_learnt_buf);
            learn(ctx, prop, &learnt, glue);
            ctx.analyze_learnt_buf = learnt;
            learned_this_call += 1;
            if ctx.root_conflict {
                return SearchResult::Unsat;
            }
            if ctx
                .stats
                .conflicts
                .is_multiple_of(ctx.options.decay_interval)
            {
                ctx.bump /= ctx.options.var_decay;
                if ctx.bump > 1e100 {
                    ctx.rescale_activities();
                }
            }
            if ctx.stats.learnt_clauses as usize > ctx.max_learnts {
                let (dropped, kept) = reduce_db(ctx, None);
                obs.record(SolverEvent::DbReduced { dropped, kept });
            }
            if let Some(reason) = budget_checkpoint(
                ctx,
                &mut meter,
                learned_this_call,
                conflicts_this_call,
                decisions_this_call,
                obs,
            ) {
                return SearchResult::Aborted(reason);
            }
            if ctx.restart.due_post_conflict() && ctx.decision_level() > 0 {
                ctx.stats.restarts += 1;
                obs.record(SolverEvent::Restart);
                backtrack(ctx, prop, 0);
            }
        } else if (ctx.decision_level() as usize) < assumptions.len() {
            // Assert the next assumption.
            let p = assumptions[ctx.decision_level() as usize];
            match ctx.lit_value(p) {
                TRUE => ctx.push_decision_level(),
                FALSE => {
                    let core = analyze_final(ctx, prop, p);
                    return SearchResult::UnsatUnderAssumptions(core);
                }
                _ => {
                    ctx.push_decision_level();
                    let enqueued = ctx.enqueue(p, Reason::Decision);
                    debug_assert!(enqueued.is_ok(), "assumption literal is unassigned");
                }
            }
        } else if ctx.restart.due_pre_decision() {
            ctx.stats.restarts += 1;
            obs.record(SolverEvent::Restart);
            backtrack(ctx, prop, 0);
        } else if let Some((lit, grouped)) = prop.pick_decision(ctx) {
            ctx.stats.decisions += 1;
            decisions_this_call += 1;
            if grouped {
                ctx.stats.grouped_decisions += 1;
            }
            obs.record(SolverEvent::Decision {
                level: ctx.decision_level() + 1,
                grouped,
            });
            if let Some(reason) = budget_checkpoint(
                ctx,
                &mut meter,
                learned_this_call,
                conflicts_this_call,
                decisions_this_call,
                obs,
            ) {
                return SearchResult::Aborted(reason);
            }
            ctx.push_decision_level();
            let enqueued = ctx.enqueue(lit, Reason::Decision);
            debug_assert!(enqueued.is_ok(), "decision literal is unassigned");
        } else {
            return SearchResult::Sat(prop.extract_model(ctx));
        }
    }
}

/// BCP to fixpoint: backend constraints first, then the kernel's learned
/// clauses, for each trail literal in turn.
pub fn propagate<P: Propagator>(
    ctx: &mut SearchContext<P::Lit>,
    prop: &mut P,
) -> Option<Conflict<P::Lit>> {
    while ctx.qhead < ctx.trail.len() {
        let p = ctx.trail[ctx.qhead];
        ctx.qhead += 1;
        ctx.stats.propagations += 1;
        let mark = ctx.trail.len();
        if let Err(c) = prop.propagate_literal(ctx, p) {
            return Some(c);
        }
        if let Err(c) = propagate_learned(ctx, !p) {
            return Some(c);
        }
        prop.on_implications(ctx, mark);
    }
    None
}

/// Watched-literal propagation over the learned-clause arena.
///
/// Per watcher, in order of increasing cost: the inline blocker check
/// (satisfied clause, no clause memory touched), the binary fast path
/// (the whole clause is in the watcher), then the full visit — swap the
/// falsified literal into slot 1, re-check slot 0, scan for a replacement
/// watch over the arena slice. The next watcher's clause header is
/// prefetched one iteration ahead to hide the header-table miss.
fn propagate_learned<L: SearchLit>(
    ctx: &mut SearchContext<L>,
    falsified: L,
) -> Result<(), Conflict<L>> {
    let mut watch_list = std::mem::take(&mut ctx.watches[falsified.code()]);
    let mut i = 0;
    let mut result = Ok(());
    while i < watch_list.len() {
        if let Some(next) = watch_list.get(i + 1) {
            if next.tagged_cref & BINARY_FLAG == 0 {
                prefetch_read(&ctx.headers[next.tagged_cref as usize]);
            }
        }
        let Watcher {
            tagged_cref,
            blocker,
        } = watch_list[i];
        // Blocker check: if the cached co-watched literal is already true
        // the clause is satisfied — skip without touching it.
        if ctx.lit_value(blocker) == TRUE {
            i += 1;
            continue;
        }
        if tagged_cref & BINARY_FLAG != 0 {
            // Binary fast path: the blocker is exactly the other literal
            // (binaries are never deleted or re-watched), so the clause is
            // fully determined by the watcher — unit or conflicting now.
            let cref = tagged_cref & CREF_MASK;
            if ctx.lit_value(blocker) == FALSE {
                result = Err(Conflict {
                    lit: blocker,
                    reason: Reason::Learned(cref),
                });
                ctx.qhead = ctx.trail.len();
                break;
            }
            let enqueued = ctx.enqueue(blocker, Reason::Learned(cref));
            debug_assert!(enqueued.is_ok(), "undef literal enqueues cleanly");
            i += 1;
            continue;
        }
        let cref = tagged_cref;
        let (first, new_watch) = {
            let values = &ctx.values;
            let val = |lit: L| -> u8 {
                let v = values[lit.var_index()];
                if v == UNDEF {
                    UNDEF
                } else {
                    v ^ lit.is_negated() as u8
                }
            };
            let h = ctx.headers[cref as usize];
            if h.is_deleted() {
                watch_list.swap_remove(i);
                continue;
            }
            let lits = &mut ctx.arena[h.start as usize..(h.start + h.len) as usize];
            if lits[0] == falsified {
                lits.swap(0, 1);
            }
            debug_assert_eq!(lits[1], falsified);
            let first = lits[0];
            if val(first) == TRUE {
                // Remember the satisfying literal so later rounds can skip
                // the clause from the blocker check alone.
                watch_list[i].blocker = first;
                i += 1;
                continue;
            }
            let mut new_watch = None;
            for k in 2..lits.len() {
                let cand = lits[k];
                if val(cand) != FALSE {
                    lits.swap(1, k);
                    new_watch = Some(cand);
                    break;
                }
            }
            (first, new_watch)
        };
        if let Some(cand) = new_watch {
            ctx.watches[cand.code()].push(Watcher {
                tagged_cref: cref,
                blocker: first,
            });
            watch_list.swap_remove(i);
            continue;
        }
        if ctx.lit_value(first) == FALSE {
            result = Err(Conflict {
                lit: first,
                reason: Reason::Learned(cref),
            });
            ctx.qhead = ctx.trail.len();
            break;
        }
        if let Err(c) = ctx.enqueue(first, Reason::Learned(cref)) {
            result = Err(c);
            ctx.qhead = ctx.trail.len();
            break;
        }
        i += 1;
    }
    ctx.watches[falsified.code()] = watch_list;
    result
}

/// Computes the failed-assumption core when assumption `p` turns out
/// false: `p` itself plus the subset of earlier assumptions whose
/// propagation forced `!p` (IPASIR `failed()`).
///
/// MiniSat's `analyzeFinal`, adapted to the kernel: mark `p`'s variable
/// seen, then walk the above-root trail backwards, expanding the reason
/// clause of every seen variable. A seen *decision* is an earlier
/// assumption (every decision level open while assumptions are still being
/// asserted is an assumption level) and joins the core in asserted form.
/// When `!p` already holds at level 0 the core is `{p}` alone.
fn analyze_final<P: Propagator>(
    ctx: &mut SearchContext<P::Lit>,
    prop: &mut P,
    p: P::Lit,
) -> Vec<P::Lit> {
    let mut core = vec![p];
    if ctx.trail_lim.is_empty() {
        return core;
    }
    ctx.seen_epoch += 1;
    let epoch = ctx.seen_epoch;
    ctx.seen_stamp[p.var_index()] = epoch;
    let mut reason_buf = std::mem::take(&mut ctx.analyze_reason_buf);
    for i in (ctx.trail_lim[0]..ctx.trail.len()).rev() {
        let q = ctx.trail[i];
        let v = q.var_index();
        if ctx.seen_stamp[v] != epoch {
            continue;
        }
        match ctx.assign[v].reason.unpack() {
            Reason::Decision => core.push(q),
            Reason::Axiom => {}
            reason => {
                reason_buf.clear();
                reason_false_lits(ctx, prop, q, reason, &mut reason_buf);
                for &l in &reason_buf {
                    if ctx.assign[l.var_index()].level > 0 {
                        ctx.seen_stamp[l.var_index()] = epoch;
                    }
                }
            }
        }
    }
    ctx.analyze_reason_buf = reason_buf;
    core
}

/// Backtracks to decision level 0 without starting a solve — the explicit
/// session entry point for mutating a live instance (adding gates,
/// clauses or variables requires a quiet root state). Equivalent to
/// [`backtrack`]`(ctx, prop, 0)`.
pub fn reset_to_root<P: Propagator>(ctx: &mut SearchContext<P::Lit>, prop: &mut P) {
    backtrack(ctx, prop, 0);
}

/// Literals (all currently false) that together with `of` form the
/// implying clause of `of`'s reason.
fn reason_false_lits<P: Propagator>(
    ctx: &SearchContext<P::Lit>,
    prop: &P,
    of: P::Lit,
    reason: Reason,
    out: &mut Vec<P::Lit>,
) {
    match reason {
        Reason::Learned(cref) => {
            for &l in ctx.clause_lits(cref) {
                if l != of {
                    out.push(l);
                }
            }
        }
        Reason::External(token) => prop.explain(ctx, of, token, out),
        Reason::Decision | Reason::Axiom => {
            unreachable!("decisions and axioms have no reason clause")
        }
    }
}

/// Under [`ClauseActivity::UseCount`], credits a learned reason clause
/// with one conflict-analysis use. External (backend-owned) clauses are
/// never reduction candidates, so their counts would be dead weight.
fn bump_clause_use<L: SearchLit>(ctx: &mut SearchContext<L>, reason: Reason) {
    if ctx.options.clause_activity != ClauseActivity::UseCount {
        return;
    }
    if let Reason::Learned(cref) = reason {
        ctx.headers[cref as usize].activity += 1.0;
    }
}

fn bump_var<P: Propagator>(ctx: &mut SearchContext<P::Lit>, prop: &mut P, var: usize) {
    ctx.activity[var] += ctx.bump;
    if ctx.activity[var] > 1e100 {
        ctx.rescale_activities();
    }
    if ctx.maintain_heap {
        ctx.heap.update(var as u32, &ctx.activity);
    }
    prop.on_bump(ctx, var);
}

/// First-UIP conflict analysis. Returns the backjump level and the learnt
/// clause's glue (LBD); the clause itself (asserting literal first, a
/// highest-backjump-level literal second) is left in
/// `ctx.analyze_learnt_buf`. Runs entirely in context-owned scratch — no
/// allocation in the steady state.
fn analyze<P: Propagator>(
    ctx: &mut SearchContext<P::Lit>,
    prop: &mut P,
    conflict: Conflict<P::Lit>,
) -> (u32, u32) {
    let current = ctx.decision_level();
    ctx.seen_epoch += 1;
    let mut clause_lits = std::mem::take(&mut ctx.analyze_clause_buf);
    let mut learnt = std::mem::take(&mut ctx.analyze_min_buf);
    let mut reason_buf = std::mem::take(&mut ctx.analyze_reason_buf);
    clause_lits.clear();
    learnt.clear();
    reason_buf.clear();
    // Materialize the conflicting clause: all literals false.
    clause_lits.push(conflict.lit);
    bump_clause_use(ctx, conflict.reason);
    reason_false_lits(ctx, prop, conflict.lit, conflict.reason, &mut clause_lits);
    learnt.push(P::Lit::from_parts(0, false)); // placeholder for 1UIP
    let mut counter = 0usize;
    let mut index = ctx.trail.len();
    loop {
        for q in clause_lits.drain(..) {
            let v = q.var_index();
            if ctx.seen_stamp[v] != ctx.seen_epoch && ctx.assign[v].level > 0 {
                ctx.seen_stamp[v] = ctx.seen_epoch;
                bump_var(ctx, prop, v);
                if ctx.assign[v].level == current {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
        }
        let p_lit = loop {
            index -= 1;
            let lit = ctx.trail[index];
            if ctx.seen_stamp[lit.var_index()] == ctx.seen_epoch {
                break lit;
            }
        };
        counter -= 1;
        if counter == 0 {
            learnt[0] = !p_lit;
            break;
        }
        let reason = ctx.assign[p_lit.var_index()].reason.unpack();
        bump_clause_use(ctx, reason);
        reason_buf.clear();
        reason_false_lits(ctx, prop, p_lit, reason, &mut reason_buf);
        ctx.seen_stamp[p_lit.var_index()] = 0;
        clause_lits.clear();
        clause_lits.extend_from_slice(&reason_buf);
    }
    // Local clause minimization: a non-asserting literal is redundant when
    // every literal of its implying clause is already in the learnt clause
    // (all still marked seen) or at level 0.
    let minimize = ctx.options.minimize_clauses;
    let mut minimized = std::mem::take(&mut ctx.analyze_learnt_buf);
    minimized.clear();
    minimized.push(learnt[0]);
    for &q in &learnt[1..] {
        if !minimize {
            minimized.push(q);
            continue;
        }
        let reason = ctx.assign[q.var_index()].reason.unpack();
        let redundant = match reason {
            Reason::Decision | Reason::Axiom => false,
            _ => {
                reason_buf.clear();
                // q is false, so the trail holds !q; its reason clause is
                // (!q | rest) with `rest` the other false literals.
                reason_false_lits(ctx, prop, !q, reason, &mut reason_buf);
                reason_buf.iter().all(|r| {
                    let v = r.var_index();
                    ctx.seen_stamp[v] == ctx.seen_epoch || ctx.assign[v].level == 0
                })
            }
        };
        if !redundant {
            minimized.push(q);
        }
    }
    // No unmarking pass: the next conflict's epoch bump retires every
    // stamp at once.
    let glue = ctx.compute_glue(&minimized);
    // Backjump level: highest among minimized[1..]; keep that literal in
    // position 1 so it becomes the second watch.
    let mut backjump = 0;
    let mut max_pos = 1;
    for (k, l) in minimized.iter().enumerate().skip(1) {
        let lv = ctx.assign[l.var_index()].level;
        if lv > backjump {
            backjump = lv;
            max_pos = k;
        }
    }
    if minimized.len() > 1 {
        minimized.swap(1, max_pos);
    }
    ctx.analyze_clause_buf = clause_lits;
    ctx.analyze_reason_buf = reason_buf;
    ctx.analyze_min_buf = learnt;
    ctx.analyze_learnt_buf = minimized;
    (backjump, glue)
}

/// Records a learned clause (after the backjump) and asserts its first
/// literal.
fn learn<P: Propagator>(
    ctx: &mut SearchContext<P::Lit>,
    prop: &mut P,
    learnt: &[P::Lit],
    glue: u32,
) {
    let assert_lit = learnt[0];
    ctx.stats.learnt_clauses += 1;
    if let Some(log) = &mut ctx.proof_log {
        log.push(learnt.to_vec());
    }
    // Clause export for parallel sharing: copy qualifying clauses aside
    // (glue and length caps, bounded buffer). Off by default — the cap of
    // 0 keeps this a single predictable branch on the sequential path.
    if glue <= ctx.export_glue_cap
        && learnt.len() <= ctx.export_len_cap
        && ctx.export_buf.len() < ctx.export_max
    {
        ctx.export_buf.push((learnt.to_vec(), glue));
    }
    if learnt.len() == 1 {
        debug_assert_eq!(ctx.decision_level(), 0);
        let mark = ctx.trail.len();
        match ctx.enqueue(assert_lit, Reason::Axiom) {
            Ok(()) => prop.on_implications(ctx, mark),
            Err(_) => ctx.root_conflict = true,
        }
        return;
    }
    let cref = ctx.attach_clause(learnt, false, glue);
    prop.on_learned(ctx, cref);
    let mark = ctx.trail.len();
    ctx.enqueue(assert_lit, Reason::Learned(cref))
        .expect("asserting literal is unassigned after backjump");
    prop.on_implications(ctx, mark);
}

/// Backtracks to `level`, unassigning the trail above it and notifying the
/// propagator.
pub fn backtrack<P: Propagator>(ctx: &mut SearchContext<P::Lit>, prop: &mut P, level: u32) {
    if ctx.decision_level() <= level {
        return;
    }
    ctx.stats.backtracks += 1;
    let target = ctx.trail_lim[level as usize];
    let mut unassigned = std::mem::take(&mut ctx.backtrack_buf);
    unassigned.clear();
    unassigned.extend_from_slice(&ctx.trail[target..]);
    for &lit in unassigned.iter().rev() {
        let var = lit.var_index();
        ctx.values[var] = UNDEF;
        ctx.assign[var].reason = crate::context::PackedReason::AXIOM;
        if ctx.maintain_heap {
            ctx.heap.insert(var as u32, &ctx.activity);
        }
    }
    ctx.trail.truncate(target);
    ctx.trail_lim.truncate(level as usize);
    ctx.qhead = target;
    prop.on_backtrack(ctx, &unassigned);
    ctx.backtrack_buf = unassigned;
}

/// Adds a clause known to be implied by the backend's constraints (the
/// explicit-learning pass records refuted sub-problems this way, and the
/// CNF solver exposes it for incremental strengthening). The clause is
/// *pinned*: database reduction never drops it, even under memory
/// pressure.
///
/// # Errors
///
/// [`LitOutOfRange`] if any literal refers to a variable outside the
/// search space; the state is left unchanged.
pub fn ingest_clause<P: Propagator>(
    ctx: &mut SearchContext<P::Lit>,
    prop: &mut P,
    mut lits: Vec<P::Lit>,
) -> Result<(), LitOutOfRange<P::Lit>> {
    for &l in &lits {
        if l.var_index() >= ctx.n_vars {
            return Err(LitOutOfRange {
                lit: l,
                vars: ctx.n_vars,
            });
        }
    }
    backtrack(ctx, prop, 0);
    lits.sort_unstable();
    lits.dedup();
    if lits.windows(2).any(|w| w[0] == !w[1]) {
        return Ok(()); // tautology
    }
    // A clause satisfied at level 0 is dropped; literals false there are
    // filtered out in place.
    if lits.iter().any(|&l| ctx.lit_value(l) == TRUE) {
        return Ok(());
    }
    lits.retain(|&l| ctx.lit_value(l) != FALSE);
    if let Some(log) = &mut ctx.proof_log {
        log.push(lits.clone());
    }
    match lits.len() {
        0 => ctx.root_conflict = true,
        1 => {
            let mark = ctx.trail.len();
            match ctx.enqueue(lits[0], Reason::Axiom) {
                Err(_) => ctx.root_conflict = true,
                Ok(()) => {
                    prop.on_implications(ctx, mark);
                    if propagate(ctx, prop).is_some() {
                        ctx.root_conflict = true;
                    }
                }
            }
        }
        _ => {
            let cref = ctx.attach_clause(&lits, true, u32::MAX);
            prop.on_learned(ctx, cref);
        }
    }
    Ok(())
}

/// One cooperative budget checkpoint (called at every conflict and
/// decision boundary). Memory pressure gets one chance at graceful
/// degradation: an emergency database reduction toward half the limit;
/// only if the pinned/locked floor still exceeds the limit does the solve
/// abort with [`Interrupt::Memory`].
fn budget_checkpoint<L, O>(
    ctx: &mut SearchContext<L>,
    meter: &mut BudgetMeter,
    learned: u64,
    conflicts: u64,
    decisions: u64,
    obs: &mut O,
) -> Option<Interrupt>
where
    L: SearchLit,
    O: Observer + ?Sized,
{
    let reason = meter.checkpoint(learned, conflicts, decisions, ctx.clauses_bytes)?;
    if reason == Interrupt::Memory {
        if let Some(limit) = meter.memory_limit() {
            let (dropped, kept) = reduce_db(ctx, Some(limit / 2));
            obs.record(SolverEvent::DbReduced { dropped, kept });
            if !meter.memory_exceeded(ctx.clauses_bytes) {
                return None; // pressure relieved; keep solving
            }
        }
    }
    obs.record(SolverEvent::BudgetExhausted { reason });
    Some(reason)
}

/// Learned-clause database reduction, coldest-first.
///
/// With `target_bytes = None` this is the routine growth-triggered pass:
/// delete half the deletable clauses and raise `max_learnts`. Under
/// [`ReductionPolicy::LbdActivity`] the routine pass additionally protects
/// low-glue clauses and deletes highest-glue-first (activity as the
/// tiebreak). With `Some(target)` it is the emergency memory-pressure
/// pass: delete coldest-first by activity — glue protection is suspended,
/// the memory budget wins — until the arena estimate drops to `target`
/// (without growing `max_learnts`).
///
/// Pinned clauses (explicit-learning cores), binaries and clauses
/// currently locked as a reason are never dropped. Deletion tombstones the
/// header immediately (the accounting drops right away); the literal
/// storage itself is reclaimed by arena compaction once deleted clauses
/// own more than half of it.
pub(crate) fn reduce_db<L: SearchLit>(
    ctx: &mut SearchContext<L>,
    target_bytes: Option<u64>,
) -> (u64, u64) {
    let glue_protect = match (ctx.options.reduction, target_bytes) {
        (ReductionPolicy::LbdActivity { glue_keep }, None) => Some(glue_keep),
        _ => None,
    };
    let mut learnt_refs: Vec<u32> = (0..ctx.headers.len() as u32)
        .filter(|&i| {
            let h = ctx.headers[i as usize];
            !h.is_deleted()
                && !h.is_pinned()
                && h.len > 2
                && glue_protect.is_none_or(|keep| h.glue > keep)
        })
        .collect();
    if glue_protect.is_some() {
        // Worst glue first; coldest activity breaks ties.
        learnt_refs.sort_by(|&x, &y| {
            let (hx, hy) = (&ctx.headers[x as usize], &ctx.headers[y as usize]);
            hy.glue
                .cmp(&hx.glue)
                .then_with(|| hx.activity.total_cmp(&hy.activity))
        });
    } else {
        learnt_refs.sort_by(|&x, &y| {
            ctx.headers[x as usize]
                .activity
                .total_cmp(&ctx.headers[y as usize].activity)
        });
    }
    let locked = |ctx: &SearchContext<L>, cref: u32| -> bool {
        let l0 = ctx.arena[ctx.headers[cref as usize].start as usize];
        ctx.lit_value(l0) == TRUE && ctx.reason(l0.var_index()) == Reason::Learned(cref)
    };
    let count_quota = match target_bytes {
        None => learnt_refs.len() / 2,
        Some(_) => learnt_refs.len(),
    };
    let mut deleted = 0usize;
    for &cref in &learnt_refs {
        if deleted >= count_quota {
            break;
        }
        if let Some(target) = target_bytes {
            if ctx.clauses_bytes <= target {
                break;
            }
        }
        if locked(ctx, cref) {
            continue;
        }
        ctx.delete_clause(cref);
        deleted += 1;
    }
    ctx.stats.deleted_clauses += deleted as u64;
    ctx.stats.learnt_clauses -= deleted as u64;
    if target_bytes.is_none() {
        ctx.max_learnts += ctx.max_learnts / 10;
    }
    ctx.maybe_compact();
    (deleted as u64, ctx.stats.learnt_clauses)
}
