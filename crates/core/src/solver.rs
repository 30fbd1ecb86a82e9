//! The circuit CDCL solver (the paper's C-SAT / C-SAT-Jnode).
//!
//! Since the `csat-search` extraction the CDCL machinery itself — trail,
//! first-UIP analysis, learned-clause arena, restarts, budgets, proof
//! logging — is the shared kernel; this module contributes the circuit
//! half as a [`Propagator`]:
//!
//! * Boolean constraint propagation directly on the AIG through the lookup
//!   table of [`crate::implication`],
//! * J-node (justification frontier) decisions, with learned gates as
//!   J-nodes via their free literals (paper Section IV-A),
//! * implicit learning — correlation-driven decision grouping and value
//!   selection (Algorithm IV.1).
//!
//! Learned clauses ("learned gates" in the paper's terminology: OR gates
//! whose output is known to be 1) live in the kernel arena with two
//! watched literals, mirroring the implementation note in Section IV-A.
//!
//! The circuit-specific search state is split in two: [`CircuitState`]
//! owns the J-node counters, fanout CSR and implicit-learning tables,
//! while [`CircuitPropagator`] is the short-lived view pairing that state
//! with a borrow of the circuit for the duration of one engine call. The
//! borrow-only view is what lets one [`Solver`] either borrow a
//! caller-owned [`Aig`] or own a growing one.
//!
//! # Incremental use (DESIGN.md §5h)
//!
//! Assumptions are asserted as *decisions*, never as root-level facts, so
//! every clause the kernel learns is implied by the circuit (plus any
//! ingested clauses) alone. Popping a scope therefore never invalidates a
//! learned clause, and growing the circuit only *adds* constraints. The
//! only state rebuilt on growth is derived structure (per-node tables, the
//! fanout CSR) and the root-level implication closure, which the next
//! solve replays by rewinding the propagation queue over the level-0
//! trail.

use std::borrow::Cow;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use csat_netlist::topo::FanoutCsr;
use csat_netlist::{Aig, Lit, Node, NodeId};
use csat_search::{
    ingest_clause, prefetch_read, reset_to_root, solve_under, ActivityHeap, Conflict, Propagator,
    Reason, Scopes, SearchContext,
};
use csat_sim::{CorrelationResult, Relation};
use csat_telemetry::{NoOpObserver, Observer, SolverEvent};

use crate::implication::{self, is_unjustified, FALSE, TRUE, UNDEF};
use crate::options::{Budget, SolverOptions, Stats, SubVerdict, Verdict};

/// Error from [`Solver::add_learned_clause`]: a literal refers to a node
/// outside the solver's circuit.
pub type LitOutOfRange = csat_search::LitOutOfRange<Lit>;

/// Trail position marking a J-flag flip that stays out of the undo log:
/// one made while propagating at level 0, which no backtrack undoes.
const UNLOGGED: u32 = u32::MAX;

/// A free literal of an unsatisfied learned clause, queued as a decision
/// candidate (learned gates are J-nodes, paper Section IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ClauseCandidate {
    /// Activity snapshot encoded as ordered bits (valid for non-negative
    /// floats).
    priority: u64,
    lit: Lit,
    cref: u32,
}

impl Ord for ClauseCandidate {
    fn cmp(&self, other: &ClauseCandidate) -> CmpOrdering {
        self.priority.cmp(&other.priority)
    }
}

impl PartialOrd for ClauseCandidate {
    fn partial_cmp(&self, other: &ClauseCandidate) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// The owned half of the circuit backend: AND-gate fanout CSR, J-node
/// tracking and the implicit-learning queues. Holds no reference to the
/// circuit itself, so a [`Solver`] can own both a growing [`Aig`] and this
/// state side by side.
#[derive(Clone, Debug)]
struct CircuitState {
    jnode_decisions: bool,
    implicit_learning: bool,
    /// AND gates fed by each node, in flat CSR form (the BCP hot loop
    /// streams through this; see `csat_netlist::topo::FanoutCsr`).
    fanouts: FanoutCsr,
    /// Exact J-node tracking: whether each AND gate is currently
    /// unjustified (output 0, not yet justified by a 0-fanin).
    jnode_flag: Vec<bool>,
    /// How many unjustified gates each node currently feeds.
    cand_count: Vec<u32>,
    /// Total number of unjustified gates (zero = everything justified).
    unjustified_total: u64,
    /// Undo log of the J-flag flips made above decision level 0, in
    /// propagation order: `(trail position of the literal whose
    /// propagation flipped the flag, gate)`. A backtrack pops the flips at
    /// or past its target position (DESIGN.md §5f).
    jlog: Vec<(u32, u32)>,
    /// Backtrack scratch: the `(position, gate)` flips undone that left
    /// their gate unjustified again.
    revived: Vec<(u32, u32)>,
    /// VSIDS heap over J-node input candidates (C-SAT-Jnode mode).
    jheap: ActivityHeap,
    /// Free literals of unsatisfied learned clauses, as lazy candidates.
    clause_cands: BinaryHeap<ClauseCandidate>,
    clause_queued: Vec<bool>,
    /// Implicit learning: correlated partner of each node.
    partner: Vec<Option<(NodeId, Relation)>>,
    /// Implicit learning: correlation against constant 0.
    const_rel: Vec<Option<Relation>>,
    /// Pending grouped decisions: (level at push, trigger node, trigger
    /// value, partner, value to assign). Entries are only honored at the
    /// decision immediately following their creation, while the trigger
    /// still holds its value — the paper groups the partner with a signal
    /// "just being assigned", not with long-undone history.
    group_queue: Vec<(u32, NodeId, bool, NodeId, bool)>,
}

impl CircuitState {
    /// Builds the backend state for `aig` under `options`.
    fn new(aig: &Aig, options: &SolverOptions) -> CircuitState {
        let n = aig.len();
        CircuitState {
            jnode_decisions: options.jnode_decisions,
            implicit_learning: options.implicit_learning,
            fanouts: FanoutCsr::build(aig),
            jnode_flag: vec![false; n],
            cand_count: vec![0; n],
            unjustified_total: 0,
            jlog: Vec::new(),
            revived: Vec::new(),
            jheap: ActivityHeap::with_capacity(n),
            clause_cands: BinaryHeap::new(),
            clause_queued: Vec::new(),
            partner: vec![None; n],
            const_rel: vec![None; n],
            group_queue: Vec::new(),
        }
    }

    /// Grows every per-node table to `n` nodes. New nodes start with no
    /// J-node involvement and no correlations. The fanout CSR is *not*
    /// extended here — that is deferred to the next solve, so a burst of
    /// additions pays for one extension, not many.
    fn grow_to(&mut self, n: usize) {
        if n <= self.jnode_flag.len() {
            return;
        }
        self.jnode_flag.resize(n, false);
        self.cand_count.resize(n, 0);
        self.partner.resize(n, None);
        self.const_rel.resize(n, None);
        self.jheap.grow_to(n);
    }

    /// Installs pair correlations as decision-grouping partners and
    /// constant correlations as value-selection overrides (Algorithm
    /// IV.1).
    fn install_correlations(&mut self, correlations: &CorrelationResult) {
        for c in &correlations.correlations {
            if c.is_constant() {
                self.const_rel[c.a.index()] = Some(c.relation);
            } else {
                // Symmetric grouping: first registration wins.
                if self.partner[c.a.index()].is_none() {
                    self.partner[c.a.index()] = Some((c.b, c.relation));
                }
                if self.partner[c.b.index()].is_none() {
                    self.partner[c.b.index()] = Some((c.a, c.relation));
                }
            }
        }
    }

    /// Sets gate `g`'s J-flag to `now`, a change, and moves the candidate
    /// counters with it.
    #[inline]
    fn set_jflag(&mut self, g: usize, a: Lit, b: Lit, now: bool) {
        self.jnode_flag[g] = now;
        if now {
            self.unjustified_total += 1;
            for lit in [a, b] {
                self.cand_count[lit.node().index()] += 1;
            }
        } else {
            self.unjustified_total -= 1;
            for lit in [a, b] {
                self.cand_count[lit.node().index()] -= 1;
            }
        }
    }

    /// Queues the unassigned fanins of a gate that just turned
    /// unjustified as decision candidates, `a` before `b`.
    #[inline]
    fn queue_free_fanins(&mut self, ctx: &SearchContext<Lit>, a: Lit, b: Lit) {
        for lit in [a, b] {
            let n = lit.node().index();
            if ctx.value(n) == UNDEF {
                self.jheap.insert(n as u32, ctx.activity());
            }
        }
    }
}

/// Builds the kernel context that matches [`CircuitState::new`]: one
/// variable per node, the constant node asserted as a level-0 fact, and —
/// in plain-VSIDS mode — every signal seeded into the decision heap.
fn new_context(aig: &Aig, options: &SolverOptions) -> SearchContext<Lit> {
    let n = aig.len();
    let mut ctx = SearchContext::new(
        n,
        options.search,
        !options.jnode_decisions,
        (aig.and_count() / 2).max(2000),
    );
    // The constant node is a level-0 fact.
    let constant = ctx.enqueue(!NodeId::FALSE.lit(), Reason::Axiom);
    debug_assert!(constant.is_ok());
    if !options.jnode_decisions {
        for node in 1..n {
            ctx.heap_insert(node);
        }
    }
    ctx
}

/// The circuit-specific backend: a borrow of the circuit paired with a
/// borrow of the [`CircuitState`], implementing [`Propagator`] for the
/// duration of one engine call. Constructed on the fly by [`Solver`].
#[derive(Debug)]
struct CircuitPropagator<'a> {
    aig: &'a Aig,
    state: &'a mut CircuitState,
}

impl CircuitPropagator<'_> {
    /// Applies the implication table to one gate, implying through
    /// [`Reason::External`] with the gate index as the explain token. A
    /// J-flag flip is logged against trail position `log` (see
    /// [`Self::refresh_gate_to`]).
    fn propagate_gate(
        &mut self,
        ctx: &mut SearchContext<Lit>,
        g: NodeId,
        log: u32,
    ) -> Result<(), Conflict<Lit>> {
        let (a, b) = match self.aig.node(g) {
            Node::And(a, b) => (a, b),
            _ => return Ok(()),
        };
        let vo = ctx.value(g.index());
        let va = ctx.lit_value(a);
        let vb = ctx.lit_value(b);
        let acts = implication::lookup(vo, va, vb);
        // Quiescent gate — the dominant case while streaming a fanout
        // list: nothing to imply, just keep the J-node status fresh. The
        // pin values are already in registers, so skip the re-reads a
        // full refresh would do.
        if acts.is_empty() {
            if self.state.jnode_decisions {
                let now = is_unjustified(vo, va, vb);
                self.refresh_gate_to(ctx, g, a, b, now, log);
            }
            return Ok(());
        }
        use crate::implication::Action;
        let mut result = Ok(());
        for action in acts.iter() {
            let lit = match action {
                Action::OutputFalse => !g.lit(),
                Action::OutputTrue => g.lit(),
                Action::AFalse => !a,
                Action::ATrue => a,
                Action::BFalse => !b,
                Action::BTrue => b,
            };
            if let Err(c) = ctx.enqueue(lit, Reason::External(g.index() as u32)) {
                result = Err(c);
                break;
            }
        }
        self.refresh_gate(ctx, g, a, b, log);
        result
    }

    /// Recomputes the J-node status of one gate and maintains the
    /// candidate counters and heap. Called whenever one of the gate's pins
    /// changes value.
    fn refresh_gate(&mut self, ctx: &SearchContext<Lit>, g: NodeId, a: Lit, b: Lit, log: u32) {
        if !self.state.jnode_decisions {
            return;
        }
        let now = is_unjustified(ctx.value(g.index()), ctx.lit_value(a), ctx.lit_value(b));
        self.refresh_gate_to(ctx, g, a, b, now, log);
    }

    /// [`Self::refresh_gate`] with the J-node status already computed from
    /// pin values the caller holds. A flip is recorded in the undo log
    /// under `log`, the trail position of the literal being propagated,
    /// unless `log` is [`UNLOGGED`].
    #[inline]
    fn refresh_gate_to(
        &mut self,
        ctx: &SearchContext<Lit>,
        g: NodeId,
        a: Lit,
        b: Lit,
        now: bool,
        log: u32,
    ) {
        if now == self.state.jnode_flag[g.index()] {
            return;
        }
        self.state.set_jflag(g.index(), a, b, now);
        if log != UNLOGGED {
            self.state.jlog.push((log, g.index() as u32));
        }
        if now {
            self.state.queue_free_fanins(ctx, a, b);
        }
    }

    /// Premise literals (negated, i.e. false) of a gate implication.
    fn gate_false_lits(&self, ctx: &SearchContext<Lit>, of: Lit, g: NodeId, out: &mut Vec<Lit>) {
        let (a, b) = match self.aig.node(g) {
            Node::And(a, b) => (a, b),
            _ => unreachable!("gate reason on a non-AND node"),
        };
        if of.node() == g {
            if of.is_complemented() {
                // Output implied 0 by a 0-fanin. Prefer one assigned before
                // the output (a genuine implication premise); fall back to
                // any 0-fanin when materializing a conflict clause.
                let out_pos = ctx.position(g.index());
                let pick = |l: Lit| -> bool { ctx.lit_value(l) == FALSE };
                let earlier =
                    |l: Lit| -> bool { pick(l) && ctx.position(l.node().index()) < out_pos };
                let chosen = if earlier(a) && earlier(b) {
                    if ctx.position(a.node().index()) <= ctx.position(b.node().index()) {
                        a
                    } else {
                        b
                    }
                } else if earlier(a) {
                    a
                } else if earlier(b) {
                    b
                } else if pick(a) {
                    a
                } else {
                    debug_assert!(pick(b), "no justifying fanin for output-0 implication");
                    b
                };
                out.push(chosen);
            } else {
                // Output implied 1 by both fanins being 1.
                out.push(!a);
                out.push(!b);
            }
        } else {
            // A fanin was implied. Identify which edge.
            let fl = if a.node() == of.node() { a } else { b };
            let other = if a.node() == of.node() { b } else { a };
            debug_assert_eq!(fl.node(), of.node());
            if fl == of {
                // Fanin implied 1 because the output is 1.
                out.push(!g.lit());
            } else {
                // Fanin implied 0 because the output is 0 and the sibling 1.
                out.push(g.lit());
                out.push(!other);
            }
        }
    }

    fn lit_priority(&self, ctx: &SearchContext<Lit>, lit: Lit) -> u64 {
        ctx.activity()[lit.node().index()].to_bits()
    }

    fn push_clause_candidates(&mut self, ctx: &SearchContext<Lit>, cref: u32, lits: &[Lit]) {
        self.state.clause_queued[cref as usize] = true;
        let priority = self
            .lit_priority(ctx, lits[0])
            .max(self.lit_priority(ctx, lits[1]));
        self.state.clause_cands.push(ClauseCandidate {
            priority,
            lit: lits[0],
            cref,
        });
    }

    /// VSIDS among J-node inputs and learned-gate literals.
    fn pick_jnode_decision(&mut self, ctx: &mut SearchContext<Lit>) -> Option<Lit> {
        loop {
            // Highest-activity valid node candidate (a fanin of some
            // unjustified gate).
            let node = loop {
                match self.state.jheap.pop(ctx.activity()) {
                    None => break None,
                    Some(v) => {
                        if ctx.value(v as usize) == UNDEF && self.state.cand_count[v as usize] > 0 {
                            break Some(v);
                        }
                    }
                }
            };
            let node_priority = node
                .map(|v| ctx.activity()[v as usize].to_bits())
                .unwrap_or(0);
            // Learned-gate candidates compete under the same VSIDS order.
            while let Some(&top) = self.state.clause_cands.peek() {
                if node.is_some() && top.priority <= node_priority {
                    break;
                }
                self.state.clause_cands.pop();
                let ClauseCandidate { lit, cref, .. } = top;
                self.state.clause_queued[cref as usize] = false;
                if ctx.clause_is_deleted(cref) {
                    continue;
                }
                let lits = ctx.clause_lits(cref);
                let (w0, w1) = (lits[0], lits[1]);
                if ctx.lit_value(w0) == TRUE || ctx.lit_value(w1) == TRUE {
                    continue; // satisfied (at least through its watches)
                }
                let free = if ctx.lit_value(lit) == UNDEF {
                    lit
                } else if ctx.lit_value(w0) == UNDEF {
                    w0
                } else if ctx.lit_value(w1) == UNDEF {
                    w1
                } else {
                    continue;
                };
                // Satisfy the learned gate; put the node candidate back.
                if let Some(v) = node {
                    self.state.jheap.insert(v, ctx.activity());
                }
                return Some(self.apply_value_heuristic(free));
            }
            if let Some(v) = node {
                // Justify one of the unjustified gates this node feeds:
                // set the fanin edge to 0 (ATPG justification), unless a
                // constant correlation overrides the value.
                let n = NodeId::from_index(v as usize);
                let mut chosen: Option<Lit> = None;
                for &g in self.state.fanouts.of(n.index()) {
                    if self.state.jnode_flag[g.index()] {
                        if let Node::And(a, b) = self.aig.node(g) {
                            let fl = if a.node() == n { a } else { b };
                            chosen = Some(fl);
                            break;
                        }
                    }
                }
                match chosen {
                    Some(fl) => return Some(self.apply_value_heuristic(!fl)),
                    // Stale candidacy; keep looking.
                    None => continue,
                }
            }
            // No candidates at all: SAT if the counters agree; otherwise
            // repopulate from a full scan (safety net).
            if self.state.unjustified_total == 0 {
                return None;
            }
            match self.scan_for_unjustified(ctx) {
                Some(g) => {
                    if let Node::And(a, b) = self.aig.node(g) {
                        let fl = if ctx.lit_value(a) == UNDEF { a } else { b };
                        return Some(self.apply_value_heuristic(!fl));
                    }
                }
                None => return None,
            }
        }
    }

    /// Algorithm IV.1's constant-correlation value override: a signal
    /// correlated with 0 is assigned 1 (and vice versa) so the decision is
    /// the one most likely to cause a conflict.
    fn apply_value_heuristic(&self, lit: Lit) -> Lit {
        if !self.state.implicit_learning {
            return lit;
        }
        match self.state.const_rel[lit.node().index()] {
            // s ≈ 0: decide s = 1.
            Some(Relation::Equal) => Lit::new(lit.node(), false),
            // s ≈ 1: decide s = 0.
            Some(Relation::Opposite) => Lit::new(lit.node(), true),
            None => lit,
        }
    }

    fn scan_for_unjustified(&self, ctx: &SearchContext<Lit>) -> Option<NodeId> {
        for (i, node) in self.aig.nodes().iter().enumerate() {
            if let Node::And(a, b) = node {
                let vo = ctx.value(i);
                let va = ctx.lit_value(*a);
                let vb = ctx.lit_value(*b);
                if is_unjustified(vo, va, vb) {
                    return Some(NodeId::from_index(i));
                }
            }
        }
        None
    }

    /// The backtrack the undo log replaced, kept as the reference the
    /// unit tests check every backtrack against: re-evaluates the gate of
    /// every unassigned node and every gate in its fanout list, then
    /// re-exposes each unassigned node that still feeds an unjustified
    /// gate.
    #[cfg(test)]
    fn rescan_backtrack(&mut self, ctx: &SearchContext<Lit>, unassigned: &[Lit]) {
        if !self.state.jnode_decisions {
            return;
        }
        for &lit in unassigned {
            let node = lit.node();
            if let Node::And(a, b) = self.aig.node(node) {
                self.refresh_gate(ctx, node, a, b, UNLOGGED);
            }
            for i in self.state.fanouts.bounds(node.index()) {
                let g = self.state.fanouts.at(i);
                if let Node::And(a, b) = self.aig.node(g) {
                    self.refresh_gate(ctx, g, a, b, UNLOGGED);
                }
            }
            if self.state.cand_count[node.index()] > 0 {
                self.state.jheap.insert(node.index() as u32, ctx.activity());
            }
        }
    }
}

impl Propagator for CircuitPropagator<'_> {
    type Lit = Lit;

    fn propagate_literal(
        &mut self,
        ctx: &mut SearchContext<Lit>,
        p: Lit,
    ) -> Result<(), Conflict<Lit>> {
        let node = p.node();
        // J-flag flips above level 0 are logged against `p`'s trail
        // position, so a backtrack undoes exactly the ones past its target;
        // level-0 flips are never undone.
        let log = if ctx.decision_level() > 0 {
            ctx.position(node.index())
        } else {
            UNLOGGED
        };
        // The node itself, if it is an AND gate whose output changed.
        if self.aig.node(node).is_and() {
            self.propagate_gate(ctx, node, log)?;
        }
        // Gates this node feeds: one contiguous CSR stream. Warm the next
        // gate's node-table line while the current one propagates — the
        // gates of a fanout list are scattered across the node table.
        let range = self.state.fanouts.bounds(node.index());
        let end = range.end;
        for i in range {
            let g = self.state.fanouts.at(i);
            if i + 1 < end {
                let next = self.state.fanouts.at(i + 1);
                prefetch_read(&self.aig.nodes()[next.index()]);
            }
            self.propagate_gate(ctx, g, log)?;
        }
        Ok(())
    }

    fn explain(&self, ctx: &SearchContext<Lit>, of: Lit, token: u32, out: &mut Vec<Lit>) {
        self.gate_false_lits(ctx, of, NodeId::from_index(token as usize), out);
    }

    /// Chooses the next decision literal. Grouped implicit-learning
    /// decisions (Algorithm IV.1's first branch) take precedence; an entry
    /// is stale — and skipped — once its trigger lost the value that
    /// created it or the partner got assigned some other way.
    fn pick_decision(&mut self, ctx: &mut SearchContext<Lit>) -> Option<(Lit, bool)> {
        if self.state.implicit_learning {
            let now = ctx.decision_level();
            // FIFO: honor the grouping requests in the order BCP created
            // them (implication order), dropping entries from other levels.
            let queue = std::mem::take(&mut self.state.group_queue);
            let mut iter = queue.into_iter();
            for (level, trigger, tv, partner, target) in iter.by_ref() {
                if level != now {
                    continue;
                }
                let trigger_live = ctx.value(trigger.index()) == tv as u8;
                if trigger_live && ctx.value(partner.index()) == UNDEF {
                    // Keep the remaining same-level entries for the next
                    // decision.
                    self.state.group_queue = iter.filter(|&(l, ..)| l == now).collect();
                    return Some((Lit::new(partner, !target), true));
                }
            }
        }
        if self.state.jnode_decisions {
            self.pick_jnode_decision(ctx).map(|l| (l, false))
        } else {
            // Plain VSIDS over all signals (the paper's initial C-SAT).
            ctx.pop_heap_candidate()
                .map(|var| (self.apply_value_heuristic(ctx.decision_lit(var)), false))
        }
    }

    fn extract_model(&self, ctx: &SearchContext<Lit>) -> Vec<bool> {
        self.aig
            .inputs()
            .iter()
            .map(|&id| ctx.value(id.index()) == TRUE)
            .collect()
    }

    fn on_solve_start(&mut self, _ctx: &mut SearchContext<Lit>) {
        self.state.group_queue.clear();
    }

    /// Implicit learning: when a signal is assigned by *implication*
    /// (Algorithm IV.1: "just being assigned a value v by implication
    /// (BCP)"), queue its correlated partner as the next decision, with
    /// the conflict-prone value.
    fn on_implications(&mut self, ctx: &SearchContext<Lit>, from: usize) {
        if !self.state.implicit_learning {
            return;
        }
        let level = ctx.decision_level();
        for &lit in &ctx.trail()[from..] {
            let node = lit.node();
            if let Some((p, rel)) = self.state.partner[node.index()] {
                if ctx.value(p.index()) == UNDEF {
                    let value = !lit.is_complemented();
                    let target = match rel {
                        Relation::Equal => !value,
                        Relation::Opposite => value,
                    };
                    self.state.group_queue.push((level, node, value, p, target));
                }
            }
        }
    }

    /// Restores the J-frontier of the backtrack target from the undo log,
    /// in time proportional to the flips undone, then replays the J-heap
    /// insertions of a full rescan around `unassigned` in the rescan's
    /// order (DESIGN.md §5f has why both are exact).
    fn on_backtrack(&mut self, ctx: &SearchContext<Lit>, unassigned: &[Lit]) {
        if !self.state.jnode_decisions {
            return;
        }
        let target = ctx.trail().len() as u32;
        let state = &mut *self.state;
        let mut revived = std::mem::take(&mut state.revived);
        revived.clear();
        while let Some(&(pos, g)) = state.jlog.last() {
            if pos < target {
                break;
            }
            state.jlog.pop();
            let Node::And(a, b) = self.aig.node(NodeId::from_index(g as usize)) else {
                unreachable!("J-flags live on AND gates")
            };
            let now = !state.jnode_flag[g as usize];
            state.set_jflag(g as usize, a, b, now);
            if now {
                revived.push((pos, g));
            }
        }
        // A gate that turned unjustified and then justified again within
        // the undone stretch ends justified: only a lone justification
        // undone revives a gate. Its logged position is that of its
        // earliest fanin unassigned here — where a rescan would meet it.
        revived.retain(|&(_, g)| state.jnode_flag[g as usize]);
        revived.sort_unstable();
        let mut next = revived.iter().peekable();
        for (pos, lit) in (target..).zip(unassigned) {
            while let Some(&(_, g)) = next.next_if(|&&(p, _)| p == pos) {
                if let Node::And(a, b) = self.aig.node(NodeId::from_index(g as usize)) {
                    state.queue_free_fanins(ctx, a, b);
                }
            }
            let node = lit.node().index();
            if state.cand_count[node] > 0 {
                state.jheap.insert(node as u32, ctx.activity());
            }
        }
        state.revived = revived;
    }

    fn on_learned(&mut self, ctx: &SearchContext<Lit>, cref: u32) {
        debug_assert_eq!(self.state.clause_queued.len(), cref as usize);
        self.state.clause_queued.push(false);
        if self.state.jnode_decisions {
            // Learned gates are J-nodes (paper Section IV-A): make their
            // free literals decision candidates.
            let lits: [Lit; 2] = [ctx.clause_lits(cref)[0], ctx.clause_lits(cref)[1]];
            self.push_clause_candidates(ctx, cref, &lits);
        }
    }

    fn on_bump(&mut self, ctx: &SearchContext<Lit>, var: usize) {
        if self.state.jnode_decisions {
            self.state.jheap.update(var as u32, ctx.activity());
        }
    }
}

/// The circuit SAT solver.
///
/// A solver is constructed over one circuit and can be queried repeatedly;
/// learned clauses, VSIDS activities and saved phases persist across calls
/// (this is what makes the paper's incremental learn-from-conflict
/// strategy work). Between solves the caller may also
///
/// * grow the circuit with [`Solver::add_input`], [`Solver::add_and`] or
///   the general [`Solver::grow`] (the [`Aig`] is append-only, so any
///   construction through it is legal),
/// * manage scoped assumptions with [`Solver::push`], [`Solver::assume`]
///   and [`Solver::pop`],
/// * ingest implied clauses with [`Solver::add_learned_clause`].
///
/// [`Solver::new`] borrows the caller's circuit and copies nothing until
/// the first growth; [`Solver::owned`] takes a circuit by value.
///
/// # Example
///
/// ```
/// use csat_core::{Budget, Solver, SolverOptions, SubVerdict, Verdict};
/// use csat_netlist::Aig;
/// use csat_telemetry::NoOpObserver;
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let y = aig.and(a, !b);
/// aig.set_output("y", y);
/// let mut solver = Solver::new(&aig, SolverOptions::default());
/// assert_eq!(solver.solve(y), Verdict::Sat(vec![true, false]));
///
/// // Grow the instance (this copies the borrowed circuit once) and solve
/// // again: y && b can never be 1.
/// let z = solver.add_and(y, b);
/// assert!(solver.solve(z).is_unsat());
///
/// // Scoped assumptions constrain every solve until popped.
/// solver.push();
/// solver.assume(!y);
/// assert!(matches!(
///     solver.solve_under(&[a], &Budget::UNLIMITED, &mut NoOpObserver),
///     SubVerdict::Sat(_)
/// ));
/// assert_eq!(solver.value(b), Some(true));
/// solver.pop();
/// ```
#[derive(Clone, Debug)]
pub struct Solver<'a> {
    options: SolverOptions,
    aig: Cow<'a, Aig>,
    ctx: SearchContext<Lit>,
    state: CircuitState,
    scopes: Scopes<Lit>,
    /// Number of AIG nodes already covered by the fanout CSR; nodes from
    /// here on are committed at the next solve.
    csr_nodes: usize,
}

impl<'a> Solver<'a> {
    /// Builds a solver over the given circuit, borrowing it.
    pub fn new(aig: &'a Aig, options: SolverOptions) -> Solver<'a> {
        Solver::build(Cow::Borrowed(aig), options)
    }

    /// Builds a solver that owns `aig` (which may be empty and grown
    /// later).
    pub fn owned(aig: Aig, options: SolverOptions) -> Solver<'static> {
        Solver::build(Cow::Owned(aig), options)
    }

    fn build(aig: Cow<'a, Aig>, options: SolverOptions) -> Solver<'a> {
        Solver {
            options,
            ctx: new_context(&aig, &options),
            state: CircuitState::new(&aig, &options),
            scopes: Scopes::default(),
            csr_nodes: aig.len(),
            aig,
        }
    }

    /// Replaces the solver with a fresh build over the same circuit — a
    /// borrowed circuit stays borrowed. Explicit learning recovers from a
    /// panicked sub-solve with this.
    pub(crate) fn rebuild(&mut self) {
        *self = Solver::build(std::mem::take(&mut self.aig), self.options);
    }

    /// The kernel context and the circuit propagator, borrowed side by
    /// side for one engine call.
    fn parts(&mut self) -> (&mut SearchContext<Lit>, CircuitPropagator<'_>) {
        let prop = CircuitPropagator {
            aig: &self.aig,
            state: &mut self.state,
        };
        (&mut self.ctx, prop)
    }

    /// Installs signal correlations for implicit learning.
    ///
    /// Pair correlations become decision-grouping partners; correlations
    /// against the constant drive the value selection of Algorithm IV.1.
    /// Has no observable effect unless
    /// [`SolverOptions::implicit_learning`] is set. May be called
    /// repeatedly, e.g. after growing the circuit and re-simulating.
    pub fn set_correlations(&mut self, correlations: &CorrelationResult) {
        self.state.install_correlations(correlations);
    }

    /// The solver's statistics so far (cumulative across calls).
    pub fn stats(&self) -> &Stats {
        self.ctx.stats()
    }

    /// The circuit in its current (possibly grown) form.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// The options this solver was built with.
    pub fn options(&self) -> SolverOptions {
        self.options
    }

    /// Number of learned clauses currently alive.
    pub fn learned_count(&self) -> u64 {
        self.ctx.learned_count()
    }

    /// Estimated bytes held by the learned-clause arena — the quantity
    /// bounded by [`Budget::max_memory_bytes`].
    pub fn learned_memory_bytes(&self) -> u64 {
        self.ctx.learned_memory_bytes()
    }

    /// `(glue, deleted)` for every learned clause ever attached, in
    /// allocation order (ingested clauses carry `u32::MAX` glue). A
    /// diagnostic surface for auditing DB-reduction policy.
    pub fn learned_clause_glues(&self) -> Vec<(u32, bool)> {
        (0..self.ctx.num_clause_refs())
            .map(|c| (self.ctx.clause_glue(c), self.ctx.clause_is_deleted(c)))
            .collect()
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

    /// Up to `k` of the hottest currently-unassigned variables (node
    /// indices) by VSIDS activity, hottest first — cube-and-conquer split
    /// candidates.
    pub fn top_active_vars(&self, k: usize) -> Vec<usize> {
        self.ctx.top_active_vars(k)
    }

    /// True while learned clauses are being recorded for proof checking.
    pub fn proof_active(&self) -> bool {
        self.ctx.proof_active()
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

    /// Adds a clause known to be implied by the circuit (used by explicit
    /// learning to record refuted sub-problems). The clause is *pinned*:
    /// database reduction never drops it, even under memory pressure.
    ///
    /// # Errors
    ///
    /// [`LitOutOfRange`] if any literal refers to a node outside the
    /// circuit; the solver is left unchanged.
    pub fn add_learned_clause(&mut self, lits: Vec<Lit>) -> Result<(), LitOutOfRange> {
        let (ctx, mut prop) = self.parts();
        ingest_clause(ctx, &mut prop, lits)
    }

    /// Creates a fresh primary input and returns its positive literal.
    pub fn add_input(&mut self) -> Lit {
        self.grow(|aig| aig.input())
    }

    /// AND of two existing signals, with the [`Aig`]'s usual constant
    /// folding and structural hashing — so the returned literal may be an
    /// existing node (even a constant) rather than a new gate.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` refers to a node outside the circuit.
    pub fn add_and(&mut self, a: Lit, b: Lit) -> Lit {
        let n = self.aig.len();
        assert!(
            a.node().index() < n && b.node().index() < n,
            "add_and literal outside the solver's circuit"
        );
        self.grow(|aig| aig.and(a, b))
    }

    /// Grows the circuit through an arbitrary construction closure —
    /// `or`/`xor`/`mux` trees, generator functions, whole imported
    /// miters. The [`Aig`] API is append-only, so any sequence of calls
    /// is a legal increment; the solver syncs its state to the new nodes
    /// afterwards.
    ///
    /// The first growth of a borrowed circuit copies it; the caller's
    /// [`Aig`] is never modified. Structure added here is committed to the
    /// propagation index at the next solve — a burst of additions pays for
    /// one fanout-CSR extension, not one per gate.
    pub fn grow<R>(&mut self, build: impl FnOnce(&mut Aig) -> R) -> R {
        self.reset();
        let out = build(self.aig.to_mut());
        let n = self.aig.len();
        while self.ctx.num_vars() < n {
            self.ctx.add_variable();
        }
        self.state.grow_to(n);
        out
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
    /// Panics if `lit` refers to a node outside the circuit.
    pub fn assume(&mut self, lit: Lit) {
        self.scopes.assume(lit, self.aig.len());
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
    /// the root, commits pending growth, deletes learned clauses satisfied
    /// at the root and reports the survivors as
    /// [`SolverEvent::ClausesRetained`].
    ///
    /// [`Solver::solve_under`] does none of this itself, so a one-shot
    /// solve — and explicit learning's sequence of sub-problems — keeps
    /// every learned clause exactly as the search left it.
    pub fn simplify<O: Observer + ?Sized>(&mut self, obs: &mut O) {
        self.reset();
        self.commit_structure();
        self.ctx.simplify_satisfied_at_root();
        obs.record(SolverEvent::ClausesRetained {
            clauses: self.ctx.learned_count(),
        });
    }

    /// Decides satisfiability of "`objective` can evaluate to 1".
    ///
    /// Thin wrapper over [`Solver::solve_under`] with an unlimited budget
    /// and no observer.
    pub fn solve(&mut self, objective: Lit) -> Verdict {
        self.solve_observed(objective, &Budget::UNLIMITED, &mut NoOpObserver)
    }

    /// Like [`Solver::solve`] under a resource budget, reporting search
    /// events to the given [`Observer`]. Thin wrapper over
    /// [`Solver::solve_under`] with the objective as the single extra
    /// assumption, collapsing the assumption-aware [`SubVerdict`] into a
    /// plain [`Verdict`].
    ///
    /// With the default [`NoOpObserver`] this monomorphizes to exactly the
    /// unobserved solve — no event is materialized, no allocation happens.
    pub fn solve_observed<O>(&mut self, objective: Lit, budget: &Budget, obs: &mut O) -> Verdict
    where
        O: Observer + ?Sized,
    {
        match self.solve_under(&[objective], budget, obs) {
            SubVerdict::Sat(model) => Verdict::Sat(model),
            SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_) => Verdict::Unsat,
            SubVerdict::Aborted(reason) => Verdict::Unknown(reason),
        }
    }

    /// Solves under the scoped assumptions plus `assumptions`, with a
    /// budget, reporting search events to the given [`Observer`].
    ///
    /// **This is the canonical entry point** — every other `solve*` method
    /// on this type is a documented thin wrapper around it. It is the
    /// engine behind the top-level query (the objective is just an
    /// assumption), the explicit-learning sub-problems (paper Section V)
    /// and SAT sweeping: learned clauses survive the call, and a refuted
    /// assumption set is reported as
    /// [`SubVerdict::UnsatUnderAssumptions`] carrying a failed-assumption
    /// core (IPASIR `failed()`), drawn from scoped and call-local
    /// assumptions alike, so the caller can record its negation. Scoped
    /// assumptions come first, outermost scope first; with none
    /// registered the call allocates nothing for them.
    ///
    /// Growth since the last solve is committed first; learned clauses are
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
        self.commit_structure();
        let assumptions = self.scopes.with(assumptions, self.aig.len());
        let mut prop = CircuitPropagator {
            aig: &self.aig,
            state: &mut self.state,
        };
        solve_under(&mut self.ctx, &mut prop, &assumptions, budget, obs).into()
    }

    /// Value of `lit` in the assignment left by the *last* solve.
    ///
    /// After a [`SubVerdict::Sat`] result the full satisfying assignment
    /// is still live (the engine returns without backtracking), so this
    /// reads the value of any signal — internal gates included, unlike
    /// the primary-input model the verdict carries. Returns `None` for
    /// unassigned signals, out-of-range literals, or once the assignment
    /// has been reset by a mutating call (`grow`, `add_learned_clause`,
    /// `simplify`, the next solve).
    pub fn value(&self, lit: Lit) -> Option<bool> {
        if lit.node().index() >= self.ctx.num_vars() {
            return None;
        }
        match self.ctx.lit_value(lit) {
            TRUE => Some(true),
            FALSE => Some(false),
            _ => None,
        }
    }

    /// Backtracks to the root level (undoes the live assignment of a SAT
    /// answer) so structure can be mutated or the trail replayed.
    fn reset(&mut self) {
        if self.ctx.decision_level() > 0 {
            let (ctx, mut prop) = self.parts();
            reset_to_root(ctx, &mut prop);
        }
    }

    /// Commits structure added since the last solve: extends the fanout
    /// CSR over the new gates and rewinds the propagation queue so the
    /// engine's initial root propagation replays the level-0 trail
    /// through them (a replayed enqueue of an already-true literal is a
    /// no-op; a contradiction becomes a root conflict).
    fn commit_structure(&mut self) {
        let n = self.aig.len();
        if self.csr_nodes < n {
            self.reset();
            self.state.fanouts.extend(&self.aig, self.csr_nodes);
            self.csr_nodes = n;
            self.ctx.rewind_propagation();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_telemetry::MetricsRecorder;
    use csat_types::Interrupt;

    fn unsat(v: &SubVerdict) -> bool {
        matches!(v, SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_))
    }

    /// One incremental solve: the housekeeping, then the search.
    fn solve_next(s: &mut Solver<'_>, extra: &[Lit], obs: &mut MetricsRecorder) -> SubVerdict {
        s.simplify(obs);
        s.solve_under(extra, &Budget::UNLIMITED, obs)
    }

    #[test]
    fn grows_and_solves_incrementally() {
        let mut s = Solver::owned(Aig::new(), SolverOptions::default());
        let mut obs = MetricsRecorder::default();
        let a = s.add_input();
        let b = s.add_input();
        let y = s.add_and(a, b);
        match solve_next(&mut s, &[y], &mut obs) {
            SubVerdict::Sat(model) => assert_eq!(model, vec![true, true]),
            other => panic!("{other:?}"),
        }
        // The satisfying assignment is live: read internal values.
        assert_eq!(s.value(y), Some(true));
        assert_eq!(s.value(!a), Some(false));

        // Grow: y && !a is a new gate that can never be 1.
        let z = s.add_and(y, !a);
        let v = solve_next(&mut s, &[z], &mut obs);
        assert!(unsat(&v), "{v:?}");
        // Folding still applies to trivial additions: no new node.
        assert_eq!(s.add_and(y, !y), Lit::FALSE);

        // A real new gate after the fold.
        let c = s.add_input();
        let w = s.grow(|aig| {
            let t = aig.and(y, c);
            aig.and(t, !b)
        });
        let v = solve_next(&mut s, &[w], &mut obs);
        assert!(unsat(&v), "w requires b and !b: {v:?}");
        let v = solve_next(&mut s, &[!w, c], &mut obs);
        assert!(matches!(v, SubVerdict::Sat(_)), "{v:?}");
    }

    #[test]
    fn growing_a_borrowed_circuit_copies_it() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let y = aig.and(a, b);
        aig.set_output("y", y);
        let (len, inputs, outputs) = (aig.len(), aig.inputs().to_vec(), aig.outputs().to_vec());

        let mut s = Solver::new(&aig, SolverOptions::default());
        assert!(s.solve(y).is_sat());
        let c = s.add_input();
        let (t, z) = s.grow(|g| {
            let t = g.and(y, c);
            (t, g.and(t, !a))
        });
        assert_eq!(s.aig().len(), len + 3, "the solver sees the grown circuit");
        assert!(s.solve(z).is_unsat(), "z needs a and !a");
        match s.solve(t) {
            Verdict::Sat(model) => assert_eq!(model, vec![true, true, true]),
            other => panic!("{other:?}"),
        }
        drop(s);
        assert_eq!(aig.len(), len);
        assert_eq!(aig.inputs(), inputs.as_slice());
        assert_eq!(aig.outputs(), outputs.as_slice());
    }

    #[test]
    #[should_panic(expected = "outside the solver's 3 variables")]
    fn out_of_range_extra_assumption_is_named() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let mut s = Solver::new(&aig, SolverOptions::default());
        let stale = NodeId::from_index(aig.len()).lit();
        s.solve_under(&[a, b, stale], &Budget::UNLIMITED, &mut NoOpObserver);
    }

    #[test]
    fn scoped_assumptions_constrain_and_release() {
        let mut s = Solver::owned(Aig::new(), SolverOptions::default());
        let a = s.add_input();
        let b = s.add_input();
        let y = s.add_and(a, b);

        let mut metrics = MetricsRecorder::default();
        s.push_observed(&mut metrics);
        s.assume(!y);
        assert_eq!((s.depth(), s.assumptions()), (1, &[!y][..]));
        let v = solve_next(&mut s, &[a, b], &mut metrics);
        assert!(unsat(&v), "{v:?}");
        // The failed core only mentions assumptions.
        if let SubVerdict::UnsatUnderAssumptions(core) = &v {
            for &l in core {
                assert!([!y, a, b].contains(&l), "core literal {l:?}");
            }
        }
        assert!(s.pop_observed(&mut metrics));
        assert!(!s.pop(), "no scope left to pop");
        let v = solve_next(&mut s, &[a, b], &mut metrics);
        assert!(matches!(v, SubVerdict::Sat(_)), "{v:?}");

        assert_eq!(metrics.session_pushes, 1);
        assert_eq!(metrics.session_pops, 1);
    }

    #[test]
    fn learned_clauses_are_retained_across_calls() {
        // A small miter-ish instance that actually causes conflicts.
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| aig.input()).collect();
        let f = aig.xor_many(&xs);
        let g = {
            // Same function, rebuilt in reverse order (strashing is
            // bypassed by association differences).
            let rev: Vec<Lit> = xs.iter().rev().copied().collect();
            aig.xor_many(&rev)
        };
        let miter = aig.xor(f, g);
        let mut s = Solver::new(&aig, SolverOptions::default());

        let v = solve_next(&mut s, &[miter], &mut MetricsRecorder::default());
        assert!(unsat(&v), "equivalent functions: {v:?}");
        let learned_after_first = s.stats().learnt_clauses;

        let mut metrics = MetricsRecorder::default();
        let v = solve_next(&mut s, &[!miter], &mut metrics);
        assert!(matches!(v, SubVerdict::Sat(_)), "{v:?}");
        // The second call started with the first call's clauses alive.
        assert_eq!(metrics.clauses_retained, learned_after_first);
    }

    #[test]
    fn grown_solver_matches_fresh_solver() {
        // Build incrementally; solve the same final circuit with a
        // fresh solver; verdicts must agree.
        let mut s = Solver::owned(Aig::new(), SolverOptions::default());
        let mut obs = MetricsRecorder::default();
        let a = s.add_input();
        let b = s.add_input();
        let c = s.add_input();
        let t1 = s.grow(|aig| {
            let ab = aig.and(a, b);
            aig.or(ab, c)
        });
        let v1 = solve_next(&mut s, &[t1], &mut obs);
        let t2 = s.grow(|aig| {
            let nc = aig.and(!c, t1);
            aig.and(nc, !a)
        });
        let v2 = solve_next(&mut s, &[t2], &mut obs);

        let final_aig = s.aig().clone();
        for (objective, grown) in [(t1, &v1), (t2, &v2)] {
            let mut fresh = Solver::new(&final_aig, SolverOptions::default());
            let fresh_v = fresh.solve_under(&[objective], &Budget::UNLIMITED, &mut NoOpObserver);
            match (grown, &fresh_v) {
                (SubVerdict::Sat(_), SubVerdict::Sat(_)) => {}
                (a, b) if unsat(a) && unsat(b) => {}
                (a, b) => panic!("grown {a:?} vs fresh {b:?}"),
            }
        }
    }

    /// The circuit propagator with every backtrack checked against the
    /// rescan the undo log replaced, run on a copy of the state from
    /// before the backtrack.
    struct RescanChecked<'a> {
        inner: CircuitPropagator<'a>,
        /// Backtracks checked.
        backtracks: u64,
        /// Backtracks that revived a gate (the replay queued fanins).
        revivals: u64,
    }

    impl<'a> RescanChecked<'a> {
        fn new(inner: CircuitPropagator<'a>) -> RescanChecked<'a> {
            RescanChecked {
                inner,
                backtracks: 0,
                revivals: 0,
            }
        }
    }

    impl Propagator for RescanChecked<'_> {
        type Lit = Lit;

        fn propagate_literal(
            &mut self,
            ctx: &mut SearchContext<Lit>,
            p: Lit,
        ) -> Result<(), Conflict<Lit>> {
            self.inner.propagate_literal(ctx, p)
        }

        fn explain(&self, ctx: &SearchContext<Lit>, of: Lit, token: u32, out: &mut Vec<Lit>) {
            self.inner.explain(ctx, of, token, out)
        }

        fn pick_decision(&mut self, ctx: &mut SearchContext<Lit>) -> Option<(Lit, bool)> {
            self.inner.pick_decision(ctx)
        }

        fn extract_model(&self, ctx: &SearchContext<Lit>) -> Vec<bool> {
            self.inner.extract_model(ctx)
        }

        fn on_solve_start(&mut self, ctx: &mut SearchContext<Lit>) {
            self.inner.on_solve_start(ctx)
        }

        fn on_implications(&mut self, ctx: &SearchContext<Lit>, from: usize) {
            self.inner.on_implications(ctx, from)
        }

        fn on_backtrack(&mut self, ctx: &SearchContext<Lit>, unassigned: &[Lit]) {
            let mut reference = self.inner.state.clone();
            CircuitPropagator {
                aig: self.inner.aig,
                state: &mut reference,
            }
            .rescan_backtrack(ctx, unassigned);
            self.inner.on_backtrack(ctx, unassigned);
            let got = &*self.inner.state;
            assert_eq!(got.jnode_flag, reference.jnode_flag, "J-flags");
            assert_eq!(got.cand_count, reference.cand_count, "candidate counts");
            assert_eq!(got.unjustified_total, reference.unjustified_total);
            assert_eq!(
                format!("{:?}", got.jheap),
                format!("{:?}", reference.jheap),
                "J-heap contents and layout"
            );
            self.backtracks += 1;
            self.revivals += u64::from(!got.revived.is_empty());
        }

        fn on_learned(&mut self, ctx: &SearchContext<Lit>, cref: u32) {
            self.inner.on_learned(ctx, cref)
        }

        fn on_bump(&mut self, ctx: &SearchContext<Lit>, var: usize) {
            self.inner.on_bump(ctx, var)
        }
    }

    /// [`Solver::solve_under`] through [`RescanChecked`]; adds the checked
    /// backtracks and revivals to `counts`.
    fn checked_solve(
        s: &mut Solver<'_>,
        assumptions: &[Lit],
        budget: &Budget,
        counts: &mut (u64, u64),
    ) -> SubVerdict {
        s.commit_structure();
        let assumptions = s.scopes.with(assumptions, s.aig.len());
        let mut prop = RescanChecked::new(CircuitPropagator {
            aig: &s.aig,
            state: &mut s.state,
        });
        let verdict = solve_under(
            &mut s.ctx,
            &mut prop,
            &assumptions,
            budget,
            &mut NoOpObserver,
        );
        counts.0 += prop.backtracks;
        counts.1 += prop.revivals;
        verdict.into()
    }

    /// [`Solver::add_learned_clause`] through [`RescanChecked`].
    fn checked_ingest(s: &mut Solver<'_>, clause: Vec<Lit>) {
        let (ctx, inner) = s.parts();
        let added = ingest_clause(ctx, &mut RescanChecked::new(inner), clause);
        assert!(added.is_ok());
    }

    #[test]
    fn undo_log_matches_the_rescan_on_random_solves() {
        use csat_netlist::generators;
        use csat_netlist::miter;
        use csat_sim::{find_correlations, SimulationOptions};
        use csat_types::RestartPolicy;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut instances: Vec<(Aig, Lit)> = (0..8u64)
            .map(|seed| {
                let g = generators::random_logic(seed, 10, 200, 2);
                let objective = g.outputs()[0].1;
                (g, objective)
            })
            .collect();
        for m in [
            miter::self_miter(&generators::ripple_carry_adder(5), Default::default()),
            miter::self_miter(&generators::array_multiplier(4), Default::default()),
            miter::build(
                &generators::ripple_carry_adder(5),
                &generators::carry_lookahead_adder(5),
                Default::default(),
            ),
        ] {
            instances.push((m.aig, m.objective));
        }
        let sim = SimulationOptions {
            words: 2,
            threads: 1,
            ..SimulationOptions::default()
        };
        let mut counts = (0u64, 0u64);
        let (mut restarts, mut reductions) = (0u64, 0u64);
        for (k, &(ref aig, objective)) in instances.iter().enumerate() {
            for implicit in [false, true] {
                let mut options = SolverOptions {
                    implicit_learning: implicit,
                    ..SolverOptions::default()
                };
                if k % 2 == 1 {
                    options.search.restart = RestartPolicy::Luby { unit: 4 };
                }
                let mut s = Solver::new(aig, options);
                let correlations = find_correlations(aig, &sim);
                s.set_correlations(&correlations);
                // Explicit-learning-style sub-problems: assumption pairs
                // under a learned-gate budget, refuted cores ingested.
                let mut rng = StdRng::seed_from_u64(k as u64);
                let n = aig.len();
                for _ in 0..40 {
                    let lit = |rng: &mut StdRng| {
                        Lit::new(NodeId::from_index(rng.gen_range(1..n)), rng.gen_bool(0.5))
                    };
                    let pair = [lit(&mut rng), lit(&mut rng)];
                    let verdict = checked_solve(&mut s, &pair, &Budget::learned(10), &mut counts);
                    if let SubVerdict::UnsatUnderAssumptions(core) = verdict {
                        checked_ingest(&mut s, core.iter().map(|&l| !l).collect());
                    }
                }
                // Scoped assumptions, then the objective under a memory
                // bound that forces database reductions.
                s.push();
                s.assume(!objective);
                let _ = checked_solve(&mut s, &[], &Budget::conflicts(200), &mut counts);
                s.pop();
                let tight = Budget {
                    max_memory_bytes: Some(2_000),
                    max_conflicts: Some(3_000),
                    ..Budget::UNLIMITED
                };
                let _ = checked_solve(&mut s, &[objective], &tight, &mut counts);
                restarts += s.stats().restarts;
                reductions += s.stats().deleted_clauses;
            }
        }
        let (backtracks, revivals) = counts;
        assert!(backtracks > 2_000, "{backtracks} backtracks checked");
        assert!(revivals > 0, "no backtrack revived a gate");
        assert!(
            restarts > 0 && reductions > 0,
            "{restarts} restarts, {reductions} deleted"
        );
    }

    #[test]
    fn backtrack_revives_a_gate_whose_justifying_fanin_is_undone() {
        use csat_search::{backtrack, propagate};

        let mut aig = Aig::new();
        let x = aig.input();
        let y = aig.input();
        let g = aig.and(x, y);
        let mut s = Solver::new(&aig, SolverOptions::default());
        let (ctx, inner) = s.parts();
        let mut prop = RescanChecked::new(inner);
        assert!(propagate(ctx, &mut prop).is_none());
        // Level 1: g = 0 leaves g unjustified, both fanins candidates.
        ctx.push_decision_level();
        ctx.enqueue(!g, Reason::Decision).unwrap();
        assert!(propagate(ctx, &mut prop).is_none());
        let gate = g.node().index();
        assert!(prop.inner.state.jnode_flag[gate]);
        // Level 2: a decision takes the candidates off the heap and sets
        // x = 0, which justifies g.
        while prop.inner.state.jheap.pop(ctx.activity()).is_some() {}
        ctx.push_decision_level();
        ctx.enqueue(!x, Reason::Decision).unwrap();
        assert!(propagate(ctx, &mut prop).is_none());
        assert!(!prop.inner.state.jnode_flag[gate]);
        // Undoing x = 0 keeps g's 0 output: g is unjustified again and
        // both fanins are queued, x first (checked against the rescan).
        backtrack(ctx, &mut prop, 1);
        assert_eq!((prop.backtracks, prop.revivals), (1, 1));
        let state = &mut *prop.inner.state;
        assert!(state.jnode_flag[gate]);
        assert_eq!(state.unjustified_total, 1);
        assert_eq!(state.cand_count[x.node().index()], 1);
        let order: Vec<u32> = std::iter::from_fn(|| state.jheap.pop(ctx.activity())).collect();
        assert_eq!(
            order,
            [x.node().index() as u32, y.node().index() as u32],
            "fanins re-queued in the rescan's order"
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
                    && ctx.reason(lits[0].node().index()) == Reason::Learned(cref);
                lits.len() > 2 && !locked && lits.iter().any(|&l| ctx.lit_value(l) == TRUE)
            })
            .collect()
    }

    #[test]
    fn simplify_matches_the_full_scan_on_random_runs() {
        use csat_netlist::generators;
        use csat_netlist::miter;
        use csat_types::RestartPolicy;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut instances: Vec<(Aig, Lit)> = (0..6u64)
            .map(|seed| {
                let g = generators::random_logic(seed, 10, 200, 2);
                let objective = g.outputs()[0].1;
                (g, objective)
            })
            .collect();
        for m in [
            miter::self_miter(&generators::array_multiplier(4), Default::default()),
            miter::build(
                &generators::ripple_carry_adder(5),
                &generators::carry_lookahead_adder(5),
                Default::default(),
            ),
        ] {
            instances.push((m.aig, m.objective));
        }
        let tight = Budget {
            max_memory_bytes: Some(2_000),
            max_conflicts: Some(1_500),
            ..Budget::UNLIMITED
        };
        // (calls, calls after the root trail grew, calls that deleted)
        let mut checks = (0u64, 0u64, 0u64);
        let mut ingested = 0u64;
        for (k, &(ref aig, objective)) in instances.iter().enumerate() {
            let mut options = SolverOptions::default();
            if k % 2 == 1 {
                options.search.restart = RestartPolicy::Luby { unit: 4 };
            }
            let mut s = Solver::new(aig, options);
            let mut last_root = 0;
            let mut rng = StdRng::seed_from_u64(k as u64);
            let lit = |s: &Solver<'_>, rng: &mut StdRng| {
                let n = s.aig().len();
                Lit::new(NodeId::from_index(rng.gen_range(1..n)), rng.gen_bool(0.5))
            };
            for _ in 0..60 {
                // `simplify` checked against the full scan on a clone of
                // the root state it starts from.
                s.reset();
                s.commit_structure();
                let reference = s.ctx.clone();
                let victims = full_scan_victims(&reference);
                s.simplify(&mut NoOpObserver);
                let deleted: Vec<u32> = (0..reference.num_clause_refs())
                    .filter(|&c| s.ctx.clause_is_deleted(c) && !reference.clause_is_deleted(c))
                    .collect();
                assert_eq!(deleted, victims, "instance {k}: deleted clauses");
                let n = victims.len() as u64;
                let (got, then) = (s.ctx.stats(), reference.stats());
                assert_eq!(got.deleted_clauses, then.deleted_clauses + n);
                assert_eq!(got.learnt_clauses, then.learnt_clauses - n);
                checks.0 += 1;
                checks.1 += u64::from(reference.trail().len() > last_root);
                checks.2 += u64::from(n > 0);
                last_root = reference.trail().len();

                match rng.gen_range(0..10) {
                    // Growth: a gate over two existing signals.
                    0 | 1 => {
                        let (a, b) = (lit(&s, &mut rng), lit(&s, &mut rng));
                        s.add_and(a, b);
                    }
                    // The objective under a memory bound: database
                    // reductions, and with them arena compaction.
                    2 => {
                        let _ = s.solve_under(&[objective], &tight, &mut NoOpObserver);
                    }
                    // Scoped assumptions.
                    3 => {
                        s.push();
                        s.assume(lit(&s, &mut rng));
                        let _ = s.solve_under(&[], &Budget::conflicts(200), &mut NoOpObserver);
                        s.pop();
                    }
                    // Sweep-style checks; refuted cores are ingested, and
                    // a refuted single literal becomes a root unit.
                    _ => {
                        let pair = [lit(&s, &mut rng), lit(&s, &mut rng)];
                        let v = s.solve_under(&pair, &Budget::conflicts(300), &mut NoOpObserver);
                        if let SubVerdict::UnsatUnderAssumptions(core) = v {
                            ingested += 1;
                            let clause = core.iter().map(|&l| !l).collect();
                            assert!(s.add_learned_clause(clause).is_ok());
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

    #[test]
    fn budget_aborts_surface_after_growth() {
        // Budget checkpoints fire at decisions, so the instance must need
        // at least one: an XOR over three inputs branches before SAT.
        let mut s = Solver::owned(Aig::new(), SolverOptions::default());
        let y = s.grow(|aig| {
            let xs = aig.inputs_n(3);
            aig.xor_many(&xs)
        });
        let token = csat_types::CancelToken::new();
        token.cancel();
        let v = s.solve_under(
            &[y],
            &Budget::UNLIMITED.with_cancel(token),
            &mut NoOpObserver,
        );
        assert_eq!(v.interrupt(), Some(Interrupt::Cancelled));
    }
}
