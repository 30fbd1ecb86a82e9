//! The kernel's mutable search state.
//!
//! [`SearchContext`] owns everything a CDCL search shares across backends:
//! the trail and per-variable assignment records, values and activities,
//! the kernel decision heap, the learned-clause arena with its watch
//! lists, the restart schedule and the proof log. Backends hold a
//! `SearchContext` next to their [`Propagator`](crate::Propagator) and
//! drive both through the free functions of [`crate::engine`].
//!
//! # Memory layout (see `DESIGN.md` §5g)
//!
//! The hot propagation/analysis paths are laid out for cache behavior
//! rather than convenience:
//!
//! * **Flat clause arena.** Learned-clause literals live in one contiguous
//!   `Vec<L>` (`arena`); per-clause metadata lives in a parallel
//!   [`ClauseHeader`] table indexed by the 32-bit clause ref. A `cref` is
//!   the header ordinal (not a byte offset), so refs stay stable across
//!   arena compaction and backends can index side tables by `cref`.
//! * **Inline blockers + binary tag.** A [`Watcher`] is 8 bytes: a tagged
//!   `cref` and a blocker literal. Bit 31 of the cref marks a binary
//!   clause, whose blocker *is* the other literal — binary propagation
//!   never touches clause memory at all.
//! * **Packed assignment records.** Level, trail position and reason of
//!   each assigned variable share one 12-byte [`AssignInfo`] (the reason
//!   packed into 2 tag + 30 payload bits), so conflict analysis pulls all
//!   three with one cache line fill. The ternary `values` array stays a
//!   separate byte vector — BCP reads values alone, and a byte per
//!   variable keeps eight variables per 8 bytes of cache.
//! * **Epoch stamps, reusable scratch.** The analysis `seen` set is a
//!   stamp vector cleared by bumping an epoch counter, and every
//!   analyze/minimize scratch vector is owned here and reused, so a
//!   steady-state conflict performs no heap allocation.

use std::fmt;

use csat_types::{SearchOptions, SearchStats};

use crate::heap::ActivityHeap;
use crate::restart::RestartState;

/// Ternary value: false.
pub const FALSE: u8 = 0;
/// Ternary value: true.
pub const TRUE: u8 = 1;
/// Ternary value: unassigned.
pub const UNDEF: u8 = 2;

/// A literal usable by the kernel: a dense variable index plus a sign.
///
/// Implemented for `csat_netlist::Lit` (circuit literals over nodes) and
/// `csat_netlist::cnf::Lit` (CNF literals over variables); both already
/// encode as `var << 1 | sign`.
pub trait SearchLit: Copy + Eq + Ord + fmt::Debug + std::ops::Not<Output = Self> + 'static {
    /// Builds a literal from a variable index and a sign.
    fn from_parts(var: usize, negated: bool) -> Self;
    /// The variable index.
    fn var_index(self) -> usize;
    /// True for a negated (complemented) literal.
    fn is_negated(self) -> bool;
    /// Dense `var << 1 | sign` code (watch-list index).
    #[inline]
    fn code(self) -> usize {
        self.var_index() << 1 | self.is_negated() as usize
    }
}

impl SearchLit for csat_netlist::Lit {
    #[inline]
    fn from_parts(var: usize, negated: bool) -> Self {
        csat_netlist::Lit::new(csat_netlist::NodeId::from_index(var), negated)
    }

    #[inline]
    fn var_index(self) -> usize {
        self.node().index()
    }

    #[inline]
    fn is_negated(self) -> bool {
        self.is_complemented()
    }
}

impl SearchLit for csat_netlist::cnf::Lit {
    #[inline]
    fn from_parts(var: usize, negated: bool) -> Self {
        csat_netlist::cnf::Lit::new(csat_netlist::cnf::Var(var as u32), negated)
    }

    #[inline]
    fn var_index(self) -> usize {
        self.var().index()
    }

    #[inline]
    fn is_negated(self) -> bool {
        self.is_negative()
    }
}

/// Why a variable holds its current value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// A decision (or an assumption).
    Decision,
    /// A level-0 fact (constant nodes, learned units, ingested units).
    Axiom,
    /// Implied by the learned clause with this kernel arena index.
    Learned(u32),
    /// Implied by the propagator; the token is backend-defined (a gate
    /// index for the circuit backend, a problem-clause index for CNF) and
    /// handed back to [`Propagator::explain`](crate::Propagator::explain).
    External(u32),
}

/// [`Reason`] packed into 32 bits: 2 tag bits + 30 payload bits. Cref and
/// external tokens are bounded far below 2^30 in practice (a billion live
/// headers would exhaust memory long before the tag bits), and the pack
/// asserts it in debug builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PackedReason(u32);

const REASON_TAG_SHIFT: u32 = 30;
const REASON_PAYLOAD_MASK: u32 = (1 << REASON_TAG_SHIFT) - 1;
const TAG_DECISION: u32 = 0;
const TAG_AXIOM: u32 = 1;
const TAG_LEARNED: u32 = 2;
const TAG_EXTERNAL: u32 = 3;

impl PackedReason {
    pub(crate) const AXIOM: PackedReason = PackedReason(TAG_AXIOM << REASON_TAG_SHIFT);

    #[inline]
    pub(crate) fn pack(reason: Reason) -> PackedReason {
        let (tag, payload) = match reason {
            Reason::Decision => (TAG_DECISION, 0),
            Reason::Axiom => (TAG_AXIOM, 0),
            Reason::Learned(cref) => (TAG_LEARNED, cref),
            Reason::External(token) => (TAG_EXTERNAL, token),
        };
        debug_assert!(payload <= REASON_PAYLOAD_MASK);
        PackedReason(tag << REASON_TAG_SHIFT | payload)
    }

    #[inline]
    pub(crate) fn unpack(self) -> Reason {
        let payload = self.0 & REASON_PAYLOAD_MASK;
        match self.0 >> REASON_TAG_SHIFT {
            TAG_DECISION => Reason::Decision,
            TAG_AXIOM => Reason::Axiom,
            TAG_LEARNED => Reason::Learned(payload),
            _ => Reason::External(payload),
        }
    }
}

/// Per-variable assignment record: decision level, trail position and
/// packed reason in 12 bytes, so conflict analysis touches one cache line
/// where three separate arrays used to cost three.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AssignInfo {
    pub(crate) level: u32,
    pub(crate) pos: u32,
    pub(crate) reason: PackedReason,
}

impl AssignInfo {
    const UNASSIGNED: AssignInfo = AssignInfo {
        level: 0,
        pos: 0,
        reason: PackedReason::AXIOM,
    };
}

/// A failed implication: `lit` should be true per `reason`, but is false.
#[derive(Clone, Copy, Debug)]
pub struct Conflict<L> {
    /// The literal that could not be made true.
    pub lit: L,
    /// The reason that implied it.
    pub reason: Reason,
}

/// Error from clause ingest: a literal refers to a variable outside the
/// kernel's range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LitOutOfRange<L> {
    /// The offending literal.
    pub lit: L,
    /// Number of variables the kernel was built with.
    pub vars: usize,
}

impl<L: fmt::Debug> fmt::Display for LitOutOfRange<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "literal {:?} refers past the {}-variable search space",
            self.lit, self.vars
        )
    }
}

impl<L: fmt::Debug> std::error::Error for LitOutOfRange<L> {}

const FLAG_DELETED: u8 = 1;
const FLAG_PINNED: u8 = 2;

/// Metadata of one arena clause. Literal storage lives in
/// `SearchContext::arena` at `start..start + len`; a clause ref is the
/// index into the header table (append-only, so refs are stable tombstones
/// after deletion and side tables indexed by cref never shift).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ClauseHeader {
    /// First literal's arena index.
    pub(crate) start: u32,
    /// Literal count (kept on deletion until compaction reclaims the
    /// storage).
    pub(crate) len: u32,
    /// Glue (LBD) at learn time; `u32::MAX` for ingested clauses. Kept for
    /// deleted clauses so reduction audits stay possible.
    pub(crate) glue: u32,
    /// [`FLAG_DELETED`] | [`FLAG_PINNED`].
    pub(crate) flags: u8,
    /// Reduction activity (recency bump value or use count).
    pub(crate) activity: f64,
}

impl ClauseHeader {
    #[inline]
    pub(crate) fn is_deleted(self) -> bool {
        self.flags & FLAG_DELETED != 0
    }

    #[inline]
    pub(crate) fn is_pinned(self) -> bool {
        self.flags & FLAG_PINNED != 0
    }
}

/// Watch-list entry, 8 bytes: a tagged clause ref plus a *blocker* — some
/// other literal of the clause, updated opportunistically. When the
/// blocker is already true the clause is satisfied, so propagation can
/// skip it without dereferencing the clause at all (the MiniSat
/// blocking-literal optimization). Bit 31 of `tagged_cref` marks a binary
/// clause: its blocker is exactly the other literal, so binary
/// propagation resolves entirely from the watcher.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watcher<L> {
    pub(crate) tagged_cref: u32,
    pub(crate) blocker: L,
}

/// Binary-clause tag in [`Watcher::tagged_cref`]. Safe to fold into the
/// ref because binaries are never deleted (reduction only considers
/// clauses of length > 2) and never need a new-watch search.
pub(crate) const BINARY_FLAG: u32 = 1 << 31;
/// Mask recovering the plain clause ref from a tagged one.
pub(crate) const CREF_MASK: u32 = BINARY_FLAG - 1;

/// Estimated heap footprint of one learned clause: its header, its arena
/// literal storage and its two watch-list entries.
pub(crate) fn clause_footprint<L>(len: usize) -> u64 {
    (std::mem::size_of::<ClauseHeader>()
        + len * std::mem::size_of::<L>()
        + 2 * std::mem::size_of::<Watcher<L>>()) as u64
}

/// Arena-garbage floor below which compaction is not worth the copy.
const COMPACT_MIN_GARBAGE: usize = 4096;

/// The shared CDCL search state: trail, values, activities, the
/// learned-clause arena, the restart schedule and the proof log.
#[derive(Clone, Debug)]
pub struct SearchContext<L> {
    pub(crate) options: SearchOptions,
    pub(crate) n_vars: usize,
    /// Per-variable ternary value. Kept as a standalone byte array: BCP
    /// reads values and nothing else, so density here is worth more than
    /// struct locality.
    pub(crate) values: Vec<u8>,
    /// Per-variable level/position/reason records.
    pub(crate) assign: Vec<AssignInfo>,
    /// Saved phase per variable (only written under
    /// [`SearchOptions::phase_saving`]).
    pub(crate) phases: Vec<bool>,
    pub(crate) trail: Vec<L>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    /// Clause metadata, indexed by cref. Append-only: deletion tombstones
    /// the header in place.
    pub(crate) headers: Vec<ClauseHeader>,
    /// Flat literal storage for every arena clause, in cref order.
    pub(crate) arena: Vec<L>,
    /// Arena slots owned by deleted clauses, reclaimed by
    /// [`SearchContext::maybe_compact`].
    pub(crate) garbage_lits: usize,
    /// watches[l.code()]: learned clauses watching literal l.
    pub(crate) watches: Vec<Vec<Watcher<L>>>,
    pub(crate) activity: Vec<f64>,
    pub(crate) bump: f64,
    /// Kernel decision heap over all variables. Maintained only when
    /// `maintain_heap` is set (off in the circuit solver's J-node mode,
    /// which owns its candidate heaps).
    pub(crate) heap: ActivityHeap,
    pub(crate) maintain_heap: bool,
    /// Conflict-analysis `seen` set as epoch stamps: `stamp == seen_epoch`
    /// means seen this conflict; clearing the whole set is one counter
    /// bump, clearing one variable writes stamp 0 (epochs start at 1).
    pub(crate) seen_stamp: Vec<u64>,
    pub(crate) seen_epoch: u64,
    pub(crate) stats: SearchStats,
    pub(crate) root_conflict: bool,
    pub(crate) max_learnts: usize,
    /// Estimated bytes held by the learned-clause arena (headers, literal
    /// storage, watch entries) — the quantity the memory budget bounds.
    pub(crate) clauses_bytes: u64,
    /// Derivation-ordered log of learned clauses (proof logging).
    pub(crate) proof_log: Option<Vec<Vec<L>>>,
    pub(crate) restart: RestartState,
    /// Epoch-stamped scratch for glue (LBD) computation.
    pub(crate) level_stamp: Vec<u64>,
    pub(crate) level_epoch: u64,
    /// Reusable backtrack scratch (the unassigned suffix of the trail).
    pub(crate) backtrack_buf: Vec<L>,
    /// Conflict-analysis scratch: the clause being resolved.
    pub(crate) analyze_clause_buf: Vec<L>,
    /// Conflict-analysis scratch: the learnt clause under construction,
    /// and — after [`crate::engine`]'s analyze returns — the minimized
    /// result handed to learn.
    pub(crate) analyze_learnt_buf: Vec<L>,
    /// Conflict-analysis scratch: one reason clause's false literals.
    pub(crate) analyze_reason_buf: Vec<L>,
    /// Conflict-analysis scratch: minimization output.
    pub(crate) analyze_min_buf: Vec<L>,
    /// Clause export for parallel clause sharing: freshly learned clauses
    /// whose glue is at most `export_glue_cap` (and length at most
    /// `export_len_cap`) are copied here until a peer drains them with
    /// [`SearchContext::take_exported`]. A cap of 0 disables export
    /// entirely (the default), keeping the sequential hot path free of it.
    pub(crate) export_buf: Vec<(Vec<L>, u32)>,
    pub(crate) export_glue_cap: u32,
    pub(crate) export_len_cap: usize,
    /// Bound on `export_buf` so a fast learner cannot grow it without
    /// limit when its peers stop draining; overflow drops new exports.
    pub(crate) export_max: usize,
    /// Root-trail length and clause-ref count when
    /// [`SearchContext::simplify_satisfied_at_root`] last finished: with
    /// no root literal added since, only clauses from `simplified_refs` on
    /// can have become deletable.
    pub(crate) simplified_trail: usize,
    pub(crate) simplified_refs: u32,
}

impl<L: SearchLit> SearchContext<L> {
    /// Builds the search state for `n_vars` variables.
    ///
    /// `maintain_heap` selects whether the kernel keeps its own decision
    /// heap over all variables (used by
    /// [`SearchContext::pop_heap_candidate`]); a backend with its own
    /// candidate tracking (the circuit solver's J-node mode) turns it off.
    /// `max_learnts` is the initial routine database-reduction threshold.
    pub fn new(
        n_vars: usize,
        options: SearchOptions,
        maintain_heap: bool,
        max_learnts: usize,
    ) -> SearchContext<L> {
        SearchContext {
            options,
            n_vars,
            values: vec![UNDEF; n_vars],
            assign: vec![AssignInfo::UNASSIGNED; n_vars],
            phases: vec![false; n_vars],
            trail: Vec::with_capacity(n_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            headers: Vec::new(),
            arena: Vec::new(),
            garbage_lits: 0,
            watches: vec![Vec::new(); 2 * n_vars],
            activity: vec![0.0; n_vars],
            bump: 1.0,
            heap: ActivityHeap::with_capacity(n_vars),
            maintain_heap,
            seen_stamp: vec![0; n_vars],
            seen_epoch: 0,
            stats: SearchStats::default(),
            root_conflict: false,
            max_learnts,
            clauses_bytes: 0,
            proof_log: None,
            restart: RestartState::new(options.restart),
            level_stamp: vec![0; n_vars + 1],
            level_epoch: 0,
            backtrack_buf: Vec::new(),
            analyze_clause_buf: Vec::new(),
            analyze_learnt_buf: Vec::new(),
            analyze_reason_buf: Vec::new(),
            analyze_min_buf: Vec::new(),
            export_buf: Vec::new(),
            export_glue_cap: 0,
            export_len_cap: 0,
            export_max: 0,
            simplified_trail: 0,
            simplified_refs: 0,
        }
    }

    /// The search options the kernel was built with.
    pub fn options(&self) -> &SearchOptions {
        &self.options
    }

    /// Grows the search space by one fresh, unassigned variable and
    /// returns its index — the kernel half of adding a gate or CNF
    /// variable to a live incremental solver.
    ///
    /// Every per-variable table (values, assignment records, phases,
    /// activities, both watch lists, the analysis stamps and the decision
    /// heap) is extended in place; existing state — the trail, the learned
    /// arena, saved phases and VSIDS activities — is untouched, which is
    /// exactly what lets a solver retain its learning across growth.
    /// When the kernel maintains its own decision heap the new variable is
    /// queued immediately.
    ///
    /// Must be called at decision level 0 (solvers reset to root before
    /// mutating the instance).
    pub fn add_variable(&mut self) -> usize {
        debug_assert_eq!(self.decision_level(), 0, "grow only at the root level");
        let var = self.n_vars;
        self.n_vars += 1;
        self.values.push(UNDEF);
        self.assign.push(AssignInfo::UNASSIGNED);
        self.phases.push(false);
        self.activity.push(0.0);
        self.seen_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(self.n_vars);
        if self.maintain_heap {
            self.heap.insert(var as u32, &self.activity);
        }
        var
    }

    /// Rewinds the propagation queue to the start of the trail, so the
    /// next [`crate::propagate`] replays every standing assignment through
    /// the constraint set. Solvers call this after appending clauses or
    /// gates mid-life: replaying the level-0 trail through the new
    /// constraints either confirms them (enqueue of an already-true
    /// literal is a no-op), extends the root trail, or surfaces a root
    /// conflict — no watcher surgery needed.
    pub fn rewind_propagation(&mut self) {
        debug_assert_eq!(self.decision_level(), 0, "replay only at the root level");
        self.qhead = 0;
    }

    /// Deletes learned clauses that are satisfied by the root-level trail
    /// (a literal permanently true at level 0), returning how many were
    /// dropped. Pinned clauses (ingested cores), binaries (their watchers
    /// carry no deletion check by design) and locked clauses (the reason
    /// of a standing assignment) are kept. Must be called at decision
    /// level 0; incremental callers run it between solves so retained
    /// state does not accumulate dead weight.
    ///
    /// The cost is proportional to what changed since the last call: all
    /// clauses when the root trail has grown, otherwise only the clauses
    /// attached since. Skipping the rest is exact. A clause the last call
    /// kept was unsatisfied at the root or locked. Root literals are never
    /// undone, so with no new one an unsatisfied clause stays unsatisfied,
    /// and a reason clause keeps its root literal in slot 0, so a locked
    /// clause stays locked. Crefs survive compaction, so "attached since"
    /// is a cref range.
    pub fn simplify_satisfied_at_root(&mut self) -> u64 {
        debug_assert_eq!(self.decision_level(), 0, "simplify only at the root level");
        let first = if self.trail.len() > self.simplified_trail {
            0
        } else {
            self.simplified_refs
        };
        let mut dropped = 0u64;
        for cref in first..self.headers.len() as u32 {
            let h = self.headers[cref as usize];
            if h.is_deleted() || h.is_pinned() || h.len <= 2 {
                continue;
            }
            let lits = h.start as usize..(h.start + h.len) as usize;
            let first = self.arena[lits.start];
            let locked = self.lit_value(first) == TRUE
                && self.assign[first.var_index()].reason.unpack() == Reason::Learned(cref);
            if locked {
                continue;
            }
            let satisfied = self.arena[lits.clone()]
                .iter()
                .any(|&l| self.lit_value(l) == TRUE);
            if satisfied {
                self.delete_clause(cref);
                self.stats.deleted_clauses += 1;
                self.stats.learnt_clauses -= 1;
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.maybe_compact();
        }
        self.simplified_trail = self.trail.len();
        self.simplified_refs = self.headers.len() as u32;
        dropped
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// The current decision level.
    #[inline]
    pub fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// The ternary value of a variable.
    #[inline]
    pub fn value(&self, var: usize) -> u8 {
        self.values[var]
    }

    /// The ternary value of a literal.
    #[inline]
    pub fn lit_value(&self, lit: L) -> u8 {
        let v = self.values[lit.var_index()];
        if v == UNDEF {
            UNDEF
        } else {
            v ^ lit.is_negated() as u8
        }
    }

    /// The decision level at which a variable was assigned.
    #[inline]
    pub fn level(&self, var: usize) -> u32 {
        self.assign[var].level
    }

    /// The trail position at which a variable was assigned.
    #[inline]
    pub fn position(&self, var: usize) -> u32 {
        self.assign[var].pos
    }

    /// Why a variable holds its value.
    #[inline]
    pub fn reason(&self, var: usize) -> Reason {
        self.assign[var].reason.unpack()
    }

    /// The assignment trail (assignment order).
    pub fn trail(&self) -> &[L] {
        &self.trail
    }

    /// The per-variable VSIDS activities.
    pub fn activity(&self) -> &[f64] {
        &self.activity
    }

    /// Enables clause export for parallel clause sharing: every clause
    /// learned from now on with glue at most `glue_cap` and at most
    /// `len_cap` literals is copied into an internal buffer (bounded by
    /// `max_buffered`; overflow drops new exports) until drained with
    /// [`SearchContext::take_exported`]. Passing `glue_cap == 0` turns
    /// export back off and clears the buffer.
    pub fn set_clause_export(&mut self, glue_cap: u32, len_cap: usize, max_buffered: usize) {
        self.export_glue_cap = glue_cap;
        self.export_len_cap = len_cap;
        self.export_max = max_buffered;
        if glue_cap == 0 {
            self.export_buf = Vec::new();
        }
    }

    /// Drains the exported-clause buffer: `(literals, glue)` pairs in
    /// learn order. Empty unless [`SearchContext::set_clause_export`]
    /// enabled export.
    pub fn take_exported(&mut self) -> Vec<(Vec<L>, u32)> {
        std::mem::take(&mut self.export_buf)
    }

    /// Up to `k` of the hottest variables by VSIDS activity that are
    /// currently unassigned — the cube-and-conquer split candidates.
    /// Sorted hottest first.
    pub fn top_active_vars(&self, k: usize) -> Vec<usize> {
        let mut vars: Vec<usize> = (0..self.n_vars)
            .filter(|&v| self.values[v] == UNDEF)
            .collect();
        vars.sort_by(|&a, &b| {
            self.activity[b]
                .total_cmp(&self.activity[a])
                .then(a.cmp(&b))
        });
        vars.truncate(k);
        vars
    }

    /// Adds `amount` to a variable's activity without notifying any heap —
    /// for seeding initial activities (e.g. occurrence counts) before the
    /// heap is populated.
    pub fn seed_activity(&mut self, var: usize, amount: f64) {
        self.activity[var] += amount;
    }

    /// Inserts a variable into the kernel decision heap.
    pub fn heap_insert(&mut self, var: usize) {
        self.heap.insert(var as u32, &self.activity);
    }

    /// Pops the hottest unassigned variable off the kernel decision heap.
    pub fn pop_heap_candidate(&mut self) -> Option<usize> {
        while let Some(var) = self.heap.pop(&self.activity) {
            if self.values[var as usize] == UNDEF {
                return Some(var as usize);
            }
        }
        None
    }

    /// The decision literal for `var` under the phase policy: the saved
    /// phase when [`SearchOptions::phase_saving`] is on, constant false
    /// otherwise.
    pub fn decision_lit(&self, var: usize) -> L {
        L::from_parts(var, !self.phases[var])
    }

    /// Search statistics so far (cumulative across calls).
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Number of learned clauses currently alive.
    pub fn learned_count(&self) -> u64 {
        self.stats.learnt_clauses
    }

    /// Estimated bytes held by the learned-clause arena.
    pub fn learned_memory_bytes(&self) -> u64 {
        self.clauses_bytes
    }

    /// True once an unconditional contradiction was derived at level 0.
    pub fn has_root_conflict(&self) -> bool {
        self.root_conflict
    }

    /// Marks the instance contradictory at level 0 (used by backends when
    /// loading an empty clause).
    pub fn set_root_conflict(&mut self) {
        self.root_conflict = true;
    }

    /// True while learned clauses are being recorded for proof checking.
    pub fn proof_active(&self) -> bool {
        self.proof_log.is_some()
    }

    /// Starts recording learned clauses (RUP proof logging). Clears any
    /// previous log.
    pub fn start_proof(&mut self) {
        self.proof_log = Some(Vec::new());
    }

    /// Takes the recorded proof log and stops logging.
    pub fn take_proof(&mut self) -> Vec<Vec<L>> {
        self.proof_log.take().unwrap_or_default()
    }

    /// The literals of a learned clause (watched literals in the first two
    /// positions). Empty for deleted clauses.
    pub fn clause_lits(&self, cref: u32) -> &[L] {
        let h = self.headers[cref as usize];
        if h.is_deleted() {
            &[]
        } else {
            &self.arena[h.start as usize..(h.start + h.len) as usize]
        }
    }

    /// True when the learned clause was dropped by database reduction.
    pub fn clause_is_deleted(&self, cref: u32) -> bool {
        self.headers[cref as usize].is_deleted()
    }

    /// The glue (LBD) recorded when the clause was learned. Ingested
    /// (pinned) clauses carry `u32::MAX`. Valid for deleted clauses too —
    /// reduction tombstones keep their header, so tests can audit which
    /// glues a reduction pass dropped.
    pub fn clause_glue(&self, cref: u32) -> u32 {
        self.headers[cref as usize].glue
    }

    /// Total clause references ever allocated (live + tombstones);
    /// `0..num_clause_refs()` is the valid `cref` range.
    pub fn num_clause_refs(&self) -> u32 {
        self.headers.len() as u32
    }

    /// Makes `lit` true. Returns the conflict when it is already false; a
    /// no-op when it is already true.
    pub fn enqueue(&mut self, lit: L, reason: Reason) -> Result<(), Conflict<L>> {
        match self.lit_value(lit) {
            TRUE => Ok(()),
            FALSE => Err(Conflict { lit, reason }),
            _ => {
                let var = lit.var_index();
                let value = !lit.is_negated();
                self.values[var] = value as u8;
                self.assign[var] = AssignInfo {
                    level: self.decision_level(),
                    pos: self.trail.len() as u32,
                    reason: PackedReason::pack(reason),
                };
                if self.options.phase_saving {
                    self.phases[var] = value;
                }
                self.trail.push(lit);
                Ok(())
            }
        }
    }

    /// Opens a new decision level (call right before enqueueing the
    /// decision or assumption literal).
    pub fn push_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    pub(crate) fn rescale_activities(&mut self) {
        for a in &mut self.activity {
            *a *= 1e-100;
        }
        self.bump *= 1e-100;
        self.bump = self.bump.max(1e-100);
    }

    /// Glue (LBD) of a clause: distinct decision levels among its literals.
    pub(crate) fn compute_glue(&mut self, lits: &[L]) -> u32 {
        self.level_epoch += 1;
        let mut glue = 0;
        for &l in lits {
            let level = self.assign[l.var_index()].level as usize;
            // Decision levels are not bounded by the variable count:
            // duplicated already-true assumptions open empty levels, so the
            // stamp table must grow past its n_vars+1 initial size.
            if level >= self.level_stamp.len() {
                self.level_stamp.resize(level + 1, 0);
            }
            if self.level_stamp[level] != self.level_epoch {
                self.level_stamp[level] = self.level_epoch;
                glue += 1;
            }
        }
        glue
    }

    /// Copies a clause of >= 2 literals into the arena and attaches it to
    /// the watch lists of its first two literals.
    pub(crate) fn attach_clause(&mut self, lits: &[L], pinned: bool, glue: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        self.clauses_bytes += clause_footprint::<L>(lits.len());
        let cref = self.headers.len() as u32;
        let tag = if lits.len() == 2 { BINARY_FLAG } else { 0 };
        self.watches[lits[0].code()].push(Watcher {
            tagged_cref: cref | tag,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            tagged_cref: cref | tag,
            blocker: lits[0],
        });
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(lits);
        self.headers.push(ClauseHeader {
            start,
            len: lits.len() as u32,
            glue,
            flags: if pinned { FLAG_PINNED } else { 0 },
            activity: self.bump,
        });
        cref
    }

    /// Tombstones a clause: flags the header deleted and marks its arena
    /// range as garbage. The header (glue included) survives for audits;
    /// the literal storage is reclaimed by [`SearchContext::maybe_compact`].
    pub(crate) fn delete_clause(&mut self, cref: u32) {
        let h = &mut self.headers[cref as usize];
        debug_assert!(!h.is_deleted());
        h.flags |= FLAG_DELETED;
        self.clauses_bytes -= clause_footprint::<L>(h.len as usize);
        self.garbage_lits += h.len as usize;
    }

    /// Compacts the literal arena in place once deleted clauses own more
    /// than half of it. Headers are append-only and clauses are stored in
    /// cref order, so live ranges only ever move down (`copy_within`);
    /// crefs — and with them watch lists and backend side tables — are
    /// untouched.
    pub(crate) fn maybe_compact(&mut self) {
        if self.garbage_lits < COMPACT_MIN_GARBAGE || self.garbage_lits * 2 < self.arena.len() {
            return;
        }
        let mut dst = 0usize;
        for h in &mut self.headers {
            if h.is_deleted() {
                // Release the tombstone's range for good.
                h.start = 0;
                h.len = 0;
                continue;
            }
            let start = h.start as usize;
            let len = h.len as usize;
            debug_assert!(dst <= start);
            self.arena.copy_within(start..start + len, dst);
            h.start = dst as u32;
            dst += len;
        }
        self.arena.truncate(dst);
        self.garbage_lits = 0;
    }
}
