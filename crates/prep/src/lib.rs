//! Preprocessing pass pipeline (`csat-prep`).
//!
//! The paper's core machinery — batched random simulation proposing
//! candidate-equivalent signals, and a correlation-guided solver proving
//! them — can shrink an instance *before* search, not just steer it
//! during search. This crate promotes that idea to a first-class
//! [`PrepPipeline`] of composable passes run in a fixed order:
//!
//! 1. **Strash rebuild** — every gate is re-fed through the [`Aig::and`]
//!    constructor, so constant folding and structural hashing apply
//!    retroactively to netlists built with `and_fresh` (miters, parsed
//!    files).
//! 2. **Constant propagation + cone pruning** — logic outside the fanin
//!    cone of every preserved root (the registered outputs plus any
//!    caller-supplied objective literals) is dropped, including primary
//!    inputs that no root observes.
//! 3. **Simulation-guided candidate classes** — [`csat_sim`] proposes
//!    equivalence/anti-equivalence candidates, refined over random
//!    patterns and over counterexample patterns harvested from refuted
//!    candidates.
//! 4. **SAT sweeping** — candidates are proven on one incremental
//!    [`csat_core::Solver`] under a per-candidate conflict budget, unless
//!    the merges before them already make the pair one gate; every merge
//!    stays in the solver as two binary clauses. Proven-equivalent nodes
//!    are rewritten onto their representatives and the survivors
//!    re-strashed (a final dead-cone sweep included).
//!
//! [`PrepLevel::Light`] runs passes 1–2 only; [`PrepLevel::Full`] runs
//! all four. Every pass is function-preserving on the preserved roots, so
//! the pipeline may stop between passes (or between sweep candidates) at
//! any budget interrupt and still return a sound, usable netlist.
//!
//! The [`ReconstructionMap`] in the returned [`PrepResult`] lifts
//! verdicts back to the original netlist: UNSAT on the reduced AIG is
//! UNSAT on the original, and a reduced model extends to an original
//! model by assigning pruned (unobservable) inputs `false`.
//!
//! # Example
//!
//! ```
//! use csat_netlist::{generators, miter};
//! use csat_prep::{PrepLevel, PrepPipeline};
//!
//! let m = miter::self_miter(&generators::ripple_carry_adder(6), Default::default());
//! let prep = PrepPipeline::with_level(PrepLevel::Full);
//! let result = prep.run(&m.aig, &[m.objective]);
//! // Sweeping a self-miter proves the objective constant false.
//! assert!(result.map_lit(m.objective).unwrap().is_constant());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use csat_core::{Solver, SolverOptions};
use csat_netlist::{Aig, Lit, Node, NodeId};
use csat_sim::{find_correlations_observed, Relation, SimulationOptions};
use csat_telemetry::{NoOpObserver, Observer, SolverEvent};
use csat_types::{Budget, BudgetMeter, Interrupt, SubVerdict};

/// How much preprocessing to run in front of a solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PrepLevel {
    /// No preprocessing; the pipeline returns the input unchanged (with
    /// an identity [`ReconstructionMap`]).
    #[default]
    Off,
    /// Passes 1–2: strash/constant-fold rebuild plus cone pruning. Cheap
    /// (two linear rebuilds, no solving) and always worthwhile.
    Light,
    /// All four passes: light plus simulation-guided SAT sweeping.
    Full,
}

impl PrepLevel {
    /// Stable flag-value name (`off` / `light` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            PrepLevel::Off => "off",
            PrepLevel::Light => "light",
            PrepLevel::Full => "full",
        }
    }

    /// Parses a flag value produced by [`PrepLevel::name`].
    pub fn parse(s: &str) -> Option<PrepLevel> {
        match s {
            "off" => Some(PrepLevel::Off),
            "light" => Some(PrepLevel::Light),
            "full" => Some(PrepLevel::Full),
            _ => None,
        }
    }
}

/// Configuration for a [`PrepPipeline`].
#[derive(Clone, Debug)]
pub struct PrepOptions {
    /// How much of the pipeline to run.
    pub level: PrepLevel,
    /// Random-simulation settings for candidate discovery (pass 3).
    pub simulation: SimulationOptions,
    /// Conflict budget per candidate equivalence proof; candidates that
    /// exceed it stay unmerged (clamped to at least 1).
    pub proof_conflicts: u64,
    /// Solver options for the sweeping solver.
    pub solver: SolverOptions,
}

impl Default for PrepOptions {
    fn default() -> PrepOptions {
        PrepOptions {
            level: PrepLevel::Full,
            simulation: SimulationOptions::default(),
            proof_conflicts: 1000,
            solver: SolverOptions::with_implicit_learning(),
        }
    }
}

/// What the pipeline did, pass by pass.
#[derive(Clone, Debug, Default)]
pub struct PrepStats {
    /// Nodes (constant + inputs + gates) before any pass ran.
    pub nodes_before: usize,
    /// Nodes after the last pass that ran.
    pub nodes_after: usize,
    /// AND gates folded away by the strash rebuild (pass 1).
    pub strash_folded: usize,
    /// Nodes dropped by cone pruning, across passes 2 and 4.
    pub cones_pruned: usize,
    /// Equivalence candidates attempted by the sweep (pass 4).
    pub candidates: usize,
    /// Candidates proven and merged.
    pub merged: usize,
    /// Of `merged`, the merges made with no SAT call: the later node is an
    /// AND whose fanins, resolved through the merges before it, are its
    /// target's.
    pub structural: usize,
    /// Candidates refuted by a counterexample.
    pub refuted: usize,
    /// Candidates skipped: the per-candidate budget ran out, or a
    /// previously harvested counterexample already distinguished the pair.
    pub undecided: usize,
    /// Conflicts spent by the sweeping solver.
    pub sweep_conflicts: u64,
    /// Trail literals the sweeping solver propagated.
    pub sweep_propagations: u64,
    /// Decisions the sweeping solver made.
    pub sweep_decisions: u64,
    /// Passes completed (strash = 1, prune = 2, sim = 3, sweep = 4).
    pub passes: u32,
    /// Set when the outer budget interrupted the pipeline; the returned
    /// netlist is the last committed (still sound) state.
    pub interrupted: Option<Interrupt>,
}

/// Lifts literals and models between the original and reduced netlists.
///
/// Invariants (for every preserved root `r` and kept-input assignment
/// `x`): `original(r)(x, d) == reduced(map_lit(r))(x)` for **all** values
/// of the dropped inputs `d` — pruned inputs are outside every preserved
/// cone, so their value cannot matter. Hence UNSAT transfers directly,
/// and [`ReconstructionMap::lift_model`] (which fills dropped inputs with
/// `false`) turns any reduced model into an original one.
#[derive(Clone, Debug)]
pub struct ReconstructionMap {
    /// Original node index → literal over the reduced AIG (`None` when
    /// the node was pruned away and has no image).
    node_map: Vec<Option<Lit>>,
    /// Reduced input position → original input position.
    input_origin: Vec<usize>,
    /// Primary-input count of the original netlist.
    original_inputs: usize,
}

impl ReconstructionMap {
    /// The identity map over `aig` (what [`PrepLevel::Off`] produces).
    pub fn identity(aig: &Aig) -> ReconstructionMap {
        ReconstructionMap {
            node_map: (0..aig.len())
                .map(|i| Some(Lit::new(NodeId::from_index(i), false)))
                .collect(),
            input_origin: (0..aig.inputs().len()).collect(),
            original_inputs: aig.inputs().len(),
        }
    }

    /// The reduced-AIG literal computing the same function as `original`
    /// (a literal over the original netlist), or `None` if the node was
    /// pruned. Preserved roots always map to `Some`.
    pub fn map_lit(&self, original: Lit) -> Option<Lit> {
        self.node_map
            .get(original.node().index())
            .copied()
            .flatten()
            .map(|l| l.xor_complement(original.is_complemented()))
    }

    /// Extends a model over the reduced AIG's inputs to a model over the
    /// original inputs; dropped (unobservable) inputs read `false`.
    ///
    /// # Panics
    ///
    /// Panics if `reduced_model` does not cover the reduced input count.
    pub fn lift_model(&self, reduced_model: &[bool]) -> Vec<bool> {
        assert_eq!(
            reduced_model.len(),
            self.input_origin.len(),
            "model must cover every reduced input"
        );
        let mut model = vec![false; self.original_inputs];
        for (k, &pos) in self.input_origin.iter().enumerate() {
            model[pos] = reduced_model[k];
        }
        model
    }

    /// Primary-input count of the original netlist.
    pub fn original_inputs(&self) -> usize {
        self.original_inputs
    }

    /// Projects an original-input assignment onto the reduced inputs
    /// (the inverse direction of [`ReconstructionMap::lift_model`]).
    ///
    /// # Panics
    ///
    /// Panics if `original_model` does not cover the original inputs.
    pub fn project_inputs(&self, original_model: &[bool]) -> Vec<bool> {
        assert_eq!(
            original_model.len(),
            self.original_inputs,
            "assignment must cover every original input"
        );
        self.input_origin
            .iter()
            .map(|&p| original_model[p])
            .collect()
    }

    /// Composes this map with the next pass's per-node map and
    /// input-origin list (both over this map's *target* netlist).
    fn compose(&self, next_map: &[Option<Lit>], next_origin: &[usize]) -> ReconstructionMap {
        ReconstructionMap {
            node_map: self
                .node_map
                .iter()
                .map(|m| {
                    m.and_then(|l| {
                        next_map[l.node().index()].map(|nl| nl.xor_complement(l.is_complemented()))
                    })
                })
                .collect(),
            input_origin: next_origin.iter().map(|&k| self.input_origin[k]).collect(),
            original_inputs: self.original_inputs,
        }
    }
}

/// What a [`PrepPipeline`] run produced.
#[derive(Clone, Debug)]
pub struct PrepResult {
    /// The preprocessed netlist. Registered outputs of the input netlist
    /// are re-registered here under the same names (mapped through the
    /// reduction); caller-supplied extra roots are reachable via
    /// [`PrepResult::map_lit`].
    pub reduced: Aig,
    /// Lifts literals and models back to the original netlist.
    pub map: ReconstructionMap,
    /// Pass-by-pass statistics, including any budget interrupt.
    pub stats: PrepStats,
}

impl PrepResult {
    /// The reduced-AIG literal for an original-netlist literal; `None`
    /// when the node was pruned (never the case for preserved roots).
    pub fn map_lit(&self, original: Lit) -> Option<Lit> {
        self.map.map_lit(original)
    }

    /// Extends a reduced model to the original inputs (pruned inputs
    /// read `false`).
    pub fn lift_model(&self, reduced_model: &[bool]) -> Vec<bool> {
        self.map.lift_model(reduced_model)
    }

    /// True when the outer budget stopped the pipeline early.
    pub fn was_interrupted(&self) -> bool {
        self.stats.interrupted.is_some()
    }
}

/// The preprocessing pipeline: configure once, run on any netlist.
#[derive(Clone, Debug, Default)]
pub struct PrepPipeline {
    options: PrepOptions,
}

/// One structural rebuild's outcome: the new netlist, a per-node literal
/// map (source node → new literal, `None` = pruned), and the origin of
/// each new primary input (its input position in the source netlist).
struct PassOut {
    aig: Aig,
    map: Vec<Option<Lit>>,
    input_origin: Vec<usize>,
}

impl PrepPipeline {
    /// A pipeline with the given options.
    pub fn new(options: PrepOptions) -> PrepPipeline {
        PrepPipeline { options }
    }

    /// A default-configured pipeline at `level`.
    pub fn with_level(level: PrepLevel) -> PrepPipeline {
        PrepPipeline::new(PrepOptions {
            level,
            ..PrepOptions::default()
        })
    }

    /// The pipeline's configuration.
    pub fn options(&self) -> &PrepOptions {
        &self.options
    }

    /// Runs the pipeline with no budget and no observer.
    ///
    /// The preserved roots are the registered outputs of `aig` plus every
    /// literal in `extra_roots` (e.g. a solve objective that is not a
    /// registered output).
    pub fn run(&self, aig: &Aig, extra_roots: &[Lit]) -> PrepResult {
        self.run_under(aig, extra_roots, &Budget::UNLIMITED, &mut NoOpObserver)
    }

    /// Runs the pipeline under an outer budget, reporting progress events
    /// ([`SolverEvent::PrepPassCompleted`], [`SolverEvent::NodesMerged`],
    /// [`SolverEvent::ConesPruned`], plus the simulation's and sweep solver's
    /// own events) to `obs`.
    ///
    /// Budget semantics: the budget's cancel token, time, conflict and
    /// memory limits are all honored. The pipeline checks the budget
    /// between passes and between sweep candidates, and each candidate
    /// proof runs under a clone of the outer budget with the conflict
    /// limit tightened to [`PrepOptions::proof_conflicts`] — so a cancel
    /// or memory interrupt aborts mid-sweep within one candidate proof.
    /// On interrupt the pipeline stops and returns the last committed
    /// state (every pass and every individual merge is independently
    /// function-preserving), recording the reason in
    /// [`PrepStats::interrupted`].
    pub fn run_under<O: Observer + ?Sized>(
        &self,
        aig: &Aig,
        extra_roots: &[Lit],
        budget: &Budget,
        obs: &mut O,
    ) -> PrepResult {
        let mut stats = PrepStats {
            nodes_before: aig.len(),
            nodes_after: aig.len(),
            ..PrepStats::default()
        };
        if self.options.level == PrepLevel::Off {
            return PrepResult {
                reduced: aig.clone(),
                map: ReconstructionMap::identity(aig),
                stats,
            };
        }
        let mut meter = BudgetMeter::new(budget);
        let mut map = ReconstructionMap::identity(aig);
        let output_names: Vec<String> =
            aig.outputs().iter().map(|(name, _)| name.clone()).collect();
        let original_outputs: Vec<Lit> = aig.outputs().iter().map(|&(_, l)| l).collect();
        let roots: Vec<Lit> = original_outputs
            .iter()
            .copied()
            .chain(extra_roots.iter().copied())
            .collect();

        // Pass 1: strash/constant-fold rebuild (interface preserved).
        let p1 = strash_rebuild(aig);
        stats.strash_folded = aig.and_count() - p1.aig.and_count();
        stats.passes = 1;
        obs.record(SolverEvent::PrepPassCompleted {
            pass: 1,
            nodes: p1.aig.len() as u64,
        });
        let mut current = p1.aig;
        map = map.compose(&p1.map, &p1.input_origin);

        // Pass 2: constant propagation + cone pruning against the roots.
        let roots_now: Vec<Lit> = roots.iter().map(|&r| expect_root(&map, r)).collect();
        let p2 = rebuild(&current, &roots_now, &[]);
        let pruned = current.len() - p2.aig.len();
        stats.cones_pruned += pruned;
        stats.passes = 2;
        obs.record(SolverEvent::ConesPruned {
            nodes: pruned as u64,
        });
        obs.record(SolverEvent::PrepPassCompleted {
            pass: 2,
            nodes: p2.aig.len() as u64,
        });
        current = p2.aig;
        map = map.compose(&p2.map, &p2.input_origin);

        let interrupted = meter.checkpoint(0, 0, 0, 0);
        let run_sweep = self.options.level == PrepLevel::Full
            && interrupted.is_none()
            && current.and_count() > 0;
        if run_sweep {
            let roots_now: Vec<Lit> = roots.iter().map(|&r| expect_root(&map, r)).collect();
            let p4 = self.sweep(&current, &roots_now, budget, &mut meter, obs, &mut stats);
            if let Some(p4) = p4 {
                stats.cones_pruned += (current.len() - p4.aig.len()).saturating_sub(stats.merged);
                current = p4.aig;
                map = map.compose(&p4.map, &p4.input_origin);
            }
        } else {
            stats.interrupted = interrupted;
        }

        // Re-register the original outputs on the reduced netlist.
        for (name, &l) in output_names.iter().zip(&original_outputs) {
            current.set_output(name.clone(), expect_root(&map, l));
        }
        stats.nodes_after = current.len();
        PrepResult {
            reduced: current,
            map,
            stats,
        }
    }

    /// Passes 3–4: simulation-guided candidate discovery plus SAT-sweep
    /// verification on one incremental solver. Returns `None` when an
    /// interrupt fired before any merge was committed (the caller keeps
    /// the pass-2 netlist).
    fn sweep<O: Observer + ?Sized>(
        &self,
        aig: &Aig,
        roots: &[Lit],
        budget: &Budget,
        meter: &mut BudgetMeter,
        obs: &mut O,
        stats: &mut PrepStats,
    ) -> Option<PassOut> {
        // Pass 3: candidate classes from random simulation.
        let correlations = find_correlations_observed(aig, &self.options.simulation, &mut *obs);
        stats.passes = 3;
        obs.record(SolverEvent::PrepPassCompleted {
            pass: 3,
            nodes: aig.len() as u64,
        });
        let mut candidates = correlations.correlations.clone();
        candidates.sort_by_key(|c| c.a.index().max(c.b.index()));

        // Pass 4: prove candidates on one incremental solver, borrowing
        // the netlist.
        let mut solver = Solver::new(aig, self.options.solver);
        solver.set_correlations(&correlations);
        let per_candidate = budget_for_candidate(budget, self.options.proof_conflicts);
        let mut proven: Vec<Option<Lit>> = vec![None; aig.len()];
        // Node-value vectors of counterexample patterns harvested from
        // refuted candidates; they pre-filter later candidates the same
        // way additional random patterns would.
        let mut counterexamples: Vec<Vec<bool>> = Vec::new();
        for c in &candidates {
            let (later, earlier) = if c.a.index() >= c.b.index() {
                (c.a, c.b)
            } else {
                (c.b, c.a)
            };
            if proven[later.index()].is_some() {
                continue; // already merged into a representative
            }
            if let Some(reason) = meter.checkpoint(0, solver.stats().conflicts, 0, 0) {
                stats.interrupted = Some(reason);
                break;
            }
            stats.candidates += 1;
            let target = resolve(&proven, Lit::new(earlier, c.relation == Relation::Opposite));
            let l = later.lit();
            let outcome = if same_gate(aig, &proven, later, target) {
                stats.structural += 1;
                CandidateOutcome::Proven
            } else if counterexamples
                .iter()
                .any(|values| lit_of(values, l) != lit_of(values, target))
            {
                // Counterexample refinement: a pattern that already
                // distinguishes the pair refutes it without solving.
                CandidateOutcome::Undecided
            } else {
                // Prove l == target by refuting both difference orientations.
                let mut outcome = CandidateOutcome::Proven;
                for assumptions in [[l, !target], [!l, target]] {
                    solver.simplify(&mut *obs);
                    match solver.solve_under(&assumptions, &per_candidate, &mut *obs) {
                        SubVerdict::Sat(model) => {
                            counterexamples.push(aig.evaluate(&model));
                            outcome = CandidateOutcome::Refuted;
                            break;
                        }
                        SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_) => {}
                        SubVerdict::Aborted(reason) => {
                            outcome = match reason {
                                // The per-candidate proof budget: give up on
                                // this pair, keep sweeping.
                                Interrupt::Conflicts
                                | Interrupt::Decisions
                                | Interrupt::Learned => CandidateOutcome::Undecided,
                                // The outer budget (cancel, deadline, memory
                                // pressure): stop the whole sweep cleanly.
                                _ => CandidateOutcome::Interrupted(reason),
                            };
                            break;
                        }
                    }
                }
                outcome
            };
            match outcome {
                CandidateOutcome::Proven => {
                    proven[later.index()] = Some(target);
                    stats.merged += 1;
                    // Keep the merge, as explicit learning keeps a refuted
                    // core: later checks propagate through it instead of
                    // proving it again.
                    for clause in [vec![!l, target], vec![l, !target]] {
                        let kept = solver.add_learned_clause(clause);
                        debug_assert!(kept.is_ok(), "sweep literals are the solver's nodes");
                    }
                }
                CandidateOutcome::Refuted => stats.refuted += 1,
                CandidateOutcome::Undecided => stats.undecided += 1,
                CandidateOutcome::Interrupted(reason) => {
                    stats.interrupted = Some(reason);
                    break;
                }
            }
        }
        let sweep = solver.stats();
        stats.sweep_conflicts = sweep.conflicts;
        stats.sweep_propagations = sweep.propagations;
        stats.sweep_decisions = sweep.decisions;
        obs.record(SolverEvent::NodesMerged {
            nodes: stats.merged as u64,
        });
        if stats.merged == 0 && stats.interrupted.is_some() {
            return None; // nothing committed; keep the pass-2 netlist
        }
        // Rewrite onto representatives, re-strash, drop dead cones.
        let out = rebuild(aig, roots, &proven);
        stats.passes = 4;
        obs.record(SolverEvent::PrepPassCompleted {
            pass: 4,
            nodes: out.aig.len() as u64,
        });
        Some(out)
    }
}

enum CandidateOutcome {
    Proven,
    Refuted,
    Undecided,
    Interrupted(Interrupt),
}

/// A clone of the outer budget with the conflict limit tightened to the
/// per-candidate proof budget (the clone shares the outer cancel token,
/// deadline, memory limit and fault plan).
fn budget_for_candidate(outer: &Budget, proof_conflicts: u64) -> Budget {
    outer
        .clone()
        .with_conflict_limit(Some(proof_conflicts.max(1)))
}

/// Evaluates a literal against a node-value vector.
fn lit_of(values: &[bool], l: Lit) -> bool {
    values[l.node().index()] ^ l.is_complemented()
}

/// True when `later` is an AND whose fanins, resolved through the merges
/// so far, are the fanins of `target`, an uncomplemented AND: the two
/// compute the same function, and merging them needs no SAT call.
fn same_gate(aig: &Aig, proven: &[Option<Lit>], later: NodeId, target: Lit) -> bool {
    if target.is_complemented() {
        return false;
    }
    let (Node::And(a, b), Node::And(c, d)) = (aig.node(later), aig.node(target.node())) else {
        return false;
    };
    let (a, b) = (resolve(proven, a), resolve(proven, b));
    let (c, d) = (resolve(proven, c), resolve(proven, d));
    (a, b) == (c, d) || (a, b) == (d, c)
}

/// Follows proven-equivalence links to the final representative.
fn resolve(proven: &[Option<Lit>], mut lit: Lit) -> Lit {
    while let Some(rep) = proven[lit.node().index()] {
        lit = rep.xor_complement(lit.is_complemented());
    }
    lit
}

/// Maps a preserved root through the accumulated reconstruction map.
fn expect_root(map: &ReconstructionMap, root: Lit) -> Lit {
    map.map_lit(root)
        .expect("preserved roots always survive reduction")
}

/// Pass 1: re-feeds every gate through [`Aig::and`] so constant folding
/// and structural hashing apply. Keeps every primary input (in order) so
/// the interface is unchanged; dead gates survive (pass 2 removes them).
fn strash_rebuild(src: &Aig) -> PassOut {
    let mut out = Aig::new();
    let mut map: Vec<Option<Lit>> = Vec::with_capacity(src.len());
    for node in src.nodes() {
        let lit = match *node {
            Node::False => Lit::FALSE,
            Node::Input => out.input(),
            Node::And(a, b) => {
                let la = follow(&map, a);
                let lb = follow(&map, b);
                out.and(la, lb)
            }
        };
        map.push(Some(lit));
    }
    PassOut {
        aig: out,
        map,
        input_origin: (0..src.inputs().len()).collect(),
    }
}

/// Structural rebuild keeping only the fanin cones of `roots`, with each
/// node first substituted through `subst` (per-node replacement literal,
/// as produced by sweeping; pass `&[]` for none). Constants fold, gates
/// re-hash, and primary inputs outside every cone are dropped.
fn rebuild(src: &Aig, roots: &[Lit], subst: &[Option<Lit>]) -> PassOut {
    let n = src.len();
    // Resolve substitution chains once: rep[i] = the literal (over src)
    // node i stands for after all merges.
    let mut rep: Vec<Lit> = Vec::with_capacity(n);
    for i in 0..n {
        let lit = match subst.get(i).copied().flatten() {
            // Substitutions always point at earlier nodes, so rep[..i]
            // is complete when node i resolves through it.
            Some(s) => rep[s.node().index()].xor_complement(s.is_complemented()),
            None => Lit::new(NodeId::from_index(i), false),
        };
        rep.push(lit);
    }
    // Reachability over the substituted graph.
    let mut reach = vec![false; n];
    let mut stack: Vec<usize> = roots
        .iter()
        .map(|&r| rep[r.node().index()].node().index())
        .collect();
    while let Some(i) = stack.pop() {
        if reach[i] {
            continue;
        }
        reach[i] = true;
        if let Node::And(a, b) = src.node(NodeId::from_index(i)) {
            stack.push(rep[a.node().index()].node().index());
            stack.push(rep[b.node().index()].node().index());
        }
    }
    // Rebuild representatives in topological order.
    let mut out = Aig::new();
    let mut new_lit: Vec<Option<Lit>> = vec![None; n];
    new_lit[0] = Some(Lit::FALSE);
    let mut input_origin = Vec::new();
    let mut input_pos = 0usize;
    for (i, node) in src.nodes().iter().enumerate() {
        match *node {
            Node::False => {}
            Node::Input => {
                let pos = input_pos;
                input_pos += 1;
                if reach[i] {
                    new_lit[i] = Some(out.input());
                    input_origin.push(pos);
                }
            }
            Node::And(a, b) => {
                if !reach[i] || rep[i].node().index() != i {
                    continue; // dead, or merged into a representative
                }
                let la = follow_via(&rep, &new_lit, a);
                let lb = follow_via(&rep, &new_lit, b);
                new_lit[i] = Some(out.and(la, lb));
            }
        }
    }
    // Final per-node map: route through the representative.
    let map = (0..n)
        .map(|i| {
            let r = rep[i];
            new_lit[r.node().index()].map(|l| l.xor_complement(r.is_complemented()))
        })
        .collect();
    PassOut {
        aig: out,
        map,
        input_origin,
    }
}

/// Maps a fanin literal through an (always-`Some` prefix of a) node map.
fn follow(map: &[Option<Lit>], fanin: Lit) -> Lit {
    map[fanin.node().index()]
        .expect("fanins precede their gate in topological order")
        .xor_complement(fanin.is_complemented())
}

/// Maps a fanin literal through the substitution, then the node map.
fn follow_via(rep: &[Lit], new_lit: &[Option<Lit>], fanin: Lit) -> Lit {
    let r = rep[fanin.node().index()].xor_complement(fanin.is_complemented());
    new_lit[r.node().index()]
        .expect("reachable fanins precede their gate in topological order")
        .xor_complement(r.is_complemented())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_netlist::{generators, miter, optimize};
    use csat_types::CancelToken;

    /// Exhaustive equivalence of a root literal's function before/after,
    /// lifting reduced-input assignments through the map.
    fn root_equivalent(original: &Aig, result: &PrepResult, root: Lit) -> bool {
        let reduced_root = match result.map_lit(root) {
            Some(l) => l,
            None => return false,
        };
        let k = result.reduced.inputs().len();
        assert!(k <= 16, "exhaustive check needs a small reduced interface");
        for code in 0..1u64 << k {
            let bits: Vec<bool> = (0..k).map(|i| code >> i & 1 != 0).collect();
            let reduced_values = result.reduced.evaluate(&bits);
            let lifted = result.lift_model(&bits);
            let original_values = original.evaluate(&lifted);
            if original.lit_value(&original_values, root)
                != result.reduced.lit_value(&reduced_values, reduced_root)
            {
                return false;
            }
        }
        true
    }

    #[test]
    fn off_is_identity() {
        let g = generators::alu(3);
        let result = PrepPipeline::with_level(PrepLevel::Off).run(&g, &[]);
        assert_eq!(result.reduced.len(), g.len());
        assert_eq!(result.stats.passes, 0);
        for (name, l) in g.outputs() {
            assert_eq!(result.map_lit(*l), Some(*l), "{name}");
        }
        let model = vec![true; g.inputs().len()];
        assert_eq!(result.lift_model(&model), model);
    }

    #[test]
    fn light_folds_fresh_duplicates_and_prunes_dead_logic() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let dead = g.input();
        let x1 = g.and_fresh(a, b);
        let x2 = g.and_fresh(a, b); // structural duplicate
        let _ = g.and_fresh(dead, x1); // dead gate (not in any output cone)
        let y = g.and(x1, !x2); // constant false once x1 == x2
        g.set_output("y", y);
        let result = PrepPipeline::with_level(PrepLevel::Light).run(&g, &[]);
        assert!(result.stats.strash_folded >= 1);
        assert!(result.stats.cones_pruned >= 1);
        // y = x & !x folds to constant false; everything else is dead.
        assert_eq!(result.map_lit(y), Some(Lit::FALSE));
        assert_eq!(result.reduced.and_count(), 0);
        assert_eq!(result.reduced.inputs().len(), 0);
        // A reduced model (empty) lifts to the full original interface.
        assert_eq!(result.lift_model(&[]), vec![false; 3]);
    }

    #[test]
    fn full_collapses_self_miter_to_constant_false() {
        // A self-miter's fresh second copy re-hashes onto the first during
        // the strash rebuild, so the light passes alone collapse it.
        let circuit = generators::ripple_carry_adder(6);
        let m = miter::self_miter(&circuit, Default::default());
        let result = PrepPipeline::with_level(PrepLevel::Full).run(&m.aig, &[m.objective]);
        assert_eq!(result.map_lit(m.objective), Some(Lit::FALSE));
        assert!(
            result.reduced.len() < m.aig.len() / 2,
            "{} -> {}",
            m.aig.len(),
            result.reduced.len()
        );
    }

    #[test]
    fn full_sweeps_restructured_miter_to_constant_false() {
        // A restructured variant is not structurally identical, so the
        // collapse must come from proven sweep merges.
        let base = generators::random_logic(11, 6, 40, 2);
        let variant = optimize::restructure_seeded(&base, 0xBEEF);
        let m = miter::build_fresh(&base, &variant, Default::default());
        let result = PrepPipeline::with_level(PrepLevel::Full).run(&m.aig, &[m.objective]);
        assert!(result.stats.merged > 0);
        assert_eq!(result.map_lit(m.objective), Some(Lit::FALSE));
    }

    #[test]
    fn full_preserves_roots_on_restructured_pairs() {
        for seed in [3u64, 17, 40] {
            let base = generators::random_logic(seed, 8, 50, 3);
            let variant = optimize::restructure_seeded(&base, seed ^ 0xF00D);
            let m = miter::build_fresh(&base, &variant, Default::default());
            let result = PrepPipeline::with_level(PrepLevel::Full).run(&m.aig, &[m.objective]);
            assert!(root_equivalent(&m.aig, &result, m.objective), "seed {seed}");
        }
    }

    #[test]
    fn light_preserves_roots_and_outputs_on_random_logic() {
        for seed in [1u64, 9, 23, 77] {
            let g = generators::random_logic(seed, 8, 60, 4);
            let result = PrepPipeline::with_level(PrepLevel::Light).run(&g, &[]);
            for (name, l) in g.outputs() {
                assert!(
                    root_equivalent(&g, &result, *l),
                    "seed {seed} output {name}"
                );
            }
            // Re-registered outputs carry the original names in order.
            let names: Vec<&str> = result
                .reduced
                .outputs()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            let expected: Vec<&str> = g.outputs().iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, expected);
        }
    }

    #[test]
    fn pre_cancelled_budget_aborts_cleanly() {
        let circuit = generators::comparator(6);
        let m = miter::self_miter(&circuit, Default::default());
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::UNLIMITED.with_cancel(token);
        let pipeline = PrepPipeline::with_level(PrepLevel::Full);
        let result = pipeline.run_under(&m.aig, &[m.objective], &budget, &mut NoOpObserver);
        assert!(result.was_interrupted());
        assert_eq!(result.stats.interrupted, Some(Interrupt::Cancelled));
        // Light passes still ran and the result is sound.
        assert!(result.stats.passes >= 2);
        assert!(root_equivalent(&m.aig, &result, m.objective));
    }

    #[test]
    fn zero_proof_budget_is_safe() {
        let m = miter::self_miter(&generators::parity_tree(5), Default::default());
        let pipeline = PrepPipeline::new(PrepOptions {
            proof_conflicts: 0, // clamped to 1
            ..PrepOptions::default()
        });
        let result = pipeline.run(&m.aig, &[m.objective]);
        assert!(root_equivalent(&m.aig, &result, m.objective));
    }

    #[test]
    fn sweep_emits_telemetry_that_reconciles() {
        use csat_telemetry::MetricsRecorder;
        let base = generators::random_logic(5, 6, 40, 2);
        let variant = optimize::restructure_seeded(&base, 0xCAFE);
        let m = miter::build_fresh(&base, &variant, Default::default());
        let mut metrics = MetricsRecorder::default();
        let pipeline = PrepPipeline::with_level(PrepLevel::Full);
        let result = pipeline.run_under(&m.aig, &[m.objective], &Budget::UNLIMITED, &mut metrics);
        assert_eq!(metrics.prep_passes as u32, result.stats.passes);
        assert_eq!(metrics.nodes_merged as usize, result.stats.merged);
        assert!(metrics.cones_pruned > 0);
        assert!(metrics.sim_rounds > 0, "simulation events flow through");
    }

    /// Cancels a token at the sweep's `at`-th check (each check starts
    /// with a `simplify`, which reports `ClausesRetained`).
    struct CancelAtCheck {
        token: CancelToken,
        at: u32,
        checks: u32,
    }

    impl Observer for CancelAtCheck {
        fn record(&mut self, event: SolverEvent) {
            if let SolverEvent::ClausesRetained { .. } = event {
                self.checks += 1;
                if self.checks == self.at {
                    self.token.cancel();
                }
            }
        }
    }

    #[test]
    fn sweep_merges_what_earlier_merges_make_one_gate() {
        let base = generators::array_multiplier(6);
        let variant = optimize::restructure_seeded(&base, 0x5EED);
        let m = miter::build_fresh(&base, &variant, Default::default());
        let pipeline = PrepPipeline::with_level(PrepLevel::Full);
        let result = pipeline.run(&m.aig, &[m.objective]);
        let s = &result.stats;
        assert!(
            s.structural > 0 && s.structural < s.merged,
            "{} of {} merges structural",
            s.structural,
            s.merged
        );
        assert_eq!(result.map_lit(m.objective), Some(Lit::FALSE));
        assert_eq!(s.candidates, s.merged + s.refuted + s.undecided);

        // Cancelled partway, the sweep keeps the merges made so far.
        let token = CancelToken::new();
        let mut obs = CancelAtCheck {
            token: token.clone(),
            at: 20,
            checks: 0,
        };
        let budget = Budget::UNLIMITED.with_cancel(token);
        let cut = pipeline.run_under(&m.aig, &[m.objective], &budget, &mut obs);
        let c = &cut.stats;
        assert_eq!(c.interrupted, Some(Interrupt::Cancelled));
        assert!(0 < c.merged && c.merged < s.merged, "{} merged", c.merged);
        // Only the candidate whose proof the cancel cut has no outcome.
        assert!(c.candidates - (c.merged + c.refuted + c.undecided) <= 1);
        assert!(root_equivalent(&m.aig, &cut, m.objective));
    }

    #[test]
    fn level_names_round_trip() {
        for level in [PrepLevel::Off, PrepLevel::Light, PrepLevel::Full] {
            assert_eq!(PrepLevel::parse(level.name()), Some(level));
        }
        assert_eq!(PrepLevel::parse("turbo"), None);
    }

    #[test]
    fn stats_are_consistent() {
        let m = miter::self_miter(&generators::comparator(5), Default::default());
        let result = PrepPipeline::with_level(PrepLevel::Full).run(&m.aig, &[m.objective]);
        let s = &result.stats;
        assert_eq!(s.candidates, s.merged + s.refuted + s.undecided);
        assert_eq!(s.nodes_before, m.aig.len());
        assert_eq!(s.nodes_after, result.reduced.len());
    }
}
