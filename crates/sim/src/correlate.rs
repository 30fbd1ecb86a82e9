//! Signal-correlation discovery via equivalence-class refinement
//! (Algorithm III.1 of the paper, extended to all four correlation kinds).
//!
//! Every node starts in one class together with the constant 0. Each
//! simulation round refines the partition: two nodes stay in the same class
//! only if their pattern signatures are equal *up to complementation* — the
//! polarity normalization is what lets a single refinement discover both
//! `s_i = s_j` and `s_i ≠ s_j` (and, via the constant node's class, `s = 0`
//! and `s = 1`). Refinement stops after [`SimulationOptions::stall_rounds`]
//! consecutive rounds without a split (paper: four), and non-constant
//! classes larger than [`SimulationOptions::max_class_size`] (paper: three)
//! are discarded as artifacts of ineffective simulation rather than real
//! correlations.
//!
//! Rounds are batched: the [`SimEngine`] simulates
//! [`SimulationOptions::words`] u64 words per node per round, and
//! refinement runs allocation-free — an epoch-stamped open-addressed table
//! keyed on `(class, signature fingerprint)` replaces the per-round hash
//! map, and an `active` bitset (shrinking monotonically) skips nodes whose
//! class has collapsed to a singleton, since refinement only ever splits.
//! Candidate fingerprint matches are verified against the exact normalized
//! signature, so hashing can never change the discovered partition: with
//! `words = 1` the results are identical to the original single-word
//! engine, bit for bit.
//!
//! [`find_correlations_or_witness`] also watches one objective literal.
//! The first round in which a pattern drives it to 1 is the last: that
//! pattern's input values come back as [`CorrelationResult::witness`], a
//! satisfying assignment found before any solver exists. An objective no
//! pattern satisfies (every UNSAT miter) changes nothing, round for round.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use csat_netlist::{Aig, Lit, NodeId};
use csat_telemetry::{NoOpObserver, Observer, SolverEvent};

use crate::engine::{fingerprint, normalized_eq, SimEngine, SimStats};
use crate::parallel::seeded_rng;

/// How two correlated signals relate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// The signals agree on (almost) every input: `s_i = s_j`.
    Equal,
    /// The signals disagree on (almost) every input: `s_i ≠ s_j`.
    Opposite,
}

/// One discovered pair-wise correlation.
///
/// Constant correlations are phrased against the constant-0 node, exactly
/// as in the paper ("the pairs are defined over a signal and the constant
/// 0"): `Correlation { a: s, b: NodeId::FALSE, relation: Equal }` means
/// "`s = 0` with high probability".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Correlation {
    /// First signal. Always the topologically later of the two.
    pub a: NodeId,
    /// Second signal (possibly [`NodeId::FALSE`] for constant correlations).
    pub b: NodeId,
    /// Whether the signals agree or disagree.
    pub relation: Relation,
}

impl Correlation {
    /// True if this is a correlation against the constant 0.
    pub fn is_constant(&self) -> bool {
        self.b == NodeId::FALSE
    }
}

/// A maximal set of mutually correlated signals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivClass {
    /// Members in topological order.
    pub members: Vec<NodeId>,
    /// Polarity of each member relative to the first one (`false` = equal).
    pub phases: Vec<bool>,
    /// Whether the class contains the constant 0 (as its first member).
    pub contains_constant: bool,
}

/// Configuration for [`find_correlations`].
#[derive(Clone, Copy, Debug)]
pub struct SimulationOptions {
    /// RNG seed for the random patterns.
    pub seed: u64,
    /// Stop after this many consecutive rounds without a class split
    /// (paper: 4).
    pub stall_rounds: usize,
    /// Hard cap on simulation rounds.
    pub max_rounds: usize,
    /// Non-constant classes with more members than this are discarded
    /// (paper: 3).
    pub max_class_size: usize,
    /// u64 words simulated per node per round (`64 * words` patterns per
    /// round). `1` reproduces the original single-word engine exactly.
    pub words: usize,
    /// Simulation threads per round. Only effective when the `parallel`
    /// cargo feature is enabled; clamped to `words`.
    pub threads: usize,
}

impl Default for SimulationOptions {
    fn default() -> SimulationOptions {
        SimulationOptions {
            seed: 0xC5A7,
            stall_rounds: 4,
            max_rounds: 256,
            max_class_size: 3,
            words: 4,
            threads: 1,
        }
    }
}

/// Result of [`find_correlations`].
#[derive(Clone, Debug)]
pub struct CorrelationResult {
    /// Surviving equivalence classes (size ≥ 2 after filtering).
    pub classes: Vec<EquivClass>,
    /// Pair-wise correlations derived from the classes: consecutive members
    /// are chained, and every member of a constant class is paired with the
    /// constant.
    pub correlations: Vec<Correlation>,
    /// Simulation rounds executed (`64 * words` patterns each).
    pub rounds: usize,
    /// Wall-clock time spent simulating and refining.
    pub elapsed: Duration,
    /// Detailed counters: rounds, patterns, splits, per-phase wall time.
    pub stats: SimStats,
    /// Input values (one per primary input, in input order) of the first
    /// pattern that drove the watched objective to 1, first in round,
    /// word and bit order; simulation stopped after that round, the last
    /// of `rounds`. `None` when no pattern did, and always from
    /// [`find_correlations`] and [`find_correlations_observed`], which
    /// watch nothing.
    pub witness: Option<Vec<bool>>,
}

impl CorrelationResult {
    /// Correlations against the constant 0 only.
    pub fn constant_correlations(&self) -> impl Iterator<Item = &Correlation> {
        self.correlations.iter().filter(|c| c.is_constant())
    }

    /// Signal-pair correlations only (no constant involved).
    pub fn pair_correlations(&self) -> impl Iterator<Item = &Correlation> {
        self.correlations.iter().filter(|c| !c.is_constant())
    }
}

/// Open-addressed `(class, signature) → new class` table, reused across
/// rounds. Slots are invalidated wholesale by bumping `epoch` — no
/// clearing pass, no reallocation. Fingerprint matches are confirmed
/// against the exact signature via the candidate's representative node.
struct RefineTable {
    mask: usize,
    epoch: u32,
    epochs: Vec<u32>,
    class_of: Vec<u32>,
    fp_of: Vec<u64>,
    rep_of: Vec<u32>,
    id_of: Vec<u32>,
}

impl RefineTable {
    fn new(nodes: usize) -> RefineTable {
        let capacity = (2 * nodes.max(1)).next_power_of_two();
        RefineTable {
            mask: capacity - 1,
            epoch: 0,
            epochs: vec![0; capacity],
            class_of: vec![0; capacity],
            fp_of: vec![0; capacity],
            rep_of: vec![0; capacity],
            id_of: vec![0; capacity],
        }
    }

    /// Invalidates every slot in O(1).
    fn begin_round(&mut self) {
        self.epoch += 1;
    }

    /// Finds the new class for `node` within old class `class`, or inserts
    /// a fresh entry with class id `fresh`. Returns `(id, inserted)`.
    fn classify(
        &mut self,
        class: u32,
        fp: u64,
        node: u32,
        fresh: u32,
        engine: &SimEngine,
    ) -> (u32, bool) {
        let mut slot =
            (fp ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize & self.mask;
        loop {
            if self.epochs[slot] != self.epoch {
                self.epochs[slot] = self.epoch;
                self.class_of[slot] = class;
                self.fp_of[slot] = fp;
                self.rep_of[slot] = node;
                self.id_of[slot] = fresh;
                return (fresh, true);
            }
            if self.class_of[slot] == class
                && self.fp_of[slot] == fp
                && normalized_eq(
                    engine.signature(NodeId::from_index(self.rep_of[slot] as usize)),
                    engine.signature(NodeId::from_index(node as usize)),
                )
            {
                return (self.id_of[slot], false);
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// Dense bitset over node indices; only ever cleared, never re-set.
struct ActiveSet {
    bits: Vec<u64>,
}

impl ActiveSet {
    fn all(n: usize) -> ActiveSet {
        ActiveSet {
            bits: vec![!0u64; n.div_ceil(64)],
        }
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 != 0
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.bits[i / 64] &= !(1u64 << (i % 64));
    }
}

/// Runs random simulation and returns the discovered signal correlations.
///
/// All nodes (primary inputs and AND gates) participate; the constant-0
/// node anchors the constant class. See the module docs for the algorithm.
///
/// # Example
///
/// ```
/// use csat_netlist::generators;
/// use csat_sim::{find_correlations, SimulationOptions};
///
/// let miter = csat_netlist::miter::self_miter(
///     &generators::ripple_carry_adder(8),
///     Default::default(),
/// );
/// let result = find_correlations(&miter.aig, &SimulationOptions::default());
/// // A self-miter is full of internal equivalences.
/// assert!(!result.correlations.is_empty());
/// ```
pub fn find_correlations(aig: &Aig, options: &SimulationOptions) -> CorrelationResult {
    find_correlations_observed(aig, options, &mut NoOpObserver)
}

/// Like [`find_correlations`], reporting one
/// [`SolverEvent::SimRound`] per refinement round to the given
/// [`Observer`]. With the default [`NoOpObserver`] this compiles down to
/// exactly [`find_correlations`].
pub fn find_correlations_observed<O>(
    aig: &Aig,
    options: &SimulationOptions,
    obs: &mut O,
) -> CorrelationResult
where
    O: Observer + ?Sized,
{
    // Constant false is never 1, so nothing is watched.
    find_correlations_or_witness(aig, options, Lit::FALSE, obs)
}

/// Like [`find_correlations_observed`], watching `objective` as well:
/// after the first round in which a pattern drives it to 1, simulation
/// stops and returns that pattern as [`CorrelationResult::witness`].
/// While no pattern does, every round is exactly
/// [`find_correlations_observed`]'s, so an objective that is never 1
/// gives its result field for field.
///
/// # Example
///
/// ```
/// use csat_netlist::Aig;
/// use csat_sim::{find_correlations_or_witness, SimulationOptions};
/// use csat_telemetry::NoOpObserver;
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let y = aig.and(a, !b);
/// aig.set_output("y", y);
/// let result =
///     find_correlations_or_witness(&aig, &SimulationOptions::default(), y, &mut NoOpObserver);
/// assert_eq!(result.witness, Some(vec![true, false]));
/// assert_eq!(result.rounds, 1);
/// ```
pub fn find_correlations_or_witness<O>(
    aig: &Aig,
    options: &SimulationOptions,
    objective: Lit,
    obs: &mut O,
) -> CorrelationResult
where
    O: Observer + ?Sized,
{
    let start = Instant::now();
    let n = aig.len();
    let mut engine = SimEngine::new(aig, options.words, options.threads);
    let mut rng = seeded_rng(options.seed);
    let mut stats = SimStats::default();

    // class[i]: current class of node i. Everything starts with the
    // constant in class 0. Fresh ids come from a never-reused counter, so
    // ids frozen on deactivated singletons can't collide with later ones.
    let mut class = vec![0u32; n];
    let mut active = ActiveSet::all(n);
    let mut table = RefineTable::new(n);
    let mut next_class_id = 1u32;
    // Sizes and first members of the classes created this round, indexed
    // by `id - round_base`; reused across rounds.
    let mut round_sizes: Vec<u32> = Vec::with_capacity(n);
    let mut round_firsts: Vec<u32> = Vec::with_capacity(n);

    let mut num_classes = 1usize;
    let mut singletons = 0usize;
    let mut stall = 0usize;
    let mut witness = None;

    while stall < options.stall_rounds && stats.rounds < options.max_rounds && num_classes < n {
        let sim_start = Instant::now();
        engine.next_round(&mut rng);
        stats.sim_time += sim_start.elapsed();

        let refine_start = Instant::now();
        table.begin_round();
        let round_base = next_class_id;
        round_sizes.clear();
        round_firsts.clear();
        for (i, cls) in class.iter_mut().enumerate() {
            if !active.contains(i) {
                continue;
            }
            let fp = fingerprint(engine.signature(NodeId::from_index(i)));
            let (id, inserted) = table.classify(*cls, fp, i as u32, next_class_id, &engine);
            if inserted {
                next_class_id += 1;
                round_sizes.push(1);
                round_firsts.push(i as u32);
            } else {
                round_sizes[(id - round_base) as usize] += 1;
            }
            // In-place is safe: class[i] is only consulted for node i.
            *cls = id;
        }
        // This round's classes plus the singletons retired in earlier
        // rounds (whose nodes no longer appear in `round_sizes`).
        let total = round_sizes.len() + singletons;
        // A class that shrank to one member can never merge back — retire
        // its node from refinement (simulation still covers it; its final
        // signature is only needed if it rejoins a report, which it can't).
        for (k, &size) in round_sizes.iter().enumerate() {
            if size == 1 {
                active.remove(round_firsts[k] as usize);
                singletons += 1;
            }
        }
        if total == num_classes {
            stall += 1;
        } else {
            stats.splits += total - num_classes;
            stall = 0;
            num_classes = total;
        }
        stats.refine_time += refine_start.elapsed();
        stats.rounds += 1;
        obs.record(SolverEvent::SimRound {
            round: stats.rounds as u64,
            patterns: engine.patterns_per_round(),
            classes: num_classes as u64,
        });
        witness = first_hit(&engine, aig, objective);
        if witness.is_some() {
            break;
        }
    }
    stats.patterns = stats.rounds as u64 * engine.patterns_per_round();

    // Group the surviving multi-member classes, in topological (index)
    // order. Iterating nodes in index order makes each group's insertion
    // order equal the order of its first member, which is exactly the
    // numeric class-id order the single-word engine reported (ids were
    // assigned by first occurrence).
    let mut members: HashMap<u32, Vec<NodeId>> = HashMap::new();
    let mut group_order: Vec<u32> = Vec::new();
    for (i, &cls) in class.iter().enumerate() {
        if !active.contains(i) {
            continue;
        }
        members.entry(cls).or_insert_with(|| {
            group_order.push(cls);
            Vec::new()
        });
        members
            .get_mut(&cls)
            .expect("just inserted")
            .push(NodeId::from_index(i));
    }

    let constant_class = class[0];
    let mut classes = Vec::new();
    let mut correlations = Vec::new();
    for key in group_order {
        let group = &members[&key];
        if group.len() < 2 {
            continue;
        }
        let contains_constant = key == constant_class;
        if !contains_constant && group.len() > options.max_class_size {
            // Paper: a large class is likely an artifact of ineffective
            // simulation, not a real mutual equivalence.
            continue;
        }
        let rep = group[0];
        let rep_bit = engine.signature(rep)[0];
        let phases: Vec<bool> = group
            .iter()
            .map(|m| {
                // Within a class, signatures are equal or complementary;
                // compare the first pattern to get the relative polarity.
                (engine.signature(*m)[0] ^ rep_bit) & 1 != 0
            })
            .collect();
        if contains_constant {
            // Pair every member with the constant.
            for (m, &phase) in group.iter().zip(&phases).skip(1) {
                correlations.push(Correlation {
                    a: *m,
                    b: NodeId::FALSE,
                    relation: if phase {
                        Relation::Opposite
                    } else {
                        Relation::Equal
                    },
                });
            }
        } else {
            // Chain consecutive members (keeps one partner per signal,
            // which is what the grouping heuristic needs).
            for k in 1..group.len() {
                let rel = if phases[k] == phases[k - 1] {
                    Relation::Equal
                } else {
                    Relation::Opposite
                };
                correlations.push(Correlation {
                    a: group[k],
                    b: group[k - 1],
                    relation: rel,
                });
            }
        }
        classes.push(EquivClass {
            members: group.clone(),
            phases,
            contains_constant,
        });
    }

    CorrelationResult {
        classes,
        correlations,
        rounds: stats.rounds,
        elapsed: start.elapsed(),
        stats,
        witness,
    }
}

/// The input values of the round's first pattern (lowest word, then
/// lowest bit) that sets `objective` to 1, if any does.
fn first_hit(engine: &SimEngine, aig: &Aig, objective: Lit) -> Option<Vec<bool>> {
    let flip = 0u64.wrapping_sub(objective.is_complemented() as u64);
    let (word, bits) = engine
        .signature(objective.node())
        .iter()
        .map(|&w| w ^ flip)
        .enumerate()
        .find(|&(_, bits)| bits != 0)?;
    let bit = bits.trailing_zeros();
    Some(
        aig.inputs()
            .iter()
            .map(|&input| engine.signature(input)[word] >> bit & 1 != 0)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_netlist::{generators, miter, Aig};

    #[test]
    fn finds_planted_equivalence() {
        // Two structurally different XOR implementations of the same inputs.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x1 = g.xor(a, b);
        // (a | b) & !(a & b), fresh so strash doesn't fold it.
        let o = g.or(a, b);
        let n = g.and(a, b);
        let x2 = g.and_fresh(o, !n);
        g.set_output("x1", x1);
        g.set_output("x2", x2);
        let result = find_correlations(&g, &SimulationOptions::default());
        // x1 is a complemented literal (its node computes XNOR), while x2's
        // node computes XOR, so the node-level relation is Opposite.
        let found = result.correlations.iter().any(|c| {
            let pair = (c.a, c.b);
            (pair == (x2.node(), x1.node()) || pair == (x1.node(), x2.node()))
                && c.relation == Relation::Opposite
        });
        assert!(found, "x1.node != x2.node should be discovered: {result:?}");
    }

    #[test]
    fn finds_anti_equivalence() {
        // Plant an XOR node and an XNOR node over the same inputs: their
        // node functions are exact complements.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        // s: (a | b) & !(a & b) = a ^ b.
        let o = g.or(a, b);
        let n = g.and(a, b);
        let s = g.and_fresh(o, !n);
        // t: !(a & !b) & !(!a & b) = a XNOR b.
        let p = g.and_fresh(a, !b);
        let q = g.and_fresh(!a, b);
        let t = g.and_fresh(!p, !q);
        g.set_output("s", s);
        g.set_output("t", t);
        let result = find_correlations(&g, &SimulationOptions::default());
        let found = result.correlations.iter().any(|c| {
            (c.a == t.node() && c.b == s.node() || c.a == s.node() && c.b == t.node())
                && c.relation == Relation::Opposite
        });
        assert!(found, "s != t should be discovered: {result:?}");
    }

    #[test]
    fn finds_constant_correlations() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        // z = a & !a is folded by the builder, so build a near-constant:
        // (a & b) & (!a & b) is constant 0 but built fresh stays a gate.
        let p = g.and_fresh(a, b);
        let q = g.and_fresh(!a, b);
        let z = g.and_fresh(p, q);
        g.set_output("z", z);
        let result = find_correlations(&g, &SimulationOptions::default());
        let found = result
            .constant_correlations()
            .any(|c| c.a == z.node() && c.relation == Relation::Equal);
        assert!(found, "z = 0 should be discovered: {result:?}");
    }

    #[test]
    fn self_miter_yields_many_pair_correlations() {
        let adder = generators::ripple_carry_adder(8);
        let m = miter::self_miter(&adder, Default::default());
        let result = find_correlations(&m.aig, &SimulationOptions::default());
        // Every gate of the copy is equivalent to its original.
        let pairs = result.pair_correlations().count();
        assert!(pairs >= adder.and_count() / 2, "found only {pairs} pairs");
    }

    #[test]
    fn respects_max_class_size() {
        // A circuit with 8 copies of the same function: class size 8 > 3,
        // so the class must be discarded.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let mut nodes = Vec::new();
        for _ in 0..8 {
            nodes.push(g.and_fresh(a, b));
        }
        for (i, &n) in nodes.iter().enumerate() {
            g.set_output(format!("o{i}"), n);
        }
        let result = find_correlations(&g, &SimulationOptions::default());
        assert!(
            result.pair_correlations().next().is_none(),
            "oversized class should be filtered: {result:?}"
        );
        // But with a generous limit they are kept.
        let relaxed = find_correlations(
            &g,
            &SimulationOptions {
                max_class_size: 16,
                ..Default::default()
            },
        );
        assert!(relaxed.pair_correlations().count() >= 7);
    }

    #[test]
    fn uncorrelated_signals_are_separated() {
        let g = generators::random_logic(3, 12, 150, 4);
        let result = find_correlations(&g, &SimulationOptions::default());
        // Distinct random functions must not end up correlated; verify all
        // reported pairs exhaustively (12 inputs = 4096 patterns).
        for c in &result.correlations {
            let mut agree = 0usize;
            let total = 1usize << 12;
            for code in 0..total {
                let assignment: Vec<bool> = (0..12).map(|i| code >> i & 1 != 0).collect();
                let values = g.evaluate(&assignment);
                let va = values[c.a.index()];
                let vb = values[c.b.index()];
                let matches = match c.relation {
                    Relation::Equal => va == vb,
                    Relation::Opposite => va != vb,
                };
                if matches {
                    agree += 1;
                }
            }
            // "High probability" per the paper: the pair survived at least
            // 4 * 256 random patterns, so exact disagreement must be rare.
            assert!(
                agree * 10 >= total * 9,
                "correlation {c:?} holds on only {agree}/{total} patterns"
            );
        }
    }

    #[test]
    fn stall_terminates_quickly_on_tiny_circuits() {
        let mut g = Aig::new();
        let a = g.input();
        g.set_output("a", a);
        let result = find_correlations(&g, &SimulationOptions::default());
        assert!(result.rounds <= SimulationOptions::default().stall_rounds + 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::random_logic(8, 10, 80, 3);
        let r1 = find_correlations(&g, &SimulationOptions::default());
        let r2 = find_correlations(&g, &SimulationOptions::default());
        assert_eq!(r1.correlations, r2.correlations);
        assert_eq!(r1.rounds, r2.rounds);
    }

    #[test]
    fn word_counts_agree_on_discovered_classes() {
        // Different batch widths draw different patterns, but on a
        // self-miter the true equivalences dominate and every width must
        // find them.
        let adder = generators::ripple_carry_adder(6);
        let m = miter::self_miter(&adder, Default::default());
        let baseline = find_correlations(
            &m.aig,
            &SimulationOptions {
                words: 1,
                ..Default::default()
            },
        );
        for words in [2, 4, 8] {
            let result = find_correlations(
                &m.aig,
                &SimulationOptions {
                    words,
                    ..Default::default()
                },
            );
            assert_eq!(
                result.classes, baseline.classes,
                "words={words} diverges on a fully-correlated miter"
            );
        }
    }

    #[test]
    fn stats_account_for_rounds_and_patterns() {
        let adder = generators::ripple_carry_adder(8);
        let m = miter::self_miter(&adder, Default::default());
        let options = SimulationOptions::default();
        let result = find_correlations(&m.aig, &options);
        assert_eq!(result.stats.rounds, result.rounds);
        assert_eq!(
            result.stats.patterns,
            result.rounds as u64 * 64 * options.words as u64
        );
        // Every reported class required splitting it off the initial one.
        assert!(result.stats.splits + 1 >= result.classes.len());
        assert!(result.stats.sim_time + result.stats.refine_time <= result.elapsed);
    }

    /// The first pattern, in round, word and bit order, that sets
    /// `objective` to 1, found by replaying the RNG stream and evaluating
    /// each pattern on its own: `(round, input values)`.
    fn first_satisfying_pattern(
        aig: &Aig,
        objective: Lit,
        options: &SimulationOptions,
    ) -> Option<(usize, Vec<bool>)> {
        let n = aig.inputs().len();
        let words = options.words;
        let mut rng = seeded_rng(options.seed);
        let mut inputs = vec![0u64; n * words];
        for round in 0..options.max_rounds {
            crate::parallel::fill_random_words(&mut rng, &mut inputs);
            for w in 0..words {
                for bit in 0..64 {
                    let pattern: Vec<bool> = (0..n)
                        .map(|i| inputs[i * words + w] >> bit & 1 != 0)
                        .collect();
                    if aig.lit_value(&aig.evaluate(&pattern), objective) {
                        return Some((round, pattern));
                    }
                }
            }
        }
        None
    }

    /// An AND of eight inputs: about one pattern in 256 satisfies it.
    fn rare_objective() -> (Aig, Lit) {
        let mut g = Aig::new();
        let inputs = g.inputs_n(8);
        let mut y = inputs[0];
        for &x in &inputs[1..] {
            y = g.and(y, x);
        }
        g.set_output("y", y);
        (g, y)
    }

    fn watch(aig: &Aig, objective: Lit, options: &SimulationOptions) -> CorrelationResult {
        find_correlations_or_witness(aig, options, objective, &mut NoOpObserver)
    }

    #[test]
    fn the_witness_is_the_first_satisfying_pattern() {
        let (g, y) = rare_objective();
        let mut later_rounds = 0;
        for seed in 0..8 {
            let options = SimulationOptions {
                seed,
                ..Default::default()
            };
            let (round, pattern) = first_satisfying_pattern(&g, y, &options).expect("satisfiable");
            let result = watch(&g, y, &options);
            assert_eq!(result.witness.as_ref(), Some(&pattern), "seed {seed}");
            assert_eq!(result.rounds, round + 1, "seed {seed}");
            assert_eq!(pattern, vec![true; 8]);
            later_rounds += (round > 0) as usize;
        }
        // Some seeds miss in round 0, so the stop is tested too.
        assert!(later_rounds > 0);
    }

    #[test]
    fn a_complemented_objective_is_watched() {
        let (g, y) = rare_objective();
        let options = SimulationOptions::default();
        let (round, pattern) = first_satisfying_pattern(&g, !y, &options).expect("satisfiable");
        let result = watch(&g, !y, &options);
        assert_eq!(round, 0);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.witness, Some(pattern));
        assert!(!g.lit_value(&g.evaluate(result.witness.as_ref().unwrap()), y));
    }

    #[test]
    fn an_unsatisfiable_objective_changes_nothing() {
        let m = miter::build_fresh(
            &generators::carry_select_adder(4, 2),
            &generators::kogge_stone_adder(4),
            Default::default(),
        );
        let options = SimulationOptions::default();
        let plain = find_correlations(&m.aig, &options);
        let watched = watch(&m.aig, m.objective, &options);
        assert_eq!(watched.witness, None);
        assert_eq!(plain.witness, None);
        assert_eq!(watched.classes, plain.classes);
        assert_eq!(watched.correlations, plain.correlations);
        assert_eq!(watched.rounds, plain.rounds);
        assert_eq!(
            (
                watched.stats.rounds,
                watched.stats.patterns,
                watched.stats.splits
            ),
            (plain.stats.rounds, plain.stats.patterns, plain.stats.splits)
        );
        assert!(watched.rounds > 1);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn threads_find_the_same_witness() {
        let (g, y) = rare_objective();
        for seed in 0..4 {
            let options = SimulationOptions {
                seed,
                ..Default::default()
            };
            let one = watch(&g, y, &options);
            let two = watch(
                &g,
                y,
                &SimulationOptions {
                    threads: 2,
                    ..options
                },
            );
            assert!(one.witness.is_some());
            assert_eq!(two.witness, one.witness, "seed {seed}");
            assert_eq!(two.rounds, one.rounds, "seed {seed}");
            assert_eq!(two.classes, one.classes, "seed {seed}");
        }
    }

    #[test]
    fn correlation_is_constant_helper() {
        let c = Correlation {
            a: NodeId::from_index(5),
            b: NodeId::FALSE,
            relation: Relation::Equal,
        };
        assert!(c.is_constant());
        let d = Correlation {
            a: NodeId::from_index(5),
            b: NodeId::from_index(3),
            relation: Relation::Opposite,
        };
        assert!(!d.is_constant());
    }
}
