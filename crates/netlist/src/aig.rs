//! The And-Inverter Graph (AIG) netlist.
//!
//! Node 0 is the constant FALSE. Every other node is either a primary input
//! or a 2-input AND whose fanin edges carry optional inverter attributes.
//! Nodes are stored in topological order: the fanins of an AND always have
//! smaller indices than the AND itself. This invariant makes index order a
//! valid evaluation order and is relied on throughout the workspace.

use std::collections::HashMap;
use std::fmt;
use std::ops::Not;

/// Identifier of a node in an [`Aig`].
///
/// `NodeId(0)` is always the constant-FALSE node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The constant-FALSE node present in every [`Aig`].
    pub const FALSE: NodeId = NodeId(0);

    /// Returns the raw index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index.
    ///
    /// Mostly useful for dense side tables indexed by node; the caller is
    /// responsible for the index being in range for the `Aig` it is used
    /// with.
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }

    /// The positive-polarity literal of this node.
    #[inline]
    pub fn lit(self) -> Lit {
        Lit(self.0 << 1)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A signal: a node plus an optional inverter attribute.
///
/// Encoded as `node << 1 | complemented`, the standard AIG literal encoding.
/// [`Lit::FALSE`] and [`Lit::TRUE`] are the two polarities of node 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Constant false signal.
    pub const FALSE: Lit = Lit(0);
    /// Constant true signal.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node and polarity.
    #[inline]
    pub fn new(node: NodeId, complemented: bool) -> Lit {
        Lit(node.0 << 1 | complemented as u32)
    }

    /// The node this literal refers to.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// True if the literal carries an inverter attribute.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns the same node with positive polarity.
    #[inline]
    pub fn abs(self) -> Lit {
        Lit(self.0 & !1)
    }

    /// Applies an extra complementation if `c` is true.
    #[inline]
    pub fn xor_complement(self, c: bool) -> Lit {
        Lit(self.0 ^ c as u32)
    }

    /// Raw `node << 1 | sign` encoding, useful as a dense table index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a literal from [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// True if this is one of the two constant literals.
    #[inline]
    pub fn is_constant(self) -> bool {
        self.node() == NodeId::FALSE
    }

    /// Evaluates the literal given the value of its node.
    #[inline]
    pub fn eval(self, node_value: bool) -> bool {
        node_value ^ self.is_complemented()
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl From<NodeId> for Lit {
    #[inline]
    fn from(node: NodeId) -> Lit {
        node.lit()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node().0)
        } else {
            write!(f, "n{}", self.node().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One node of an [`Aig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Node {
    /// The constant-FALSE node (always node 0).
    False,
    /// A primary input.
    Input,
    /// A 2-input AND gate; each fanin may carry an inverter attribute.
    And(Lit, Lit),
}

impl Node {
    /// True for [`Node::And`].
    #[inline]
    pub fn is_and(&self) -> bool {
        matches!(self, Node::And(..))
    }

    /// True for [`Node::Input`].
    #[inline]
    pub fn is_input(&self) -> bool {
        matches!(self, Node::Input)
    }
}

/// An And-Inverter Graph with named primary outputs.
///
/// Construction goes through [`Aig::input`] and the logic-operator methods
/// ([`Aig::and`], [`Aig::or`], [`Aig::xor`], ...), all of which perform
/// constant folding, trivial simplification and structural hashing, so the
/// graph never contains two structurally identical AND nodes.
///
/// # Example
///
/// ```
/// use csat_netlist::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let y1 = aig.and(a, b);
/// let y2 = aig.and(b, a);
/// assert_eq!(y1, y2); // structural hashing
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, Lit)>,
    strash: HashMap<(Lit, Lit), NodeId>,
}

impl Aig {
    /// Creates an empty netlist containing only the constant-FALSE node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![Node::False],
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Number of nodes, including the constant node.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the netlist holds no gates and no inputs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of AND gates.
    pub fn and_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_and()).count()
    }

    /// The node table, indexed by [`NodeId::index`]; topologically ordered.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// The primary inputs, in creation order.
    #[inline]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The named primary outputs, in creation order.
    #[inline]
    pub fn outputs(&self) -> &[(String, Lit)] {
        &self.outputs
    }

    /// Returns the output literal with the given name, if any.
    pub fn output(&self, name: &str) -> Option<Lit> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, l)| l)
    }

    /// Iterates over the `NodeId`s of all nodes in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Reserves room for at least `additional` more AND nodes, so that
    /// building them grows neither the node table nor the structural hash.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.strash.reserve(additional);
    }

    /// Creates a fresh primary input and returns its positive literal.
    pub fn input(&mut self) -> Lit {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Input);
        self.inputs.push(id);
        id.lit()
    }

    /// Creates `n` fresh primary inputs.
    pub fn inputs_n(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Registers `lit` as a primary output called `name`.
    pub fn set_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push((name.into(), lit));
    }

    /// Removes all primary outputs (the driving logic is kept).
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    /// AND of two signals, with simplification and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding and trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (x, y) = if a < b { (a, b) } else { (b, a) };
        let next = NodeId(self.nodes.len() as u32);
        let id = *self.strash.entry((x, y)).or_insert(next);
        if id == next {
            self.nodes.push(Node::And(x, y));
        }
        id.lit()
    }

    /// AND of two signals, bypassing structural hashing.
    ///
    /// Constant fanins are still folded (so the graph stays sensible), but a
    /// real gate pair is never deduplicated against an existing node and is
    /// not entered into the hash table. This exists to materialize *two
    /// distinct copies* of identical logic — e.g. the paper's
    /// `circuit.equiv` miters take "two copies of the same circuit", which
    /// structural hashing would otherwise merge into one, trivializing the
    /// equivalence-checking problem.
    pub fn and_fresh(&mut self, a: Lit, b: Lit) -> Lit {
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (x, y) = if a < b { (a, b) } else { (b, a) };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::And(x, y));
        id.lit()
    }

    /// Inverter: returns the complemented signal (no node is created).
    #[inline]
    pub fn not(&mut self, a: Lit) -> Lit {
        !a
    }

    /// OR of two signals (built from AND via De Morgan).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// NAND of two signals.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, b)
    }

    /// NOR of two signals.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        let o = self.or(a, b);
        !o
    }

    /// XOR of two signals (two AND nodes plus inverters).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// XNOR (equivalence) of two signals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.xor(a, b);
        !x
    }

    /// 2:1 multiplexer: `if s { t } else { e }`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let hi = self.and(s, t);
        let lo = self.and(!s, e);
        self.or(hi, lo)
    }

    /// Logical implication `a -> b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// AND over an arbitrary set of signals (balanced tree).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Aig::and)
    }

    /// OR over an arbitrary set of signals (balanced tree).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::or)
    }

    /// XOR over an arbitrary set of signals (balanced tree).
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        op: fn(&mut Aig, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let l = self.reduce_balanced(&lits[..mid], empty, op);
                let r = self.reduce_balanced(&lits[mid..], empty, op);
                op(self, l, r)
            }
        }
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let ab = self.xor(a, b);
        let sum = self.xor(ab, cin);
        let c1 = self.and(a, b);
        let c2 = self.and(ab, cin);
        let carry = self.or(c1, c2);
        (sum, carry)
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: Lit, b: Lit) -> (Lit, Lit) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Evaluates the whole netlist on one input assignment.
    ///
    /// `assignment[i]` is the value of `self.inputs()[i]`. Returns a dense
    /// per-node value table.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.inputs().len()`.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "assignment length must match input count"
        );
        let mut values = vec![false; self.nodes.len()];
        let mut next_input = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match *node {
                Node::False => false,
                Node::Input => {
                    let v = assignment[next_input];
                    next_input += 1;
                    v
                }
                Node::And(a, b) => {
                    let va = values[a.node().index()] ^ a.is_complemented();
                    let vb = values[b.node().index()] ^ b.is_complemented();
                    va && vb
                }
            };
            let _ = i;
        }
        values
    }

    /// Evaluates the named outputs on one input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.inputs().len()`.
    pub fn evaluate_outputs(&self, assignment: &[bool]) -> Vec<bool> {
        let values = self.evaluate(assignment);
        self.outputs
            .iter()
            .map(|&(_, l)| values[l.node().index()] ^ l.is_complemented())
            .collect()
    }

    /// Evaluates a single literal given a dense node-value table produced by
    /// [`Aig::evaluate`].
    pub fn lit_value(&self, values: &[bool], lit: Lit) -> bool {
        values[lit.node().index()] ^ lit.is_complemented()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(Lit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.and_count(), 0);
    }

    #[test]
    fn strash_dedups_commuted_ands() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y1 = g.and(a, b);
        let y2 = g.and(b, a);
        let y3 = g.and(!a, b);
        assert_eq!(y1, y2);
        assert_ne!(y1, y3);
        assert_eq!(g.and_count(), 2);
    }

    #[test]
    fn lit_encoding_roundtrip() {
        let n = NodeId(37);
        let l = Lit::new(n, true);
        assert_eq!(l.node(), n);
        assert!(l.is_complemented());
        assert_eq!(!l, Lit::new(n, false));
        assert_eq!((!l).abs(), l.abs());
        assert_eq!(Lit::from_code(l.code()), l);
        assert_eq!(l.xor_complement(true), !l);
        assert_eq!(l.xor_complement(false), l);
    }

    #[test]
    fn constant_lits() {
        assert_eq!(!Lit::FALSE, Lit::TRUE);
        assert!(Lit::FALSE.is_constant());
        assert!(Lit::TRUE.is_constant());
        assert_eq!(Lit::FALSE.node(), NodeId::FALSE);
    }

    #[test]
    fn xor_truth_table() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y = g.xor(a, b);
        g.set_output("y", y);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = g.evaluate_outputs(&[va, vb]);
            assert_eq!(out[0], va ^ vb, "xor({va},{vb})");
        }
    }

    #[test]
    fn mux_truth_table() {
        let mut g = Aig::new();
        let s = g.input();
        let t = g.input();
        let e = g.input();
        let y = g.mux(s, t, e);
        g.set_output("y", y);
        for code in 0..8u32 {
            let vs = code & 1 != 0;
            let vt = code & 2 != 0;
            let ve = code & 4 != 0;
            let out = g.evaluate_outputs(&[vs, vt, ve]);
            assert_eq!(out[0], if vs { vt } else { ve });
        }
    }

    #[test]
    fn full_adder_truth_table() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let (s, co) = g.full_adder(a, b, c);
        g.set_output("s", s);
        g.set_output("co", co);
        for code in 0..8u32 {
            let va = code & 1;
            let vb = (code >> 1) & 1;
            let vc = (code >> 2) & 1;
            let out = g.evaluate_outputs(&[va != 0, vb != 0, vc != 0]);
            let total = va + vb + vc;
            assert_eq!(out[0] as u32, total & 1);
            assert_eq!(out[1] as u32, total >> 1);
        }
    }

    #[test]
    fn many_ops_match_reference() {
        let mut g = Aig::new();
        let xs = g.inputs_n(5);
        let and_all = g.and_many(&xs);
        let or_all = g.or_many(&xs);
        let xor_all = g.xor_many(&xs);
        g.set_output("and", and_all);
        g.set_output("or", or_all);
        g.set_output("xor", xor_all);
        for code in 0..32u32 {
            let assignment: Vec<bool> = (0..5).map(|i| code >> i & 1 != 0).collect();
            let out = g.evaluate_outputs(&assignment);
            assert_eq!(out[0], assignment.iter().all(|&v| v));
            assert_eq!(out[1], assignment.iter().any(|&v| v));
            assert_eq!(out[2], assignment.iter().filter(|&&v| v).count() % 2 == 1);
        }
    }

    #[test]
    fn empty_reductions() {
        let mut g = Aig::new();
        assert_eq!(g.and_many(&[]), Lit::TRUE);
        assert_eq!(g.or_many(&[]), Lit::FALSE);
        assert_eq!(g.xor_many(&[]), Lit::FALSE);
    }

    #[test]
    fn topological_invariant_holds() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.xor(a, b);
        let d = g.and(c, a);
        let _ = g.or(d, b);
        for (i, node) in g.nodes().iter().enumerate() {
            if let Node::And(x, y) = node {
                assert!(x.node().index() < i);
                assert!(y.node().index() < i);
            }
        }
    }

    #[test]
    fn output_lookup() {
        let mut g = Aig::new();
        let a = g.input();
        g.set_output("a", a);
        assert_eq!(g.output("a"), Some(a));
        assert_eq!(g.output("missing"), None);
    }
}
