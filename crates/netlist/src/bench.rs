//! Reader and writer for the ISCAS `.bench` netlist format.
//!
//! This is the circuit input format the paper assumes ("The input to the
//! solver is assumed to be in a circuit format (such as the \".bench\"
//! format)"). Supported gate types: `AND`, `NAND`, `OR`, `NOR`, `XOR`,
//! `XNOR`, `NOT`, `BUF`/`BUFF`, and `DFF`. All multi-input gates accept any
//! arity ≥ 1 and are decomposed into the 2-input AND primitive on read.
//!
//! `DFF` gates are handled the way the paper handles its `sxxxxx.scan`
//! benchmarks: "all state holding elements are treated as primary inputs" —
//! the flip-flop output becomes a fresh primary input and the D pin becomes a
//! primary output.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), csat_netlist::ParseBenchError> {
//! let src = "\
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! y = AND(a, b)
//! ";
//! let aig = csat_netlist::bench::parse(src)?;
//! assert_eq!(aig.inputs().len(), 2);
//! assert_eq!(aig.outputs().len(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{Aig, Lit, ParseBenchError};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GateKind {
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
    Dff,
}

impl GateKind {
    const NAMES: [(&'static str, GateKind); 11] = [
        ("AND", GateKind::And),
        ("NAND", GateKind::Nand),
        ("OR", GateKind::Or),
        ("NOR", GateKind::Nor),
        ("XOR", GateKind::Xor),
        ("XNOR", GateKind::Xnor),
        ("NOT", GateKind::Not),
        ("INV", GateKind::Not),
        ("BUF", GateKind::Buf),
        ("BUFF", GateKind::Buf),
        ("DFF", GateKind::Dff),
    ];

    fn from_str(s: &str) -> Option<GateKind> {
        GateKind::NAMES
            .iter()
            .find(|(name, _)| s.eq_ignore_ascii_case(name))
            .map(|&(_, kind)| kind)
    }

    fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf | GateKind::Dff)
    }
}

/// `Netlist::def` entry of a name no gate or flip-flop defines.
const UNDEFINED: u32 = u32::MAX;

/// One definition line `name = KIND(fanin, ...)`.
struct Gate {
    kind: GateKind,
    name: u32,
    /// The fanins are `Netlist::fanins[fanins.0..fanins.1]`.
    fanins: (u32, u32),
    line: usize,
}

/// The declarations of a `.bench` file, names interned into dense ids.
///
/// Names borrow from the source text. Each distinct name gets its id the
/// first time it is seen, and everything after the line scan works on the
/// ids alone.
struct Netlist<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<&'a str>,
    /// Per name: the index of the gate defining it, or [`UNDEFINED`].
    def: Vec<u32>,
    gates: Vec<Gate>,
    fanins: Vec<u32>,
    inputs: Vec<(u32, usize)>,
    outputs: Vec<(u32, usize)>,
}

impl<'a> Netlist<'a> {
    /// Tables sized for about `lines` definitions, so that interning does
    /// not rehash every name as the map grows.
    fn with_capacity(lines: usize) -> Netlist<'a> {
        Netlist {
            ids: HashMap::with_capacity(lines),
            names: Vec::with_capacity(lines),
            def: Vec::with_capacity(lines),
            gates: Vec::with_capacity(lines),
            fanins: Vec::with_capacity(2 * lines),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn intern(&mut self, name: &'a str) -> u32 {
        let next = self.names.len() as u32;
        let id = *self.ids.entry(name).or_insert(next);
        if id == next {
            self.names.push(name);
            self.def.push(UNDEFINED);
        }
        id
    }

    fn name(&self, id: u32) -> &'a str {
        self.names[id as usize]
    }

    fn fanins(&self, gate: &Gate) -> &[u32] {
        &self.fanins[gate.fanins.0 as usize..gate.fanins.1 as usize]
    }

    /// Records the declaration or definition on one comment-free,
    /// trimmed, non-empty line.
    fn scan_line(&mut self, line: &'a str, lineno: usize) -> Result<(), ParseBenchError> {
        if let Some(name) = directive(line, "INPUT") {
            let id = self.intern(name);
            self.inputs.push((id, lineno));
            return Ok(());
        }
        if let Some(name) = directive(line, "OUTPUT") {
            let id = self.intern(name);
            self.outputs.push((id, lineno));
            return Ok(());
        }
        let eq = find_byte(line, b'=')
            .ok_or_else(|| ParseBenchError::new(lineno, format!("unrecognized line '{line}'")))?;
        let name = trim(&line[..eq]);
        if name.is_empty() {
            return Err(ParseBenchError::new(
                lineno,
                "missing signal name before '='",
            ));
        }
        let rhs = trim(&line[eq + 1..]);
        let open = find_byte(rhs, b'(').ok_or_else(|| {
            ParseBenchError::new(lineno, format!("expected gate expression, found '{rhs}'"))
        })?;
        if !rhs.ends_with(')') {
            return Err(ParseBenchError::new(lineno, "missing closing parenthesis"));
        }
        let kind_str = trim(&rhs[..open]);
        let kind = GateKind::from_str(kind_str).ok_or_else(|| {
            ParseBenchError::new(lineno, format!("unknown gate type '{kind_str}'"))
        })?;
        let start = self.fanins.len();
        for arg in rhs[open + 1..rhs.len() - 1].split(',') {
            let arg = trim(arg);
            if !arg.is_empty() {
                let id = self.intern(arg);
                self.fanins.push(id);
            }
        }
        let arity = self.fanins.len() - start;
        if arity == 0 {
            return Err(ParseBenchError::new(lineno, "gate has no fanins"));
        }
        if kind.is_unary() && arity != 1 {
            return Err(ParseBenchError::new(
                lineno,
                format!("{kind_str} takes exactly one fanin, got {arity}"),
            ));
        }
        let id = self.intern(name);
        if self.def[id as usize] != UNDEFINED {
            return Err(ParseBenchError::new(
                lineno,
                format!("signal '{name}' defined more than once"),
            ));
        }
        self.def[id as usize] = self.gates.len() as u32;
        self.gates.push(Gate {
            kind,
            name: id,
            fanins: (start as u32, self.fanins.len() as u32),
            line: lineno,
        });
        Ok(())
    }
}

/// Resolution state of one name.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Open,
    /// Visited, but not every fanin is built yet: meeting it again before
    /// it is built means a combinational cycle.
    Visiting,
    Done(Lit),
}

/// A step of the depth-first resolution.
enum Frame {
    /// Resolve a name that gate `from` reads.
    Visit { name: u32, from: u32 },
    /// Build a gate whose fanins are all resolved.
    Build(u32),
}

/// Parses a `.bench` netlist into an [`Aig`].
///
/// The whole text is scanned first, so a syntax error is reported before
/// any undefined signal or cycle. Inputs then become AIG inputs in
/// declaration order, flip-flop outputs after them in definition order,
/// and gates are built by a depth-first walk from each definition in file
/// order. Time and memory are linear in the size of the text.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on syntax errors, unknown gate types, wrong
/// arities, undefined signals, duplicate definitions (also of a declared
/// input), or combinational cycles.
pub fn parse(source: &str) -> Result<Aig, ParseBenchError> {
    // Each interned name and each fanin uses up at least one byte of the
    // text, so below this size ids and fanin offsets fit in u32.
    if u32::try_from(source.len()).is_err() {
        return Err(ParseBenchError::new(0, "netlist text exceeds 4 GiB"));
    }
    // `bench::write` output and the ISCAS files run about 24 bytes a line.
    let mut net = Netlist::with_capacity(source.len() / 24);
    for (lineno, raw) in source.lines().enumerate() {
        let line = trim(match find_byte(raw, b'#') {
            Some(pos) => &raw[..pos],
            None => raw,
        });
        if !line.is_empty() {
            net.scan_line(line, lineno + 1)?;
        }
    }

    let mut aig = Aig::new();
    let mut slot = vec![Slot::Open; net.names.len()];
    for &(id, line) in &net.inputs {
        if slot[id as usize] != Slot::Open {
            return Err(ParseBenchError::new(
                line,
                format!("input '{}' declared more than once", net.name(id)),
            ));
        }
        slot[id as usize] = Slot::Done(aig.input());
    }
    // A name is an input or a gate, never both. DFF outputs become fresh
    // primary inputs (scan treatment).
    for gate in &net.gates {
        if slot[gate.name as usize] != Slot::Open {
            return Err(ParseBenchError::new(
                gate.line,
                format!("signal '{}' defined more than once", net.name(gate.name)),
            ));
        }
        if gate.kind == GateKind::Dff {
            slot[gate.name as usize] = Slot::Done(aig.input());
        }
    }

    // A gate of two or more fanins builds about one AND node.
    aig.reserve(net.gates.iter().filter(|g| !g.kind.is_unary()).count());
    // Build the combinational gates by an explicit-stack depth-first walk
    // (deep chains cannot overflow the call stack). A gate's fanins are
    // pushed in order, so they are built last to first: the node order
    // every earlier version of this reader produced.
    let mut stack = Vec::new();
    let mut lits = Vec::new();
    for root in 0..net.gates.len() as u32 {
        let name = net.gates[root as usize].name;
        if slot[name as usize] == Slot::Open {
            stack.push(Frame::Visit { name, from: root });
        }
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Visit { name, from } => {
                    let g = net.def[name as usize];
                    match slot[name as usize] {
                        Slot::Done(_) => continue,
                        Slot::Visiting => {
                            return Err(ParseBenchError::new(
                                net.gates[g as usize].line,
                                format!("combinational cycle through signal '{}'", net.name(name)),
                            ))
                        }
                        Slot::Open if g == UNDEFINED => {
                            return Err(undefined(net.gates[from as usize].line, net.name(name)))
                        }
                        Slot::Open => {}
                    }
                    slot[name as usize] = Slot::Visiting;
                    stack.push(Frame::Build(g));
                    for &fanin in net.fanins(&net.gates[g as usize]) {
                        if !matches!(slot[fanin as usize], Slot::Done(_)) {
                            stack.push(Frame::Visit {
                                name: fanin,
                                from: g,
                            });
                        }
                    }
                }
                Frame::Build(g) => {
                    let gate = &net.gates[g as usize];
                    lits.clear();
                    for &fanin in net.fanins(gate) {
                        match slot[fanin as usize] {
                            Slot::Done(lit) => lits.push(lit),
                            _ => return Err(undefined(gate.line, net.name(fanin))),
                        }
                    }
                    let lit = match gate.kind {
                        GateKind::And => aig.and_many(&lits),
                        GateKind::Nand => !aig.and_many(&lits),
                        GateKind::Or => aig.or_many(&lits),
                        GateKind::Nor => !aig.or_many(&lits),
                        GateKind::Xor => aig.xor_many(&lits),
                        GateKind::Xnor => !aig.xor_many(&lits),
                        GateKind::Not => !lits[0],
                        GateKind::Buf => lits[0],
                        GateKind::Dff => unreachable!("flip-flop outputs are resolved up front"),
                    };
                    slot[gate.name as usize] = Slot::Done(lit);
                }
            }
        }
    }

    for &(id, line) in &net.outputs {
        let Slot::Done(lit) = slot[id as usize] else {
            return Err(ParseBenchError::new(
                line,
                format!("output '{}' is never defined", net.name(id)),
            ));
        };
        aig.set_output(net.name(id), lit);
    }
    for gate in net.gates.iter().filter(|g| g.kind == GateKind::Dff) {
        let d = net.fanins(gate)[0];
        let Slot::Done(lit) = slot[d as usize] else {
            return Err(ParseBenchError::new(
                gate.line,
                format!(
                    "dff '{}' input '{}' is never defined",
                    net.name(gate.name),
                    net.name(d)
                ),
            ));
        };
        aig.set_output(format!("{}.next", net.name(gate.name)), lit);
    }

    Ok(aig)
}

/// `str::trim`, answered from the two end bytes when both are printable
/// ASCII, as they are on nearly every token.
fn trim(s: &str) -> &str {
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(first), Some(last)) if first.is_ascii_graphic() && last.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

/// The first `byte` in `s`; `byte` must be ASCII.
fn find_byte(s: &str, byte: u8) -> Option<usize> {
    s.bytes().position(|b| b == byte)
}

fn undefined(line: usize, name: &str) -> ParseBenchError {
    ParseBenchError::new(line, format!("signal '{name}' is never defined"))
}

/// The trimmed operand of `KEYWORD ( operand )`, keyword in any case.
fn directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let head = line.get(..keyword.len())?;
    if !head.eq_ignore_ascii_case(keyword) {
        return None;
    }
    let rest = trim(&line[keyword.len()..]);
    Some(trim(rest.strip_prefix('(')?.strip_suffix(')')?))
}

/// Serializes an [`Aig`] to `.bench` text.
///
/// Inputs are named `i<k>`, AND gates `g<node>`, and an inverter wrapper
/// `g<node>_n` is emitted where a complemented edge feeds a gate or output.
/// The output parses back to a functionally equivalent netlist (see the
/// round-trip tests).
pub fn write(aig: &Aig) -> String {
    use crate::Node;
    let mut out = String::new();
    let _ = writeln!(out, "# generated by csat-netlist");
    for (k, _) in aig.inputs().iter().enumerate() {
        let _ = writeln!(out, "INPUT(i{k})");
    }
    for (name, _) in aig.outputs() {
        let _ = writeln!(out, "OUTPUT({name})");
    }
    // Name of the positive-polarity signal of each node.
    let mut pos_name = vec![String::new(); aig.len()];
    let mut next_input = 0usize;
    let mut const_needed = false;
    for (i, node) in aig.nodes().iter().enumerate() {
        match node {
            Node::False => pos_name[i] = "const0".to_string(),
            Node::Input => {
                pos_name[i] = format!("i{next_input}");
                next_input += 1;
            }
            Node::And(..) => pos_name[i] = format!("g{i}"),
        }
    }
    let mut inverted_emitted = vec![false; aig.len()];
    // Inverter wrappers are emitted inline, immediately before their first
    // use: the parser resolves definitions in file order, so keeping the
    // file in node order makes `parse(write(aig))` rebuild the exact same
    // node table (for constant-free, strash-built circuits).
    let mut lit_name = |l: Lit, body: &mut String, const_needed: &mut bool| -> String {
        let idx = l.node().index();
        if idx == 0 {
            *const_needed = true;
            return if l.is_complemented() {
                "const1".to_string()
            } else {
                "const0".to_string()
            };
        }
        if !l.is_complemented() {
            pos_name[idx].clone()
        } else {
            let n = format!("{}_n", pos_name[idx]);
            if !inverted_emitted[idx] {
                inverted_emitted[idx] = true;
                let _ = writeln!(body, "{n} = NOT({})", pos_name[idx]);
            }
            n
        }
    };
    let mut gate_lines = String::new();
    for (i, node) in aig.nodes().iter().enumerate() {
        if let Node::And(a, b) = node {
            let na = lit_name(*a, &mut gate_lines, &mut const_needed);
            let nb = lit_name(*b, &mut gate_lines, &mut const_needed);
            let _ = writeln!(gate_lines, "g{i} = AND({na}, {nb})");
        }
    }
    let mut output_lines = String::new();
    for (name, l) in aig.outputs() {
        let src = lit_name(*l, &mut output_lines, &mut const_needed);
        let _ = writeln!(output_lines, "{name} = BUF({src})");
    }
    if const_needed && !aig.inputs().is_empty() {
        // const0 = i0 AND NOT i0.
        let _ = writeln!(out, "i0_inv = NOT(i0)");
        let _ = writeln!(out, "const0 = AND(i0, i0_inv)");
        let _ = writeln!(out, "const1 = NOT(const0)");
    } else if const_needed {
        // No inputs at all: nothing to derive a constant from; declare one.
        let _ = writeln!(out, "INPUT(const0)");
        let _ = writeln!(out, "const1 = NOT(const0)");
    }
    out.push_str(&gate_lines);
    out.push_str(&output_lines);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_netlist() {
        let src = "\
# c17-style fragment
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
t1 = NAND(a, b)
t2 = NAND(b, c)
y = NAND(t1, t2)
";
        let aig = parse(src).expect("parse");
        assert_eq!(aig.inputs().len(), 3);
        assert_eq!(aig.outputs().len(), 1);
        // y = !( !(ab) & !(bc) ) = ab | bc
        let y = |a: bool, b: bool, c: bool| aig.evaluate_outputs(&[a, b, c])[0];
        for code in 0..8u32 {
            let (a, b, c) = (code & 1 != 0, code & 2 != 0, code & 4 != 0);
            assert_eq!(y(a, b, c), b && (a || c));
        }
    }

    #[test]
    fn parses_out_of_order_definitions() {
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(t, b)
t = OR(a, b)
";
        let aig = parse(src).expect("parse");
        let y = |a: bool, b: bool| aig.evaluate_outputs(&[a, b])[0];
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(y(a, b), (a || b) ^ b);
        }
    }

    #[test]
    fn parses_multi_input_gates() {
        let src = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = XOR(a, b, c, d)
";
        let aig = parse(src).expect("parse");
        for code in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| code >> i & 1 != 0).collect();
            let expect = bits.iter().filter(|&&v| v).count() % 2 == 1;
            assert_eq!(aig.evaluate_outputs(&bits)[0], expect);
        }
    }

    #[test]
    fn dff_becomes_input_and_next_state_output() {
        let src = "\
INPUT(a)
OUTPUT(y)
q = DFF(d)
d = AND(a, q)
y = BUF(q)
";
        let aig = parse(src).expect("parse");
        // a, plus q as pseudo-input.
        assert_eq!(aig.inputs().len(), 2);
        // y, plus q.next as pseudo-output.
        assert_eq!(aig.outputs().len(), 2);
        assert!(aig.outputs().iter().any(|(n, _)| n == "q.next"));
    }

    #[test]
    fn rejects_unknown_gate() {
        let err = parse("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(err.message.contains("unknown gate type"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_undefined_signal() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert!(err.message.contains("never defined"));
        assert_eq!(err.line, 3, "the line of the gate that reads it");
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = OR(a, t)\nt = NOT(ghost)\n").unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = BUF(q)\nq = DFF(ghost)\n").unwrap_err();
        assert!(err.message.contains("dff 'q' input 'ghost'"), "{err}");
        assert_eq!(err.line, 4, "the line of the flip-flop that reads it");
    }

    #[test]
    fn rejects_gate_that_redefines_an_input() {
        for src in [
            "INPUT(a)\nOUTPUT(y)\na = NOT(b)\ny = BUF(a)\n",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = NOT(b)\ny = BUF(a)\n",
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!(err.message, "signal 'a' defined more than once", "{src}");
            assert_eq!(
                err.line,
                src.lines().position(|l| l.starts_with("a =")).unwrap() + 1
            );
        }
        let err = parse("INPUT(q)\nOUTPUT(y)\ny = BUF(q)\nq = DFF(y)\n").unwrap_err();
        assert_eq!(err.message, "signal 'q' defined more than once");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn rejects_duplicate_definition() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n").unwrap_err();
        assert!(err.message.contains("more than once"));
    }

    #[test]
    fn rejects_combinational_cycle() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUF(y)\n").unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn rejects_wrong_arity_not() {
        let err = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n").unwrap_err();
        assert!(err.message.contains("exactly one"));
    }

    #[test]
    fn rejects_garbage_line() {
        let err = parse("INPUT(a)\nwat is this\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn write_then_parse_roundtrips_structurally() {
        // For a strash-built AIG with no constant fanins, the writer emits
        // gates in node order and the parser rebuilds them through the same
        // structural hashing, so the node table must come back identical.
        for seed in 0..8u64 {
            let g = crate::generators::random_logic(seed, 10, 120, 4);
            let back = parse(&write(&g)).expect("reparse");
            assert_eq!(back.nodes(), g.nodes(), "seed {seed}");
            assert_eq!(back.inputs(), g.inputs(), "seed {seed}");
            assert_eq!(back.outputs().len(), g.outputs().len(), "seed {seed}");
            for (name, lit) in g.outputs() {
                let found = back.outputs().iter().find(|(n, _)| n == name);
                assert_eq!(found.map(|(_, l)| *l), Some(*lit), "seed {seed}");
            }
        }
    }

    #[test]
    fn write_then_parse_roundtrips_functionally_with_fresh_gates() {
        // and_fresh duplicates collapse under re-parse strashing, so the
        // round-trip is functional, not structural, for planted circuits.
        let options = crate::generators::LevelizedOptions::default();
        let g = crate::generators::levelized(3, &options);
        let back = parse(&write(&g)).expect("reparse");
        assert_eq!(back.inputs().len(), g.inputs().len());
        assert!(back.and_count() <= g.and_count());
        let n = g.inputs().len();
        for code in 0..1u32 << n.min(10) {
            let bits: Vec<bool> = (0..n).map(|i| code >> i & 1 != 0).collect();
            assert_eq!(g.evaluate_outputs(&bits), back.evaluate_outputs(&bits));
        }
    }

    #[test]
    fn write_then_parse_is_equivalent() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let x = g.xor(a, b);
        let m = g.mux(c, x, a);
        let o = g.or(m, !b);
        g.set_output("y", o);
        g.set_output("z", !x);
        let text = write(&g);
        let back = parse(&text).expect("reparse");
        assert_eq!(back.inputs().len(), g.inputs().len());
        assert_eq!(back.outputs().len(), g.outputs().len());
        for code in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| code >> i & 1 != 0).collect();
            assert_eq!(g.evaluate_outputs(&bits), back.evaluate_outputs(&bits));
        }
    }

    #[test]
    fn write_handles_constant_outputs() {
        let mut g = Aig::new();
        let a = g.input();
        let never = g.and(a, !a); // folds to constant false
        g.set_output("zero", never);
        let text = write(&g);
        let back = parse(&text).expect("reparse");
        assert!(!back.evaluate_outputs(&[false])[0]);
        assert!(!back.evaluate_outputs(&[true])[0]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n# header\n\nINPUT(a)  # trailing comment\nOUTPUT(y)\ny = BUF(a)\n";
        let aig = parse(src).expect("parse");
        assert_eq!(aig.inputs().len(), 1);
    }
}
