//! Reader and writer for the ASCII AIGER format (`.aag`).
//!
//! AIGER is the standard exchange format for And-Inverter Graphs in the
//! hardware model-checking community, and maps 1:1 onto this crate's
//! [`Aig`]. Latches are treated the way this workspace treats all state
//! (and the way the paper treats its `sxxxxx.scan` circuits): the latch
//! output becomes a primary input and the latch's next-state function a
//! primary output named `l<k>.next`.
//!
//! Only the ASCII variant (`aag` header) is supported; the binary `aig`
//! variant differs only in delta-encoding the AND section.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), csat_netlist::ParseAigerError> {
//! let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
//! let aig = csat_netlist::aiger::parse(src)?;
//! assert_eq!(aig.inputs().len(), 2);
//! assert_eq!(aig.and_count(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{Aig, Lit, Node};

/// Error produced while parsing an AIGER file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError {
    /// 1-based line of the problem.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl ParseAigerError {
    fn new(line: usize, message: impl Into<String>) -> ParseAigerError {
        ParseAigerError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aiger parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseAigerError {}

/// Parses an ASCII AIGER (`aag`) file.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers, out-of-range or
/// ill-ordered literals, or truncated sections.
pub fn parse(source: &str) -> Result<Aig, ParseAigerError> {
    let mut lines = source.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseAigerError::new(1, "empty file"))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("aag") {
        return Err(ParseAigerError::new(
            1,
            "expected ascii aiger header 'aag M I L O A'",
        ));
    }
    let nums: Vec<u64> = parts.filter_map(|t| t.parse().ok()).collect();
    if nums.len() != 5 {
        return Err(ParseAigerError::new(1, "header needs five counts"));
    }
    let (m, i, l, o, a) = (nums[0], nums[1], nums[2], nums[3], nums[4]);
    if i.checked_add(l)
        .and_then(|il| il.checked_add(a))
        .is_none_or(|ila| ila > m)
    {
        return Err(ParseAigerError::new(1, "M smaller than I+L+A"));
    }

    let mut aig = Aig::new();
    // aiger variable v (1-based) -> our literal; filled as sections parse.
    let mut map = VarMap::new(m, source.len());

    let expect_var = |line: usize, text: &str| -> Result<u64, ParseAigerError> {
        let lit: u64 = text
            .trim()
            .parse()
            .map_err(|_| ParseAigerError::new(line, format!("invalid literal '{text}'")))?;
        if !lit.is_multiple_of(2) {
            return Err(ParseAigerError::new(
                line,
                format!("definition literal {lit} must be even"),
            ));
        }
        if lit / 2 > m {
            return Err(ParseAigerError::new(
                line,
                format!("literal {lit} exceeds M"),
            ));
        }
        Ok(lit / 2)
    };

    // Inputs.
    for _ in 0..i {
        let (ln, text) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new(0, "truncated input section"))?;
        let var = expect_var(ln + 1, text)?;
        let lit = aig.input();
        map.define(var, lit, ln + 1)?;
    }
    // Latches: output var becomes a fresh input; next-state recorded.
    let mut latch_next = Vec::new();
    for k in 0..l {
        let (ln, text) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new(0, "truncated latch section"))?;
        let mut it = text.split_whitespace();
        let var = expect_var(
            ln + 1,
            it.next()
                .ok_or_else(|| ParseAigerError::new(ln + 1, "latch needs two literals"))?,
        )?;
        let next: u64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ParseAigerError::new(ln + 1, "latch needs a next-state literal"))?;
        let lit = aig.input();
        map.define(var, lit, ln + 1)?;
        latch_next.push((k, next, ln + 1));
    }
    // Outputs (raw literals, resolved after ANDs).
    let mut outputs = Vec::new();
    for k in 0..o {
        let (ln, text) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new(0, "truncated output section"))?;
        let lit: u64 = text
            .trim()
            .parse()
            .map_err(|_| ParseAigerError::new(ln + 1, format!("invalid literal '{text}'")))?;
        outputs.push((k, lit, ln + 1));
    }
    // ANDs (must be in topological order, as the format requires).
    for _ in 0..a {
        let (ln, text) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new(0, "truncated and section"))?;
        let mut it = text.split_whitespace();
        let mut three = || -> Result<u64, ParseAigerError> {
            it.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseAigerError::new(ln + 1, "and line needs three literals"))
        };
        let lhs = three()?;
        let rhs0 = three()?;
        let rhs1 = three()?;
        if lhs % 2 != 0 {
            return Err(ParseAigerError::new(ln + 1, "and lhs must be even"));
        }
        let var = lhs / 2;
        if var > m {
            return Err(ParseAigerError::new(
                ln + 1,
                format!("literal {lhs} exceeds M"),
            ));
        }
        let f0 = map.resolve(rhs0, ln + 1)?;
        let f1 = map.resolve(rhs1, ln + 1)?;
        let lit = aig.and_fresh(f0, f1);
        map.define(var, lit, ln + 1)?;
    }
    for (k, lit, ln) in outputs {
        let resolved = map.resolve(lit, ln)?;
        aig.set_output(format!("o{k}"), resolved);
    }
    for (k, next, ln) in latch_next {
        let resolved = map.resolve(next, ln)?;
        aig.set_output(format!("l{k}.next"), resolved);
    }
    Ok(aig)
}

/// AIGER variable to literal, for the variables the text defines.
///
/// The header's `M` is untrusted, so it never sizes an allocation: the
/// dense table stops at half the text length (each definition takes at
/// least two bytes) and any variable above that lands in a map. A
/// well-formed file numbers its variables densely and never uses the map.
struct VarMap {
    m: u64,
    dense: Vec<Option<Lit>>,
    sparse: HashMap<u64, Lit>,
}

impl VarMap {
    fn new(m: u64, text_len: usize) -> VarMap {
        let len = m.min(text_len as u64 / 2) as usize + 1;
        let mut dense = vec![None; len];
        dense[0] = Some(Lit::FALSE);
        VarMap {
            m,
            dense,
            sparse: HashMap::new(),
        }
    }

    fn define(&mut self, var: u64, lit: Lit, line: usize) -> Result<(), ParseAigerError> {
        let dense = usize::try_from(var)
            .ok()
            .and_then(|v| self.dense.get_mut(v));
        let fresh = match dense {
            Some(slot) => slot.replace(lit).is_none(),
            None => self.sparse.insert(var, lit).is_none(),
        };
        if fresh {
            Ok(())
        } else {
            Err(ParseAigerError::new(
                line,
                format!("variable {var} redefined"),
            ))
        }
    }

    fn resolve(&self, aiger_lit: u64, line: usize) -> Result<Lit, ParseAigerError> {
        let var = aiger_lit / 2;
        if var > self.m {
            return Err(ParseAigerError::new(
                line,
                format!("literal {aiger_lit} exceeds M"),
            ));
        }
        let dense = usize::try_from(var).ok().and_then(|v| self.dense.get(v));
        let base = match dense {
            Some(slot) => *slot,
            None => self.sparse.get(&var).copied(),
        };
        let base = base.ok_or_else(|| {
            ParseAigerError::new(line, format!("literal {aiger_lit} used before definition"))
        })?;
        Ok(base.xor_complement(aiger_lit % 2 == 1))
    }
}

/// Serializes an [`Aig`] to ASCII AIGER text (combinational: all state has
/// already been turned into inputs/outputs by this crate's conventions).
pub fn write(aig: &Aig) -> String {
    use std::fmt::Write;
    // aiger var of node i = i (node 0 is the aiger constant).
    let to_aiger = |l: Lit| -> u64 { (l.node().index() as u64) << 1 | l.is_complemented() as u64 };
    let m = aig.len() as u64 - 1;
    let i = aig.inputs().len() as u64;
    let o = aig.outputs().len() as u64;
    let a = aig.and_count() as u64;
    let mut out = String::new();
    let _ = writeln!(out, "aag {m} {i} 0 {o} {a}");
    for &id in aig.inputs() {
        let _ = writeln!(out, "{}", to_aiger(id.lit()));
    }
    for (_, l) in aig.outputs() {
        let _ = writeln!(out, "{}", to_aiger(*l));
    }
    for (idx, node) in aig.nodes().iter().enumerate() {
        if let Node::And(x, y) = node {
            let lhs = (idx as u64) << 1;
            let _ = writeln!(out, "{lhs} {} {}", to_aiger(*x), to_aiger(*y));
        }
    }
    for (k, (name, _)) in aig.outputs().iter().enumerate() {
        let _ = writeln!(out, "o{k} {name}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn parses_minimal_and() {
        let aig = parse("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").expect("parse");
        assert_eq!(aig.inputs().len(), 2);
        assert_eq!(aig.outputs().len(), 1);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(aig.evaluate_outputs(&[a, b])[0], a && b);
        }
    }

    #[test]
    fn parses_complemented_output() {
        // o = !(i1 & i2)
        let aig = parse("aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n").expect("parse");
        for (a, b) in [(false, false), (true, true)] {
            assert_eq!(aig.evaluate_outputs(&[a, b])[0], !(a && b));
        }
    }

    #[test]
    fn parses_constants() {
        // Output literal 0 = constant false, 1 = constant true.
        let aig = parse("aag 1 1 0 2 0\n2\n0\n1\n").expect("parse");
        assert_eq!(aig.evaluate_outputs(&[true]), vec![false, true]);
    }

    #[test]
    fn latch_becomes_input_and_next_output() {
        // One latch whose next state is the input.
        let aig = parse("aag 2 1 1 1 0\n2\n4 2\n4\n").expect("parse");
        assert_eq!(aig.inputs().len(), 2);
        // outputs: o0 (= latch output) and l0.next (= input).
        assert_eq!(aig.outputs().len(), 2);
        assert!(aig.outputs().iter().any(|(n, _)| n == "l0.next"));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse("aig 3 2 0 1 1\n").is_err());
        assert!(parse("aag 3 2 0 1\n").is_err());
        assert!(parse("aag 1 2 0 0 0\n2\n4\n").is_err());
    }

    #[test]
    fn huge_header_m_allocates_only_what_the_text_defines() {
        // M = 2^40 once sized an 8 TiB table up front and aborted.
        let aig = parse("aag 1099511627776 1 0 0 0\n2\n").expect("parse");
        assert_eq!(aig.inputs().len(), 1);
        assert!(aig.outputs().is_empty());
        // A legal sparse variable far above the text's length still parses.
        let aig = parse("aag 1099511627776 1 0 1 0\n2199023255552\n2199023255553\n")
            .expect("sparse parse");
        assert_eq!(aig.evaluate_outputs(&[false]), vec![true]);
        let err = parse("aag 1099511627776 2 0 0 0\n2199023255552\n2199023255552\n").unwrap_err();
        assert!(err.message.contains("redefined"), "{err}");
    }

    #[test]
    fn rejects_header_counts_that_overflow() {
        // I + L + A wraps to 0 in u64 arithmetic; it must not pass as <= M.
        let err = parse("aag 5 18446744073709551615 1 0 0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("M smaller than I+L+A"), "{err}");
        // A huge output count is bounded by the lines actually present.
        let err = parse("aag 1 0 0 18446744073709551615 0\n0\n").unwrap_err();
        assert!(err.message.contains("truncated output section"), "{err}");
    }

    #[test]
    fn rejects_use_before_definition() {
        // AND referencing variable 4 before its definition line.
        let err = parse("aag 3 1 0 1 2\n2\n6\n4 6 2\n6 2 2\n").unwrap_err();
        assert!(err.message.contains("before definition"), "{err}");
    }

    #[test]
    fn rejects_odd_definition_literal() {
        let err = parse("aag 3 1 0 1 1\n3\n6\n6 2 2\n").unwrap_err();
        assert!(err.message.contains("must be even"));
    }

    #[test]
    fn rejects_truncation() {
        let err = parse("aag 3 2 0 1 1\n2\n4\n6\n").unwrap_err();
        assert!(err.message.contains("truncated"));
    }

    #[test]
    fn write_then_parse_is_equivalent() {
        let original = generators::alu(3);
        let text = write(&original);
        let back = parse(&text).expect("reparse");
        assert_eq!(back.inputs().len(), original.inputs().len());
        assert_eq!(back.outputs().len(), original.outputs().len());
        let n = original.inputs().len();
        for code in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| code >> i & 1 != 0).collect();
            assert_eq!(
                original.evaluate_outputs(&bits),
                back.evaluate_outputs(&bits),
                "code {code}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_gate_count() {
        let original = generators::ripple_carry_adder(6);
        let back = parse(&write(&original)).expect("reparse");
        assert_eq!(back.and_count(), original.and_count());
    }
}
