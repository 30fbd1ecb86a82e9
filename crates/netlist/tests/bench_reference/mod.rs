//! The `.bench` reader as it was before names were interned: owned
//! `String` names in hash maps and a fresh map and stack for every
//! resolved gate. Kept only as the reference the differential test
//! compares `csat_netlist::bench::parse` against; its two known faults
//! (undefined fanins reported at line 0, and a gate that redefines an
//! input silently dropped) are left as they were.

use std::collections::HashMap;

use csat_netlist::{Aig, Lit, ParseBenchError};

#[derive(Clone, Debug, PartialEq, Eq)]
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
    fn from_str(s: &str) -> Option<GateKind> {
        match s.to_ascii_uppercase().as_str() {
            "AND" => Some(GateKind::And),
            "NAND" => Some(GateKind::Nand),
            "OR" => Some(GateKind::Or),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            "NOT" | "INV" => Some(GateKind::Not),
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "DFF" => Some(GateKind::Dff),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct GateDef {
    kind: GateKind,
    fanins: Vec<String>,
    line: usize,
}

/// Parses a `.bench` netlist into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseBenchError`] on syntax errors, unknown gate types, wrong
/// arities, undefined signals, duplicate definitions, or combinational
/// cycles.
pub fn parse(source: &str) -> Result<Aig, ParseBenchError> {
    let mut inputs: Vec<(String, usize)> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();
    let mut gates: HashMap<String, GateDef> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = strip_directive(line, "INPUT") {
            inputs.push((rest.to_string(), lineno));
        } else if let Some(rest) = strip_directive(line, "OUTPUT") {
            outputs.push((rest.to_string(), lineno));
        } else if let Some(eq) = line.find('=') {
            let name = line[..eq].trim().to_string();
            if name.is_empty() {
                return Err(error(lineno, "missing signal name before '='"));
            }
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| error(lineno, format!("expected gate expression, found '{rhs}'")))?;
            if !rhs.ends_with(')') {
                return Err(error(lineno, "missing closing parenthesis"));
            }
            let kind_str = rhs[..open].trim();
            let kind = GateKind::from_str(kind_str)
                .ok_or_else(|| error(lineno, format!("unknown gate type '{kind_str}'")))?;
            let args = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect::<Vec<_>>();
            if args.is_empty() {
                return Err(error(lineno, "gate has no fanins"));
            }
            let unary = matches!(kind, GateKind::Not | GateKind::Buf | GateKind::Dff);
            if unary && args.len() != 1 {
                return Err(error(
                    lineno,
                    format!("{kind_str} takes exactly one fanin, got {}", args.len()),
                ));
            }
            if gates
                .insert(
                    name.clone(),
                    GateDef {
                        kind,
                        fanins: args,
                        line: lineno,
                    },
                )
                .is_some()
            {
                return Err(error(
                    lineno,
                    format!("signal '{name}' defined more than once"),
                ));
            }
            order.push(name);
        } else {
            return Err(error(lineno, format!("unrecognized line '{line}'")));
        }
    }

    let mut aig = Aig::new();
    let mut signals: HashMap<String, Lit> = HashMap::new();

    for (name, line) in &inputs {
        if signals.contains_key(name) {
            return Err(error(
                *line,
                format!("input '{name}' declared more than once"),
            ));
        }
        let lit = aig.input();
        signals.insert(name.clone(), lit);
    }

    // DFF outputs become fresh primary inputs (scan treatment).
    let mut dff_next: Vec<(String, String)> = Vec::new();
    for name in &order {
        let def = &gates[name];
        if def.kind == GateKind::Dff {
            if signals.contains_key(name) {
                return Err(error(
                    def.line,
                    format!("signal '{name}' defined more than once"),
                ));
            }
            let lit = aig.input();
            signals.insert(name.clone(), lit);
            dff_next.push((name.clone(), def.fanins[0].clone()));
        }
    }

    // Resolve combinational gates with an explicit stack (no recursion so
    // deep chains don't overflow), detecting cycles on the way.
    for name in &order {
        resolve(name, &gates, &mut signals, &mut aig)?;
    }

    for (name, line) in &outputs {
        let lit = *signals
            .get(name)
            .ok_or_else(|| error(*line, format!("output '{name}' is never defined")))?;
        aig.set_output(name.clone(), lit);
    }
    for (ff, d) in &dff_next {
        let lit = *signals
            .get(d)
            .ok_or_else(|| error(0, format!("dff '{ff}' input '{d}' is never defined")))?;
        aig.set_output(format!("{ff}.next"), lit);
    }

    Ok(aig)
}

fn strip_directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = line.to_ascii_uppercase();
    if !upper.starts_with(keyword) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

fn resolve(
    name: &str,
    gates: &HashMap<String, GateDef>,
    signals: &mut HashMap<String, Lit>,
    aig: &mut Aig,
) -> Result<Lit, ParseBenchError> {
    if let Some(&lit) = signals.get(name) {
        return Ok(lit);
    }
    // Iterative post-order over the definition DAG.
    #[derive(Clone)]
    enum Frame {
        Visit(String),
        Build(String),
    }
    let mut in_progress: HashMap<String, bool> = HashMap::new();
    let mut stack = vec![Frame::Visit(name.to_string())];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Visit(n) => {
                if signals.contains_key(&n) {
                    continue;
                }
                let def = gates
                    .get(&n)
                    .ok_or_else(|| error(0, format!("signal '{n}' is never defined")))?;
                if in_progress.insert(n.clone(), true).is_some() {
                    return Err(error(
                        def.line,
                        format!("combinational cycle through signal '{n}'"),
                    ));
                }
                stack.push(Frame::Build(n));
                for fin in &def.fanins {
                    if !signals.contains_key(fin) {
                        stack.push(Frame::Visit(fin.clone()));
                    }
                }
            }
            Frame::Build(n) => {
                let def = &gates[&n];
                let mut fanins = Vec::with_capacity(def.fanins.len());
                for fin in &def.fanins {
                    let lit = *signals.get(fin).ok_or_else(|| {
                        error(def.line, format!("signal '{fin}' is never defined"))
                    })?;
                    fanins.push(lit);
                }
                let lit = match def.kind {
                    GateKind::And => aig.and_many(&fanins),
                    GateKind::Nand => {
                        let a = aig.and_many(&fanins);
                        !a
                    }
                    GateKind::Or => aig.or_many(&fanins),
                    GateKind::Nor => {
                        let o = aig.or_many(&fanins);
                        !o
                    }
                    GateKind::Xor => aig.xor_many(&fanins),
                    GateKind::Xnor => {
                        let x = aig.xor_many(&fanins);
                        !x
                    }
                    GateKind::Not => !fanins[0],
                    GateKind::Buf => fanins[0],
                    // Handled up front; nothing to build here.
                    GateKind::Dff => signals[&n],
                };
                signals.insert(n, lit);
            }
        }
    }
    Ok(signals[name])
}

fn error(line: usize, message: impl Into<String>) -> ParseBenchError {
    ParseBenchError {
        line,
        message: message.into(),
    }
}
