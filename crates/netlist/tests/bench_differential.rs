//! Differential test of `bench::parse` against the reader it replaced,
//! kept in `bench_reference`.
//!
//! Inputs start as `bench::write` output over the generators. Extra NOT/BUF
//! chains, multi-input gates and flip-flops are added, every line is
//! shuffled and dressed up with mixed-case keywords, odd spacing, comments
//! and blank lines, and about half the texts are then mutated or truncated.
//! Both readers must accept the same texts and build node-for-node
//! identical AIGs, and must reject the rest with the same error. There are
//! two allowed differences, the reference's two faults: an undefined fanin
//! or flip-flop input is reported at line 0 there and at the referencing
//! line here, and a gate that redefines a declared input is silently dropped
//! there and rejected here.

mod bench_reference;

use csat_netlist::{bench, generators, Aig, ParseBenchError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One `.bench` line before it is dressed up.
#[derive(Clone, Debug)]
enum Item {
    Input(String),
    Output(String),
    Gate {
        name: String,
        kind: &'static str,
        args: Vec<String>,
    },
}

const MULTI: [&str; 6] = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"];

fn base_circuit(rng: &mut StdRng) -> Aig {
    let seed = rng.gen::<u64>();
    match rng.gen_range(0..5u32) {
        0 => generators::random_logic(
            seed,
            rng.gen_range(1..8usize),
            rng.gen_range(0..80usize),
            rng.gen_range(1..4usize),
        ),
        1 => {
            let options = generators::LevelizedOptions {
                inputs: rng.gen_range(2..8usize),
                levels: rng.gen_range(1..6usize),
                width: rng.gen_range(1..6usize),
                ..generators::LevelizedOptions::default()
            };
            generators::levelized(seed, &options)
        }
        2 => generators::array_multiplier(rng.gen_range(2..6usize)),
        3 => generators::alu(rng.gen_range(1..4usize)),
        _ => generators::parity_tree(rng.gen_range(1..9usize)),
    }
}

/// Reads back the lines `bench::write` emits (comment lines dropped).
fn items_of(text: &str) -> Vec<Item> {
    let mut items = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some(name) = line.strip_prefix("INPUT(") {
            items.push(Item::Input(name.trim_end_matches(')').to_string()));
        } else if let Some(name) = line.strip_prefix("OUTPUT(") {
            items.push(Item::Output(name.trim_end_matches(')').to_string()));
        } else {
            let (name, rhs) = line.split_once(" = ").expect("gate line");
            let (kind, args) = rhs.split_once('(').expect("gate expression");
            let kind = ["AND", "NOT", "BUF"]
                .into_iter()
                .find(|k| *k == kind)
                .expect("writer gate kind");
            items.push(Item::Gate {
                name: name.to_string(),
                kind,
                args: args
                    .trim_end_matches(')')
                    .split(", ")
                    .map(str::to_string)
                    .collect(),
            });
        }
    }
    items
}

fn pick<'a>(rng: &mut StdRng, pool: &'a [String]) -> &'a str {
    &pool[rng.gen_range(0..pool.len())]
}

/// Adds NOT/BUF chains, multi-input gates and flip-flops over the names
/// already defined. Gates only read names defined before them, and
/// flip-flop outputs, so the additions add no cycle.
fn add_extras(rng: &mut StdRng, items: &mut Vec<Item>) {
    let mut pool: Vec<String> = items
        .iter()
        .filter_map(|item| match item {
            Item::Input(name) | Item::Gate { name, .. } => Some(name.clone()),
            Item::Output(_) => None,
        })
        .collect();
    if pool.is_empty() {
        items.push(Item::Input("lone".to_string()));
        pool.push("lone".to_string());
    }
    let flops: Vec<String> = (0..rng.gen_range(0..4u32))
        .map(|k| format!("q{k}"))
        .collect();
    pool.extend(flops.iter().cloned());
    for k in 0..rng.gen_range(0..12u32) {
        let name = format!("x{k}");
        if rng.gen_bool(0.4) {
            let mut prev = pick(rng, &pool).to_string();
            for j in 0..rng.gen_range(1..6u32) {
                let link = format!("{name}_{j}");
                let kind = if rng.gen_bool(0.5) { "NOT" } else { "BUF" };
                items.push(Item::Gate {
                    name: link.clone(),
                    kind,
                    args: vec![prev],
                });
                prev = link;
            }
            pool.push(prev);
        } else {
            let kind = MULTI[rng.gen_range(0..MULTI.len())];
            let args = (0..rng.gen_range(1..6u32))
                .map(|_| pick(rng, &pool).to_string())
                .collect();
            items.push(Item::Gate {
                name: name.clone(),
                kind,
                args,
            });
            pool.push(name);
        }
        if rng.gen_bool(0.3) {
            items.push(Item::Output(pool[pool.len() - 1].clone()));
        }
    }
    for flop in flops {
        let d = pick(rng, &pool).to_string();
        items.push(Item::Gate {
            name: flop,
            kind: "DFF",
            args: vec![d],
        });
    }
}

fn gate_index(rng: &mut StdRng, items: &[Item]) -> Option<usize> {
    let gates: Vec<usize> = (0..items.len())
        .filter(|&i| matches!(items[i], Item::Gate { .. }))
        .collect();
    (!gates.is_empty()).then(|| gates[rng.gen_range(0..gates.len())])
}

fn name_of(item: &Item) -> &str {
    match item {
        Item::Input(name) | Item::Output(name) | Item::Gate { name, .. } => name,
    }
}

/// One semantic fault: an undefined, duplicate, cyclic or malformed
/// definition, or a declaration that clashes with one.
fn mutate_items(rng: &mut StdRng, items: &mut Vec<Item>) {
    let Some(g) = gate_index(rng, items) else {
        items.push(Item::Output("nowhere".to_string()));
        return;
    };
    let other = name_of(&items[gate_index(rng, items).unwrap_or(g)]).to_string();
    let any = name_of(&items[rng.gen_range(0..items.len())]).to_string();
    let name = name_of(&items[g]).to_string();
    let reader = items
        .iter()
        .find(|item| matches!(item, Item::Gate { args, .. } if args.contains(&name)))
        .map_or(name.clone(), |item| name_of(item).to_string());
    match rng.gen_range(0..12u32) {
        0 | 1 => {
            if let Item::Gate { args, .. } = &mut items[g] {
                let k = rng.gen_range(0..args.len());
                args[k] = if rng.gen_bool(0.5) { "ghost" } else { &other }.to_string();
            }
        }
        2 => {
            let copy = items[g].clone();
            items.push(copy);
        }
        3 => items.push(Item::Input(name)),
        4 => items.push(Item::Input(any)),
        5 => items.push(Item::Output("nowhere".to_string())),
        6 => items.push(Item::Gate {
            name: "qq".to_string(),
            kind: "DFF",
            args: vec!["ghost".to_string()],
        }),
        7 => {
            if let Item::Gate { kind, args, .. } = &mut items[g] {
                *kind = "NOT";
                args.push(other);
            }
        }
        8 => {
            if let Item::Gate { args, .. } = &mut items[g] {
                args.clear();
            }
        }
        9 => {
            if let Item::Gate { kind, .. } = &mut items[g] {
                *kind = if rng.gen_bool(0.5) { "FROB" } else { "DFF" };
            }
        }
        10 => {
            // A gate that reads one of its own readers (or itself).
            if let Item::Gate { args, .. } = &mut items[g] {
                args[0] = reader;
            }
        }
        _ => {
            items.remove(g);
        }
    }
}

fn mixed_case(rng: &mut StdRng, word: &str) -> String {
    word.chars()
        .map(|c| {
            if rng.gen_bool(0.5) {
                c.to_ascii_lowercase()
            } else {
                c
            }
        })
        .collect()
}

fn space(rng: &mut StdRng) -> &'static str {
    ["", "", " ", "  ", "\t"][rng.gen_range(0..5)]
}

fn render(rng: &mut StdRng, item: &Item) -> String {
    let mut line = space(rng).to_string();
    match item {
        Item::Input(name) | Item::Output(name) => {
            let keyword = if matches!(item, Item::Input(_)) {
                "INPUT"
            } else {
                "OUTPUT"
            };
            line += &mixed_case(rng, keyword);
            line += space(rng);
            line.push('(');
            line += space(rng);
            line += name;
            line += space(rng);
            line.push(')');
        }
        Item::Gate { name, kind, args } => {
            let kind = match *kind {
                "NOT" if rng.gen_bool(0.3) => "INV",
                "BUF" if rng.gen_bool(0.3) => "BUFF",
                kind => kind,
            };
            line += name;
            line += space(rng);
            line.push('=');
            line += space(rng);
            line += &mixed_case(rng, kind);
            line += space(rng);
            line.push('(');
            for (k, arg) in args.iter().enumerate() {
                if k > 0 {
                    line.push(',');
                    line += space(rng);
                }
                line += arg;
            }
            if rng.gen_bool(0.1) {
                line.push(',');
            }
            line += space(rng);
            line.push(')');
        }
    }
    line += space(rng);
    if rng.gen_bool(0.15) {
        line += "# note = AND(x)";
    }
    line
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A dressed-up `.bench` text for `seed`, mutated or truncated about half
/// the time.
fn netlist_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = items_of(&bench::write(&base_circuit(&mut rng)));
    add_extras(&mut rng, &mut items);
    let mutated = rng.gen_bool(0.5);
    if mutated && rng.gen_bool(0.6) {
        for _ in 0..rng.gen_range(1..3u32) {
            mutate_items(&mut rng, &mut items);
        }
    }
    if rng.gen_bool(0.8) {
        shuffle(&mut rng, &mut items);
    }
    let newline = if rng.gen_bool(0.2) { "\r\n" } else { "\n" };
    let mut text = String::new();
    for item in &items {
        match rng.gen_range(0..10u32) {
            0 => text += "# comment line",
            1 => text += space(&mut rng),
            _ => {}
        }
        if text.ends_with(|c| c != '\n') {
            text += newline;
        }
        text += &render(&mut rng, item);
        text += newline;
    }
    if mutated && rng.gen_bool(0.5) && !text.is_empty() {
        let mut at = rng.gen_range(0..text.len());
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        match rng.gen_range(0..3u32) {
            0 => text.truncate(at),
            1 => {
                text.remove(at);
            }
            _ => {
                let bytes = "(),=# \tAz\n";
                let k = rng.gen_range(0..bytes.len());
                text.insert_str(at, &bytes[k..k + 1]);
            }
        }
    }
    text
}

/// The operand of an `INPUT(...)` line, read as both readers read it.
fn declared_input(line: &str) -> Option<&str> {
    let line = line.split('#').next().unwrap_or("").trim();
    let head = line.get(..5)?;
    if !head.eq_ignore_ascii_case("INPUT") {
        return None;
    }
    let rest = line[5..].trim().strip_prefix('(')?.strip_suffix(')')?;
    Some(rest.trim())
}

/// True for the new reader's rejection of a gate that redefines a declared
/// input, which the reference drops without a word.
fn redefines_input(text: &str, error: &ParseBenchError) -> bool {
    let Some(name) = error
        .message
        .strip_prefix("signal '")
        .and_then(|m| m.strip_suffix("' defined more than once"))
    else {
        return false;
    };
    let defines = text
        .lines()
        .nth(error.line.wrapping_sub(1))
        .and_then(|l| l.split('#').next())
        .and_then(|l| l.split_once('='))
        .is_some_and(|(lhs, _)| lhs.trim() == name);
    defines && text.lines().any(|l| declared_input(l) == Some(name))
}

fn compare(text: &str) {
    let old = bench_reference::parse(text);
    let new = bench::parse(text);
    match (&old, &new) {
        (Ok(old), Ok(new)) => {
            assert_eq!(new.nodes(), old.nodes(), "{text}");
            assert_eq!(new.inputs(), old.inputs(), "{text}");
            assert_eq!(new.outputs(), old.outputs(), "{text}");
        }
        (Err(o), Err(n)) if o == n => {}
        (Err(o), Err(n)) if o.line == 0 && o.message == n.message => {
            // The reference's line-0 report of an undefined name: the new
            // reader names the line that reads it.
            let name = n
                .message
                .split('\'')
                .nth(3)
                .unwrap_or_else(|| n.message.split('\'').nth(1).unwrap_or_default());
            let line = text.lines().nth(n.line.wrapping_sub(1)).unwrap_or_default();
            assert!(line.contains(name), "{n} for\n{text}");
        }
        (_, Err(n)) => assert!(
            redefines_input(text, n),
            "reference gave {old:?}, new reader {n} for\n{text}"
        ),
        (Err(o), Ok(_)) => panic!("reference rejected ({o}) what the new reader took:\n{text}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The new reader agrees with the reference on dressed-up, mutated and
    /// truncated netlists.
    #[test]
    fn agrees_with_the_reference_reader(seed in any::<u64>()) {
        compare(&netlist_text(seed));
    }
}

/// Enough of the generated texts are accepted, and enough rejected, for
/// the differential to compare both paths.
#[test]
fn generated_texts_cover_both_outcomes() {
    let accepted = (0..200u64)
        .filter(|&seed| bench::parse(&netlist_text(seed)).is_ok())
        .count();
    assert!((60..=170).contains(&accepted), "{accepted} of 200 accepted");
}

#[test]
fn out_of_order_files_build_identical_nodes() {
    for seed in 0..6u64 {
        let aig = generators::array_multiplier(3 + seed as usize);
        let text = bench::write(&aig);
        let mut lines: Vec<&str> = text.lines().collect();
        shuffle(&mut StdRng::seed_from_u64(seed), &mut lines);
        compare(&lines.join("\n"));
    }
}
