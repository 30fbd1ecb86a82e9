//! Golden tests for the `csat` and `cec` command lines.
//!
//! Each case pins the exact stdout and exit code of one invocation on
//! fixtures generated from `csat::netlist::generators`, so a refactor of
//! the solve flow behind the binaries cannot change what they print.
//! Every pinned model (a `v` or `input:` line) is also evaluated on its
//! fixture, so no pin can hold a wrong one.
//! Diagnostics on stderr are free to change, apart from the substrings a
//! test asserts on explicitly. Parallel runs pin only their `s` line (the
//! winning worker, and with it the model, varies run to run), and the
//! `--metrics-out` cases pin the report's keys, not its timings.

mod common;

use common::Fixtures;
use csat::netlist::{aiger, generators, miter, tseitin, Aig, Lit};
use csat::pipeline::{load, Format};

/// One pinned invocation: arguments (fixture names resolve inside the
/// fixture directory), exit code and exact stdout.
struct Golden {
    args: &'static [&'static str],
    code: i32,
    stdout: &'static str,
}

const fn golden(args: &'static [&'static str], code: i32, stdout: &'static str) -> Golden {
    Golden { args, code, stdout }
}

/// Writes `aig` in all three input formats: `.bench`, `.aag`, and the
/// Tseitin encoding of its first output as `.cnf`.
fn write_all(fx: &Fixtures, stem: &str, aig: &Aig) {
    fx.bench(&format!("{stem}.bench"), aig);
    fx.write(&format!("{stem}.aag"), &aiger::write(aig));
    let enc = tseitin::encode_with_objective(aig, aig.outputs()[0].1);
    fx.write(&format!("{stem}.cnf"), &enc.cnf.to_dimacs());
}

/// The fixture set every test starts from:
///
/// * `sat.*` — a 4-bit comparator (`lt`, `eq`, `gt`); every output is
///   satisfiable either way round.
/// * `unsat.*` — carry-select vs Kogge-Stone adder miter, UNSAT.
/// * `self.bench` — a ripple-carry self-miter that light prep already
///   folds to constant false.
/// * `always.bench` — a miter against a copy with one output negated,
///   which prep folds to constant true.
/// * `left.bench` / `right.aag` — two 5-bit adder architectures;
///   `buggy.bench` breaks `right`'s carry out; `narrow.bench` has a
///   different interface.
fn fixtures(test: &str) -> Fixtures {
    let fx = Fixtures::new(test);
    write_all(&fx, "sat", &generators::comparator(4));
    let adders = miter::build_fresh(
        &generators::carry_select_adder(4, 2),
        &generators::kogge_stone_adder(4),
        Default::default(),
    );
    write_all(&fx, "unsat", &adders.aig);
    let rca = generators::ripple_carry_adder(4);
    fx.bench(
        "self.bench",
        &miter::self_miter(&rca, Default::default()).aig,
    );
    fx.bench(
        "always.bench",
        &miter::build_fresh(&rca, &negate_first_output(&rca), Default::default()).aig,
    );
    let left = generators::carry_select_adder(5, 2);
    let right = generators::kogge_stone_adder(5);
    fx.bench("left.bench", &left);
    fx.write("right.aag", &aiger::write(&right));
    let mut buggy = right.clone();
    let outs: Vec<_> = buggy.outputs().to_vec();
    buggy.clear_outputs();
    for (name, lit) in outs {
        // The carry out becomes the first input: wrong on most patterns.
        let lit = if name == "cout" {
            Lit::new(buggy.inputs()[0], false)
        } else {
            lit
        };
        buggy.set_output(name, lit);
    }
    fx.bench("buggy.bench", &buggy);
    fx.bench("narrow.bench", &generators::kogge_stone_adder(4));
    fx.write("notes.txt", "not a circuit\n");
    fx
}

fn negate_first_output(aig: &Aig) -> Aig {
    let mut out = aig.clone();
    let outs: Vec<_> = out.outputs().to_vec();
    out.clear_outputs();
    for (k, (name, lit)) in outs.into_iter().enumerate() {
        out.set_output(name, if k == 0 { !lit } else { lit });
    }
    out
}

/// A fixture file's netlist and objective, as `csat` loads it.
fn load_fixture(fx: &Fixtures, name: &str, output: Option<&str>, negate: bool) -> (Aig, Lit) {
    let format = Format::from_path(name).expect("fixture format");
    let text = std::fs::read_to_string(fx.path(name)).expect("fixture file");
    load(format, &text, output, negate).expect("fixture loads")
}

/// Asserts that the model a case pins is one: `csat`'s `v` line sets the
/// objective its flags pick to 1, and `cec`'s `input:` line makes the two
/// netlists differ on some output.
fn assert_pinned_model_holds(fx: &Fixtures, bin: &str, case: &Golden) {
    let Some(bits) = case.stdout.lines().find_map(|line| {
        line.strip_prefix("v ")
            .or_else(|| line.strip_prefix("input: "))
    }) else {
        return;
    };
    let model: Vec<bool> = bits.chars().map(|c| c == '1').collect();
    let args = case.args;
    let holds = if bin == "cec" {
        let [.., left, right] = args else {
            panic!("cec needs two files")
        };
        let (left, _) = load_fixture(fx, left, None, false);
        let (right, _) = load_fixture(fx, right, None, false);
        left.evaluate_outputs(&model) != right.evaluate_outputs(&model)
    } else {
        let output = args
            .iter()
            .position(|&a| a == "--output")
            .map(|k| args[k + 1]);
        let negate = args.contains(&"--negate");
        let file = args.last().expect("csat needs a file");
        let (aig, objective) = load_fixture(fx, file, output, negate);
        aig.lit_value(&aig.evaluate(&model), objective)
    };
    assert!(holds, "{bin} {args:?}: the pinned model {bits} is wrong");
}

/// Runs every case and reports all mismatches at once.
fn check(fx: &Fixtures, bin: &str, cases: &[Golden]) {
    let mut failures = Vec::new();
    for case in cases {
        assert_pinned_model_holds(fx, bin, case);
        let out = fx.run(bin, case.args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        if out.status.code() != Some(case.code) || stdout != case.stdout {
            failures.push(format!(
                "{bin} {:?}: exit {:?}, stdout {stdout:?}\n  stderr: {}",
                case.args,
                out.status.code(),
                String::from_utf8_lossy(&out.stderr).trim_end()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn csat_formats() {
    check(
        &fixtures("golden-formats"),
        "csat",
        &[
            golden(&["sat.bench"], 10, "s SATISFIABLE\nv 00000100\n"),
            golden(&["sat.aag"], 10, "s SATISFIABLE\nv 00000100\n"),
            golden(
                &["sat.cnf"],
                10,
                "s SATISFIABLE\nv 010011011001011001000000100000010\n",
            ),
            golden(&["unsat.bench"], 20, "s UNSATISFIABLE\n"),
            golden(&["unsat.aag"], 20, "s UNSATISFIABLE\n"),
            golden(&["unsat.cnf"], 20, "s UNSATISFIABLE\n"),
        ],
    );
}

#[test]
fn csat_engines() {
    check(
        &fixtures("golden-engines"),
        "csat",
        &[
            golden(
                &["--engine", "circuit", "sat.bench"],
                10,
                "s SATISFIABLE\nv 00000100\n",
            ),
            golden(
                &["--engine", "circuit-plain", "sat.bench"],
                10,
                "s SATISFIABLE\nv 00000100\n",
            ),
            golden(
                &["--engine", "cnf", "sat.bench"],
                10,
                "s SATISFIABLE\nv 00000010\n",
            ),
            golden(
                &["--engine", "circuit", "unsat.aag"],
                20,
                "s UNSATISFIABLE\n",
            ),
            golden(
                &["--engine", "circuit-plain", "unsat.aag"],
                20,
                "s UNSATISFIABLE\n",
            ),
            golden(&["--engine", "cnf", "unsat.aag"], 20, "s UNSATISFIABLE\n"),
            golden(
                &["--engine", "cnf", "sat.cnf"],
                10,
                "s SATISFIABLE\nv 000000010001011001000000100000010\n",
            ),
            golden(
                &["--engine", "circuit-plain", "unsat.cnf"],
                20,
                "s UNSATISFIABLE\n",
            ),
        ],
    );
}

#[test]
fn csat_objective_flags() {
    check(
        &fixtures("golden-objective"),
        "csat",
        &[
            golden(
                &["--negate", "sat.bench"],
                10,
                "s SATISFIABLE\nv 11111111\n",
            ),
            golden(
                &["--output", "eq", "sat.bench"],
                10,
                "s SATISFIABLE\nv 11111111\n",
            ),
            golden(
                &["--output", "gt", "--negate", "sat.bench"],
                10,
                "s SATISFIABLE\nv 11111111\n",
            ),
            golden(
                &["--negate", "unsat.bench"],
                10,
                "s SATISFIABLE\nv 111111110\n",
            ),
            golden(
                &["--negate", "sat.cnf"],
                10,
                "s SATISFIABLE\nv 111111110110001100001111000011100\n",
            ),
            golden(&["--output", "nope", "sat.bench"], 2, ""),
        ],
    );
}

#[test]
fn csat_prep_levels() {
    check(
        &fixtures("golden-prep"),
        "csat",
        &[
            golden(
                &["--prep", "light", "sat.bench"],
                10,
                "s SATISFIABLE\nv 00000100\n",
            ),
            golden(
                &["--prep", "full", "sat.bench"],
                10,
                "s SATISFIABLE\nv 00000100\n",
            ),
            golden(&["--prep=light", "unsat.bench"], 20, "s UNSATISFIABLE\n"),
            golden(&["--prep", "unsat.aag"], 20, "s UNSATISFIABLE\n"),
            golden(
                &["--prep", "full", "--engine", "cnf", "unsat.cnf"],
                20,
                "s UNSATISFIABLE\n",
            ),
            golden(&["--prep", "light", "self.bench"], 20, "s UNSATISFIABLE\n"),
            golden(
                &["--prep", "full", "always.bench"],
                10,
                "s SATISFIABLE\nv 000000000\n",
            ),
            golden(
                &["--prep", "light", "--negate", "always.bench"],
                20,
                "s UNSATISFIABLE\n",
            ),
        ],
    );
}

#[test]
fn csat_learning_and_proof_flags() {
    check(
        &fixtures("golden-learning"),
        "csat",
        &[
            golden(&["--no-implicit", "unsat.bench"], 20, "s UNSATISFIABLE\n"),
            golden(&["--no-explicit", "unsat.bench"], 20, "s UNSATISFIABLE\n"),
            golden(
                &["--no-implicit", "--no-explicit", "sat.bench"],
                10,
                "s SATISFIABLE\nv 00000100\n",
            ),
            golden(&["--check-proof", "unsat.bench"], 20, "s UNSATISFIABLE\n"),
            golden(
                &["--check-proof", "--prep", "light", "unsat.aag"],
                20,
                "s UNSATISFIABLE\n",
            ),
            golden(
                &["--check-proof", "--no-explicit", "sat.bench"],
                10,
                "s SATISFIABLE\nv 00000100\n",
            ),
            golden(
                &["--check-proof", "--engine", "cnf", "unsat.cnf"],
                20,
                "s UNSATISFIABLE\n",
            ),
        ],
    );
}

/// `--check-proof` checks the proof on every sequential engine; on the
/// CNF engine the log is checked against the Tseitin encoding it solved.
#[test]
fn csat_check_proof_verifies_every_engine() {
    let fx = fixtures("golden-proof");
    for engine in ["circuit", "circuit-plain", "cnf"] {
        let out = fx.run("csat", &["--check-proof", "--engine", engine, "unsat.cnf"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(20), "{engine}: {stderr}");
        assert!(stderr.contains("c proof: VERIFIED"), "{engine}: {stderr}");
    }
}

#[test]
fn csat_threads_pin_the_status_line() {
    let fx = fixtures("golden-threads");
    for (args, code, status) in [
        (&["--threads", "2", "sat.bench"][..], 10, "s SATISFIABLE"),
        (
            &["--threads", "2", "unsat.bench"][..],
            20,
            "s UNSATISFIABLE",
        ),
        (
            &["--threads", "2", "--par-mode", "cubes", "unsat.aag"][..],
            20,
            "s UNSATISFIABLE",
        ),
        (
            &["--threads", "2", "--engine", "cnf", "sat.cnf"][..],
            10,
            "s SATISFIABLE",
        ),
    ] {
        let out = fx.run("csat", args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stdout}");
        assert_eq!(stdout.lines().next(), Some(status), "{args:?}");
    }
}

#[test]
fn csat_usage_errors_exit_2() {
    check(
        &fixtures("golden-usage"),
        "csat",
        &[
            golden(&[], 2, ""),
            golden(&["--bogus", "sat.bench"], 2, ""),
            golden(&["--engine", "quantum", "sat.bench"], 2, ""),
            golden(&["--threads", "0", "sat.bench"], 2, ""),
            golden(&["notes.txt"], 2, ""),
            golden(&["missing.bench"], 2, ""),
            golden(&["--threads", "2", "--check-proof", "sat.bench"], 2, ""),
        ],
    );
}

#[test]
fn cec_verdicts() {
    check(
        &fixtures("golden-cec"),
        "cec",
        &[
            golden(&["left.bench", "right.aag"], 0, "EQUIVALENT\n"),
            golden(
                &["left.bench", "buggy.bench"],
                1,
                "DIFFERENT\ninput: 00011110111\noutput cout: left=1 right=0\n",
            ),
            golden(&["left.bench", "narrow.bench"], 2, ""),
            golden(&["left.bench"], 2, ""),
            golden(&["left.bench", "notes.txt"], 2, ""),
        ],
    );
}

#[test]
fn cec_flags() {
    check(
        &fixtures("golden-cec-flags"),
        "cec",
        &[
            golden(
                &["--no-learning", "left.bench", "right.aag"],
                0,
                "EQUIVALENT\n",
            ),
            golden(
                &["--no-learning", "left.bench", "buggy.bench"],
                1,
                "DIFFERENT\ninput: 01001111011\noutput cout: left=1 right=0\n",
            ),
            golden(
                &["--prep", "full", "left.bench", "right.aag"],
                0,
                "EQUIVALENT\n",
            ),
            golden(
                &["--prep", "full", "left.bench", "buggy.bench"],
                1,
                "DIFFERENT\ninput: 00011110111\noutput cout: left=1 right=0\n",
            ),
            golden(
                &["--prep", "light", "left.bench", "buggy.bench"],
                1,
                "DIFFERENT\ninput: 00011110111\noutput cout: left=1 right=0\n",
            ),
            golden(
                &["--check-proof", "left.bench", "right.aag"],
                0,
                "EQUIVALENT\n",
            ),
        ],
    );
}

/// The keys of a `--metrics-out` report, in document order.
const METRICS_KEYS: &[&str] = &[
    "type",
    "verdict",
    "elapsed_s",
    "metrics",
    "counters",
    "decisions",
    "grouped_decisions",
    "conflicts",
    "learned",
    "restarts",
    "deleted_clauses",
    "db_reductions",
    "kept_clauses",
    "subproblems",
    "subproblems_refuted",
    "subproblems_aborted",
    "subproblems_satisfiable",
    "subproblems_panicked",
    "sim_rounds",
    "sim_patterns",
    "sim_classes",
    "session_pushes",
    "session_pops",
    "clauses_retained",
    "workers_started",
    "workers_finished",
    "worker_wins",
    "share_rounds",
    "clauses_exported",
    "clauses_imported",
    "cubes_solved",
    "cubes_stolen",
    "jobs_queued",
    "jobs_started",
    "jobs_finished",
    "jobs_retried",
    "jobs_shed",
    "queue_depth_peak",
    "prep_passes",
    "nodes_merged",
    "cones_pruned",
    "decision_depth",
    "count",
    "sum",
    "max",
    "mean",
    "log2_buckets",
    "backjump_distance",
    "count",
    "sum",
    "max",
    "mean",
    "log2_buckets",
    "learned_length",
    "count",
    "sum",
    "max",
    "mean",
    "log2_buckets",
];

/// Every key of a JSON document, in document order (string tokens
/// followed by a colon).
fn json_keys(text: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let end = after.find('"').expect("terminated string");
        let tail = after[end + 1..].trim_start();
        if tail.starts_with(':') {
            keys.push(after[..end].to_string());
        }
        rest = &after[end + 1..];
    }
    keys
}

#[test]
fn metrics_out_key_sets() {
    let fx = fixtures("golden-metrics");
    for (bin, args) in [
        ("csat", &["--metrics-out", "csat.json", "unsat.bench"][..]),
        (
            "cec",
            &["--metrics-out", "cec.json", "left.bench", "right.aag"][..],
        ),
    ] {
        let out = fx.run(bin, args);
        assert!(matches!(out.status.code(), Some(0 | 20)), "{bin}");
        let text = std::fs::read_to_string(fx.path(&format!("{bin}.json"))).expect("metrics file");
        assert_eq!(json_keys(&text), METRICS_KEYS, "{bin}");
    }
}
