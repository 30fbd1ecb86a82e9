//! Table I — initial run-time results for UNSAT cases (no correlation
//! learning): ZChaff-class baseline vs C-SAT vs C-SAT-Jnode on the
//! `*.equiv` miters.

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::{equiv_suite, run};
use csat_core::SolverOptions;
use csat_pipeline::Engine;

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table1");
    let suite = equiv_suite(scale);
    let mut table = Table::new(
        "Table I: initial run time (secs) for UNSAT cases",
        &["circuit", "zchaff-class", "c-sat", "c-sat-jnode"],
    );
    let mut base = Vec::new();
    let mut plain = Vec::new();
    let mut jnode = Vec::new();
    for w in &suite {
        let b = run(w, Engine::Cnf(Default::default()), None, timeout);
        let p = run(
            w,
            Engine::Circuit(SolverOptions::plain_csat()),
            None,
            timeout,
        );
        let j = run(w, Engine::Circuit(SolverOptions::default()), None, timeout);
        for r in [&b, &p, &j] {
            assert!(!r.unsound, "{}: unsound verdict", r.name);
        }
        json.add("zchaff-class", &b);
        json.add("c-sat", &p);
        json.add("c-sat-jnode", &j);
        table.row(vec![
            w.name.clone(),
            b.time_cell(),
            p.time_cell(),
            j.time_cell(),
        ]);
        base.push(b);
        plain.push(p);
        jnode.push(j);
    }
    table.separator();
    table.row(vec![
        "total".into(),
        total_cell(&base),
        total_cell(&plain),
        total_cell(&jnode),
    ]);
    table.note("* aborted at the timeout (paper: 7200 s)");
    table.print();
    json.finish();
}
