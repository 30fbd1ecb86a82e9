//! Table X — additional SAT and UNSAT cases: more VLIW-like instances,
//! the extra combinational rows (`c2670.equiv`, `c1908.opt`), and the
//! scan-style shallow miters, comparing baseline vs implicit vs explicit.

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::runner::format_seconds;
use csat_bench::workload::extra_combinational;
use csat_bench::{run, scan_suite, vliw_suite, Workload};
use csat_core::{ExplicitOptions, SolverOptions};
use csat_pipeline::Engine;

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table10");
    let mut table = Table::new(
        "Table X: results for additional SAT and UNSAT cases",
        &[
            "circuit",
            "zchaff-class",
            "implicit",
            "explicit",
            "simulation",
        ],
    );
    let run_section =
        |table: &mut Table, json: &mut csat_bench::JsonReport, rows: &[Workload], label: &str| {
            let mut base = Vec::new();
            let mut imp = Vec::new();
            let mut exp = Vec::new();
            let mut sim_total = 0.0;
            for w in rows {
                let paper = Engine::Circuit(SolverOptions::paper());
                let b = run(w, Engine::Cnf(Default::default()), None, timeout);
                let i = run(w, paper, None, timeout);
                let e = run(w, paper, Some(ExplicitOptions::default()), timeout);
                for r in [&b, &i, &e] {
                    assert!(!r.unsound, "{}: unsound verdict", r.name);
                }
                json.add("zchaff-class", &b);
                json.add("implicit", &i);
                json.add("explicit", &e);
                sim_total += e.sim_seconds;
                table.row(vec![
                    w.name.clone(),
                    b.time_cell(),
                    i.time_cell(),
                    e.time_cell(),
                    format_seconds(e.sim_seconds),
                ]);
                base.push(b);
                imp.push(i);
                exp.push(e);
            }
            table.separator();
            table.row(vec![
                format!("sub-total ({label})"),
                total_cell(&base),
                total_cell(&imp),
                total_cell(&exp),
                format_seconds(sim_total),
            ]);
            table.separator();
        };
    let vliw = vliw_suite(scale, &[9, 17, 1, 24, 21, 15, 19]);
    run_section(&mut table, &mut json, &vliw, "sat");
    let mut unsat_rows = extra_combinational(scale);
    unsat_rows.extend(scan_suite(scale));
    run_section(&mut table, &mut json, &unsat_rows, "unsat");
    table.note("* aborted at the timeout");
    table.print();
    json.finish();
}
