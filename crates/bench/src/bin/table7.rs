//! Table VII — run-time degradation for SAT cases in explicit learning
//! (paper Section V-B): on the partially-CNF VLIW-like instances the
//! explicit strategy loses its edge.

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::runner::format_seconds;
use csat_bench::{run, vliw_suite};
use csat_core::{ExplicitOptions, SolverOptions};
use csat_pipeline::Engine;

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table7");
    let suite = vliw_suite(scale, &[7, 10, 4, 1, 8, 5]);
    let mut table = Table::new(
        "Table VII: run time degradation for SAT cases in explicit learning",
        &[
            "circuit",
            "zchaff-class",
            "c-sat-jnode (both)",
            "simulation",
        ],
    );
    let mut base = Vec::new();
    let mut exp = Vec::new();
    let mut sim_total = 0.0;
    for w in &suite {
        let b = run(w, Engine::Cnf(Default::default()), None, timeout);
        let e = run(
            w,
            Engine::Circuit(SolverOptions::paper()),
            Some(ExplicitOptions::default()),
            timeout,
        );
        for r in [&b, &e] {
            assert!(!r.unsound, "{}: unsound verdict", r.name);
        }
        json.add("zchaff-class", &b);
        json.add("c-sat-jnode-both", &e);
        sim_total += e.sim_seconds;
        table.row(vec![
            w.name.clone(),
            b.time_cell(),
            e.time_cell(),
            format_seconds(e.sim_seconds),
        ]);
        base.push(b);
        exp.push(e);
    }
    table.separator();
    table.row(vec![
        "total".into(),
        total_cell(&base),
        total_cell(&exp),
        format_seconds(sim_total),
    ]);
    table.print();
    json.finish();
}
