//! Table IV — improved results for SAT cases with implicit learning:
//! VLIW-like instances, baseline vs implicit learning, with simulation time.

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::runner::format_seconds;
use csat_bench::{run, vliw_suite};
use csat_core::SolverOptions;
use csat_pipeline::Engine;

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table4");
    let suite = vliw_suite(scale, &[7, 10, 4, 1, 8, 5]);
    let mut table = Table::new(
        "Table IV: improved results for SAT cases with implicit learning",
        &["circuit", "zchaff-class", "c-sat-jnode+impl", "simulation"],
    );
    let mut base = Vec::new();
    let mut implicit = Vec::new();
    let mut sim_total = 0.0;
    for w in &suite {
        let b = run(w, Engine::Cnf(Default::default()), None, timeout);
        let i = run(w, Engine::Circuit(SolverOptions::paper()), None, timeout);
        for r in [&b, &i] {
            assert!(!r.unsound, "{}: unsound verdict", r.name);
        }
        json.add("zchaff-class", &b);
        json.add("c-sat-jnode+impl", &i);
        sim_total += i.sim_seconds;
        table.row(vec![
            w.name.clone(),
            b.time_cell(),
            i.time_cell(),
            format_seconds(i.sim_seconds),
        ]);
        base.push(b);
        implicit.push(i);
    }
    table.separator();
    table.row(vec![
        "total".into(),
        total_cell(&base),
        total_cell(&implicit),
        format_seconds(sim_total),
    ]);
    table.print();
    json.finish();
}
