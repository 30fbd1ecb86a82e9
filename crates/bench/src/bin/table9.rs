//! Table IX — the effect of partial explicit learning on SAT cases
//! (paper Section V-C): on the VLIW-like instances the trend reverses.

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::{run, vliw_suite, Workload};
use csat_core::{ExplicitOptions, SolverOptions};
use csat_pipeline::Engine;

const FRACTIONS: [f64; 5] = [0.5, 0.7, 0.8, 0.95, 1.0];

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table9");
    let suite = vliw_suite(scale, &[7, 4, 10, 8]);
    let mut headers = vec!["circuit".to_string()];
    headers.extend(FRACTIONS.iter().map(|f| format!("{f}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table IX: the effect of partial learning on SAT cases",
        &header_refs,
    );
    let explicit = |w: &Workload, fraction: f64| {
        let options = ExplicitOptions {
            fraction,
            ..Default::default()
        };
        run(
            w,
            Engine::Circuit(SolverOptions::paper()),
            Some(options),
            timeout,
        )
    };
    let mut per_fraction: Vec<Vec<csat_bench::RunResult>> = vec![Vec::new(); FRACTIONS.len()];
    for w in &suite {
        let mut cells = vec![w.name.clone()];
        for (k, &f) in FRACTIONS.iter().enumerate() {
            let r = explicit(w, f);
            assert!(!r.unsound, "{}: unsound verdict", r.name);
            json.add(&format!("fraction-{f}"), &r);
            cells.push(r.time_cell());
            per_fraction[k].push(r);
        }
        table.row(cells);
    }
    table.separator();
    let mut cells = vec!["total".to_string()];
    for results in &per_fraction {
        cells.push(total_cell(results));
    }
    table.row(cells);
    table.print();
    json.finish();
}
