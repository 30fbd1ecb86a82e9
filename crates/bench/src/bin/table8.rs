//! Table VIII — the effect of *partial* explicit learning on UNSAT cases
//! (paper Section V-C): only correlations below a topological boundary
//! participate.

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::{equiv_suite, run, Workload};
use csat_core::{ExplicitOptions, SolverOptions};
use csat_pipeline::Engine;

const FRACTIONS: [f64; 8] = [0.1, 0.3, 0.4, 0.5, 0.7, 0.9, 0.95, 1.0];

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table8");
    let all = equiv_suite(scale);
    let rows: Vec<&Workload> = all
        .iter()
        .filter(|w| {
            matches!(
                w.name.as_str(),
                "c3540.equiv" | "c5315.equiv" | "c7552.equiv"
            )
        })
        .collect();
    let c6288 = all.iter().find(|w| w.name == "c6288.equiv").expect("c6288");
    let mut headers = vec!["circuit".to_string()];
    headers.extend(FRACTIONS.iter().map(|f| format!("{f}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table VIII: the effect of partial learning on UNSAT cases",
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
    for w in &rows {
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
    let mut cells = vec!["sub-total".to_string()];
    for results in &per_fraction {
        cells.push(total_cell(results));
    }
    table.row(cells);
    table.separator();
    let mut cells = vec![c6288.name.clone()];
    for &f in &FRACTIONS {
        let r = explicit(c6288, f);
        json.add(&format!("fraction-{f}"), &r);
        cells.push(r.time_cell());
    }
    table.row(cells);
    table.note("* aborted at the timeout");
    table.print();
    json.finish();
}
