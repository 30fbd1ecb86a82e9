//! Ablation study over the solver's design choices (beyond the paper's own
//! ablations in Tables V, VI, VIII and IX):
//!
//! * J-node decision restriction on/off (paper: "if we did not treat the
//!   learned gates as J-nodes, the performance would degrade
//!   significantly" — here the whole restriction is toggled);
//! * conflict-clause minimization on/off;
//! * implicit learning on/off on top of J-node decisions;
//! * the restart policy (paper rule vs never restarting).
//!
//! ```sh
//! cargo run --release -p csat-bench --bin ablations -- \
//!     [--quick] [--timeout <secs>] [--json <path>]
//! ```

use csat_bench::report::{parse_args, Table};
use csat_bench::{equiv_suite, opt_suite, run};
use csat_core::SolverOptions;
use csat_pipeline::Engine;

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("ablations");
    let mut rows = equiv_suite(scale);
    rows.truncate(4);
    rows.extend(opt_suite(scale).into_iter().take(2));
    let configs: Vec<(&str, SolverOptions)> = vec![
        ("jnode", SolverOptions::default()),
        ("plain-vsids", SolverOptions::plain_csat()),
        (
            "jnode-nomin",
            SolverOptions::builder().minimize_clauses(false).build(),
        ),
        ("jnode+impl", SolverOptions::with_implicit_learning()),
        (
            "norestart",
            SolverOptions::builder()
                .restart(csat_core::RestartPolicy::BackjumpAverage {
                    window: 4096,
                    threshold: 0.0,
                })
                .build(),
        ),
    ];
    let mut headers = vec!["circuit".to_string()];
    headers.extend(configs.iter().map(|(n, ..)| n.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new("Ablations: solver design choices (secs)", &header_refs);
    for w in &rows {
        let mut cells = vec![w.name.clone()];
        for &(label, options) in &configs {
            let r = run(w, Engine::Circuit(options), None, timeout);
            assert!(!r.unsound, "{}: unsound", r.name);
            json.add(label, &r);
            cells.push(r.time_cell());
        }
        table.row(cells);
    }
    table.note("* aborted at the timeout");
    table.print();
    json.finish();
}
