//! Table VI — the effect of the explicit-learning sub-problem ordering:
//! topological vs reverse vs random (paper Section V-A).

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::{equiv_suite, run, Workload};
use csat_core::{ExplicitOptions, SolverOptions, SubproblemOrdering};
use csat_pipeline::Engine;

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table6");
    let mut suite = equiv_suite(scale);
    let c6288 = suite.pop().expect("multiplier is last");
    // The paper's Table VI covers the equiv miters except c1355/c1908 run
    // them too — keep all rows.
    let mut table = Table::new(
        "Table VI: effects from the ordering of explicit learning",
        &["circuit", "topological", "reverse", "random"],
    );
    let explicit = |w: &Workload, ordering: SubproblemOrdering| {
        let options = ExplicitOptions {
            ordering,
            ..Default::default()
        };
        run(
            w,
            Engine::Circuit(SolverOptions::paper()),
            Some(options),
            timeout,
        )
    };
    let orderings = [
        ("topological", SubproblemOrdering::Topological),
        ("reverse", SubproblemOrdering::Reverse),
        ("random", SubproblemOrdering::Random(0xDA7E)),
    ];
    let mut per_order: [Vec<csat_bench::RunResult>; 3] = Default::default();
    for w in &suite {
        let mut cells = vec![w.name.clone()];
        for (k, &(label, ordering)) in orderings.iter().enumerate() {
            let r = explicit(w, ordering);
            assert!(!r.unsound, "{}: unsound verdict", r.name);
            json.add(label, &r);
            cells.push(r.time_cell());
            per_order[k].push(r);
        }
        table.row(cells);
    }
    table.separator();
    table.row(vec![
        "sub-total".into(),
        total_cell(&per_order[0]),
        total_cell(&per_order[1]),
        total_cell(&per_order[2]),
    ]);
    table.separator();
    let mut cells = vec![c6288.name.clone()];
    for &(label, ordering) in &orderings {
        let r = explicit(&c6288, ordering);
        json.add(label, &r);
        cells.push(r.time_cell());
    }
    table.row(cells);
    table.note("* aborted at the timeout");
    table.print();
    json.finish();
}
