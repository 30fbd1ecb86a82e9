//! Table V — improved results for UNSAT cases with explicit learning:
//! per-correlation-kind ablation ("Signal Pair" / "Signal Vs. 0" / "Both")
//! with sub-problem counts, on the `*.equiv` and `*.opt` miters including
//! the multiplier (C6288 stand-in).

use csat_bench::report::{parse_args, total_cell, Table};
use csat_bench::runner::format_seconds;
use csat_bench::{equiv_suite, opt_suite, run, Workload};
use csat_core::{CorrelationMode, ExplicitOptions, SolverOptions};
use csat_pipeline::Engine;

fn main() {
    let args = parse_args(120);
    let (scale, timeout) = (args.scale, args.timeout);
    let mut json = args.json_report("table5");
    let mut table = Table::new(
        "Table V: improved results for UNSAT cases with explicit learning",
        &[
            "circuit",
            "zchaff-class",
            "pair",
            "pair#",
            "vs0",
            "vs0#",
            "both",
            "simu",
        ],
    );
    let baseline = |w: &Workload| run(w, Engine::Cnf(Default::default()), None, timeout);
    let explicit = |w: &Workload, mode: CorrelationMode| {
        let options = ExplicitOptions {
            mode,
            ..Default::default()
        };
        run(
            w,
            Engine::Circuit(SolverOptions::paper()),
            Some(options),
            timeout,
        )
    };
    // The multiplier row is split out at the bottom, as in the paper.
    let mut equiv: Vec<_> = equiv_suite(scale);
    let c6288 = equiv.pop().expect("multiplier is last");
    for (label, suite) in [("equiv", equiv), ("opt", opt_suite(scale))] {
        let mut base = Vec::new();
        let mut pair = Vec::new();
        let mut vs0 = Vec::new();
        let mut both = Vec::new();
        let mut sim_total = 0.0;
        for w in &suite {
            let b = baseline(w);
            let p = explicit(w, CorrelationMode::Pairs);
            let z = explicit(w, CorrelationMode::Constants);
            let both_r = explicit(w, CorrelationMode::Both);
            for r in [&b, &p, &z, &both_r] {
                assert!(!r.unsound, "{}: unsound verdict", r.name);
            }
            json.add("zchaff-class", &b);
            json.add("pair", &p);
            json.add("vs0", &z);
            json.add("both", &both_r);
            sim_total += both_r.sim_seconds;
            table.row(vec![
                w.name.clone(),
                b.time_cell(),
                p.time_cell(),
                p.subproblems.unwrap_or(0).to_string(),
                z.time_cell(),
                z.subproblems.unwrap_or(0).to_string(),
                both_r.time_cell(),
                format_seconds(both_r.sim_seconds),
            ]);
            base.push(b);
            pair.push(p);
            vs0.push(z);
            both.push(both_r);
        }
        table.separator();
        table.row(vec![
            format!("sub-total ({label})"),
            total_cell(&base),
            total_cell(&pair),
            "".into(),
            total_cell(&vs0),
            "".into(),
            total_cell(&both),
            format_seconds(sim_total),
        ]);
        table.separator();
    }
    let b = baseline(&c6288);
    let p = explicit(&c6288, CorrelationMode::Pairs);
    let z = explicit(&c6288, CorrelationMode::Constants);
    let both_r = explicit(&c6288, CorrelationMode::Both);
    json.add("zchaff-class", &b);
    json.add("pair", &p);
    json.add("vs0", &z);
    json.add("both", &both_r);
    table.row(vec![
        c6288.name.clone(),
        b.time_cell(),
        p.time_cell(),
        p.subproblems.unwrap_or(0).to_string(),
        z.time_cell(),
        z.subproblems.unwrap_or(0).to_string(),
        both_r.time_cell(),
        format_seconds(both_r.sim_seconds),
    ]);
    table.note("* aborted at the timeout (the paper's ZChaff aborted C6288 at 7200 s)");
    table.print();
    json.finish();
}
