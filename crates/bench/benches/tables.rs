//! Criterion benches — one group per paper table, on `Scale::Quick`
//! workloads so a full `cargo bench` stays tractable. The `table*`
//! binaries are the full-scale reproduction; these benches track relative
//! solver performance (baseline vs implicit vs explicit) over time.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use csat_bench::{equiv_suite, opt_suite, run, scan_suite, vliw_suite, Scale, Workload};
use csat_core::{CorrelationMode, ExplicitOptions, SolverOptions, SubproblemOrdering};
use csat_pipeline::Engine;

const TIMEOUT: Duration = Duration::from_secs(20);

/// One configuration: the engine, and the explicit pass when given.
type Config = (Engine, Option<ExplicitOptions>);

fn baseline() -> Config {
    (Engine::Cnf(Default::default()), None)
}

fn circuit(options: SolverOptions) -> Config {
    (Engine::Circuit(options), None)
}

fn explicit(options: ExplicitOptions) -> Config {
    (Engine::Circuit(SolverOptions::paper()), Some(options))
}

fn bench_workload(c: &mut Criterion, group: &str, w: &Workload, configs: &[(&str, Config)]) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for &(name, (engine, explicit)) in configs {
        g.bench_function(format!("{}/{name}", w.name), |b| {
            b.iter_batched(
                || w.clone(),
                |w| assert!(!run(&w, engine, explicit, TIMEOUT).unsound),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Tables I & III: UNSAT equiv miters — baseline, plain, jnode, implicit.
fn t1_t3_equiv(c: &mut Criterion) {
    let suite = equiv_suite(Scale::Quick);
    let configs = [
        ("zchaff", baseline()),
        ("csat", circuit(SolverOptions::plain_csat())),
        ("jnode", circuit(SolverOptions::default())),
        ("implicit", circuit(SolverOptions::paper())),
    ];
    for w in suite
        .iter()
        .filter(|w| matches!(w.name.as_str(), "c1355.equiv" | "c3540.equiv"))
    {
        bench_workload(c, "t1_t3_unsat_equiv", w, &configs);
    }
}

/// Tables II & IV: SAT VLIW-like — baseline vs implicit.
fn t2_t4_sat(c: &mut Criterion) {
    let suite = vliw_suite(Scale::Quick, &[1, 4]);
    let configs = [
        ("zchaff", baseline()),
        ("implicit", circuit(SolverOptions::paper())),
    ];
    for w in &suite {
        bench_workload(c, "t2_t4_sat_vliw", w, &configs);
    }
}

/// Table V: explicit learning ablation (pair / const / both) + opt suite.
fn t5_explicit(c: &mut Criterion) {
    let mut rows = equiv_suite(Scale::Quick);
    rows.truncate(1);
    rows.extend(opt_suite(Scale::Quick).into_iter().take(1));
    let cfg = |mode: CorrelationMode| {
        explicit(ExplicitOptions {
            mode,
            ..Default::default()
        })
    };
    let configs = [
        ("pair", cfg(CorrelationMode::Pairs)),
        ("vs0", cfg(CorrelationMode::Constants)),
        ("both", cfg(CorrelationMode::Both)),
    ];
    for w in &rows {
        bench_workload(c, "t5_explicit_modes", w, &configs);
    }
}

/// Table VI: ordering ablation on the multiplier row.
fn t6_ordering(c: &mut Criterion) {
    let suite = equiv_suite(Scale::Quick);
    let w = &suite[2]; // c3540.equiv: a mid-size multiplier miter
    let cfg = |ordering: SubproblemOrdering| {
        explicit(ExplicitOptions {
            ordering,
            ..Default::default()
        })
    };
    let configs = [
        ("topological", cfg(SubproblemOrdering::Topological)),
        ("reverse", cfg(SubproblemOrdering::Reverse)),
        ("random", cfg(SubproblemOrdering::Random(7))),
    ];
    bench_workload(c, "t6_ordering", w, &configs);
}

/// Tables VII & IX: explicit learning on SAT cases (full and partial).
fn t7_t9_sat_explicit(c: &mut Criterion) {
    let suite = vliw_suite(Scale::Quick, &[7]);
    let cfg = |fraction: f64| {
        explicit(ExplicitOptions {
            fraction,
            ..Default::default()
        })
    };
    let configs = [("frac0.5", cfg(0.5)), ("frac1.0", cfg(1.0))];
    for w in &suite {
        bench_workload(c, "t7_t9_sat_explicit", w, &configs);
    }
}

/// Table VIII: partial learning sweep on the multiplier row.
fn t8_partial(c: &mut Criterion) {
    let suite = equiv_suite(Scale::Quick);
    let w = &suite[2]; // c3540.equiv
    let cfg = |fraction: f64| {
        explicit(ExplicitOptions {
            fraction,
            ..Default::default()
        })
    };
    let configs = [
        ("frac0.5", cfg(0.5)),
        ("frac0.9", cfg(0.9)),
        ("frac1.0", cfg(1.0)),
    ];
    bench_workload(c, "t8_partial_learning", w, &configs);
}

/// Table X: scan-style shallow miters — implicit vs explicit.
fn t10_scan(c: &mut Criterion) {
    let suite = scan_suite(Scale::Quick);
    let configs = [
        ("implicit", circuit(SolverOptions::paper())),
        ("explicit", explicit(ExplicitOptions::default())),
    ];
    for w in suite.iter().take(2) {
        bench_workload(c, "t10_scan", w, &configs);
    }
}

criterion_group!(
    tables,
    t1_t3_equiv,
    t2_t4_sat,
    t5_explicit,
    t6_ordering,
    t7_t9_sat_explicit,
    t8_partial,
    t10_scan
);
criterion_main!(tables);
