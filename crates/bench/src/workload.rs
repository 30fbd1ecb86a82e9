//! Benchmark workloads: stand-ins for the paper's ISCAS-85 / Velev /
//! ISCAS-89 instances, built from the generators in `csat-netlist`.
//!
//! Names follow the paper's rows ("c3540.equiv", "9vliw004", ...) with the
//! understanding that each is a generated circuit of the same structural
//! character and size ballpark, not the original netlist (see DESIGN.md §3).

use csat_netlist::generators::{self, VliwOptions};
use csat_netlist::miter::{self, MiterStyle};
use csat_netlist::{optimize, Aig, Lit};

/// Workload sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// Paper-ballpark gate counts; the CNF baseline may need its timeout.
    Full,
    /// Shrunk instances so every solver finishes in seconds (CI, Criterion).
    #[default]
    Quick,
}

/// Known satisfiability of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The instance is satisfiable (by construction).
    Sat,
    /// The instance is unsatisfiable (by construction).
    Unsat,
}

/// One benchmark instance.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Row name, mirroring the paper's tables.
    pub name: String,
    /// The circuit.
    pub aig: Aig,
    /// Objective literal (the instance asks "can this be 1").
    pub objective: Lit,
    /// Ground truth, from the construction.
    pub expected: Expected,
}

impl Workload {
    fn unsat(name: &str, m: miter::Miter) -> Workload {
        Workload {
            name: name.to_string(),
            aig: m.aig,
            objective: m.objective,
            expected: Expected::Unsat,
        }
    }
}

/// The base combinational circuits standing in for the ISCAS-85 set.
///
/// The stand-ins are reconvergent arithmetic blocks — the structural
/// family where correlation-guided learning behaves as it did on the
/// ISCAS-85 circuits (DESIGN.md §5a) — sized so the baseline's run times
/// spread over three orders of magnitude, like the paper's rows:
///
/// | row | stand-in | rationale |
/// |---|---|---|
/// | c1355 | 6×6 array multiplier | easiest row (paper: 3.7 s) |
/// | c1908 | 5-bit multiply-accumulate | easy row (paper: 4.6 s) |
/// | c3540 | 8×8 array multiplier | medium row (paper: 53 s) |
/// | c5315 | 6-bit multiply-accumulate | medium row (paper: 56 s) |
/// | c7552 | 10×8 rectangular multiplier | hard row (paper: 215 s) |
/// | c6288 | 16×16 array multiplier | C6288 *was* a 16×16 array multiplier; nobody but explicit learning finishes |
pub fn c_series(scale: Scale) -> Vec<(&'static str, Aig)> {
    let q = scale == Scale::Quick;
    vec![
        ("c1355", generators::array_multiplier(if q { 4 } else { 6 })),
        (
            "c1908",
            generators::multiply_accumulate(if q { 3 } else { 5 }),
        ),
        ("c3540", generators::array_multiplier(if q { 5 } else { 8 })),
        (
            "c5315",
            generators::multiply_accumulate(if q { 4 } else { 6 }),
        ),
        (
            "c7552",
            if q {
                generators::rect_multiplier(6, 4)
            } else {
                generators::rect_multiplier(10, 8)
            },
        ),
    ]
}

/// The multiplier stand-in for C6288 (the paper's hardest instance).
pub fn c6288(scale: Scale) -> Aig {
    generators::array_multiplier(match scale {
        Scale::Full => 16,
        Scale::Quick => 7,
    })
}

/// The C6288 stand-in against a restructured variant, a multiplier
/// `.opt` miter. [`opt_suite`] leaves it out, so the tables built on that
/// suite keep their rows.
pub fn c6288_opt(scale: Scale) -> Workload {
    let circuit = c6288(scale);
    let variant = optimize::restructure_seeded(&circuit, 0xD5C3);
    Workload::unsat(
        "c6288.opt",
        miter::build_fresh(&circuit, &variant, MiterStyle::OrDifference),
    )
}

/// A 12×12 array multiplier against a restructured variant: the miter
/// family that `csat-serve` jobs send with full preprocessing in the
/// end-to-end benchmark's serve-mix workload.
pub fn mul12_opt() -> Workload {
    let circuit = generators::array_multiplier(12);
    let variant = optimize::restructure_seeded(&circuit, 0x3B7);
    Workload::unsat(
        "mul12.opt",
        miter::build_fresh(&circuit, &variant, MiterStyle::OrDifference),
    )
}

/// `*.equiv` miters: two identical copies of each circuit (paper §IV-B),
/// including the multiplier.
pub fn equiv_suite(scale: Scale) -> Vec<Workload> {
    let mut suite: Vec<Workload> = c_series(scale)
        .into_iter()
        .map(|(name, aig)| {
            Workload::unsat(
                &format!("{name}.equiv"),
                miter::self_miter(&aig, MiterStyle::OrDifference),
            )
        })
        .collect();
    suite.push(Workload::unsat(
        "c6288.equiv",
        miter::self_miter(&c6288(scale), MiterStyle::OrDifference),
    ));
    suite
}

/// `*.opt` miters: each circuit against a restructured (functionally
/// equivalent, structurally different) variant — the paper's Design
/// Compiler experiments (§IV-C).
pub fn opt_suite(scale: Scale) -> Vec<Workload> {
    let q = scale == Scale::Quick;
    let row = |name: &str, a: &Aig, seed: u64| {
        let variant = optimize::restructure_seeded(a, seed);
        Workload::unsat(
            &format!("{name}.opt"),
            miter::build_fresh(a, &variant, MiterStyle::OrDifference),
        )
    };
    vec![
        row(
            "c3540",
            &generators::multiply_accumulate(if q { 3 } else { 5 }),
            0xD5C0,
        ),
        row(
            "c5315",
            &generators::multiply_accumulate(if q { 4 } else { 6 }),
            0xD5C1,
        ),
        row(
            "c7552",
            &if q {
                generators::rect_multiplier(5, 4)
            } else {
                generators::rect_multiplier(9, 7)
            },
            0xD5C2,
        ),
    ]
}

/// The SAT-sweeping workload: one netlist holding two structurally
/// different implementations of the same multiply-accumulate, both with
/// live outputs. Random simulation proposes cross-implementation
/// equivalence candidates over it; the sweep rows of `BENCH_solve.json`
/// measure the candidate-proving sequence with and without learned-clause
/// retention (one incremental session vs. a fresh solver per check) —
/// the workload behind `examples/sat_sweeping.rs`.
pub fn sweep_workload(scale: Scale) -> Workload {
    let q = scale == Scale::Quick;
    let base = generators::multiply_accumulate(if q { 3 } else { 5 });
    let variant = optimize::restructure_seeded(&base, 17);
    let mut aig = Aig::new();
    let inputs: Vec<Lit> = (0..base.inputs().len()).map(|_| aig.input()).collect();
    let bouts = miter::import(&mut aig, &base, &inputs);
    let vouts = miter::import_fresh(&mut aig, &variant, &inputs);
    for (k, (&bo, &vo)) in bouts.iter().zip(&vouts).enumerate() {
        aig.set_output(format!("base{k}"), bo);
        aig.set_output(format!("variant{k}"), vo);
    }
    Workload {
        name: "mac.sweep".to_string(),
        aig,
        // The sweep rows solve candidate assumptions, not this objective;
        // it is recorded so the workload stays usable as a plain instance.
        objective: bouts[0],
        expected: Expected::Sat,
    }
}

/// Satisfiable VLIW-like mixed circuit+CNF instances (paper's `9Vliw*`
/// rows). `ids` selects which instances (e.g. `[1, 4, 5, 7, 8, 10]` for
/// Tables II/IV).
pub fn vliw_suite(scale: Scale, ids: &[u32]) -> Vec<Workload> {
    let options = match scale {
        Scale::Full => VliwOptions {
            inputs: 80,
            core_gates: 5000,
            clauses: 5200,
            clause_width: 4,
        },
        Scale::Quick => VliwOptions {
            inputs: 20,
            core_gates: 260,
            clauses: 260,
            clause_width: 3,
        },
    };
    ids.iter()
        .map(|&id| {
            let (aig, objective) = generators::vliw_like(0x971A_0000 + id as u64, &options);
            Workload {
                name: format!("9vliw{id:03}"),
                aig,
                objective,
                expected: Expected::Sat,
            }
        })
        .collect()
}

/// Scan-style shallow UNSAT miters (paper's `sxxxxx.scan.equiv` rows).
pub fn scan_suite(scale: Scale) -> Vec<Workload> {
    let q = scale == Scale::Quick;
    let rows: Vec<(&str, u64, usize, usize)> = vec![
        ("s13207.scan", 13207, if q { 40 } else { 320 }, 3),
        ("s15850.scan", 15850, if q { 48 } else { 380 }, 3),
        ("s35932.scan", 35932, if q { 56 } else { 560 }, 4),
        ("s38417.scan", 38417, if q { 64 } else { 600 }, 4),
        ("s38584.scan", 38584, if q { 72 } else { 640 }, 4),
    ];
    rows.into_iter()
        .map(|(name, seed, width, depth)| {
            let aig = generators::scan_style(seed, width, depth);
            Workload::unsat(
                &format!("{name}.equiv"),
                miter::self_miter(&aig, MiterStyle::OrDifference),
            )
        })
        .collect()
}

/// The two extra combinational rows of Table X: `c2670.equiv` and
/// `c1908.opt` (both easy rows in the paper: 1.89 s and 6.5 s).
pub fn extra_combinational(scale: Scale) -> Vec<Workload> {
    let q = scale == Scale::Quick;
    let c2670 = generators::carry_select_adder(if q { 8 } else { 24 }, 4);
    let c1908 = generators::multiply_accumulate(if q { 3 } else { 5 });
    let c1908_variant = optimize::restructure_seeded(&c1908, 0x1908);
    vec![
        Workload::unsat(
            "c2670.equiv",
            miter::self_miter(&c2670, MiterStyle::OrDifference),
        ),
        Workload::unsat(
            "c1908.opt",
            miter::build_fresh(&c1908, &c1908_variant, MiterStyle::OrDifference),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_rows() {
        let equiv = equiv_suite(Scale::Quick);
        assert_eq!(equiv.len(), 6);
        assert!(equiv.iter().any(|w| w.name == "c6288.equiv"));
        assert_eq!(opt_suite(Scale::Quick).len(), 3);
        assert_eq!(vliw_suite(Scale::Quick, &[1, 4, 5]).len(), 3);
        assert_eq!(scan_suite(Scale::Quick).len(), 5);
        assert_eq!(extra_combinational(Scale::Quick).len(), 2);
    }

    #[test]
    fn sweep_workload_keeps_both_implementations_live() {
        let w = sweep_workload(Scale::Quick);
        assert_eq!(w.name, "mac.sweep");
        // One `base{k}` and one `variant{k}` output per product bit.
        assert!(w.aig.outputs().len() >= 2);
        assert_eq!(w.aig.outputs().len() % 2, 0);
    }

    #[test]
    fn full_scale_is_larger_than_quick() {
        let q: usize = c_series(Scale::Quick)
            .iter()
            .map(|(_, a)| a.and_count())
            .sum();
        let f: usize = c_series(Scale::Full)
            .iter()
            .map(|(_, a)| a.and_count())
            .sum();
        assert!(f > 2 * q, "full {f} vs quick {q}");
    }

    #[test]
    fn equiv_objectives_are_nontrivial() {
        for w in equiv_suite(Scale::Quick) {
            assert!(
                !w.objective.is_constant(),
                "{} folded to a constant",
                w.name
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = vliw_suite(Scale::Quick, &[2]);
        let b = vliw_suite(Scale::Quick, &[2]);
        assert_eq!(a[0].aig.nodes(), b[0].aig.nodes());
    }

    #[test]
    fn full_c6288_is_sixteen_bit() {
        let m = c6288(Scale::Full);
        assert_eq!(m.inputs().len(), 32);
        assert_eq!(m.outputs().len(), 32);
    }
}
