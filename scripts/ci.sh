#!/usr/bin/env bash
# The single source of truth for CI checks.
#
# .github/workflows/ci.yml invokes these exact subcommands and the local
# verify workflow runs `scripts/ci.sh all`, so the two cannot drift: a gate
# added here gates both.
#
# Everything runs fully offline against the vendored dependency stand-ins
# (vendor/); CARGO_NET_OFFLINE makes any accidental registry access a hard
# error instead of a hang.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

run_fmt() { cargo fmt --all -- --check; }
run_clippy() { cargo clippy --workspace --all-features -- -D warnings; }
run_build() { cargo build --release; }
run_test() { cargo test --workspace -q; }
run_doc() { cargo doc --no-deps --workspace; }
run_fuzz_smoke() {
    # Differential smoke: 200 seed-0 instances across the quick oracle
    # matrix. Any disagreement exits non-zero and leaves a shrunk repro in
    # fuzz/corpus/ (uploaded as a CI artifact by the fuzz-smoke job).
    cargo run --release --bin csat-fuzz -- \
        --seed 0 --iters 200 --matrix quick --corpus-dir fuzz/corpus
}
run_kernel_parity() {
    # The shared search kernel must stay dependency-light: it has to build
    # with no optional features pulled in by sibling crates.
    cargo build -p csat-search --no-default-features
    # And behavior-parity across backends: a 300-instance sweep of the
    # quick oracle matrix (circuit J-node, full paper config, CNF on the
    # Tseitin encoding) — all of which now run on the kernel — must report
    # zero disagreements. Instance seeds are mix(seed, i), so a seed-0
    # sweep would repeat fuzz-smoke's 200 instances; base seed 1 makes
    # these 300 instances of its own.
    cargo run --release --bin csat-fuzz -- \
        --seed 1 --iters 300 --matrix quick --corpus-dir fuzz/corpus
}
run_incremental() {
    # Incremental-session differential: 300 seed-0 random trajectories of
    # grow/add-clause/push/assume/pop/solve steps on the circuit and CNF
    # solvers, each solve point cross-checked against a fresh
    # monolithic solver on the same accumulated problem. Disagreements are
    # replayed from the seed alone (no corpus repro) and exit non-zero.
    cargo run --release --bin csat-fuzz -- \
        --seed 0 --iters 300 --matrix incremental --corpus-dir fuzz/corpus
}
run_prep() {
    # Preprocessing differential: 300 seed-0 instances each solved through
    # the csat-prep pipeline at off, light and full levels plus the CNF
    # baseline. SAT models are lifted through the reconstruction map and
    # re-checked on the original netlist, so a bad merge, a wrong constant
    # fold or a broken lifting shows up as a matrix disagreement (repro in
    # fuzz/corpus/) — never as a silently wrong answer.
    cargo run --release --bin csat-fuzz -- \
        --seed 0 --iters 300 --matrix prep --corpus-dir fuzz/corpus
}
run_parallel_determinism() {
    # Parallel-vs-sequential differential gate: the same 200 seed-0
    # quick-matrix instances as fuzz-smoke, with the portfolio and
    # cube-and-conquer oracles joining the matrix on 4 workers. Soundness
    # forbids any verdict split between the parallel and sequential
    # columns regardless of scheduling, so every disagreement is a real
    # bug; shrunk repros land in fuzz/corpus/ exactly like fuzz-smoke's.
    cargo run --release --bin csat-fuzz -- \
        --seed 0 --iters 200 --matrix quick --threads 4 --corpus-dir fuzz/corpus
}
run_features() {
    # Feature matrix. Every workspace crate must build bare —
    # --no-default-features catches a crate that silently leans on a
    # sibling's default features — and the `parallel` feature (threaded
    # simulation rounds) must build and test everywhere it is forwarded.
    local crate
    for crate in csat-types csat-netlist csat-telemetry csat-search csat-sim \
        csat-cnf csat-core csat-prep csat-par csat-pipeline csat-fuzz csat-bench csat; do
        cargo build -p "$crate" --no-default-features
    done
    cargo test -q -p csat-sim --features parallel
    cargo test -q --features parallel
}
run_perf_smoke() {
    # Perf regression gate: quick-measure the smoke subset of solve
    # families (same conflict budgets as the checked-in BENCH_solve.json
    # rows, so they compare 1:1) and fail on a >15% regression of
    # ns/conflict adjusted for host speed (each row over the time of a
    # fixed calibration loop taken in the same run). Shared CI runners
    # are noisy — take the best of extra repetitions to keep the gate
    # stable.
    cargo run --release -p csat-bench --bin solve_bench -- --check --reps 5
}
run_perfbench() {
    # The end-to-end benchmark's driver (perfbench/run.py) builds its own
    # tool against the library crates before every timed run, so a public
    # API change that breaks the tool breaks the benchmark. Build it (into
    # target/, not perfbench/) and run the driver's own unit tests.
    CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}/perfbench-tool" \
        cargo build --release --offline --manifest-path perfbench/tool/Cargo.toml
    python3 perfbench/test_perfbench.py
}
run_serve() {
    # Protocol smoke: pipe a scripted JSONL session straight through the
    # daemon binary — solve, status, a malformed line, cancel of an
    # unknown id — and require a clean drain (EOF) with exit 0 and a
    # summary counting the solve.
    cargo build --release --bin csat-serve
    local out
    out=$(printf '%s\n' \
        '{"type": "solve", "id": "smoke", "source": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)", "format": "bench"}' \
        '{"type": "status"}' \
        'this line is not json' \
        '{"type": "cancel", "id": "ghost"}' \
        | ./target/release/csat-serve --stdin --workers 2)
    echo "$out"
    echo "$out" | grep -q '"type": "result".*"status": "sat"'
    echo "$out" | grep -q '"type": "error"'
    echo "$out" | grep -q '"type": "summary".*"sat": 1'
    # Tier-1 protocol integration tests (real binary over stdin/stdout and
    # a unix socket), then the chaos suite: a 120-job mix where a third of
    # the jobs are booby-trapped (injected panics, transient memory
    # exhaustion, self-cancellation, watchdog-length stalls) with a
    # mid-run SIGTERM drain, plus the circuit-breaker trip test.
    cargo test --release --test serve_protocol
    cargo test --release --features fault-injection --test serve_resilience
    # 60-second soak: healthy jobs streamed continuously, RSS must stay
    # bounded across thousands of jobs.
    cargo test --release --features fault-injection --test serve_resilience \
        -- --ignored
    # Hostile-frame fuzz: seeded families of truncated / mutated / garbage
    # / wrong-shape frames against the protocol parser. A parser panic,
    # nondeterministic parse or accept/reject contract violation is a
    # disagreement → exit non-zero, replayable from the seed.
    cargo run --release --bin csat-fuzz -- \
        --seed 0 --iters 300 --matrix serve
}
run_resilience() {
    # Fault injection: force every interrupt reason (panic, memory
    # exhaustion, cancellation, expired clock, conflict/decision budgets)
    # at deterministic checkpoints and check the structured verdicts,
    # telemetry events and panic containment end-to-end.
    cargo test --release --features fault-injection --test fault_injection
    # And a fuzz smoke under a deliberately tiny memory budget: emergency
    # DB reductions and Memory aborts must abstain cleanly, never corrupt
    # an answer (a wrong verdict here is a matrix disagreement → exit 1).
    cargo run --release --bin csat-fuzz -- \
        --seed 7 --iters 60 --matrix quick --mem-limit 65536 \
        --corpus-dir fuzz/corpus
}

# --- `all` orchestration: run every step, time it, and summarize. -------
#
# A failing step stops the run (later steps often depend on earlier
# artifacts), emits a GitHub step annotation (`::error::` — rendered
# prominently in the Actions UI, harmless noise locally) and still prints
# the wall-clock table for everything that ran.

STEP_NAMES=()
STEP_SECS=()
STEP_RESULTS=()

print_summary() {
    echo
    echo "ci step summary:"
    printf '  %-22s %9s  %s\n' "step" "seconds" "result"
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '  %-22s %9s  %s\n' \
            "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}" "${STEP_RESULTS[$i]}"
    done
}

run_step() {
    local name="$1"
    shift
    local start=$SECONDS
    echo "==> $name"
    if "$@"; then
        STEP_NAMES+=("$name")
        STEP_SECS+=($((SECONDS - start)))
        STEP_RESULTS+=("ok")
    else
        STEP_NAMES+=("$name")
        STEP_SECS+=($((SECONDS - start)))
        STEP_RESULTS+=("FAILED")
        echo "::error::scripts/ci.sh step '$name' failed after $((SECONDS - start))s"
        print_summary
        exit 1
    fi
}

case "${1:-all}" in
    fmt) run_fmt ;;
    clippy) run_clippy ;;
    build) run_build ;;
    test) run_test ;;
    doc) run_doc ;;
    fuzz-smoke) run_fuzz_smoke ;;
    kernel-parity) run_kernel_parity ;;
    incremental) run_incremental ;;
    prep) run_prep ;;
    parallel-determinism) run_parallel_determinism ;;
    features) run_features ;;
    perf-smoke) run_perf_smoke ;;
    perfbench) run_perfbench ;;
    serve) run_serve ;;
    resilience) run_resilience ;;
    all)
        run_step fmt run_fmt
        run_step clippy run_clippy
        run_step build run_build
        run_step test run_test
        run_step doc run_doc
        run_step fuzz-smoke run_fuzz_smoke
        run_step kernel-parity run_kernel_parity
        run_step incremental run_incremental
        run_step prep run_prep
        run_step parallel-determinism run_parallel_determinism
        run_step features run_features
        run_step perf-smoke run_perf_smoke
        run_step perfbench run_perfbench
        run_step serve run_serve
        run_step resilience run_resilience
        print_summary
        ;;
    *)
        echo "usage: scripts/ci.sh [fmt|clippy|build|test|doc|fuzz-smoke|kernel-parity|incremental|prep|parallel-determinism|features|perf-smoke|perfbench|serve|resilience|all]" >&2
        exit 2
        ;;
esac
