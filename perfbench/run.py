#!/usr/bin/env python3
"""End-to-end benchmark: time to a verdict through the shipped binaries.

    python3 perfbench/run.py --workload cec-batch|sat-vliw|serve-mix \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `cec`, `csat`, `csat-serve` and
the benchmark's own tool (`perfbench/tool`) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), generates the workload's inputs
from the seed, drives the binaries with one solving thread for the given
seconds, and checks every verdict with the benchmark's own evaluator
(`evaluate.py`). It prints a table of metrics, then one JSON object as the
last line of stdout; a per-run record goes to
`<target>/perfbench/<workload>-<seed>/record-trace<0|1>.json`.

`--trace 0` reports the end-to-end metrics, with times adjusted for the
host's speed as a fixed loop measures it at idle points of the run
(`host.py`; the record keeps them as measured); `--trace 1` replays the same
jobs through `perfbench-tool trace`, which times calls into each layer's
public functions from outside the program, and reports per-layer metrics.
A wrong verdict makes the run exit 1; a build failure exits 2 with no
result. README.md explains the workloads, metrics and seeds.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from host import HostSpeed, adjust, calibration_s  # noqa: E402
from workloads import CLI_AS_MEASURED, SERVE_PHASE_OF, WORKLOADS, WrongVerdict, run_cli, run_serve  # noqa: E402


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = str(HERE / "tool" / "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "cec", "--bin", "csat", "--bin", "csat-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)}\n")
            raise SystemExit(2)


def generate(tool, workload, seed, out):
    subprocess.run([str(tool), "gen", workload, str(seed), str(out)], check=True)
    rows = [line.split("\t") for line in (out / "instances.tsv").read_text().splitlines()]
    keys = ("family", "role", "format", "expect", "gates", "file")
    return [dict(zip(keys, row)) for row in rows]


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def main():
    args = parse_args()
    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target
    build(root, target)
    bins = target / "release"
    work = target / "perfbench" / f"{args.workload}-{args.seed}"
    host = HostSpeed()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "calibration_s_start": calibration_s(),
    }
    instances = generate(bins / "perfbench-tool", args.workload, args.seed, work)
    warm = work.parent / "warmup"
    warm_instances = generate(bins / "perfbench-tool", "warmup", 0, warm)
    run = (args.workload, args.seed, args.seconds, bins, work, instances, warm, warm_instances, host)
    try:
        if args.trace:
            metrics, attempted, failed, notes = layers.run(*run)
        elif args.workload == "serve-mix":
            metrics, attempted, failed, notes, _ = run_serve(*run[1:])
        else:
            metrics, attempted, failed, notes = run_cli(*run)
        correct = True
    except WrongVerdict as e:
        print(f"perfbench: WRONG VERDICT {e}", file=sys.stderr)
        metrics, attempted, failed, notes, correct = {}, 1, 1, {"wrong": str(e)}, False
    record.update(notes)
    record["loadavg_end"] = os.getloadavg()
    record["calibration_s_end"] = calibration_s()
    measured = metrics
    if correct and not args.trace:
        serve = args.workload == "serve-mix"
        phase_of, as_measured = (SERVE_PHASE_OF, ()) if serve else ({}, CLI_AS_MEASURED)
        record["host_slowdown"] = host.slowdown()
        record["host_slowdown_by_phase"] = {p: host.slowdown(p) for p in host.samples}
        record["host_samples"] = {p: len(ts) for p, ts in host.samples.items()}
        record["measured"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in measured.items()}
        metrics = adjust(measured, host, phase_of, as_measured)
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    (work / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key in ("nproc", "loadavg_start", "loadavg_end", "calibration_s_start", "calibration_s_end", "host_slowdown_by_phase"):
        if key in record:
            print(f"# {key}: {record[key]}")
    for name, (value, unit, n) in metrics.items():
        as_measured = f"  (measured {measured[name][0]:.6f})" if value != measured[name][0] else ""
        print(f"{name:28s} {value:14.6f} {unit:9s} n={n}{as_measured}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
