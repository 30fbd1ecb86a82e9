"""The traced run: per-layer metrics from spans around library calls.

`perfbench-tool trace` replays each job in one process, calling the public
functions each layer exposes, and records a span around every call. A
layer's self time is its spans minus the child spans inside them; the
replay's spans are leaves under one `job` span, so a layer's time is the sum
of its spans and the `job` span's own remainder is what no layer accounts
for. Time metrics are per-job means (weighted by how often a job ran), so
they add up to the per-job wall time; counts are sums over the distinct
jobs replayed. A second replay, in a process of its own and with the order
of each job's untraced and traced pass flipped, checks that the counts
repeat exactly and balances the tracing-overhead figure.
"""

import json
import subprocess
from collections import defaultdict

import workloads
from stats import median

COUNTS = (
    "netlist.ands",
    "sim.rounds",
    "sim.patterns",
    "sim.correlations",
    "explicit.subproblems",
    "explicit.aborted",
    "explicit.conflicts",
    "search.conflicts",
    "search.decisions",
    "search.propagations",
    "search.restarts",
    "search.db_reductions",
    "prep.nodes_in",
    "prep.nodes_out",
    "prep.candidates",
    "prep.sweep_conflicts",
)
# Largest share of per-job wall time the layers may leave unexplained.
UNACCOUNTED_TOLERANCE = 0.10
SERVE_UNITS = {
    "serve.admit_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.run_ms": "ms",
    "serve.busy_frac": "fraction",
    "serve.rejects": "count",
    "serve.gen_late_ms": "ms",
}
# Job passes a traced CLI run replays (the first passes of a timed run).
TRACE_PASSES = {"cec-batch": 3, "sat-vliw": 2}


class Replayer:
    """A `perfbench-tool trace` process that replays jobs as they are handed
    to it, so a caller can interleave each replay with the CLI run it
    explains."""

    def __init__(self, bins, work, name, traced_first):
        self.work, self.out = work, work / f"trace-{name}.json"
        first = "traced" if traced_first else "untraced"
        self.proc = subprocess.Popen(
            [str(bins / "perfbench-tool"), "trace", str(work), str(self.out), first],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.jobs = []

    def replay(self, job):
        self.proc.stdin.write((job.tsv(self.work) + "\n").encode())
        self.proc.stdin.flush()
        if self.proc.stdout.readline() != b"done\n":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"perfbench-tool trace failed on {job.id}")
        self.jobs.append(job)

    def finish(self):
        """Waits for the trace; returns its per-job records with spans."""
        self.proc.stdin.close()
        code = self.proc.wait()
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"perfbench-tool trace exited with {code}")
        data = json.loads(self.out.read_text())
        records = data["jobs"]
        for job, rec in zip(self.jobs, records):
            # A cec pair is equivalent when its miter is unsatisfiable.
            expect = {"equiv": "unsat", "diff": "sat"}.get(job.expect, job.expect)
            if rec["verdict"] != expect:
                raise workloads.WrongVerdict(f"replay of {job.id}: {rec['verdict']} (expected {expect})")
            rec["layers"] = defaultdict(float)
            rec["spans"] = defaultdict(float)
        for name, job, parent, start, end in data["spans"]:
            rec = records[job]
            if parent is None:
                rec["root_s"] = end - start
            else:
                rec["spans"][name] += end - start
                rec["layers"][name.split(".")[0]] += end - start
        return records


def replay_all(bins, work, name, jobs, traced_first):
    replayer = Replayer(bins, work, name, traced_first)
    for job in jobs:
        replayer.replay(job)
    return replayer.finish()


def layer_metrics(records, weights):
    total_w = sum(weights)

    def mean_ms(pick):
        return 1000 * sum(w * pick(r) for r, w in zip(records, weights)) / total_w

    def total(name):
        return sum(r["counts"].get(name, 0) for r in records)

    def ratio(num, den):
        return num / den if den else 0.0

    parse_s = sum(w * r["spans"]["netlist.parse"] for r, w in zip(records, weights))
    parse_bytes = sum(w * r["counts"].get("netlist.bytes", 0) for r, w in zip(records, weights))
    solve_s = sum(r["spans"]["search.solve"] for r in records)
    m = {
        "netlist.parse_ms": (mean_ms(lambda r: r["spans"]["netlist.parse"]), "ms"),
        "netlist.parse_mb_per_s": (ratio(parse_bytes, parse_s) / 1e6, "MB/s"),
        "netlist.miter_ms": (mean_ms(lambda r: r["spans"]["netlist.miter"]), "ms"),
        "sim.correlate_ms": (mean_ms(lambda r: r["layers"]["sim"]), "ms"),
        "explicit.run_ms": (mean_ms(lambda r: r["layers"]["explicit"]), "ms"),
        "explicit.refuted_frac": (ratio(total("explicit.refuted"), total("explicit.subproblems")), "fraction"),
        "search.solve_ms": (mean_ms(lambda r: r["layers"]["search"]), "ms"),
        "search.us_per_conflict": (1e6 * ratio(solve_s, total("search.conflicts")), "us"),
        "prep.run_ms": (mean_ms(lambda r: r["layers"]["prep"]), "ms"),
        "prep.merge_frac": (ratio(total("prep.merged"), total("prep.candidates")), "fraction"),
        "cli.validate_ms": (mean_ms(lambda r: r["layers"]["cli"]), "ms"),
    }
    for name in COUNTS:
        m[name] = (total(name), "count")
    return m


def count_mismatches(first, second):
    """Jobs whose counts differ between the untraced and traced pass of one
    replay, and jobs counted differently by the two replays."""
    in_run = [rec["id"] for rec in first + second if not rec["counts_repeat"]]
    across = [a["id"] for a, b in zip(first, second) if a["counts"] != b["counts"]]
    return in_run, across


def run(workload, seed, seconds, bins, work, instances, warm, warm_instances, host):
    if workload == "serve-mix":
        metrics, attempted, failed, notes, phases = workloads.run_serve(
            seed, seconds, bins, work, instances, warm, warm_instances, host
        )
        # The open loop's latency is what the layers must account for.
        pool, opened, _ = phases
        records = replay_all(bins, work, "a", pool, traced_first=False)
        weights = [0] * len(pool)
        for job_id in opened.results:
            weights[opened.pool[job_id]] += 1
        results = [(j, *opened.results[j]) for j in opened.results if opened.results[j][1]["type"] == "result"]
        admit = [opened.queued[j] - opened.sent[j] for j, _, _ in results]
        run_s = [f["elapsed_ms"] / 1000 for _, _, f in results]
        queue_s = [at - opened.queued[j] - r for (j, at, _), r in zip(results, run_s)]
        wall = sum(at - opened.sent[j] for j, at, _ in results)
        rec = [records[opened.pool[j]] for j, _, _ in results]
        worker = sum(r["root_s"] - r["spans"]["netlist.parse"] for r in rec)
        unaccounted = abs(sum(run_s) - worker) / wall
        serve_values = {
            "serve.admit_ms": 1000 * sum(admit) / len(admit),
            "serve.queue_ms": 1000 * sum(queue_s) / len(queue_s),
            "serve.run_ms": 1000 * sum(run_s) / len(run_s),
            "serve.busy_frac": notes["worker_busy_frac"],
            "serve.rejects": notes["rejects"],
            "serve.gen_late_ms": notes["gen_late_ms_mean"],
        }
        other_ms = 0.0
        notes["end_to_end"] = {k: v for k, (v, _, _) in metrics.items()}
        jobs = pool
    else:
        for _ in range(2):
            workloads.warmup_cli(workload, bins, warm, warm_instances)
        passes = workloads.cli_jobs(workload, work, instances, seed)
        jobs = [job for _ in range(TRACE_PASSES[workload]) for job in next(passes)]
        # Each CLI run is followed at once by its replay, so host drift
        # falls on both alike.
        replayer = Replayer(bins, work, "a", traced_first=False)
        runs = []
        for job in jobs:
            runs.append(workloads.Spawn(job.argv(bins)))
            replayer.replay(job)
        records = replayer.finish()
        outcomes = workloads.check_cli(list(zip(jobs, runs)))
        attempted, failed = len(jobs), len(jobs) - outcomes.count("ok")
        weights = [1] * len(records)
        cli_wall = sum(r.wall_s for r in runs)
        replayed = sum(rec["root_s"] for rec in records)
        other_s = cli_wall - replayed
        # Replayed time outside every layer span, plus any replayed time the
        # CLI's own wall time does not cover (a negative cli.other_ms).
        gaps = sum(abs(rec["root_s"] - sum(rec["layers"].values())) for rec in records)
        unaccounted = (gaps + max(0.0, -other_s)) / cli_wall
        serve_values = dict.fromkeys(SERVE_UNITS, 0)
        other_ms = 1000 * other_s / len(records)
        notes = {"jobs": len(jobs), "cli_wall_ms_median": 1000 * median([r.wall_s for r in runs])}
    # A second replay in a process of its own, with the pass order flipped,
    # checks that counts repeat exactly and balances the overhead figure.
    second = replay_all(bins, work, "b", jobs, traced_first=True)
    in_run, across = count_mismatches(records, second)
    both = records + second
    overhead = median([rec["root_s"] for rec in both]) / median([rec["untraced_s"] for rec in both]) - 1
    # A layer the workload bypasses reads 0.
    layer = layer_metrics(records, weights)
    layer.update({name: (value, SERVE_UNITS[name]) for name, value in serve_values.items()})
    layer["cli.other_ms"] = (other_ms, "ms")
    layer.update(
        {
            "trace.unaccounted_frac": (unaccounted, "fraction"),
            "trace.overhead_frac": (overhead, "fraction"),
            "trace.count_mismatches": (len(in_run) + len(across), "count"),
        }
    )
    notes.update(
        {
            "replayed_jobs": len(records),
            "unaccounted_tolerance": UNACCOUNTED_TOLERANCE,
            "unaccounted_within_tolerance": unaccounted <= UNACCOUNTED_TOLERANCE,
            "count_mismatches_in_run": in_run,
            "count_mismatches_across_replays": across,
        }
    )
    for job_id in in_run:
        print(f"perfbench: counts differ between the two passes over {job_id}")
    for job_id in across:
        print(f"perfbench: counts of {job_id} differ between two replays at seed {seed}")
    metrics = {k: (v, u, len(records)) for k, (v, u) in layer.items()}
    return metrics, attempted, failed, notes
