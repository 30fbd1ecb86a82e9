"""The timed workloads: CLI jobs back to back, and the serve phases."""

import itertools
import os
import queue
import random
import subprocess
import threading
import time

import evaluate
import serve
from stats import arrivals, job_order, median, tail, whole_rounds

WORKLOADS = ("cec-batch", "sat-vliw", "serve-mix")
# Set-ups per run, spread over it (CLI: between job passes; serve: one
# before, one after and the rest in breaks of the open loop), so their
# median sees the host as the measured work does: the host switches
# between a fast and a slow state every few seconds.
SETUP_REPS = 10
CLI_TIMEOUT_S = 60
# A CLI run makes a fixed number of job passes, sized from --seconds with
# the pass time measured on a 2-core host; a fixed sample count keeps the
# tail at the same percentile in every run. A run that takes more than
# OVERRUN times --seconds stops after the current pass.
NOMINAL_PASS_S = {"cec-batch": 0.7, "sat-vliw": 3.6}
OVERRUN = 3
# Latency limits behind slo_frac, per workload.
SLO_MS = {"cec-batch": 10_000, "sat-vliw": 10_000, "serve-mix": 2_000}
# cec-batch: planted differences go on the two smallest families. On
# larger ones a DIFFERENT verdict's time is heavy-tailed (c3540 up to 2.1 s
# and c7552 up to 8.5 s against medians of 24-39 ms), more than a run can
# average out.
CEC_DIFF_FAMILIES = ("c1355", "c1908")
SAT_PASS = 8  # sat-vliw instances per pass
# serve-mix: the open loop offers whole rounds of the pool, every instance
# equally often, as Poisson arrivals at SERVE_RATE jobs/s (the worker is
# about 15% busy on a 2-core host, so queueing does not amplify host noise
# into the latencies); its rounds are sized from SERVE_OPEN_SHARE of the
# run. The closed loop then offers SERVE_CLOSED_ROUNDS rounds with
# SERVE_OUTSTANDING jobs in flight, so the worker's queue never empties, in
# segments of SERVE_SEGMENT jobs with a host-loop timing between them. With
# two rounds its jobs/s moved by 0.14-0.19 (interquartile range over median,
# seeds 1-5, host-adjusted); with three, by 0.06.
SERVE_RATE = 16.0
SERVE_OPEN_SHARE = 0.8
SERVE_CLOSED_ROUNDS = 3
SERVE_OUTSTANDING = 4
SERVE_SEGMENT = 10
SERVE_TIMEOUT_MS = 30_000
# The open loop times the host loop (a few ms; see host.py) once in a gap
# between jobs when every job sent has been answered, the last frame is
# HOST_QUIET_S old, so the loop runs while the daemon idles, and the next
# job is not due for HOST_GAP_S.
HOST_GAP_S = 0.02
HOST_QUIET_S = 0.01
# The serve phase whose host speed adjusts each metric (host.py); the others
# take the whole run's.
SERVE_PHASE_OF = {"verdict_p50_ms": "open", "verdict_tail_ms": "open", "jobs_per_s": "closed"}
# A CLI tail is the slowest few single jobs, which meet the host's slowest
# moments, not its mean speed, so it is reported as measured: on cec-batch,
# scaled by the mean slowdown it spread 0.05-0.18 over three sets of ten
# seeds, as measured 0.05-0.07. The serve tail is queueing, which follows
# the mean speed (0.11-0.16 adjusted, 0.20-0.27 as measured).
CLI_AS_MEASURED = ("verdict_tail_ms",)


class WrongVerdict(Exception):
    """A verdict that contradicts the answer known by construction."""


class Spawn:
    """One CLI process, timed from spawn to exit, with its rusage."""

    def __init__(self, argv, timeout=CLI_TIMEOUT_S):
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        self.stdout = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - started
        killer.cancel()
        proc.stdout.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_kb = usage.ru_maxrss


# ---------------------------------------------------------------- CLI jobs


class CliJob:
    """A `cec` or `csat` invocation with its known answer."""

    def __init__(self, job_id, kind, files, expect):
        self.id, self.kind, self.files, self.expect = job_id, kind, files, expect

    def argv(self, bins):
        return [str(bins / self.kind)] + [str(f) for f in self.files]

    def tsv(self, base):
        rel = [str(f.relative_to(base)) for f in self.files]
        return "\t".join([self.kind, self.id, self.expect] + rel)

    def check(self, run, netlists):
        """'ok', 'failed' (no verdict) or raises WrongVerdict."""
        out = run.stdout
        if self.kind == "cec":
            if run.code == 0 and out.startswith("EQUIVALENT"):
                verdict, good = "equiv", True
            elif run.code == 1 and out.startswith("DIFFERENT"):
                bits = out.split("input:", 1)[1].split()[0]
                left, right = (netlists(f) for f in self.files)
                verdict, good = "diff", evaluate.distinguishes(left, right, bits)
            else:
                return "failed"
        else:
            if run.code == 10 and out.startswith("s SATISFIABLE"):
                bits = out.split("\nv ", 1)[1].split()[0]
                verdict, good = "sat", netlists(self.files[0]).satisfied_by(bits)
            elif run.code == 20:
                verdict, good = "unsat", True
            else:
                return "failed"
        if verdict != self.expect or not good:
            raise WrongVerdict(f"{self.id}: {verdict} (expected {self.expect}), evidence ok={good}")
        return "ok"


def check_cli(runs):
    """Checks every (job, Spawn) pair; netlists are parsed once each."""
    cache = {}

    def netlists(path):
        if path not in cache:
            cache[path] = evaluate.Bench(path.read_text())
        return cache[path]

    return [job.check(run, netlists) for job, run in runs]


def cli_jobs(workload, work, instances, seed):
    """An endless supply of job passes for a CLI workload. A cec-batch pass
    checks every family against itself and against its next restructured
    variant, and gets its planted differences when it is first reached; the
    caller keeps that time out of the measured window."""
    if workload == "sat-vliw":
        sats = [CliJob(i["family"], "csat", [work / i["file"]], "sat") for i in instances]
        for p in itertools.count():
            start = (p * SAT_PASS) % len(sats)
            yield (sats + sats)[start : start + SAT_PASS]
    files = {(i["family"], i["role"]): work / i["file"] for i in instances}
    families = list(dict.fromkeys(i["family"] for i in instances))
    variants = {f: sum(1 for fam, role in files if fam == f and role.startswith("opt")) for f in families}
    rng = random.Random(f"cec-diff-{seed}")
    passes = {}
    for p in itertools.count():
        k = p % max(variants.values())
        if k not in passes:
            jobs = []
            for fam in families:
                left = files[(fam, "left")]
                jobs.append(CliJob(f"{fam}.equiv", "cec", [left, left], "equiv"))
                if variants[fam]:
                    role = f"opt{k % variants[fam]}"
                    jobs.append(CliJob(f"{fam}.{role}", "cec", [left, files[(fam, role)]], "equiv"))
            for fam in CEC_DIFF_FAMILIES:
                text, _ = evaluate.plant_difference(files[(fam, f"opt{k}")].read_text(), rng)
                path = work / f"{fam}.diff{k}.bench"
                path.write_text(text)
                jobs.append(CliJob(f"{fam}.diff{k}", "cec", [files[(fam, "left")], path], "diff"))
            passes[k] = jobs
        yield passes[k]


def warmup_cli(workload, bins, warm, warm_instances):
    """One timed pass over the fixed warm-up set."""
    files = {(i["family"], i["role"]): warm / i["file"] for i in warm_instances}
    if workload == "cec-batch":
        jobs = []
        for fam, role in files:
            if role == "left":
                left = files[(fam, "left")]
                jobs.append(CliJob("warm.equiv", "cec", [left, left], "equiv"))
                jobs.append(CliJob("warm.opt", "cec", [left, files[(fam, "opt")]], "equiv"))
    else:
        jobs = [CliJob("warm", "csat", [warm / i["file"]], "sat") for i in warm_instances if i["role"] == "sat"]
    started = time.perf_counter()
    for job in jobs:
        Spawn(job.argv(bins))
    return time.perf_counter() - started


def run_cli(workload, seed, seconds, bins, work, instances, warm, warm_instances, host):
    count = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    setups, setup_due = [], [k * count // SETUP_REPS for k in range(SETUP_REPS)]
    runs = []
    window = 0.0
    passes = cli_jobs(workload, work, instances, seed)
    for p in range(count):
        while setup_due and setup_due[0] == p:
            setup_due.pop(0)
            setups.append(warmup_cli(workload, bins, warm, warm_instances))
        for job in next(passes):
            started = time.perf_counter()
            runs.append((job, Spawn(job.argv(bins))))
            window += time.perf_counter() - started
            # Right after each job, so the loop sees the host as it was.
            host.sample()
        if window > OVERRUN * seconds:
            break
    setups += [warmup_cli(workload, bins, warm, warm_instances) for _ in setup_due]
    outcomes = check_cli(runs)
    ok = outcomes.count("ok")
    lat = [r.wall_s * 1000 for _, r in runs]
    pct, tail_ms, beyond = tail(lat)
    slo_ok = sum(1 for o, v in zip(outcomes, lat) if o == "ok" and v <= SLO_MS[workload])
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "verdict_p50_ms": (median(lat), "ms", len(lat)),
        "verdict_tail_ms": (tail_ms, "ms", len(lat)),
        "jobs_per_s": (ok / window, "1/s", ok),
        "cpu_ms_per_job": (1000 * sum(r.cpu_s for _, r in runs) / len(runs), "ms", len(runs)),
        "peak_rss_mb": (max(r.rss_kb for _, r in runs) / 1024, "MB", len(runs)),
        "ok_frac": (ok / len(runs), "fraction", len(runs)),
        "slo_frac": (slo_ok / len(runs), "fraction", len(runs)),
    }
    slowest = sorted(runs, key=lambda jr: jr[1].wall_s)[-10:]
    notes = {
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "window_s": window,
        "jobs": len(runs),
        "setups_s": setups,
        "slowest_jobs_ms": [[job.id, 1000 * r.wall_s] for job, r in reversed(slowest)],
    }
    return metrics, len(runs), len(runs) - ok, notes


# ---------------------------------------------------------------- serve-mix


class ServeJob:
    """A serve-mix pool instance, its solve frame and its known answer."""

    def __init__(self, item, work):
        self.id = f'{item["family"]}.{item["role"]}'
        self.format, self.expect = item["format"], item["expect"]
        self.path = work / item["file"]
        self.text = self.path.read_text()
        self.prep = "full" if item["role"] == "opt-miter" else "off"
        self.body = serve.solve_body(self.format, self.text, self.prep, SERVE_TIMEOUT_MS)
        self.evaluator = None
        self.models = {}  # model -> verdict of the evaluator

    def frame(self, job_id):
        return serve.solve_frame(job_id, self.body)

    def tsv(self, base):
        return "\t".join(["serve", self.id, self.expect, self.format, self.prep, str(self.path.relative_to(base))])

    def check(self, result):
        status = result.get("status") if result else None
        if status not in ("sat", "unsat"):
            return "failed"
        good = status != "sat" or self.model_ok(result["model"])
        if status != self.expect or not good:
            raise WrongVerdict(f"{self.id}: {status} (expected {self.expect}), model ok={good}")
        return "ok"

    def model_ok(self, model):
        """Evaluates each distinct model once; a job's repeats return the
        same model."""
        if model not in self.models:
            if self.evaluator is None:
                self.evaluator = evaluate.load(self.format, self.text)
            self.models[model] = self.evaluator.satisfied_by(model)
        return self.models[model]


def serve_setup(exe, warm_jobs):
    """Spawn, first `status` reply, then the warm-up jobs answered."""
    daemon = serve.Daemon(exe)
    try:
        daemon.send(b'{"type": "status"}')
        daemon.wait_for("status")
        for k, job in enumerate(warm_jobs):
            daemon.send(job.frame(f"warm{k}"))
        for _ in warm_jobs:
            daemon.wait_for("result")
    except BaseException:
        daemon.close(timeout=5)
        raise
    return daemon, time.perf_counter() - daemon.spawned


def timed_setup(exe, warm_jobs):
    """One more set-up, on a daemon of its own that is then killed: a
    graceful drain of an idle daemon takes over a second."""
    daemon, took = serve_setup(exe, warm_jobs)
    daemon.close(timeout=0)
    return took


class Tracker:
    """Frames of one phase, matched to the jobs that caused them."""

    def __init__(self):
        self.sent, self.due, self.queued, self.results, self.pool = {}, {}, {}, {}, {}
        self.rejects = 0
        self.last_at = 0.0

    def take(self, daemon, timeout):
        """Handles the next frame, if one arrives within `timeout` seconds."""
        try:
            at, frame = daemon.next_frame(timeout)
        except queue.Empty:
            return
        if frame is None:
            raise RuntimeError("csat-serve exited mid-run")
        kind, job_id = frame.get("type"), frame.get("id")
        self.last_at = at
        if kind == "queued":
            self.queued[job_id] = at
        elif kind in ("result", "reject"):
            self.results[job_id] = (at, frame)
            self.rejects += kind == "reject"

    def outstanding(self):
        return len(self.sent) - len(self.results)

    def settle(self, daemon):
        """Waits for every answer; a job still unanswered once its timeout
        has passed counts as failed."""
        deadline = time.perf_counter() + SERVE_TIMEOUT_MS / 1000 + 10
        while self.outstanding() > 0 and time.perf_counter() < deadline:
            self.take(daemon, 0.1)


def open_loop(daemon, pool, seed, seconds, tr, breaks, on_break, host):
    """Offers whole rounds of the pool on a Poisson schedule. At `breaks`
    evenly spaced points it waits until every job sent has been answered,
    calls `on_break` while the daemon idles, and moves the rest of the
    schedule back by the time that took; the time returned leaves breaks
    out. It times the host loop in gaps as HOST_GAP_S says: no frame can
    arrive while the loop runs, and no send is delayed."""
    count = whole_rounds(SERVE_RATE, seconds, len(pool))
    times = arrivals(seed, SERVE_RATE, count)
    order = job_order(f"open-{seed}", len(pool), count)
    at_break = {count * (b + 1) // (breaks + 1) for b in range(breaks)}
    late = []
    start = time.perf_counter()
    for k, (due, i) in enumerate(zip(times, order)):
        sampled = False
        if k in at_break:
            paused = time.perf_counter()
            tr.settle(daemon)
            on_break()
            start += time.perf_counter() - paused
        while True:
            wait = start + due - time.perf_counter()
            if wait <= 0:
                break
            if not sampled and tr.outstanding() == 0 and wait > HOST_GAP_S:
                quiet = time.perf_counter() - tr.last_at
                if quiet >= HOST_QUIET_S:
                    host.sample("open")
                    sampled = True
                else:
                    tr.take(daemon, HOST_QUIET_S - quiet)
                continue
            tr.take(daemon, wait)
        job_id = f"o{k}"
        tr.pool[job_id], tr.due[job_id] = i, start + due
        tr.sent[job_id] = daemon.send(pool[i].frame(job_id))
        late.append(tr.sent[job_id] - (start + due))
    tr.settle(daemon)
    # `start` has moved back by every break, so the breaks are left out.
    return time.perf_counter() - start, late


def closed_loop(daemon, pool, seed, tr, host):
    """Offers the jobs in segments of SERVE_SEGMENT, each kept at
    SERVE_OUTSTANDING jobs in flight until its last is answered, and times
    the host loop between segments; returns the time the segments took."""
    order = job_order(f"closed-{seed}", len(pool), SERVE_CLOSED_ROUNDS * len(pool))
    busy = 0.0
    for first in range(0, len(order), SERVE_SEGMENT):
        start = time.perf_counter()
        for n in range(first, min(first + SERVE_SEGMENT, len(order))):
            while tr.outstanding() >= SERVE_OUTSTANDING:
                tr.take(daemon, 0.1)
            job_id = f"c{n}"
            tr.pool[job_id] = order[n]
            tr.sent[job_id] = tr.due[job_id] = daemon.send(pool[order[n]].frame(job_id))
        tr.settle(daemon)
        busy += max(at for at, _ in tr.results.values()) - start
        host.sample("closed")
    return busy


def run_serve(seed, seconds, bins, work, instances, warm, warm_instances, host):
    exe = str(bins / "csat-serve")
    pool = [ServeJob(i, work) for i in instances]
    warm_jobs = [ServeJob(i, warm) for i in warm_instances if i["role"] in ("sat", "opt-miter")]
    daemon, took = serve_setup(exe, warm_jobs)
    setups = [took]
    opened, closed = Tracker(), Tracker()
    try:
        cpu0 = daemon.cpu_seconds()
        open_s, late = open_loop(
            daemon,
            pool,
            seed,
            seconds * SERVE_OPEN_SHARE,
            opened,
            SETUP_REPS - 2,
            lambda: setups.append(timed_setup(exe, warm_jobs)),
            host,
        )
        closed_s = closed_loop(daemon, pool, seed, closed, host)
        cpu = daemon.cpu_seconds() - cpu0
    finally:
        code = daemon.close()
    if code != 0:
        raise RuntimeError(f"csat-serve drained with exit {code}")
    setups.append(timed_setup(exe, warm_jobs))
    attempted = ok = slo_ok = 0
    lat, by_job = [], []
    for phase in (opened, closed):
        for job_id in phase.sent:
            at, frame = phase.results.get(job_id, (None, None))
            job = pool[phase.pool[job_id]]
            good = job.check(frame if frame and frame["type"] == "result" else None) == "ok"
            attempted += 1
            ok += good
            if phase is opened and at is not None:
                ms = (at - phase.due[job_id]) * 1000
                lat.append(ms)
                by_job.append((ms, f"{job.id}.{job.format}"))
                slo_ok += good and ms <= SLO_MS["serve-mix"]
    closed_ok = sum(1 for _, f in closed.results.values() if f.get("status") in ("sat", "unsat"))
    pct, tail_ms, beyond = tail(lat)
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "verdict_p50_ms": (median(lat), "ms", len(lat)),
        "verdict_tail_ms": (tail_ms, "ms", len(lat)),
        "jobs_per_s": (closed_ok / closed_s, "1/s", len(closed.results)),
        "cpu_ms_per_job": (1000 * cpu / attempted, "ms", attempted),
        "peak_rss_mb": (daemon.rusage.ru_maxrss / 1024, "MB", 1),
        "ok_frac": (ok / attempted, "fraction", attempted),
        "slo_frac": (slo_ok / len(opened.sent), "fraction", len(opened.sent)),
    }
    busy = sum(f.get("elapsed_ms", 0) for _, f in opened.results.values()) / 1000 / open_s
    notes = {
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "open_loop_s": open_s,
        "closed_loop_s": closed_s,
        "open_loop_jobs": len(opened.sent),
        "closed_loop_jobs": len(closed.sent),
        "worker_busy_frac": busy,
        "gen_late_ms_mean": 1000 * sum(late) / len(late),
        "gen_late_ms_max": 1000 * max(late),
        "rejects": opened.rejects + closed.rejects,
        "setups_s": setups,
        "slowest_jobs_ms": [[name, ms] for ms, name in sorted(by_job)[::-1][:20]],
    }
    return metrics, attempted, attempted - ok, notes, (pool, opened, closed)
