"""Host speed: a fixed memory-bound loop, timed whenever the program is
idle, by which a run's end-to-end times and rates are adjusted.

The shared 2-core host this benchmark was built on changes speed by up to
25% over minutes, on both vCPUs at once and on every job size alike. A run
of a minute cannot average that out: over five minutes of back-to-back
cec-batch checks, the median check time of 10-s windows varied with a
coefficient of variation of 0.17, and of 60-s windows still 0.14. A loop
that is not the program's code follows that drift: timed right after each
check, this loop's window means tracked the checks with a correlation of
0.96-0.98, and dividing one by the other left 0.015-0.020, against
0.04-0.07 as measured. So every run times the loop at idle moments spread
over it (after each CLI job; in gaps of the serve open loop and between
segments of its closed loop) and reports its metrics as if the loop had
taken LOOP_NOMINAL_S: times divided by the host's slowdown, rates
multiplied by it. The run record keeps every metric as measured, and the
slowdown itself; README.md ("Host adjustment") has the measurements.
"""

import time
import zlib
from collections import defaultdict

from stats import median

# The loop streams a buffer larger than a core's caches through CRC-32: of
# the loops tried, its times tracked the programs' most closely (slope
# 1.05-1.23, against 1.2-1.5 for a pure interpreter loop, which the programs
# slowed more than).
BUFFER = bytes(range(256)) * (8 << 12)  # 8 MiB
# The loop's usual mean time after a job on the 2-core host the benchmark
# was built on.
LOOP_NOMINAL_S = 0.0037


def loop_s():
    """One timing of the fixed loop, in seconds."""
    started = time.perf_counter()
    zlib.crc32(BUFFER)
    return time.perf_counter() - started


def calibration_s():
    """The median of ten timings, for the run record's start and end."""
    return median([loop_s() for _ in range(10)])


class HostSpeed:
    """Loop timings taken over one run, each right after a job, by phase."""

    def __init__(self):
        self.samples = defaultdict(list)

    def sample(self, phase="run"):
        self.samples[phase].append(loop_s())

    def slowdown(self, phase=None):
        """The mean loop time of one phase, or of the whole run, over the
        nominal one; above 1 when the host ran slower than usual."""
        taken = self.samples[phase] if phase else [t for ts in self.samples.values() for t in ts]
        return sum(taken) / len(taken) / LOOP_NOMINAL_S


def adjust(metrics, host, phase_of, as_measured=()):
    """Metrics as if on the usual host: times (units `s`, `ms`) divided by
    the slowdown of the phase `phase_of` names for them (default: the whole
    run), rates (`1/s`) multiplied by it; the rest, and the metrics named in
    `as_measured`, as measured. `metrics` maps a name to (value, unit,
    samples)."""
    adjusted = {}
    for name, (value, unit, n) in metrics.items():
        if name in as_measured:
            adjusted[name] = (value, unit, n)
            continue
        slowdown = host.slowdown(phase_of.get(name))
        scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}.get(unit, 1)
        adjusted[name] = (value * scale, unit, n)
    return adjusted
