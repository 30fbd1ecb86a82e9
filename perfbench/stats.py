"""Order statistics and the serve-mix arrival schedule."""

import math
import random

# Tail percentiles, tried from the highest down; the reported tail is the
# highest one with at least TAIL_BEYOND samples above it. A fixed grid keeps
# the reported percentile the same across runs whose sample counts differ a
# little.
TAIL_GRID = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
TAIL_BEYOND = 10


def rank_value(sorted_values, pct):
    """Nearest-rank percentile of an ascending list, with the number of
    samples ranked above it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """(percentile, value, samples beyond) for the highest grid percentile
    that has at least TAIL_BEYOND samples beyond it; p50 when none has."""
    ordered = sorted(values)
    for pct in TAIL_GRID:
        value, beyond = rank_value(ordered, pct)
        if beyond >= TAIL_BEYOND:
            return pct, value, beyond
    value, beyond = rank_value(ordered, 50)
    return 50, value, beyond


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def arrivals(seed, rate, count):
    """Due times (seconds) of `count` Poisson arrivals at `rate` jobs per
    second, reproducible from the seed."""
    rng = random.Random(f"arrivals-{seed}")
    t, due = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        due.append(t)
    return due


def whole_rounds(rate, seconds, pool_size):
    """Jobs in the whole rounds of the pool closest to `rate` jobs per second
    for `seconds`; at least one round."""
    return max(1, round(rate * seconds / pool_size)) * pool_size


def job_order(seed, pool_size, count):
    """Pool indices in shuffled rounds, so a run offers each instance
    equally often; reproducible from the seed."""
    rng = random.Random(f"order-{seed}")
    order = []
    while len(order) < count:
        round_ = list(range(pool_size))
        rng.shuffle(round_)
        order.extend(round_)
    return order[:count]
