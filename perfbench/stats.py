"""Order statistics and open-loop arithmetic shared by every workload.

Kept free of any import from the program under test so the self-tests can
check the rules on plain numbers.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples a tail percentile must leave beyond it before it is reported.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank strictly above the ``p``-th percentile
    as :func:`percentile` interpolates it."""
    return n - 1 - math.floor((n - 1) * p / 100.0 + 1e-9)


def min_samples_for(p: float, beyond: int = TAIL_BEYOND) -> int:
    """The fewest samples for which the ``p``-th percentile has ``beyond``
    samples above it."""
    n = beyond
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def due_latency(due: float, submit_return: float, queued_s: float, run_s: float) -> float:
    """Open-loop latency of one request, measured from when it was due.

    The job left the queue ``queued_s`` after it was accepted and ran for
    ``run_s``; it was accepted by the time ``submit_return`` was read. A
    generator that sent late (``submit_return`` past ``due``) is charged the
    delay, so a stall shows on every request it held back.
    """
    return (submit_return - due) + queued_s + run_s


def completion_rate(finish_times: Sequence[float]) -> float:
    """Completions per second: the least-squares slope of the cumulative
    completion count over time. Unlike count / span it does not hinge on
    when the first and the last request happened to finish."""
    times = sorted(finish_times)
    n = len(times)
    if n < 2:
        raise ValueError("a completion rate needs two completions")
    mean_t = sum(times) / n
    mean_k = (n + 1) / 2
    covariance = sum((t - mean_t) * (k - mean_k) for k, t in enumerate(times, start=1))
    variance = sum((t - mean_t) ** 2 for t in times)
    return covariance / variance


def backlog_growing(outstanding: Sequence[int], slack: int) -> bool:
    """True when jobs in the system rose through a rate step.

    ``outstanding`` is the number of submitted-but-unfinished jobs sampled at
    each arrival. A stable step fluctuates around a level; an overloaded one
    climbs, so the second half's mean exceeds the first half's by more than
    ``slack``.
    """
    if len(outstanding) < 4:
        return False
    half = len(outstanding) // 2
    first = sum(outstanding[:half]) / half
    second = sum(outstanding[half:]) / (len(outstanding) - half)
    return second - first > slack


def arrival_offsets(rng, rate: float, count: int, block: int) -> list[float]:
    """``count`` Poisson arrival offsets at ``rate`` per second.

    Exponential gaps keep the burstiness of independent users. Each run of
    ``block`` consecutive gaps is rescaled to span exactly ``block / rate``
    seconds, so every block of requests (one request-mix cycle) arrives in
    the same time on every seed: the offered load is identical across seeds
    at the scale of a cycle, and only the arrival pattern within it varies.
    """
    gaps = rng.exponential(1.0, count)
    for start in range(0, count, block):
        chunk = gaps[start:start + block]
        chunk *= (len(chunk) / rate) / chunk.sum()
    offsets = []
    total = 0.0
    for gap in gaps:
        offsets.append(total)
        total += float(gap)
    return offsets
