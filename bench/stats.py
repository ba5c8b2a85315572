"""Sample statistics, the calibration loop and the A/B comparison.

Pure functions over lists of numbers: no dependency on the program
under test, so the benchmark's own arithmetic is unit-testable.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Candidate tail percentiles, highest first (see :func:`tail_percentile`).
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Share of a phase's operations (those the machine slowed least) that
#: define "full speed" in :func:`full_speed_rate`.
FAST_SHARE = 0.10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (the rule ``repro.llm.batching``
    uses for simulated latencies); raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values) -> tuple[float, float] | None:
    """``(p, value)`` for the highest candidate percentile that still has
    at least :data:`MIN_BEYOND` samples beyond it, or None when even the
    lowest candidate does not (fewer than 40 samples)."""
    n = len(values)
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 + 1e-9 >= MIN_BEYOND:  # 99.9 is not exact in binary
            return p, percentile(values, p)
    return None


def spread(values) -> float:
    """Run-to-run spread of a suite's three repeats as a share of their
    median: the full range (quartiles of three values mean nothing)."""
    med = statistics.median(values)
    if med == 0:
        return 0.0
    return (max(values) - min(values)) / abs(med)


def full_speed_rate(walls_s, work, factors) -> float:
    """Work per wall second the phase would have sustained with the
    machine at full speed throughout.

    Each operation's cost per unit of work is split into an operation
    part and a machine part: ``log(cost)`` is fitted by least squares as
    a sum of effects, one per value of each entry of the operation's
    ``factors`` tuple (the properties its cost depends on), and the
    residual is what the machine added.  Slow-downs from outside the
    program only ever add time, so the mean of the lowest tenth of the
    residuals (:data:`FAST_SHARE`) is taken as "full speed", and the
    result is all work over the fitted cost of *every* operation at that
    level.  Which operations ran fast decides nothing: each weighs in
    with its share of the mix, so a regression confined to one kind of
    operation shows in proportion."""
    rows = [i for i, amount in enumerate(work) if amount > 0]
    if not rows:
        return 0.0
    levels = sorted({(slot, value) for i in rows for slot, value in enumerate(factors[i])})
    column = {level: j for j, level in enumerate(levels)}
    design = np.zeros((len(rows), len(levels)))
    for row, i in enumerate(rows):
        for slot, value in enumerate(factors[i]):
            design[row, column[(slot, value)]] = 1.0
    amount = np.array([work[i] for i in rows], dtype=float)
    log_cost = np.log(np.array([walls_s[i] for i in rows]) / amount)
    fitted = design @ np.linalg.lstsq(design, log_cost, rcond=None)[0]
    residual = np.sort(log_cost - fitted)
    fast = residual[: max(1, round(len(residual) * FAST_SHARE))].mean()
    return float(amount.sum() / np.sum(np.exp(fitted + fast) * amount))


def calibrate(reps: int = 15) -> float:
    """Milliseconds one fixed Python + numpy loop takes right now (median
    of ``reps``).  Never compared across commits: it only says whether
    the machine was as fast at the end of a run as at the start.

    The loop allocates nothing (``out=`` buffers below the allocator's
    mmap threshold — page faults made an allocating version read 1.1 or
    1.9 ms depending on the process's malloc history), and it first spins
    for ~20 ms because this guest runs up to 1.6x slower for a while
    after an idle period."""
    base = np.arange(4096, dtype=np.float64)
    out = np.empty_like(base)

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(15000):
            acc += i & 255
        for _ in range(60):
            np.multiply(base, base, out=out)
            np.add(out, 1.0, out=out)
            np.sqrt(out, out=out)
        return time.perf_counter() - start

    for _ in range(20):
        once()
    return statistics.median(once() for _ in range(reps)) * 1e3


def compare_metric(a_values, b_values, better: str, bound: float) -> dict:
    """One ``--compare`` row: B against base A for a single metric.

    ``worse`` when B's median is worse than A's by more than ``bound``
    (as a share of A's median); otherwise ``unresolved`` when either
    side's spread exceeds the bound — unless every B run beats every A
    run — and ``within`` when neither holds."""
    a_med = statistics.median(a_values)
    b_med = statistics.median(b_values)
    ratio = b_med / a_med if a_med else float("inf")
    regress = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    wide = max(spread(a_values), spread(b_values))
    if better == "lower":
        separated = max(b_values) < min(a_values)
    else:
        separated = min(b_values) > max(a_values)
    if regress > bound:
        verdict = "worse"
    elif wide > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "a_median": a_med,
        "b_median": b_med,
        "ratio_b_over_a": ratio,
        "spread": wide,
        "bound": bound,
        "verdict": verdict,
    }
