"""Latency percentiles and the parent-versus-change comparison rule."""

from __future__ import annotations

import math
import statistics

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
# A gain is claimed from at least this many alternating pairs.
MIN_PAIRS = 10


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND):
    """Highest whole percentile p in 50..99 whose nearest-rank value has at
    least ``beyond`` samples above it, as (p, value, samples beyond).
    None when the run has too few samples for any such p."""
    n = len(samples)
    ordered = sorted(samples)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1], n - rank
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Verdict on one metric from runs made in alternating pairs.

    "gain": over at least ten pairs the change wins 9/10 of them (ties
    count for neither) and the medians differ by more than the parent's IQR.
    "unresolved": either side's spread exceeds the bound, unless every
    change run beats every parent run.  "regression": the change's median
    is worse than the parent's by more than the bound.  Otherwise "same".
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = sign * (c_med - p_med) / p_med if p_med else math.inf
    every_run_better = (max(change) < min(parent) if better == "lower"
                        else min(change) > max(parent))
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and worse_by < 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        verdict = "gain"
    elif max(spread(parent), spread(change)) > bound and not every_run_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "pairs": len(pairs), "wins": wins, "worse_by": worse_by, "verdict": verdict,
    }
