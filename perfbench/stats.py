"""Order statistics and the comparison rule shared by every workload."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def typical_times(samples) -> dict:
    """{key: median time} over (key, time) samples: each game's typical repetition.

    The machine's speed drifts in spells of seconds to a minute, either
    way; a game's median over repetitions spread across the run follows
    its usual speed and ignores spells shorter than half the run.
    """
    times: dict = {}
    for key, took in samples:
        times.setdefault(key, []).append(took)
    return {key: statistics.median(ts) for key, ts in times.items()}


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    return xs[_rank(len(xs), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly past the nearest-rank pct-th percentile of n samples."""
    return n - _rank(n, pct)


def _rank(n: int, pct: float) -> int:
    # exact arithmetic: 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    None when even the median leaves fewer than MIN_BEYOND samples beyond.
    """
    best = None
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse `new` is than `old`, as a share of `old` (negative: better)."""
    if better == "lower":
        return (new - old) / old
    return (old - new) / old


def verdict(base: list[float], change: list[float], better: str, bound: float,
            pairs: list[tuple[float, float]]) -> str:
    """Classify one (metric, workload) comparison of two result sets.

    - "worse": the change's median is worse than the base median by more
      than `bound` (a share of the base median).
    - "better": the change wins at least nine tenths of the paired runs
      (ties count for neither) and the medians differ by more than the
      base set's own quartile spread.
    - "within-bound": neither, and both sets' spreads are within `bound`.
    - "unresolved": neither, and a spread is wider than `bound`, so the
      runs cannot tell a change from noise.
    """
    med_base = statistics.median(base)
    med_change = statistics.median(change)
    if worse_by(med_base, med_change, better) > bound:
        return "worse"
    q1, _, q3 = statistics.quantiles(base, n=4)
    gain = med_base - med_change if better == "lower" else med_change - med_base
    wins = sum(1 for b, c in pairs if worse_by(b, c, better) < 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better"
    if max(quartile_spread(base), quartile_spread(change)) > bound:
        return "unresolved"
    return "within-bound"
