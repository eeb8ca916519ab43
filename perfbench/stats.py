"""Summary statistics used by the benchmark.

Timings are reported as a median and a tail.  The tail is the highest
integer percentile (nearest-rank definition) that still has at least
``TAIL_BEYOND`` samples strictly beyond it, so it never rests on a handful
of outliers; the percentile and the sample count are reported with it.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence

TAIL_BEYOND = 10


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def tail_percentile(n: int) -> Optional[int]:
    """Highest integer q whose nearest-rank percentile leaves at least
    TAIL_BEYOND of n samples beyond it; None when n is too small."""
    if n <= TAIL_BEYOND:
        return None
    return (100 * (n - TAIL_BEYOND)) // n


def tail(xs: Sequence[float]) -> dict:
    """Nearest-rank tail as {"value", "percentile", "n", "beyond"}; value
    is None below TAIL_BEYOND + 1 samples."""
    n = len(xs)
    q = tail_percentile(n)
    if q is None:
        return {"value": None, "percentile": None, "n": n, "beyond": 0}
    s = sorted(xs)
    rank = max(1, math.ceil(q * n / 100))
    return {"value": float(s[rank - 1]), "percentile": q, "n": n,
            "beyond": n - rank}


def fail_frac(failed: int, attempted: int) -> float:
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    return failed / attempted


def percentiles_ms(durations_s: List[float]) -> dict:
    """Median and tail of a list of durations in seconds, in ms."""
    ms = [d * 1e3 for d in durations_s]
    return {"p50": median(ms) if ms else None, "tail": tail(ms)}
