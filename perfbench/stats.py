"""Summary statistics the benchmark reports.

Pure functions over lists of floats; no import of the program under
test, so the benchmark's own tests exercise them on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Hashable, List, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie strictly beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def kind_median_geomean(samples: Sequence[tuple]) -> float:
    """Geometric mean over op kinds of each kind's median latency.

    ``samples`` holds ``(kind, seconds)`` pairs.  Each kind weighs the
    same however many ops of it ran, and a kind's median does not move
    when ops of another size are added, unlike a pooled percentile over
    ops of mixed sizes.
    """
    by_kind: Dict[Hashable, List[float]] = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return geomean([median(v) for v in by_kind.values()])


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile with at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples strictly beyond it, or
    ``None`` when even the median has fewer beyond it (no tail)."""
    if count <= 0:
        return None
    for pct in range(99, 49, -1):
        if beyond(count, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def beyond(count: int, pct: int) -> int:
    """How many of ``count`` sorted samples lie strictly above the
    ``pct`` percentile position."""
    position = (count - 1) * pct / 100.0
    return count - 1 - math.floor(position)


def tail(values: Sequence[float]) -> tuple:
    """``(percentile, value)`` of the highest tail :func:`tail_percentile`
    allows; raises ``ValueError`` when there are too few samples."""
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(f"{len(values)} samples leave fewer than "
                         f"{TAIL_MIN_BEYOND} beyond any tail")
    return pct, percentile(values, pct)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness
    measure the bounds in BENCHMARK.json are set from)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
