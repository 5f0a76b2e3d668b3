"""Distribution utilities: percentiles and stacked-percentile series.

The paper's figures report distributions as CDFs (Fig. 5, 7, 9) or stacked
percentiles in shades of grey (Fig. 8: 5th/25th/50th/75th/90th).  These
helpers compute the percentiles behind both from raw samples.
"""

from __future__ import annotations

import math

__all__ = ["percentile", "stacked_percentiles"]


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q out of range: {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    # low + (high-low)*f rather than low*(1-f) + high*f: the latter can
    # round below ordered[low] when the two samples are equal.
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


# The grey-shade stack used throughout Fig. 8.
PAPER_PERCENTILES = (5.0, 25.0, 50.0, 75.0, 90.0)


def stacked_percentiles(
    samples: list[float], levels: tuple[float, ...] = PAPER_PERCENTILES
) -> dict[float, float]:
    """The paper's stacked-percentile representation of a distribution."""
    return {level: percentile(samples, level) for level in levels}

