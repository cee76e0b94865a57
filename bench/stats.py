"""Order statistics for the benchmark's reports."""

from __future__ import annotations

from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond
#: it, so p90 needs 100 samples and p50 needs 20.
MIN_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between closest ranks.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL` samples lie beyond
    it: a tail estimate from a handful of samples is noise.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    if n * (100 - q) / 100 < MIN_TAIL:
        raise ValueError(
            f"p{q:g} needs at least {MIN_TAIL} samples beyond it; got {n} samples"
        )
    ordered = sorted(samples)
    rank = (n - 1) * q / 100
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_or_none(samples: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or None when the sample is too small."""
    try:
        return percentile(samples, q)
    except ValueError:
        return None
