"""Order statistics shared by the worker and run.py."""

from __future__ import annotations

from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)
