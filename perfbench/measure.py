"""Percentiles, the sample-count rule, run-to-run spread, hit/miss classes."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer make it a reading of the few slowest samples.
MIN_BEYOND = 10

HIT = "hit"
MISS = "miss"

CACHED = "cached"
COALESCED = "coalesced"
NEW = "new"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-quantile."""
    return count - max(1, math.ceil(round(q * count, 9)))


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting the ``q``-quantile."""
    return samples_beyond(count, q) >= MIN_BEYOND


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``statistics.quantiles``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def admission_kind(cached: bool, coalesced: bool) -> str:
    """How the daemon admitted a query, from its ``JobAccepted`` flags."""
    if cached:
        return CACHED
    return COALESCED if coalesced else NEW


def latency_class(cached: bool) -> str:
    """Latency class of a query: only a cached answer skips computation.

    A coalesced query waits for the in-flight execution it joined, so it
    is timed with the misses.
    """
    return HIT if cached else MISS


def daemon_mismatches(kinds: Dict[str, int], counters: Dict[str, int]) -> Dict[str, tuple]:
    """Client admission tallies that disagree with the daemon's counters.

    Maps each kind to ``(client, daemon)`` where they differ; empty when
    the client's view of every query matches ``GetStats``.
    """
    pairs = {
        CACHED: counters.get("service.cache.hits", 0),
        COALESCED: counters.get("service.coalesce.hits", 0),
        NEW: counters.get("service.queries", 0),
    }
    return {
        kind: (kinds.get(kind, 0), daemon)
        for kind, daemon in pairs.items()
        if kinds.get(kind, 0) != daemon
    }
