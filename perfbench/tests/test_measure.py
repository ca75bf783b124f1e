"""Percentiles, the sample-count rule, spreads and hit/miss classification."""

import statistics

import pytest

from measure import (
    CACHED,
    COALESCED,
    HIT,
    MISS,
    NEW,
    admission_kind,
    daemon_mismatches,
    latency_class,
    percentile,
    quartile_spread,
    samples_beyond,
    supports,
)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert percentile(values, 0.5) == 5.0
    assert percentile(values, 0.9) == 9.0
    assert percentile(values, 1.0) == 10.0
    assert percentile([7.0], 0.9) == 7.0


@pytest.mark.parametrize("q", [0.0, 1.5])
def test_percentile_rejects_quantiles_outside_unit_interval(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_percentile_of_no_samples_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize(
    "count, q, beyond",
    [(100, 0.9, 10), (99, 0.9, 9), (20, 0.5, 10), (19, 0.5, 9), (1000, 0.99, 10), (10, 0.9, 1)],
)
def test_samples_beyond_the_percentile(count, q, beyond):
    assert samples_beyond(count, q) == beyond
    assert supports(count, q) == (beyond >= 10)


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 9.0, 10.5, 10.2, 9.8, 10.1, 11.5, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartile_spread([5.0, 5.0, 5.0]) == 0.0


def test_hit_miss_classification():
    assert admission_kind(cached=True, coalesced=False) == CACHED
    assert admission_kind(cached=False, coalesced=True) == COALESCED
    assert admission_kind(cached=False, coalesced=False) == NEW
    assert latency_class(cached=True) == HIT
    # A coalesced query waits for the execution it joined: a miss.
    assert latency_class(cached=False) == MISS


def test_daemon_mismatches_compare_every_admission_kind():
    counters = {"service.cache.hits": 3, "service.coalesce.hits": 1, "service.queries": 5}
    assert daemon_mismatches({CACHED: 3, COALESCED: 1, NEW: 5}, counters) == {}
    assert daemon_mismatches({CACHED: 4, COALESCED: 1, NEW: 4}, counters) == {
        CACHED: (4, 3),
        NEW: (4, 5),
    }
    assert daemon_mismatches({}, {}) == {}
