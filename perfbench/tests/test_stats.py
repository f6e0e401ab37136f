import statistics

import pytest

from wirabench.stats import (
    beyond,
    canonical_digest,
    covered,
    highest_tail,
    percentile,
    quartile_spread,
    self_times,
    tail,
)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # Two children of one parent overlap on [3, 4]; a third sticks out
    # past the parent's end and is clipped to it.
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1:] == pytest.approx([3.0, 3.0, 4.0])
    assert min(selfs) >= 0.0


def test_covered_merges_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(1, 3), (2, 5)], 2.5, 4) == pytest.approx(1.5)
    assert covered([], 0, 1) == 0.0


def test_tail_needs_ten_samples_beyond_it():
    values = list(range(1, 100))  # 99 samples: p90 has 9 beyond
    assert beyond(99, 0.90) == 9
    assert tail(values, 0.90) is None
    values.append(100)
    assert beyond(100, 0.90) == 10
    assert tail(values, 0.90) == 90
    assert percentile(values, 0.5) == 50


def test_highest_tail_steps_down_with_sample_size():
    assert highest_tail(list(range(1000)), 0.99) == (0.99, 989)
    assert highest_tail(list(range(1000)), 0.90) == (0.90, 899)
    q, _ = highest_tail(list(range(60)), 0.99)
    assert q == 0.80
    assert highest_tail([3.0, 1.0], 0.9) == (1.0, 3.0)
    assert highest_tail([], 0.9) == (None, None)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_digest_is_canonical():
    assert canonical_digest({"b": 1, "a": [1.5, None]}) == canonical_digest({"a": [1.5, None], "b": 1})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})
