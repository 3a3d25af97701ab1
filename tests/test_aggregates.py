"""Unit and property tests for repro.core.aggregates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    AGGREGATE_SPECS,
    Aggregate,
    exact_aggregate,
    relative_error,
)

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


class TestExactAggregate:
    def test_all_kinds_have_specs(self):
        assert set(AGGREGATE_SPECS) == set(Aggregate)

    def test_max_min_sum_count_average(self):
        v = np.array([1.0, 5.0, -2.0, 4.0])
        assert exact_aggregate(Aggregate.MAX, v) == 5.0
        assert exact_aggregate(Aggregate.MIN, v) == -2.0
        assert exact_aggregate(Aggregate.SUM, v) == 8.0
        assert exact_aggregate(Aggregate.COUNT, v) == 4.0
        assert exact_aggregate(Aggregate.AVERAGE, v) == 2.0

    def test_rank_needs_query(self):
        v = np.array([1.0, 2.0, 3.0])
        assert exact_aggregate(Aggregate.RANK, v, query=2.0) == 2.0
        with pytest.raises(ValueError):
            exact_aggregate(Aggregate.RANK, v)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_aggregate(Aggregate.MAX, np.array([]))

    def test_string_kind_accepted(self):
        assert exact_aggregate("max", np.array([3.0, 7.0])) == 7.0


class TestRelativeError:
    def test_plain_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)

    def test_zero_truth_absolute_fallback(self):
        assert relative_error(0.05, 0.0) == pytest.approx(0.05)

    def test_zero_truth_without_fallback(self):
        assert relative_error(0.05, 0.0, absolute_fallback=False) == float("inf")
        assert relative_error(0.0, 0.0, absolute_fallback=False) == 0.0


class TestProperties:
    @given(values_strategy)
    @settings(max_examples=100, deadline=None)
    def test_min_le_average_le_max(self, values):
        v = np.array(values)
        lo = exact_aggregate(Aggregate.MIN, v)
        hi = exact_aggregate(Aggregate.MAX, v)
        mid = exact_aggregate(Aggregate.AVERAGE, v)
        assert lo <= mid + 1e-9
        assert mid <= hi + 1e-9

    @given(values_strategy)
    @settings(max_examples=100, deadline=None)
    def test_sum_equals_average_times_count(self, values):
        v = np.array(values)
        s = exact_aggregate(Aggregate.SUM, v)
        a = exact_aggregate(Aggregate.AVERAGE, v)
        c = exact_aggregate(Aggregate.COUNT, v)
        assert s == pytest.approx(a * c, rel=1e-9, abs=1e-6)

    @given(values_strategy, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_rank_is_monotone_in_query(self, values, query):
        v = np.array(values)
        r1 = exact_aggregate(Aggregate.RANK, v, query=query)
        r2 = exact_aggregate(Aggregate.RANK, v, query=query + 1.0)
        assert 0 <= r1 <= len(values)
        assert r1 <= r2
