"""Unit and property-based tests for the statistics helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Histogram, RunningStat


class TestRunningStat:
    def test_empty(self):
        s = RunningStat()
        assert s.mean == 0.0
        assert s.stdev == 0.0
        assert s.min is None

    def test_basic(self):
        s = RunningStat()
        s.extend([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.min == 1.0 and s.max == 4.0
        assert s.total == pytest.approx(10.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, xs):
        s = RunningStat()
        s.extend(xs)
        assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-6, abs=1e-3)


class TestHistogram:
    def test_percentiles_exact_small(self):
        h = Histogram()
        for x in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            h.add(x)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 10
        assert h.percentile(50) == pytest.approx(5.5)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=300), st.floats(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_percentile(self, xs, p):
        h = Histogram()
        for x in xs:
            h.add(x)
        assert h.percentile(p) == pytest.approx(np.percentile(xs, p), rel=1e-6, abs=1e-6)

    def test_reservoir_bounds_memory(self):
        h = Histogram(max_samples=100)
        for i in range(10_000):
            h.add(float(i))
        assert len(h.samples()) == 100
        assert h.count == 10_000
        # The reservoir stays representative: the median is near 5000.
        assert 2_000 < h.percentile(50) < 8_000

    def test_bad_percentile_rejected(self):
        h = Histogram()
        h.add(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
