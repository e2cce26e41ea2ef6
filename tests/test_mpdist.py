import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sniplab import (
    MPdistParams,
    MPdistProfile,
    TimeSeries,
    column_minima,
    compute_sliding_stats,
    default_order_stat,
    default_window_size,
    mpdist_at,
    mpdist_profile,
    row_sliding_minima,
)
from sniplab.mpdist import _sliding_min_rows
from oracles import brute_sliding_min, distance_space_profile, naive_mpdist_profile
from seriesgen import random_series


class TestDefaults:
    def test_window_size(self):
        assert default_window_size(32) == 16
        assert default_window_size(7) == 4
        assert default_window_size(2) == 1

    def test_order_stat(self):
        # 5% of 2m, rounded up, never below 1.
        assert default_order_stat(32) == 4
        assert default_order_stat(8) == 1
        assert default_order_stat(100) == 10
        assert default_order_stat(2) == 1


class TestMPdistParams:
    def test_defaults_filled(self):
        p = MPdistParams(snippet_size=32)
        assert (p.window_size, p.k) == (16, 4)
        assert p.profile_width == 17

    def test_explicit_values_kept(self):
        p = MPdistParams(snippet_size=16, window_size=4, k=3)
        assert (p.window_size, p.k) == (4, 3)
        assert p.profile_width == 13

    def test_window_size_out_of_range(self):
        with pytest.raises(ValueError, match="window size"):
            MPdistParams(snippet_size=8, window_size=9)
        with pytest.raises(ValueError, match="window size"):
            MPdistParams(snippet_size=8, window_size=0)

    def test_snippet_size_too_small(self):
        with pytest.raises(ValueError, match="snippet size"):
            MPdistParams(snippet_size=1)

    def test_bad_order_stat(self):
        with pytest.raises(ValueError, match="order statistic"):
            MPdistParams(snippet_size=8, k=0)


class TestColumnMinima:
    def test_example(self):
        np.testing.assert_array_equal(
            column_minima([[1.0, 4.0, 2.0], [3.0, 0.0, 5.0]]), [1.0, 0.0, 2.0]
        )

    def test_single_row(self):
        np.testing.assert_array_equal(column_minima([[2.0, 7.0]]), [2.0, 7.0])

    def test_constant_rows(self):
        np.testing.assert_array_equal(
            column_minima(np.full((3, 4), 2.5)), np.full(4, 2.5)
        )

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="length"):
            column_minima([np.array([1.0, 2.0]), np.array([1.0])])


class TestRowSlidingMinima:
    def test_example(self):
        np.testing.assert_array_equal(
            row_sliding_minima([3.0, 1.0, 2.0, 5.0, 4.0], 2), [1.0, 1.0, 2.0, 4.0]
        )

    def test_window_one_is_identity(self):
        row = np.array([5.0, 1.0, 7.0])
        np.testing.assert_array_equal(row_sliding_minima(row, 1), row)

    def test_decreasing_row(self):
        np.testing.assert_array_equal(
            row_sliding_minima([5.0, 4.0, 3.0, 2.0], 2), [4.0, 3.0, 2.0]
        )

    def test_window_too_large(self):
        with pytest.raises(ValueError, match="window"):
            row_sliding_minima([1.0, 2.0], 3)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=80),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, row, data):
        window = data.draw(st.integers(min_value=1, max_value=len(row)))
        np.testing.assert_array_equal(
            row_sliding_minima(row, window), brute_sliding_min(row, window)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_path_matches_deque_path(self, seed):
        # The batched filter used in the hot path must agree with the
        # one-row contract implementation.
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((5, int(rng.integers(4, 60))))
        window = int(rng.integers(1, rows.shape[1] + 1))
        batched = _sliding_min_rows(rows, window)
        for i in range(rows.shape[0]):
            np.testing.assert_array_equal(batched[i], row_sliding_minima(rows[i], window))


class TestMPdistAt:
    def test_all_zero(self):
        p = MPdistParams(snippet_size=3, window_size=2, k=1)
        assert mpdist_at([0.0, 0.0], [0.0, 0.0], p) == 0.0

    def test_kth_smallest(self):
        p = MPdistParams(snippet_size=3, window_size=2, k=1)
        assert mpdist_at([0.1, 0.4], [0.2, 0.3], p) == pytest.approx(0.1)

    def test_max_fallback(self):
        p = MPdistParams(snippet_size=3, window_size=2, k=9)
        assert mpdist_at([0.1, 0.4], [0.2, 0.3], p) == pytest.approx(0.4)

    def test_fallback_is_exact_max(self):
        rng = np.random.default_rng(1)
        ab = rng.uniform(0, 5, 4)
        ba = rng.uniform(0, 5, 4)
        p = MPdistParams(snippet_size=5, window_size=2, k=8)
        assert mpdist_at(ab, ba, p) == max(ab.max(), ba.max())

    def test_part_length_mismatch(self):
        p = MPdistParams(snippet_size=3, window_size=2)
        with pytest.raises(ValueError, match="halves"):
            mpdist_at([0.1], [0.2, 0.3], p)

    def test_parts_must_match_params(self):
        p = MPdistParams(snippet_size=5, window_size=2)  # profile width 4
        with pytest.raises(ValueError):
            mpdist_at([0.1, 0.2], [0.3, 0.4], p)


class TestMPdistProfile:
    def test_length_and_self_zero(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(rng.standard_normal(120))
        params = MPdistParams(snippet_size=20)
        for seg in (0, 3, 5):
            prof = mpdist_profile(series, seg, params)
            assert len(prof) == 120 - 20 + 1
            assert prof.segment_index == seg
            assert abs(prof.values[seg * 20]) <= 1e-9

    def test_antiphase_example(self):
        series = TimeSeries([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        params = MPdistParams(snippet_size=4, window_size=2, k=1)
        prof = mpdist_profile(series, 0, params)
        # window (1,0,1,0) at start 4: every length-2 shape has an exact
        # z-normalized twin in the segment (0,1,0,1)
        assert prof.values[4] == pytest.approx(0.0, abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.standard_normal(200))
        params = MPdistParams(snippet_size=16)
        prof = mpdist_profile(series, 2, params)
        assert np.all(prof.values >= 0)
        assert np.all(prof.values <= 2 * math.sqrt(params.window_size) + 1e-6)

    def test_bad_segment_index(self):
        series = TimeSeries(np.arange(40.0))
        params = MPdistParams(snippet_size=10)
        with pytest.raises(ValueError):
            mpdist_profile(series, 4, params)
        with pytest.raises(ValueError):
            mpdist_profile(series, -1, params)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(60, 220))
        values = random_series(rng, n)
        m = int(rng.choice([8, 16]))
        params = MPdistParams(snippet_size=m)
        seg = int(rng.integers(0, n // m))
        prof = mpdist_profile(TimeSeries(values), seg, params)
        naive = naive_mpdist_profile(values, seg, m, params.window_size, params.k)
        np.testing.assert_allclose(prof.values, naive, atol=1e-6)

    def test_explicit_small_k_branches(self):
        # Large k forces the max fallback at every window.
        rng = np.random.default_rng(8)
        values = rng.standard_normal(80)
        params = MPdistParams(snippet_size=10, window_size=5, k=100)
        prof = mpdist_profile(TimeSeries(values), 1, params)
        naive = naive_mpdist_profile(values, 1, 10, 5, 100)
        np.testing.assert_allclose(prof.values, naive, atol=1e-6)


@st.composite
def _series_with_flat_runs(draw):
    """Noisy series with constant stretches and a large DC offset."""
    n = draw(st.integers(min_value=12, max_value=160))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    if draw(st.booleans()):
        values = np.round(values, 1)  # exact ties between windows
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=n - 1))
        length = draw(st.integers(min_value=1, max_value=n // 3 + 1))
        values[start : start + length] = values[start]
    offset = draw(st.sampled_from([0.0, 1e3, -1e5, 1e6]))
    return values + offset


class TestMPdistProfileExact:
    @given(_series_with_flat_runs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_distance_space_selection(self, values, data):
        # Selecting on correlations and converting only the result must
        # give the same bits as selecting on converted distances.
        series = TimeSeries(values)
        m = data.draw(st.integers(min_value=2, max_value=series.n // 2))
        l = data.draw(st.integers(min_value=1, max_value=m))
        width = m - l + 1
        k = data.draw(st.sampled_from([1, 2, max(1, 2 * width - 1), 2 * width, 2 * width + 1]))
        params = MPdistParams(snippet_size=m, window_size=l, k=k)
        stats = compute_sliding_stats(series, l)
        seg = data.draw(st.integers(min_value=0, max_value=series.n // m - 1))
        np.testing.assert_array_equal(
            mpdist_profile(series, seg, params, stats=stats).values,
            distance_space_profile(series, seg, params, stats),
        )


class TestMPdistProfileType:
    def test_values_frozen(self):
        prof = MPdistProfile(segment_index=0, values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            prof.values[0] = 5.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MPdistProfile(segment_index=0, values=np.array([-0.5, 1.0]))
