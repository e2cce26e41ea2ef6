import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sniplab import (
    MPdistParams,
    MPdistProfile,
    TimeSeries,
    compute_sliding_stats,
    default_window_size,
    mpdist_profile,
)
from sniplab import mpdist, snippets
from sniplab.mpdist import _sliding_min_rows
from sniplab.zdist import neg_correlation_matrix, neg_correlations
from oracles import brute_sliding_min, distance_space_profile, naive_mpdist_profile
from seriesgen import random_series


class TestDefaults:
    def test_window_size(self):
        assert default_window_size(32) == 16
        assert default_window_size(7) == 4
        assert default_window_size(2) == 1
        assert default_window_size(32, 0.25) == 8
        assert default_window_size(7, 0.75) == 6
        assert default_window_size(2, 0.1) == 1
        assert default_window_size(9, 1.0) == 9

    @pytest.mark.parametrize("l_frac", [0.0, -0.5, float("nan"), 1.5])
    def test_bad_window_fraction(self, l_frac):
        with pytest.raises(ValueError, match=r"l_frac must be in \(0, 1\]"):
            default_window_size(16, l_frac)

    def test_order_stat(self):
        # 5% of 2m, rounded up, never below 1.
        for m, k in [(32, 4), (8, 1), (100, 10), (2, 1)]:
            assert MPdistParams(snippet_size=m).k == k


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

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"snippet_size": 8.0}, "snippet_size must be an integer, got 8.0"),
            ({"snippet_size": 16, "window_size": 8.0}, "window_size must be an integer, got 8.0"),
            ({"snippet_size": 16, "k": 2.5}, "k must be an integer, got 2.5"),
            ({"snippet_size": np.float64(16)}, "snippet_size must be an integer"),
        ],
    )
    def test_non_integer_size_rejected(self, fields, named):
        with pytest.raises(ValueError, match=named):
            MPdistParams(**fields)

    def test_numpy_integers_kept_as_int(self):
        p = MPdistParams(np.int64(16), window_size=np.int32(4), k=np.uint8(3))
        assert (p.snippet_size, p.window_size, p.k) == (16, 4, 3)
        assert all(type(v) is int for v in (p.snippet_size, p.window_size, p.k))


class TestRowSlidingMinima:
    def test_example(self):
        np.testing.assert_array_equal(
            _sliding_min_rows(np.array([3.0, 1.0, 2.0, 5.0, 4.0]), 2), [1.0, 1.0, 2.0, 4.0]
        )

    def test_window_one_is_identity(self):
        row = np.array([5.0, 1.0, 7.0])
        np.testing.assert_array_equal(_sliding_min_rows(row.copy(), 1), row)

    def test_decreasing_row(self):
        np.testing.assert_array_equal(
            _sliding_min_rows(np.array([5.0, 4.0, 3.0, 2.0]), 2), [4.0, 3.0, 2.0]
        )

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=80),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, row, data):
        window = data.draw(st.integers(min_value=1, max_value=len(row)))
        np.testing.assert_array_equal(
            _sliding_min_rows(np.array(row), window), brute_sliding_min(row, window)
        )

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_blocks_match_brute_force(self, data):
        # Rows go through the passes in blocks of _BLOCK_BYTES; a block of
        # a few rows makes 17 to 40 rows cross several block boundaries.
        length = data.draw(st.integers(min_value=1, max_value=40))
        num_rows = data.draw(st.integers(min_value=17, max_value=40))
        window = data.draw(st.integers(min_value=1, max_value=length))
        block_rows = data.draw(st.integers(min_value=1, max_value=num_rows))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        rows = np.round(rng.standard_normal((num_rows, length)), 1)  # ties included
        expected = np.vstack([brute_sliding_min(row, window) for row in rows])
        with mock.patch.object(mpdist, "_BLOCK_BYTES", 8 * length * block_rows):
            result = _sliding_min_rows(rows, window)
        assert np.shares_memory(result, rows)
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("window", [1, 2, 3, 64, 3300])
    def test_default_blocks_match_brute_force(self, window):
        # 20 rows of 3300 columns take two blocks of the default size.
        rows = np.random.default_rng(window).standard_normal((20, 3300))
        assert rows.nbytes > mpdist._BLOCK_BYTES
        expected = np.vstack([brute_sliding_min(row, window) for row in rows])
        np.testing.assert_array_equal(_sliding_min_rows(rows, window), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_path_matches_deque_path(self, seed):
        # The batched filter used in the hot path must agree row by row
        # with a per-window scan.
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((5, int(rng.integers(4, 60))))
        window = int(rng.integers(1, rows.shape[1] + 1))
        batched = _sliding_min_rows(rows.copy(), window)
        for i in range(rows.shape[0]):
            np.testing.assert_array_equal(batched[i], brute_sliding_min(rows[i], window))


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

    def test_snippet_longer_than_series(self):
        series = TimeSeries(np.arange(40.0))
        with pytest.raises(ValueError, match="snippet size 50 exceeds series length 40"):
            mpdist_profile(series, 0, MPdistParams(snippet_size=50))

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


class TestMPdistProfileSplit:
    @given(_series_with_flat_runs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_split_equals_distance_space_selection(self, values, data):
        # With a one-entry part threshold every segment splits, so short
        # series give parts whose halo is clipped at column 0, and a
        # snippet length near n gives more workers than positions.
        n = values.size
        m = data.draw(st.integers(min_value=2, max_value=n))
        l = data.draw(st.integers(min_value=1, max_value=m))
        width = m - l + 1
        k = data.draw(st.sampled_from([1, 2, max(2, 2 * width - 1), 2 * width, 2 * width + 1]))
        # A flat run across the first boundary between parts at 2 or 3
        # workers, so constant windows fall on both sides of it.
        boundary = (n - m + 1) // data.draw(st.sampled_from([2, 3]))
        start = data.draw(st.integers(min_value=max(0, boundary - l), max_value=boundary))
        length = data.draw(st.integers(min_value=1, max_value=l + width))
        values = values.copy()
        values[start : start + length] = values[start]
        series = TimeSeries(values)
        params = MPdistParams(snippet_size=m, window_size=l, k=k)
        stats = compute_sliding_stats(series, l)
        seg = data.draw(st.integers(min_value=0, max_value=n // m - 1))
        expected = distance_space_profile(series, seg, params, stats)
        with mock.patch.object(mpdist, "MIN_PART_ENTRIES", 1):
            for workers in (1, 2, 3):
                profile = mpdist_profile(series, seg, params, stats=stats, workers=workers)
                np.testing.assert_array_equal(profile.values, expected)

    @given(_series_with_flat_runs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_tiled_selection_equals_distance_space_selection(self, values, data):
        # Tiles of 1, 2 or 3 positions put tile boundaries all through
        # every part, part boundaries included, at workers 1, 2 and 3.
        series = TimeSeries(values)
        m = data.draw(st.integers(min_value=2, max_value=series.n))
        l = data.draw(st.integers(min_value=1, max_value=m))
        width = m - l + 1
        k = data.draw(st.sampled_from([1, 2, max(2, 2 * width - 1), 2 * width, 2 * width + 1]))
        tile = data.draw(st.sampled_from([1, 2, 3]))
        params = MPdistParams(snippet_size=m, window_size=l, k=k)
        stats = compute_sliding_stats(series, l)
        seg = data.draw(st.integers(min_value=0, max_value=series.n // m - 1))
        expected = distance_space_profile(series, seg, params, stats)
        with mock.patch.object(mpdist, "MIN_PART_ENTRIES", 1), \
                mock.patch.object(mpdist, "_BLOCK_BYTES", 16 * width * tile):
            for workers in (1, 2, 3):
                profile = mpdist_profile(series, seg, params, stats=stats, workers=workers)
                np.testing.assert_array_equal(profile.values, expected)

    def test_one_profile_holds_one_width_row_buffer(self):
        # The kernel's width rows over the part's columns are the only
        # large array a profile needs; the margin covers the selection
        # block, the row-0 products and the profile's own vectors.
        values = np.cumsum(np.random.default_rng(1).standard_normal(4000))
        series = TimeSeries(values)
        params = MPdistParams(snippet_size=256)
        stats = compute_sliding_stats(series, params.window_size)
        width = params.profile_width
        num_positions = series.n - params.snippet_size + 1
        kernel_bytes = width * (num_positions + width - 1) * 8
        tracemalloc.start()
        try:
            mpdist_profile(series, 3, params, stats=stats, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * kernel_bytes, f"peak {peak / kernel_bytes:.2f} x the kernel rows"

    def test_column_parts(self):
        # n = 20000: an m = 8 segment is too small to split at any worker
        # count; an m = 1024 one splits evenly; no part is ever empty.
        assert mpdist._column_parts(19993, 5 * 19997, 4) == [(0, 19993)]
        assert mpdist._column_parts(18977, 513 * 19489, 2) == [(0, 9488), (9488, 18977)]
        assert len(mpdist._column_parts(5, 10**9, 8)) == 5

    def test_bad_worker_count(self):
        series = TimeSeries(np.arange(40.0) % 7)
        with pytest.raises(ValueError, match="worker"):
            mpdist_profile(series, 0, MPdistParams(snippet_size=8), workers=0)


@st.composite
def _batch_case(draw):
    """A series, k <= 2 parameters, and one to five of its segments.

    Flavors: noise; noise with constant runs; a loud stretch then a
    quiet one at 1e-9 of its scale, whose windows are nearly constant
    next to it.  Offsets up to 1e6; window size 1, where every window is
    constant, among the sizes.  The segments may repeat and may include
    the last one.
    """
    m = draw(st.integers(min_value=2, max_value=24))
    l = draw(st.sampled_from([1, m]) | st.integers(min_value=1, max_value=m))
    num_segments = draw(st.integers(min_value=2, max_value=12))
    n = m * num_segments + draw(st.integers(min_value=0, max_value=m - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.standard_normal(n)
    flavor = draw(st.sampled_from(["noise", "flat", "quiet"]))
    if flavor == "flat":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            start = int(rng.integers(0, n - 1))
            values[start : start + int(rng.integers(2, 2 * m + 2))] = values[start]
    elif flavor == "quiet":
        values[n // 2 :] *= 1e-9
    values = values + draw(st.sampled_from([0.0, 1e3, 1e6]))
    params = MPdistParams(snippet_size=m, window_size=l, k=draw(st.sampled_from([1, 2])))
    count = draw(st.integers(min_value=1, max_value=5))
    segments = draw(st.lists(st.integers(0, num_segments - 1), min_size=count, max_size=count))
    if draw(st.booleans()):
        segments[-1] = num_segments - 1
    return TimeSeries(values), params, segments


class TestBatchedProfiles:
    @given(_batch_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batched_rows_and_profiles_equal_per_segment(self, case, data):
        # B segments in one kernel call must give each segment's rows bit
        # for bit as a call for it alone, over any column range; and the
        # pass's batches, of 1 to 5 segments with a short last batch, the
        # profiles mpdist_profile computes segment by segment.  The greedy
        # rounds rely on a recomputed profile matching its pass row
        # exactly.
        series, params, segments = case
        stats = compute_sliding_stats(series, params.window_size)
        width = params.profile_width
        num_columns = stats.sumsq.size
        start = data.draw(st.integers(min_value=0, max_value=num_columns - 1))
        stop = data.draw(st.integers(min_value=start + 1, max_value=num_columns))
        columns = data.draw(st.sampled_from([None, (start, stop)]))
        starts = [s * params.snippet_size for s in segments]
        rows = np.stack([r.copy() for r in neg_correlations(stats, starts, width, columns=columns)])
        for b, seg_start in enumerate(starts):
            alone = neg_correlation_matrix(stats, seg_start, width, columns=columns)
            assert rows[:, b].tobytes() == alone.tobytes(), f"segment at {seg_start}"

        num_segments = series.n // params.snippet_size
        first = data.draw(st.integers(min_value=0, max_value=num_segments - 1))
        last = data.draw(st.integers(min_value=first + 1, max_value=num_segments))
        rows = snippets._batched_rows(stats, params, first, last, len(segments))
        batched = [row.copy() for row in rows]
        assert len(batched) == last - first
        for index, row in zip(range(first, last), batched):
            profile = mpdist_profile(series, index, params, stats=stats)
            assert row.tobytes() == profile.values.tobytes(), f"segment {index}"

    def test_batch_size(self):
        # At n = 20000 three segments' kernel rows fill a block; at
        # n = 4000 sixteen would, but a batch takes at most a 64th of
        # the segments.
        assert mpdist._batch_size(19997, 2500) == 3
        assert mpdist._batch_size(3997, 500) == 7
        assert mpdist._batch_size(3997, 5000) == 16
        assert mpdist._batch_size(10**6, 10**5) == 1
        assert mpdist._batch_size(3997, 10) == 1


class TestMPdistProfileType:
    def test_values_frozen(self):
        prof = MPdistProfile(segment_index=0, values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            prof.values[0] = 5.0

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_rejects_negative(self, bad):
        with pytest.raises(ValueError, match="entry 0 is .*, not finite and >= 0"):
            MPdistProfile(segment_index=0, values=np.array([bad, 1.0]))

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]]], ids=["empty", "2d"])
    def test_rejects_empty_or_matrix(self, values):
        with pytest.raises(ValueError, match="profile must be a non-empty vector"):
            MPdistProfile(segment_index=0, values=np.asarray(values))
