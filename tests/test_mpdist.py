import math
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
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
    select_snippets,
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
            ({"snippet_size": 8, "window_size": True}, "window_size must be an integer, got True"),
            ({"snippet_size": True}, "snippet_size must be an integer, got True"),
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


def _kth_pass(stats, params, segments, workers):
    """The ``k > 2`` profiles of ``segments``, in order, each a copy.

    As in a search, the segments split into ``min(workers, len(segments))``
    contiguous ranges, each profiled on a thread of its own by a profiler
    of its own, which reuses one row.
    """
    segments = list(segments)
    count = min(workers, len(segments))
    bounds = [len(segments) * i // count for i in range(count + 1)]

    def profile(first, stop):
        profiler = mpdist._KthProfiler(stats, params)
        return [row.copy() for row in profiler.profiles(segments[first:stop])]

    with ThreadPoolExecutor(count) as pool:
        return [row for rows in pool.map(profile, bounds[:-1], bounds[1:]) for row in rows]


def _part_bytes(params, size):
    """A ``PART_BYTES`` that streams a segment through parts of at most ``size`` positions (at least the width)."""
    width = params.profile_width
    return 8 * (width + 1) * (size + width - 1)


def _assert_split_profile(series, seg, params, stats, expected):
    # mpdist_profile, and at k > 2 a profiler that has profiled another
    # segment first, so its part buffer, tail and workspace come used.
    np.testing.assert_array_equal(mpdist_profile(series, seg, params, stats=stats).values, expected)
    if params.k > 2:
        other = (seg + 1) % (series.n // params.snippet_size)
        _, row = mpdist._KthProfiler(stats, params).profiles([other, seg])
        np.testing.assert_array_equal(row, expected, err_msg=f"after segment {other}")


class TestMPdistProfileSplit:
    @given(_series_with_flat_runs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_split_equals_distance_space_selection(self, values, data):
        # Parts of at most width to width + 3 positions split every
        # segment of at least twice the width, so a part's first columns
        # come from the last part's tail.
        n = values.size
        m = data.draw(st.integers(min_value=2, max_value=n))
        l = data.draw(st.integers(min_value=1, max_value=m))
        width = m - l + 1
        k = data.draw(st.sampled_from([1, 2, max(2, 2 * width - 1), 2 * width, 2 * width + 1]))
        params = MPdistParams(snippet_size=m, window_size=l, k=k)
        size = width + data.draw(st.integers(min_value=0, max_value=3))
        with mock.patch.object(mpdist, "PART_BYTES", _part_bytes(params, size)):
            # A flat run across the first boundary between parts, so
            # constant windows fall on both sides of it.
            boundary = mpdist._parts(n, params)[0][1]
            start = data.draw(st.integers(min_value=max(0, boundary - l), max_value=boundary))
            length = data.draw(st.integers(min_value=1, max_value=l + width))
            values = values.copy()
            values[start : start + length] = values[start]
            series = TimeSeries(values)
            stats = compute_sliding_stats(series, l)
            seg = data.draw(st.integers(min_value=0, max_value=n // m - 1))
            expected = distance_space_profile(series, seg, params, stats)
            _assert_split_profile(series, seg, params, stats, expected)

    @given(_series_with_flat_runs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_tiled_selection_equals_distance_space_selection(self, values, data):
        # Tiles of 1, 2 or 3 positions put tile boundaries all through
        # every part of width to 2 * width positions, part boundaries
        # included.
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
        with mock.patch.object(mpdist, "PART_BYTES", 1), \
                mock.patch.object(mpdist, "_BLOCK_BYTES", 16 * width * tile):
            _assert_split_profile(series, seg, params, stats, expected)

    def test_one_profile_holds_one_width_row_buffer(self):
        # A profile streams its segment through parts of at most
        # PART_BYTES, so at any series length its peak is one part buffer,
        # the tail the next part starts with, and a margin for the
        # selection block, the kernel's diagonals and the profile's own
        # vectors: one bound holds at n = 4,000 (one part of 3,745
        # positions) and at n = 40,000 (three parts).
        params = MPdistParams(snippet_size=256)
        width = params.profile_width
        bound = 1.3 * mpdist.PART_BYTES + (width + 1) * (width - 1) * 8
        for n in (4000, 40000):
            series = TimeSeries(np.cumsum(np.random.default_rng(1).standard_normal(n)))
            stats = compute_sliding_stats(series, params.window_size)
            tracemalloc.start()
            try:
                mpdist_profile(series, 3, params, stats=stats)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, f"n = {n}: peak {peak / mpdist.PART_BYTES:.2f} x PART_BYTES"

    @pytest.mark.parametrize(
        "n, m, l",
        [(20000, 8, None), (20000, 1024, None), (4004, 4000, 1), (300, 40, 2), (3499, 2000, 1000)],
    )
    def test_part_plan(self, n, m, l):
        # Parts cover the positions in order, none empty, their sizes a
        # position apart.  Each holds at least width positions unless
        # the segment has fewer, and at most PART_BYTES unless it has
        # fewer than 2 * width (at m = 2000 here), and one part fewer
        # would not fit.  A profiler's part buffer fits its longest part.
        params = MPdistParams(snippet_size=m, window_size=l)
        width = params.profile_width
        num_positions = n - m + 1
        parts = mpdist._parts(n, params)
        sizes = [hi - lo for lo, hi in parts]
        assert [lo for lo, _ in parts] == [0] + [hi for _, hi in parts[:-1]]
        assert parts[-1][1] == num_positions
        assert min(sizes) > 0 and max(sizes) - min(sizes) <= 1
        assert min(sizes) >= min(width, num_positions)

        def part_bytes(size):
            return (width + 1) * (size + width - 1) * 8

        assert max(sizes) < 2 * width or part_bytes(max(sizes)) <= mpdist.PART_BYTES
        if len(parts) > 1:
            assert part_bytes(-(-num_positions // (len(parts) - 1))) > mpdist.PART_BYTES
        stats = compute_sliding_stats(TimeSeries(np.sin(np.arange(n) / 7.0)), params.window_size)
        profiler = mpdist._KthProfiler(stats, params)
        assert profiler.buffer.size == (width + 1) * (max(sizes) + width - 1)
        if (n, m) == (20000, 1024):
            assert sizes == [3162] + [3163] * 5
        if m in (8, 4000, 2000):
            assert len(parts) == 1


def _kth_pass_case(n=3000, m=64, seed=5):
    """A random walk, its k > 2 parameters (width 33, k = 7) and statistics."""
    series = TimeSeries(np.cumsum(np.random.default_rng(seed).standard_normal(n)))
    params = MPdistParams(snippet_size=m)
    assert params.k > 2
    return series, params, compute_sliding_stats(series, params.window_size)


class TestKthPass:
    """The k > 2 pass: a profiler per range of segments, threads joined."""

    @given(_series_with_flat_runs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pass_equals_distance_space_selection(self, values, data):
        # Every segment of one pass, streamed through parts of at most
        # width to width + 3 positions, with a flat run across the first
        # part boundary, and selection tiles of a few positions each, over
        # one, two or three ranges.  select_snippets runs the same pass and, with no
        # more segments than the profile width, holds its rows; its result
        # must be the one it gives on the oracle's profiles.
        n = values.size
        m = data.draw(st.integers(min_value=2, max_value=n // 2))
        l = data.draw(st.integers(min_value=1, max_value=m))
        width = m - l + 1
        k = data.draw(st.sampled_from([3, max(3, 2 * width - 1), max(3, 2 * width), 2 * width + 1]))
        params = MPdistParams(snippet_size=m, window_size=l, k=k)
        part_bytes = _part_bytes(params, width + data.draw(st.integers(min_value=0, max_value=3)))
        with mock.patch.object(mpdist, "PART_BYTES", part_bytes):
            boundary = mpdist._parts(n, params)[0][1]
        start = data.draw(st.integers(min_value=max(0, boundary - l), max_value=boundary))
        length = data.draw(st.integers(min_value=1, max_value=l + width))
        values = values.copy()
        values[start : start + length] = values[start]
        series = TimeSeries(values)
        stats = compute_sliding_stats(series, l)
        count = n // m
        expected = [distance_space_profile(series, i, params, stats) for i in range(count)]
        oracle = [MPdistProfile(segment_index=i, values=row) for i, row in enumerate(expected)]
        num_snippets = data.draw(st.integers(min_value=1, max_value=min(3, count)))
        reference = select_snippets(series, params, num_snippets, profiles=oracle)
        tile = data.draw(st.sampled_from([1, 2, 3]))
        with mock.patch.object(mpdist, "PART_BYTES", part_bytes), \
                mock.patch.object(mpdist, "_BLOCK_BYTES", 16 * width * tile):
            for workers in (1, 2, 3):
                rows = _kth_pass(stats, params, range(count), workers)
                for i, row in enumerate(rows):
                    np.testing.assert_array_equal(row, expected[i], err_msg=f"segment {i}")
                result = select_snippets(series, params, num_snippets, workers=workers)
                assert result.to_dict() == reference.to_dict()
                assert result.curve.tobytes() == reference.curve.tobytes()
                assert result.profile_max == reference.profile_max
                for got, want in zip(result.profiles, reference.profiles):
                    assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("size", [None, 33, 100, 979])
    def test_kernel_computes_each_entry_once(self, monkeypatch, workers, size):
        # The kernel calls of a pass over five segments, each whole or
        # streamed through parts of at most 33 (the width), 100 or 979
        # positions, compute each segment's width x (n - l + 1) entries
        # once, over any number of ranges: no part recomputes the columns
        # the last one left.
        series, params, stats = _kth_pass_case()
        if size is not None:
            monkeypatch.setattr(mpdist, "PART_BYTES", _part_bytes(params, size))
        kernel = mpdist.neg_correlations
        entries = []

        def counted(stats, first_queries, num_rows, *, columns, **kwargs):
            entries.append(num_rows * (columns[1] - columns[0]))
            return kernel(stats, first_queries, num_rows, columns=columns, **kwargs)

        monkeypatch.setattr(mpdist, "neg_correlations", counted)
        assert len(list(_kth_pass(stats, params, range(5), workers))) == 5
        parts = mpdist._parts(series.n, params)
        assert len(entries) == 5 * len(parts)
        assert sum(entries) == 5 * params.profile_width * stats.sumsq.size

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_search_builds_a_profiler_a_range(self, monkeypatch, workers):
        # A streamed k > 2 search (46 segments, past the width of 33)
        # builds one profiler per range, min(workers, 46) in all, each
        # profiling its contiguous range once; the greedy rounds'
        # recomputes, one segment each, run on this thread's profiler,
        # the first range's, and build none.
        series, params, _ = _kth_pass_case()
        monkeypatch.setattr(mpdist, "PART_BYTES", _part_bytes(params, 979))
        built, passes = [], []

        class Recording(mpdist._KthProfiler):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

            def profiles(self, segments):
                passes.append((self, threading.get_ident(), list(segments)))
                return super().profiles(segments)

        monkeypatch.setattr(mpdist, "_KthProfiler", Recording)
        result = select_snippets(series, params, 3, workers=workers)
        assert len(built) == min(workers, 46)
        ranges = sorted(passes[: len(built)], key=lambda p: p[2])
        assert [p[0] for p in ranges] == built
        assert [i for p in ranges for i in p[2]] == list(range(46))
        assert ranges[0][1] == threading.get_ident()
        recomputes = passes[len(built) :]
        assert recomputes and all(
            (p[0], p[1], len(p[2])) == (built[0], threading.get_ident(), 1) for p in recomputes
        )
        monkeypatch.setattr(mpdist, "_KthProfiler", Recording.__base__)
        profiles = [mpdist_profile(series, i, params) for i in range(46)]
        reference = select_snippets(series, params, 3, profiles=profiles)
        assert result.to_dict() == reference.to_dict()
        assert result.curve.tobytes() == reference.curve.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_recomputes_on_its_pass_engine(self, monkeypatch, workers):
        # A streamed k > 2 search (46 segments, past the width of 33)
        # recomputes its greedy rounds' rows on the profiler whose pass
        # took the first range, on this thread, and each recomputed row is
        # bit for bit the row the pass gave, whichever range's profiler
        # gave it: the greedy's exact areas rely on it.
        series, params, _ = _kth_pass_case()
        monkeypatch.setattr(mpdist, "PART_BYTES", _part_bytes(params, 979))
        built, given = [], []

        class Recording(mpdist._KthProfiler):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

            def profiles(self, segments):
                for segment, row in zip(segments, super().profiles(segments)):
                    given.append((self, threading.get_ident(), segment, row.copy()))
                    yield row

        monkeypatch.setattr(mpdist, "_KthProfiler", Recording)
        result = select_snippets(series, params, 3, workers=workers)
        passed, recomputed = given[:46], given[46:]
        assert sorted(segment for _, _, segment, _ in passed) == list(range(46))
        rows = {segment: row for _, _, segment, row in passed}
        assert recomputed
        for profiler, thread, segment, row in recomputed:
            assert (profiler, thread) == (built[0], threading.get_ident())
            assert row.tobytes() == rows[segment].tobytes(), f"segment {segment}"
        if workers > 1:  # some recomputed row came from another range's profiler
            assert any(segment >= 46 // workers for _, _, segment, _ in recomputed)
        monkeypatch.setattr(mpdist, "_KthProfiler", Recording.__base__)
        profiles = [mpdist_profile(series, i, params) for i in range(46)]
        reference = select_snippets(series, params, 3, profiles=profiles)
        assert result.to_dict() == reference.to_dict()
        assert result.curve.tobytes() == reference.curve.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pass_holds_at_most_two_part_buffers(self, monkeypatch, workers):
        # A whole pass over 15 segments of two parts each, split into one
        # range a thread: each range's pass holds its one part buffer and
        # tail, and a margin of 0.3 buffers and 256 kB covers its kernel
        # workspace and update products, its scratch (a few small blocks
        # here) and the profile in flight.  A second buffer in any range's
        # pass, or a buffer per part, would pass the bound by more than
        # half a buffer.
        series, params, stats = _kth_pass_case(n=4000, m=256)
        monkeypatch.setattr(mpdist, "PART_BYTES", _part_bytes(params, 1873))
        monkeypatch.setattr(mpdist, "_BLOCK_BYTES", 1 << 15)
        width = params.profile_width
        assert len(mpdist._parts(series.n, params)) == 2
        buffer_bytes = _part_bytes(params, 1873)
        tail_bytes = (width + 1) * (width - 1) * 8

        def profile(first, stop):
            for _ in mpdist._KthProfiler(stats, params).profiles(range(first, stop)):
                pass

        bounds = [15 * i // workers for i in range(workers + 1)]
        tracemalloc.start()
        try:
            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(profile, bounds[:-1], bounds[1:]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = workers * (1.3 * buffer_bytes + tail_bytes + (1 << 18))
        assert peak <= bound, f"peak {peak / buffer_bytes:.2f} buffers"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_engine_passes_share_buffers_and_threads(self, monkeypatch, workers):
        # One profiler's passes, a whole one and then one segment at a
        # time as a search's greedy rounds recompute them, give the same
        # rows in the same part buffer, tail, workspace, scratch and
        # output row; a pass closed early leaves them to the next.  A
        # search at W workers starts a thread for each range past the
        # first, W - 1 at most, joins them, and its greedy recomputes
        # start none.
        series, params, stats = _kth_pass_case()
        monkeypatch.setattr(mpdist, "PART_BYTES", _part_bytes(params, 979))
        profiler = mpdist._KthProfiler(stats, params)
        kept = (profiler.buffer, profiler.tail, profiler.work, profiler.scratch, profiler.best)
        arrays = [a.ctypes.data for a in kept]
        rows = [row.copy() for row in profiler.profiles(range(10))]
        for i in (3, 0, 9, 3):
            (row,) = profiler.profiles([i])
            assert row.tobytes() == rows[i].tobytes(), f"segment {i}"
        early = profiler.profiles(range(10))
        next(early)
        early.close()
        assert [row.tobytes() for row in profiler.profiles(range(4, 7))] == [
            row.tobytes() for row in rows[4:7]
        ]
        kept = (profiler.buffer, profiler.tail, profiler.work, profiler.scratch, profiler.best)
        assert [a.ctypes.data for a in kept] == arrays

        started, recomputing = [], []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))

        class Recording(mpdist._KthProfiler):
            def profiles(self, segments):
                if len(segments) == 1:
                    recomputing.append(len(started))
                return super().profiles(segments)

        monkeypatch.setattr(mpdist, "_KthProfiler", Recording)
        select_snippets(series, params, 3, workers=workers)
        assert (not started) == (workers == 1) and len(started) <= workers - 1
        assert recomputing and set(recomputing) == {len(started)}
        assert not any(thread.is_alive() for thread in started)

    def test_pass_waits_for_its_consumer(self, monkeypatch):
        # A profiler builds no part of a segment before its caller has
        # read the last segment's profile (two parts a segment here).
        series, params, stats = _kth_pass_case()
        monkeypatch.setattr(mpdist, "PART_BYTES", _part_bytes(params, 1469))
        kernel = mpdist.neg_correlations
        built = []

        def counted(stats, starts, *args, **kwargs):
            built.append(starts[0] // params.snippet_size)
            return kernel(stats, starts, *args, **kwargs)

        monkeypatch.setattr(mpdist, "neg_correlations", counted)
        rows = mpdist._KthProfiler(stats, params).profiles(range(20))
        assert built == []
        for segment in range(20):
            next(rows)
            assert built == [s for s in range(segment + 1) for _ in range(2)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_threads_joined(self, monkeypatch, workers):
        # A search (46 segments, past the width of 33, so streamed) joins
        # its range threads when it ends, and when a range fails, on this
        # thread or another, in a profiler's step or while its rows are
        # read, even while the caller still holds the exception and its
        # frames; the failure reaches the caller.
        series, params, _ = _kth_pass_case()
        monkeypatch.setattr(mpdist, "PART_BYTES", _part_bytes(params, 979))
        start = threading.active_count()
        select_snippets(series, params, 2, workers=workers)
        assert threading.active_count() == start

        minima = mpdist._sliding_min_rows
        for main in (True, False):

            def broken(*args, **kwargs):
                if (threading.current_thread() is threading.main_thread()) == main:
                    raise RuntimeError("filter failed")
                return minima(*args, **kwargs)

            monkeypatch.setattr(mpdist, "_sliding_min_rows", broken)
            with pytest.raises(RuntimeError, match="filter failed"):
                select_snippets(series, params, 2, workers=workers)
            assert threading.active_count() == start
        monkeypatch.setattr(mpdist, "_sliding_min_rows", minima)

        keep = snippets._ProfileStore.keep
        for failing in (3, 45):  # in the first range and in the last

            def failing_keep(store, index, values):
                if index == failing:
                    raise RuntimeError("keeping a row failed")
                keep(store, index, values)

            monkeypatch.setattr(snippets._ProfileStore, "keep", failing_keep)
            with pytest.raises(RuntimeError, match="keeping a row failed") as failure:
                select_snippets(series, params, 2, workers=workers)
            assert failure.tb is not None
            assert threading.active_count() == start
        monkeypatch.setattr(snippets._ProfileStore, "keep", keep)

        # A greedy round that fails after the pass, while the recomputes
        # run on this thread's profiler, leaves no thread either.
        def failing_bounds(store, curve):
            raise RuntimeError("bounding failed")

        monkeypatch.setattr(snippets._ProfileStore, "lower_bounds", failing_bounds)
        with pytest.raises(RuntimeError, match="bounding failed"):
            select_snippets(series, params, 2, workers=workers)
        assert threading.active_count() == start

    @pytest.mark.parametrize("workers", [1, 2])
    def test_held_search_closes_its_engine_before_the_greedy(self, monkeypatch, workers):
        # 8 segments, no more than the width of 33, so the search holds
        # its rows: its profilers, one a range, each profile their range
        # once, and by the greedy's first bounded round every one of them,
        # with its part buffer, is gone and their threads are joined.
        series, params, _ = _kth_pass_case(n=8 * 64 + 5)
        monkeypatch.setattr(mpdist, "PART_BYTES", 1)
        built, passes, seen = [], [], []

        class Recording(mpdist._KthProfiler):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

            def profiles(self, segments):
                passes.append(list(segments))
                return super().profiles(segments)

        bounds = snippets._ProfileStore.lower_bounds

        def checked(store, curve):
            seen.append((threading.active_count(), [ref() for ref in built]))
            return bounds(store, curve)

        monkeypatch.setattr(mpdist, "_KthProfiler", Recording)
        monkeypatch.setattr(snippets._ProfileStore, "lower_bounds", checked)
        count = threading.active_count()
        result = select_snippets(series, params, 3, workers=workers)
        assert len(built) == workers
        assert sorted(passes) == [list(range(8 * i // workers, 8 * (i + 1) // workers)) for i in range(workers)]
        assert seen == [(count, [None] * workers)] * 2
        profiles = [mpdist_profile(series, i, params) for i in range(8)]
        reference = select_snippets(series, params, 3, profiles=profiles)
        assert result.to_dict() == reference.to_dict()
        assert result.curve.tobytes() == reference.curve.tobytes()


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
        # for bit as a call for it alone, whole or streamed through two
        # blocks of columns; and a profiler's batches, of 1 to 5 segments
        # with a short last batch, the profiles mpdist_profile computes
        # segment by segment.  The greedy rounds rely on a recomputed
        # profile matching its pass row exactly.
        series, params, segments = case
        stats = compute_sliding_stats(series, params.window_size)
        width = params.profile_width
        num_columns = stats.sumsq.size
        cut = data.draw(st.integers(min_value=1, max_value=num_columns))
        starts = [s * params.snippet_size for s in segments]
        work = np.empty((2, len(starts), num_columns + width - 1))
        rows = np.concatenate(
            [
                np.stack([r.copy() for r in neg_correlations(stats, starts, width, columns=block, work=work)])
                for block in [(0, cut), (cut, num_columns)][: 1 + (cut < num_columns)]
            ],
            axis=-1,
        )
        for b, seg_start in enumerate(starts):
            alone = neg_correlation_matrix(stats, seg_start, width)
            assert rows[:, b].tobytes() == alone.tobytes(), f"segment at {seg_start}"

        num_segments = series.n // params.snippet_size
        first = data.draw(st.integers(min_value=0, max_value=num_segments - 1))
        last = data.draw(st.integers(min_value=first + 1, max_value=num_segments))
        with mock.patch.object(mpdist, "_batch_size", lambda *_: len(segments)):
            rows = mpdist._MinProfiler(stats, params).profiles(range(first, last))
            batched = [(index, row.copy()) for index, row in enumerate(rows, first)]
        assert [index for index, _ in batched] == list(range(first, last))
        for index, row in batched:
            profile = mpdist_profile(series, index, params, stats=stats)
            assert row.tobytes() == profile.values.tobytes(), f"segment {index}"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_recomputes_on_its_pass_profiler(self, monkeypatch, workers):
        # A k <= 2 search with 46 segments, past the width of 33, recomputes
        # its greedy rounds' rows on the profiler whose pass took the
        # first range, on this thread, and builds no profiler for them;
        # each recomputed row is bit for bit the row the pass gave,
        # whichever range's profiler gave it.
        series, _, _ = _kth_pass_case()
        params = MPdistParams(snippet_size=64, k=2)
        built, given = [], []

        class Recording(mpdist._MinProfiler):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

            def profiles(self, segments):
                for segment, row in zip(segments, super().profiles(segments)):
                    given.append((self, threading.get_ident(), segment, row.copy()))
                    yield row

        monkeypatch.setattr(mpdist, "_MinProfiler", Recording)
        result = select_snippets(series, params, 3, workers=workers)
        assert len(built) == workers
        passed, recomputed = given[:46], given[46:]
        assert sorted(segment for _, _, segment, _ in passed) == list(range(46))
        rows = {segment: row for _, _, segment, row in passed}
        assert recomputed
        for profiler, thread, segment, row in recomputed:
            assert (profiler, thread) == (built[0], threading.get_ident())
            assert row.tobytes() == rows[segment].tobytes(), f"segment {segment}"
        if workers > 1:  # some recomputed row came from another range's profiler
            assert any(segment >= 46 // workers for _, _, segment, _ in recomputed)
        monkeypatch.setattr(mpdist, "_MinProfiler", Recording.__base__)
        profiles = [mpdist_profile(series, i, params) for i in range(46)]
        reference = select_snippets(series, params, 3, profiles=profiles)
        assert result.to_dict() == reference.to_dict()
        assert result.curve.tobytes() == reference.curve.tobytes()

    def test_one_profile_holds_one_segment_workspace(self):
        # mpdist_profile asks a fresh profiler for one segment, which sizes
        # its workspace by that request: three rows of n float64 and the
        # profile's copy, not a batch of 3 segments (10 rows at m = 8 on
        # 20,000 points).  A profiler whose first request is a range keeps
        # full batches.
        series = TimeSeries(np.cumsum(np.random.default_rng(1).standard_normal(20000)))
        params = MPdistParams(snippet_size=8)
        stats = compute_sliding_stats(series, params.window_size)
        tracemalloc.start()
        try:
            mpdist_profile(series, 3, params, stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * series.n, f"peak {peak / (8 * series.n):.2f} rows of n float64"
        profiler = mpdist._MinProfiler(stats, params)
        next(profiler.profiles(range(2500)))
        assert profiler.work.shape[1] == mpdist._batch_size(stats.sumsq.size, 2500) == 3

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
