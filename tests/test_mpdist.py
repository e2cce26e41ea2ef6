import math
import sys
import threading
import time
import tracemalloc
from contextlib import closing
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
from sniplab.zdist import neg_correlation_matrix, neg_correlation_to_distance, neg_correlations
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


def _kth_pass(stats, params, segments, workers):
    """Negated-correlation ``k > 2`` profiles of ``segments`` from one pass.

    The pass runs on a ``workers``-thread engine of its own, closed when
    the pass ends, fails or is closed early.
    """
    with closing(mpdist._KthEngine(stats, params, workers, len(segments))) as engine:
        yield from engine.profiles(segments)


def _assert_split_profile(series, seg, params, stats, expected):
    # mpdist_profile (one worker), and at k > 2 one-segment passes at two
    # and three workers.
    np.testing.assert_array_equal(mpdist_profile(series, seg, params, stats=stats).values, expected)
    if params.k > 2:
        for workers in (2, 3):
            (row,) = _kth_pass(stats, params, [seg], workers)
            distances = neg_correlation_to_distance(row, params.window_size)
            np.testing.assert_array_equal(distances, expected, err_msg=f"{workers} workers")


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
            _assert_split_profile(series, seg, params, stats, expected)

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
            _assert_split_profile(series, seg, params, stats, expected)

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
            mpdist_profile(series, 3, params, stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * kernel_bytes, f"peak {peak / kernel_bytes:.2f} x the kernel rows"

    def test_column_parts(self):
        # n = 20000: an m = 8 segment is too small to split at any worker
        # count; an m = 1024 one splits evenly; no part is ever empty
        # (5 positions at m = 4000, l = 1 hold 16M entries).
        assert mpdist._splits(20000, MPdistParams(snippet_size=8), 4) == [(0, 19993)]
        assert mpdist._splits(20000, MPdistParams(snippet_size=1024), 2) == [
            (0, 9488),
            (9488, 18977),
        ]
        assert len(mpdist._splits(4004, MPdistParams(snippet_size=4000, window_size=1), 8)) == 5


def _kth_pass_case(n=3000, m=64, seed=5):
    """A random walk, its k > 2 parameters (width 33, k = 7) and statistics."""
    series = TimeSeries(np.cumsum(np.random.default_rng(seed).standard_normal(n)))
    params = MPdistParams(snippet_size=m)
    assert params.k > 2
    return series, params, compute_sliding_stats(series, params.window_size)


class TestKthPass:
    """The k > 2 pass: one kernel at a time, two part buffers, threads joined."""

    @given(_series_with_flat_runs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pass_equals_distance_space_selection(self, values, data):
        # Every segment of one pass, each split into a part per worker at a
        # one-entry threshold, with a flat run across the first part
        # boundary, and filter and selection steps of a row or a few
        # positions each.  select_snippets runs the same pass and, with no
        # more segments than the profile width, holds its rows; its result
        # must be the one it gives on the oracle's profiles.
        n = values.size
        m = data.draw(st.integers(min_value=2, max_value=n // 2))
        l = data.draw(st.integers(min_value=1, max_value=m))
        width = m - l + 1
        k = data.draw(st.sampled_from([3, max(3, 2 * width - 1), max(3, 2 * width), 2 * width + 1]))
        boundary = (n - m + 1) // data.draw(st.sampled_from([2, 3]))
        start = data.draw(st.integers(min_value=max(0, boundary - l), max_value=boundary))
        length = data.draw(st.integers(min_value=1, max_value=l + width))
        values = values.copy()
        values[start : start + length] = values[start]
        series = TimeSeries(values)
        params = MPdistParams(snippet_size=m, window_size=l, k=k)
        stats = compute_sliding_stats(series, l)
        count = n // m
        expected = [distance_space_profile(series, i, params, stats) for i in range(count)]
        oracle = [MPdistProfile(segment_index=i, values=row) for i, row in enumerate(expected)]
        num_snippets = data.draw(st.integers(min_value=1, max_value=min(3, count)))
        reference = select_snippets(series, params, num_snippets, profiles=oracle)
        tile = data.draw(st.sampled_from([1, 2, 3]))
        with mock.patch.object(mpdist, "MIN_PART_ENTRIES", 1), \
                mock.patch.object(mpdist, "_BLOCK_BYTES", 16 * width * tile), \
                mock.patch.object(mpdist, "_TASK_BLOCKS", 1):
            for workers in (1, 2, 3):
                rows = _kth_pass(stats, params, range(count), workers)
                for i, row in enumerate(rows):
                    distances = neg_correlation_to_distance(row, l)
                    np.testing.assert_array_equal(distances, expected[i], err_msg=f"segment {i}")
                result = select_snippets(series, params, num_snippets, workers=workers)
                assert result.to_dict() == reference.to_dict()
                assert result.curve.tobytes() == reference.curve.tobytes()
                assert result.profile_max == reference.profile_max
                for got, want in zip(result.profiles, reference.profiles):
                    assert got.values.tobytes() == want.values.tobytes()

    def test_one_kernel_at_a_time(self, monkeypatch):
        # Three threads over 46 segments of three parts each, with the
        # interpreter switching threads every microsecond: no two kernels
        # ever run at once, each part's kernel runs once, and selection
        # steps do run beside a kernel.
        series, params, stats = _kth_pass_case()
        monkeypatch.setattr(mpdist, "MIN_PART_ENTRIES", 1)
        kernel = mpdist.neg_correlations
        select = mpdist._KthEngine._select
        lock = threading.Lock()
        running = []
        calls = overlaps = peak = 0

        def counted(*args, **kwargs):
            nonlocal calls, peak
            with lock:
                running.append(None)
                calls += 1
                peak = max(peak, len(running))
            try:
                yield from kernel(*args, **kwargs)
            finally:
                with lock:
                    running.pop()

        def selecting(*args, **kwargs):
            nonlocal overlaps
            overlaps += bool(running)
            return select(*args, **kwargs)

        monkeypatch.setattr(mpdist, "neg_correlations", counted)
        monkeypatch.setattr(mpdist._KthEngine, "_select", selecting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = list(_kth_pass(stats, params, range(46), 3))
        finally:
            sys.setswitchinterval(interval)
        assert len(rows) == 46
        assert (calls, peak) == (46 * 3, 1)
        assert overlaps > 0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pass_holds_at_most_two_part_buffers(self, monkeypatch, workers):
        # A whole pass over 15 segments, each split into a part per worker:
        # besides one part buffer per thread up to two, the margin covers
        # each thread's scratch (a few small blocks here), the kernel's
        # diagonals and the profiles in flight.  A buffer per part, or a
        # third buffer, would pass it by a third of a buffer or more.
        series, params, stats = _kth_pass_case(n=4000, m=256)
        monkeypatch.setattr(mpdist, "MIN_PART_ENTRIES", 1)
        monkeypatch.setattr(mpdist, "_BLOCK_BYTES", 1 << 15)
        width = params.profile_width
        num_positions = series.n - params.snippet_size + 1
        buffer_bytes = (width + 1) * (-(-num_positions // workers) + width - 1) * 8
        tracemalloc.start()
        try:
            for _ in _kth_pass(stats, params, range(15), workers):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffers = min(2, workers)
        assert peak <= (buffers + 0.3) * buffer_bytes, f"peak {peak / buffer_bytes:.2f} buffers"

    def test_pass_waits_for_its_consumer(self, monkeypatch):
        # A consumer that has read one profile and pauses holds up the
        # pass, not memory: kernels start at most three segments ahead of
        # it (two parts each here), however long it waits.
        series, params, stats = _kth_pass_case()
        monkeypatch.setattr(mpdist, "MIN_PART_ENTRIES", 1)
        build = mpdist._KthEngine._build
        built = []
        monkeypatch.setattr(
            mpdist._KthEngine, "_build", lambda *a: built.append(a[1]) or build(*a)
        )
        rows = _kth_pass(stats, params, range(20), 2)
        next(rows)
        time.sleep(0.3)
        assert 0 < len(built) <= 2 * 4
        assert len(list(rows)) == 19

    @pytest.mark.parametrize("workers", [2, 3])
    def test_threads_joined(self, monkeypatch, workers):
        # After a pass ends, after a consumer stops early, and after a
        # selection step fails on a helper or the calling thread, no thread
        # of the pass is left; the failure reaches the caller.
        series, params, stats = _kth_pass_case()
        monkeypatch.setattr(mpdist, "MIN_PART_ENTRIES", 1)
        start = threading.active_count()
        assert len(list(_kth_pass(stats, params, range(10), workers))) == 10
        assert threading.active_count() == start
        rows = _kth_pass(stats, params, range(10), workers)
        next(rows)
        rows.close()
        assert threading.active_count() == start

        select = mpdist._KthEngine._select
        for failing in range(1, 8):
            steps = 0

            def broken(*args, **kwargs):
                nonlocal steps
                steps += 1
                if steps == failing:
                    raise RuntimeError("selection step failed")
                return select(*args, **kwargs)

            monkeypatch.setattr(mpdist._KthEngine, "_select", broken)
            with pytest.raises(RuntimeError, match="selection step failed"):
                list(_kth_pass(stats, params, range(10), workers))
            assert threading.active_count() == start
        monkeypatch.setattr(mpdist._KthEngine, "_select", select)

        # select_snippets' pass (46 segments, past the width of 33, so
        # streamed) stops the pipeline when reading a row fails, even
        # while the caller still holds the exception and its frames.
        keep = snippets._ProfileStore.keep

        def failing_keep(store, index, values):
            if index == 3:
                raise RuntimeError("keeping a row failed")
            keep(store, index, values)

        monkeypatch.setattr(snippets._ProfileStore, "keep", failing_keep)
        with pytest.raises(RuntimeError, match="keeping a row failed") as failure:
            select_snippets(series, params, 2, workers=workers)
        assert failure.tb is not None
        assert threading.active_count() == start

        # A greedy round that fails after the pass, while the engine's
        # helpers wait for its recomputes, joins them too.
        monkeypatch.setattr(snippets._ProfileStore, "keep", keep)

        def failing_bounds(store, curve):
            raise RuntimeError("bounding failed")

        monkeypatch.setattr(snippets._ProfileStore, "lower_bounds", failing_bounds)
        with pytest.raises(RuntimeError, match="bounding failed"):
            select_snippets(series, params, 2, workers=workers)
        assert threading.active_count() == start

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_engine_passes_share_buffers_and_threads(self, monkeypatch, workers):
        # One engine's passes, a whole one and then one segment at a time
        # as a search's greedy rounds recompute them, give the same rows
        # in the same part buffers, from helpers started once; a pass
        # closed early joins them, and the next one starts them again.
        series, params, stats = _kth_pass_case()
        monkeypatch.setattr(mpdist, "MIN_PART_ENTRIES", 1)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        count = threading.active_count()
        engine = mpdist._KthEngine(stats, params, workers, 10)
        assert engine.buffers == []
        try:
            rows = [row.copy() for row in engine.profiles(range(10))]
            buffers = [b.ctypes.data for b in engine.buffers]
            for i in (3, 0, 9, 3):
                (row,) = engine.profiles([i])
                assert row.tobytes() == rows[i].tobytes(), f"segment {i}"
            assert len(started) == workers - 1
            assert len(buffers) == min(2, workers)
            assert [b.ctypes.data for b in engine.buffers] == buffers
            early = engine.profiles(range(10))
            next(early)
            early.close()
            assert threading.active_count() == count
            assert engine.buffers == []
            assert [row.tobytes() for row in engine.profiles(range(4, 7))] == [
                row.tobytes() for row in rows[4:7]
            ]
            assert len(started) == 2 * (workers - 1)
        finally:
            engine.close()
        assert threading.active_count() == count

    @pytest.mark.parametrize("workers", [1, 2])
    def test_held_search_closes_its_engine_before_the_greedy(self, monkeypatch, workers):
        # 8 segments, no more than the width of 33, so the search holds
        # its rows: its one engine runs one pass, and by the greedy's
        # first bounded round its helpers are joined and its part
        # buffers dropped.
        series, params, _ = _kth_pass_case(n=8 * 64 + 5)
        monkeypatch.setattr(mpdist, "MIN_PART_ENTRIES", 1)
        engines, passes, seen = [], [], []

        class Recording(mpdist._KthEngine):
            def __init__(self, *args):
                super().__init__(*args)
                engines.append(self)

            def profiles(self, segments):
                passes.append(list(segments))
                return super().profiles(segments)

        bounds = snippets._ProfileStore.lower_bounds

        def checked(store, curve):
            seen.append((threading.active_count(), [engine.buffers for engine in engines]))
            return bounds(store, curve)

        monkeypatch.setattr(snippets, "_KthEngine", Recording)
        monkeypatch.setattr(snippets._ProfileStore, "lower_bounds", checked)
        count = threading.active_count()
        result = select_snippets(series, params, 3, workers=workers)
        assert passes == [list(range(8))]
        assert seen == [(count, [[]])] * 2
        profiles = [mpdist_profile(series, i, params) for i in range(8)]
        reference = select_snippets(series, params, 3, profiles=profiles)
        assert result.to_dict() == reference.to_dict()
        assert result.curve.tobytes() == reference.curve.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_recomputes_on_its_pass_engine(self, monkeypatch, workers):
        # A streamed k > 2 search (46 segments, past the width of 33)
        # makes one engine, whose first pass profiles every segment and
        # whose later passes are the greedy rounds' recomputes; its
        # helpers start once.
        series, params, _ = _kth_pass_case()
        monkeypatch.setattr(mpdist, "MIN_PART_ENTRIES", 1)
        engines, passes, started = [], [], []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))

        class Recording(mpdist._KthEngine):
            def __init__(self, *args):
                super().__init__(*args)
                engines.append(self)

            def profiles(self, segments):
                passes.append(list(segments))
                return super().profiles(segments)

        monkeypatch.setattr(snippets, "_KthEngine", Recording)
        result = select_snippets(series, params, 3, workers=workers)
        assert len(engines) == 1
        assert passes[0] == list(range(46))
        assert len(passes) > 1 and all(len(segments) == 1 for segments in passes[1:])
        assert len(started) == workers - 1
        monkeypatch.setattr(snippets, "_KthEngine", mpdist._KthEngine)
        profiles = [mpdist_profile(series, i, params) for i in range(46)]
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
        batched = [(index, row.copy()) for index, row in rows]
        assert [index for index, _ in batched] == list(range(first, last))
        for index, row in batched:
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
