import json
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
    export_curve_csv,
    export_profiles_csv,
    label_series,
    run_schedule,
    segment_profiles,
    select_snippets,
)
from sniplab import mpdist, snippets
from oracles import covering_sums, exhaustive_min_area, stacked_selection
from seriesgen import random_series, sine_sawtooth_series, two_regime_series


def _tiled(pattern, reps):
    return TimeSeries(np.tile(np.asarray(pattern, dtype=np.float64), reps))


def _count_profiles(monkeypatch):
    """The segment index of every profile ``snippets`` computes from now on.

    One per segment any profiler ``snippets`` builds is asked for, at
    any k: in a search's pass, in its greedy recomputes and in
    ``segment_profiles``.
    """
    calls = []
    build = snippets._profiler

    def counting(*args):
        profiler = build(*args)
        profiles = profiler.profiles

        def counted(segments):
            calls.extend(segments)
            return profiles(segments)

        profiler.profiles = counted
        return profiler

    monkeypatch.setattr(snippets, "_profiler", counting)
    return calls


class TestSegment:
    def test_even_split(self):
        assert snippets._check_count(TimeSeries(np.arange(8.0)), 2, 1) == 4

    def test_remainder_excluded(self):
        assert snippets._check_count(TimeSeries(np.arange(9.0)), 2, 1) == 4

    def test_too_few_segments(self):
        with pytest.raises(ValueError, match="at least 2"):
            snippets._check_count(TimeSeries(np.arange(9.0)), 5, 1)


class TestSelectSnippets:
    def test_homogeneous_series_single_snippet(self):
        series = _tiled([0.0, 2.0, 1.0, 3.0, 2.0, 0.0, 1.0, 2.0], 8)
        result = select_snippets(series, MPdistParams(snippet_size=8), 1)
        assert len(result.snippets) == 1
        assert result.snippets[0].frac == 1.0
        assert result.snippets[0].index == 0

    def test_two_regimes_concentrate_on_first_of_each(self):
        # Noise-free tiled regimes: every same-regime segment has a
        # bit-identical profile, so the lower-index tie rule sends all
        # neighbors to the first segment of each regime.
        values, _ = two_regime_series(n=384, period=32, block_len=96, noise=0.0)
        series = TimeSeries(values)
        result = select_snippets(series, MPdistParams(snippet_size=32), 2)
        fracs = sorted(s.frac for s in result.snippets)
        assert fracs[0] >= 0.35 and fracs[1] <= 0.65
        assert sum(fracs) >= 0.95

    def test_full_partition_when_all_segments_chosen(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(random_series(rng, 96))
        count = 96 // 12
        result = select_snippets(series, MPdistParams(snippet_size=12), count)
        assert sum(s.frac for s in result.snippets) == pytest.approx(1.0, abs=1e-9)

    def test_segment_counts_partition_windows(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(random_series(rng, 150))
        result = select_snippets(series, MPdistParams(snippet_size=15), 2)
        assert result.segment_window_counts.sum() == 150 - 15 + 1
        chosen = {s.index for s in result.snippets}
        covered = sum(result.segment_window_counts[i] for i in chosen)
        assert result.unassigned_windows == 150 - 15 + 1 - covered

    def test_ordering_frac_desc_then_index(self):
        rng = np.random.default_rng(4)
        series = TimeSeries(random_series(rng, 200))
        result = select_snippets(series, MPdistParams(snippet_size=20), 3)
        fracs = [s.frac for s in result.snippets]
        assert fracs == sorted(fracs, reverse=True)
        for a, b in zip(result.snippets, result.snippets[1:]):
            if a.frac == b.frac:
                assert a.index < b.index

    def test_profiles_aligned_with_snippets(self):
        rng = np.random.default_rng(5)
        series = TimeSeries(random_series(rng, 120))
        result = select_snippets(series, MPdistParams(snippet_size=12), 2)
        for snip, prof in zip(result.snippets, result.profiles):
            assert prof.segment_index == snip.index
            assert prof.values[snip.start] <= 1e-9  # self window

    def test_area_equals_curve_sum(self):
        rng = np.random.default_rng(6)
        series = TimeSeries(random_series(rng, 140))
        result = select_snippets(series, MPdistParams(snippet_size=14), 2)
        assert result.profile_area == pytest.approx(result.curve.sum(), abs=1e-6)

    def test_greedy_area_non_increasing(self):
        rng = np.random.default_rng(7)
        series = TimeSeries(random_series(rng, 180))
        params = MPdistParams(snippet_size=15)
        profiles = segment_profiles(series, params)
        areas = [
            select_snippets(series, params, k, profiles=profiles).profile_area
            for k in range(1, 7)
        ]
        assert all(a >= b for a, b in zip(areas, areas[1:]))

    def test_greedy_near_exhaustive(self):
        rng = np.random.default_rng(8)
        series = TimeSeries(random_series(rng, 11 * 16))
        params = MPdistParams(snippet_size=16)
        profiles = segment_profiles(series, params)
        matrix = np.vstack([p.values for p in profiles])
        greedy = select_snippets(series, params, 3, profiles=profiles).profile_area
        best = exhaustive_min_area(matrix, 3)
        assert greedy <= best * 1.10

    def test_k_out_of_range(self):
        series = TimeSeries(np.arange(40.0))
        with pytest.raises(ValueError, match="snippet count"):
            select_snippets(series, MPdistParams(snippet_size=10), 0)
        with pytest.raises(ValueError, match="snippet count"):
            select_snippets(series, MPdistParams(snippet_size=10), 5)

    @pytest.mark.parametrize("num_snippets", [2.5, np.float64(2.0), True])
    def test_non_integer_snippet_count_rejected_before_any_work(self, monkeypatch, num_snippets):
        # A count that is not an integer, a bool included, is an error
        # raised before any segment is profiled, and a sweep raises it
        # before any search runs, in this process or a forked one.
        series = TimeSeries(random_series(np.random.default_rng(3), 200))
        jobs = [MPdistParams(snippet_size=10), MPdistParams(snippet_size=20)]
        calls = _count_profiles(monkeypatch)
        with pytest.raises(ValueError, match="snippet count must be an integer"):
            select_snippets(series, jobs[0], num_snippets)
        with pytest.raises(ValueError, match="snippet count must be an integer"):
            run_schedule(series, jobs, num_snippets, workers=2, training_log=False)
        assert calls == []

    def test_profile_of_wrong_length_rejected(self):
        rng = np.random.default_rng(11)
        series = TimeSeries(random_series(rng, 60))
        params = MPdistParams(snippet_size=10)
        profiles = segment_profiles(series, params)
        profiles[2] = MPdistProfile(segment_index=2, values=profiles[2].values[:-1])
        with pytest.raises(ValueError, match="profile 2 has length 50, expected 51"):
            select_snippets(series, params, 2, profiles=profiles)

    def test_wrong_profile_count_rejected(self):
        rng = np.random.default_rng(11)
        series = TimeSeries(random_series(rng, 60))
        params = MPdistParams(snippet_size=10)
        profiles = segment_profiles(series, params)[:-1]
        with pytest.raises(ValueError, match="got 5 profiles for 6 segments"):
            select_snippets(series, params, 2, profiles=profiles)

    def test_profile_out_of_order_rejected(self):
        rng = np.random.default_rng(13)
        series = TimeSeries(random_series(rng, 200))
        params = MPdistParams(snippet_size=20)
        profiles = segment_profiles(series, params)[::-1]
        with pytest.raises(ValueError, match="profile at position 0 is for segment 9"):
            select_snippets(series, params, 2, profiles=profiles)

    def test_profile_beyond_code_range_rejected(self):
        # No MPdist of window size l exceeds 2 * sqrt(l); an entry more
        # than a relative 2**-16 above it is not a profile of this series.
        rng = np.random.default_rng(15)
        series = TimeSeries(random_series(rng, 200))
        params = MPdistParams(snippet_size=20)
        profiles = segment_profiles(series, params)
        row = profiles[3].values
        top = 2 * math.sqrt(params.window_size)
        for scale, accepted in ((1.0, True), (1.00002, False)):
            profiles[3] = MPdistProfile(segment_index=3, values=row * (scale * top / row.max()))
            if accepted:
                select_snippets(series, params, 2, profiles=profiles)
            else:
                with pytest.raises(ValueError, match="profile 3 has an entry"):
                    select_snippets(series, params, 2, profiles=profiles)

    def test_profiles_held_once(self):
        # 500 segments of 3,993 windows: 16 MB of float64 profiles.  With
        # more segments than the profile width (5) they are held as
        # 8-bit codes, an eighth of that, and nothing else of their size.
        rng = np.random.default_rng(12)
        series = TimeSeries(random_series(rng, 4000))
        params = MPdistParams(snippet_size=8)
        profile_bytes = 500 * (4000 - 8 + 1) * 8
        tracemalloc.start()
        try:
            select_snippets(series, params, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * profile_bytes

    def test_neighbors_are_window_starts(self):
        rng = np.random.default_rng(9)
        series = TimeSeries(random_series(rng, 100))
        result = select_snippets(series, MPdistParams(snippet_size=10), 2)
        all_neighbors = np.concatenate([s.neighbors for s in result.snippets])
        assert all_neighbors.size == np.unique(all_neighbors).size
        assert all_neighbors.min() >= 0
        assert all_neighbors.max() <= 100 - 10

    @pytest.mark.parametrize("power", [200, -200])
    def test_power_of_two_scaling_changes_no_bit(self, power):
        # Scaling by 2**power is exact, and the series stays inside the
        # accepted magnitudes, so no variance product over- or underflows.
        rng = np.random.default_rng(4)
        x = np.sin(2 * np.pi * np.arange(400) / 37) + 0.1 * rng.standard_normal(400)
        params = MPdistParams(snippet_size=20)
        base = select_snippets(TimeSeries(x), params, 3)
        scaled = select_snippets(TimeSeries(x * 2.0**power), params, 3)
        assert scaled.to_dict() == base.to_dict()
        assert scaled.curve.tobytes() == base.curve.tobytes()
        for a, b in zip(scaled.profiles, base.profiles):
            assert a.values.tobytes() == b.values.tobytes()


@st.composite
def _selection_case(draw):
    """A series, its MPdist parameters and a snippet count.

    Flavors: plain noise; a noise-free tiled pattern, whose segment
    profiles tie bit for bit; the same pattern perturbed by 1e-12 to
    1e-6, whose profiles share all or most of their 8-bit codes but not
    their bits; values rounded to a coarse grid at a 1e3 offset, so
    windows repeat exactly; noise with constant runs.  The segment count
    falls on either side of the profile width, so ``select_snippets``
    both holds every float64 row and recomputes each row it reads.
    """
    m = draw(st.integers(min_value=4, max_value=40))
    width = MPdistParams(snippet_size=m).profile_width
    if draw(st.booleans()):
        num_segments = draw(st.integers(min_value=2, max_value=width))
    else:
        num_segments = draw(st.integers(min_value=width + 1, max_value=width + 12))
    n = m * num_segments + draw(st.integers(min_value=0, max_value=m - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    flavor = draw(st.sampled_from(["noise", "tiled", "near-tie", "rounded", "flat"]))
    if flavor in ("tiled", "near-tie"):
        period = draw(st.sampled_from([m, max(2, m // 2), 2 * m]))
        values = np.tile(np.round(rng.standard_normal(period) * 8) / 8, n // period + 1)[:n]
        if flavor == "near-tie":
            scale = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
            values = values + scale * rng.standard_normal(n)
    elif flavor == "rounded":
        values = 1e3 + np.round(rng.standard_normal(n) * 2) / 2
    else:
        values = rng.standard_normal(n)
        if flavor == "flat":
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                start = int(rng.integers(0, n - 1))
                values[start : start + int(rng.integers(2, m + 2))] = values[start]
    params = MPdistParams(snippet_size=m, k=draw(st.sampled_from([None, 1, 3])))
    num_snippets = draw(st.integers(min_value=1, max_value=min(8, num_segments)))
    return TimeSeries(values), params, num_snippets


def _assert_same_result(a, b):
    assert a.to_dict() == b.to_dict()
    assert a.curve.tobytes() == b.curve.tobytes()
    assert a.profile_max == b.profile_max
    assert a.unassigned_windows == b.unassigned_windows
    np.testing.assert_array_equal(a.segment_window_counts, b.segment_window_counts)
    for x, y in zip(a.snippets, b.snippets):
        np.testing.assert_array_equal(x.neighbors, y.neighbors)
    for x, y in zip(a.profiles, b.profiles):
        assert x.segment_index == y.segment_index
        assert x.values.tobytes() == y.values.tobytes()


class TestExactSelection:
    @given(_selection_case())
    @settings(max_examples=80, deadline=None)
    def test_matches_stacked_oracle(self, case):
        series, params, num_snippets = case
        profiles = segment_profiles(series, params)
        result = select_snippets(series, params, num_snippets, profiles=profiles)
        matrix = np.vstack([p.values for p in profiles])
        chosen, curve, nearest, counts, largest = stacked_selection(matrix, num_snippets)
        num_windows = matrix.shape[1]

        order = sorted(chosen, key=lambda i: (-counts[i], i))
        assert [s.index for s in result.snippets] == order
        assert [s.frac for s in result.snippets] == [counts[i] / num_windows for i in order]
        for snippet in result.snippets:
            np.testing.assert_array_equal(snippet.neighbors, np.flatnonzero(nearest == snippet.index))
        np.testing.assert_array_equal(result.segment_window_counts, counts)
        np.testing.assert_array_equal(result.curve, curve)
        assert result.profile_max == largest
        assert result.unassigned_windows == num_windows - counts[chosen].sum()

        # Each point's label has the smallest covering sum, up to the
        # rounding of prefix sums against direct ones (see
        # test_matches_covering_sums_oracle).
        labels = label_series(result).labels
        chosen_rows = np.vstack([p.values for p in result.profiles])
        sums = covering_sums(chosen_rows, params.snippet_size)
        bound = 2 * (series.n + params.snippet_size) * np.finfo(np.float64).eps
        bound *= chosen_rows.sum(axis=1).max()
        assert np.all(sums[labels, np.arange(series.n)] <= sums.min(axis=0) + bound)

        # Without profiles= the segments are profiled in one pass and,
        # past the profile width, held as codes and recomputed on demand.
        _assert_same_result(select_snippets(series, params, num_snippets), result)

    def test_near_ties_recompute_and_match(self, monkeypatch):
        # A tiled pattern perturbed by 1e-12: every segment's profile has
        # nearly the same area, so the codes cannot tell them apart and
        # each round must recompute many candidates exactly.
        rng = np.random.default_rng(14)
        pattern = np.round(rng.standard_normal(16) * 8) / 8
        series = TimeSeries(np.tile(pattern, 40) + 1e-12 * rng.standard_normal(640))
        params = MPdistParams(snippet_size=16)
        profiles = segment_profiles(series, params)
        calls = _count_profiles(monkeypatch)
        result = select_snippets(series, params, 3)
        assert len(calls) > len(profiles) + 2
        _assert_same_result(result, select_snippets(series, params, 3, profiles=profiles))
        chosen, *_ = stacked_selection(np.vstack([p.values for p in profiles]), 3)
        assert sorted(s.index for s in result.snippets) == sorted(chosen)

    def test_round_one_ties_cost_one_profile(self, monkeypatch):
        # A noise-free tiled series: the 50 segments' round-1 areas take
        # only 2 distinct values.  The scan stops at the second segment,
        # whose (bound, index) passes the first's (area, index), so round
        # 1 profiles one segment beyond the pass; a stop rule on the bound
        # alone would measure every tied segment, 99 calls in all.  One
        # thread profiles in batches over one range, two over two ranges;
        # the count is the same.
        t = np.arange(8)
        series = _tiled(np.sin(2 * np.pi * t / 8) + t / 8, 50)
        params = MPdistParams(snippet_size=8)
        calls = _count_profiles(monkeypatch)
        for workers in (1, 2):
            calls.clear()
            result = select_snippets(series, params, 1, workers=workers)
            assert len(calls) == 51
            assert [s.index for s in result.snippets] == [0]

    def test_bounded_rounds_recompute_few(self, monkeypatch):
        # The bench's recipe at n = 4,000: period-8 sine and sawtooth
        # regimes alternating every 256 points, noise 0.05, offset 1e3.
        # The pass profiles the 500 segments; every round profiles again
        # the segments it scans before a bound passes the best area, one
        # in round 1.  That made 9 to 23 more calls over these seeds;
        # codes on a linear 8-bit scale (step 2 * sqrt(l) / 255) make 133
        # to 231.
        params = MPdistParams(snippet_size=8)
        calls = _count_profiles(monkeypatch)
        for seed in range(4):
            values, _ = sine_sawtooth_series(n=4000, period=8, block_len=256, seed=seed)
            counts = []
            for workers in (1, 2):
                calls.clear()
                select_snippets(TimeSeries(values), params, 4, workers=workers)
                counts.append(len(calls))
            assert 500 < counts[0] == counts[1] <= 500 + 40

    def test_many_rounds_profile_calls_bounded(self, monkeypatch):
        # The discover-m8 bench input (seed 11) at K = 20: the pass
        # profiles the 2,500 segments and late rounds recompute many
        # more, 5,829 calls in all (2,511 at K = 2).  A call count is the
        # same on any machine, so this gates the work of late rounds, with
        # the pass over one range of segments (one thread) and two (two).
        values, _ = sine_sawtooth_series(n=20000, period=8, block_len=1024, seed=11)
        calls = _count_profiles(monkeypatch)
        counts = []
        for workers in (1, 2):
            calls.clear()
            select_snippets(TimeSeries(values), MPdistParams(snippet_size=8), 20, workers=workers)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 5829

    @pytest.mark.parametrize("num_snippets", [2, 3])
    def test_rows_within_profile_width_profiled_once(self, monkeypatch, num_snippets):
        # 8 segments, no more than the profile width: the pass keeps every
        # float64 row, so no round profiles one again, and with profiles=
        # given no segment is profiled at all.  One to three threads take
        # a range of them each, at k > 2 (m = 40) with a profiler each,
        # at k <= 2 (m = 16, width 9) in batches.
        rng = np.random.default_rng(15)
        calls = _count_profiles(monkeypatch)
        for m, workers in [(40, 1), (40, 2), (16, 1), (16, 2), (16, 3)]:
            series = TimeSeries(random_series(rng, 8 * m + 5))
            params = MPdistParams(snippet_size=m)
            assert 8 <= params.profile_width
            profiles = segment_profiles(series, params)
            calls.clear()
            result = select_snippets(series, params, num_snippets, workers=workers)
            assert sorted(calls) == list(range(8)), (m, workers)
            calls.clear()
            reference = select_snippets(series, params, num_snippets, profiles=profiles)
            assert calls == []
            _assert_same_result(result, reference)

    def test_bound_margin_keeps_float64_ties(self):
        # Entry codes[s][j] * step moved by ulps[s][j] ulps, on a grid of
        # step 2 / 65535.  Segment 2 wins round 1.  In round 2 segment 1
        # lies 3 ulps below the curve at entry 2 and segment 0 nowhere,
        # but their float64 areas round to the same sum, so the tie goes
        # to segment 0.  The entries sit within ulps of each other, so
        # the round's lower bounds must keep both segments, and the pick
        # must take the lower index among equal float64 areas.
        codes = [[9, 25, 34, 50, 9], [14, 40, 8, 35, 2], [3, 23, 8, 23, 2]]
        ulps = [[0, -3, -3, 0, -2], [-1, 3, -2, -2, 2], [-2, 1, 1, 2, -3]]
        step = 2.0 / 65535
        matrix = np.empty((3, 5))
        for (s, j), code in np.ndenumerate(codes):
            value = code * step
            for _ in range(abs(ulps[s][j])):
                value = np.nextafter(value, math.copysign(np.inf, ulps[s][j]))
            matrix[s, j] = value
        curve = matrix[2]
        assert np.minimum(matrix[0], curve).sum() == np.minimum(matrix[1], curve).sum()

        series = TimeSeries(np.arange(6.0))
        params = MPdistParams(snippet_size=2, window_size=1)
        profiles = [MPdistProfile(segment_index=i, values=row) for i, row in enumerate(matrix)]
        result = select_snippets(series, params, 2, profiles=profiles)
        chosen, *_ = stacked_selection(matrix, 2)
        assert chosen == [2, 0]
        assert sorted(s.index for s in result.snippets) == [0, 2]


class TestProfileCodes:
    @given(
        st.integers(min_value=1, max_value=1 << 20),
        st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_code_edges_bracket_entries(self, window_size, drawn):
        # Every code edge and one ulp either side of it, 0, subnormals,
        # the smallest normal, 2 * sqrt(l) and values up to 1e300.
        top = 2.0 * math.sqrt(window_size)
        specials = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, top, 1e300, *drawn]
        store = snippets._ProfileStore(1, 3 * (256 + len(specials)), top)
        lo = store.lo
        assert lo[0] == 0.0 and np.all(np.diff(lo) > 0)
        assert lo[254] <= top < lo[255]
        points = np.concatenate([lo, specials])
        values = np.concatenate(
            [points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)]
        )
        store.keep(0, values)
        codes = store.codes[0].astype(np.intp)
        np.testing.assert_array_equal(codes[:256], np.arange(256))
        assert codes[256 + specials.index(top)] == 254
        assert np.all(lo[codes] <= values)
        below = codes < 255
        assert np.all(values[below] < lo[codes[below] + 1])

    def test_lower_bounds_cover_any_summation_order(self):
        # Every entry sits on a code edge, so each bound term equals the
        # exact term min(v, curve) and only the order of summing differs.
        # The (N + 8) * eps shrink must leave every bound at or below the
        # same terms summed in any order; unshrunk, the blocked sums pass
        # one of these sequential sums on most rows.
        rng = np.random.default_rng(35)
        num_segments, num_windows, top = 64, 20_000, 2.0 * math.sqrt(4)
        store = snippets._ProfileStore(num_segments, num_windows, top)
        rows = store.lo[rng.integers(0, 255, size=(num_segments, num_windows))]
        for segment, row in enumerate(rows):
            store.keep(segment, row)
        curve = rng.uniform(0.0, top, num_windows)
        for bound, row in zip(store.lower_bounds(curve), rows):
            terms = np.minimum(row, curve)
            ascending = np.sort(terms)
            for order in (terms, terms[::-1], ascending, ascending[::-1]):
                assert bound <= np.cumsum(order)[-1]


class TestWorkers:
    @given(_selection_case())
    @settings(max_examples=40, deadline=None)
    def test_worker_count_changes_no_bit(self, case):
        # At a one-byte part size every k > 2 segment streams through
        # parts of the profile width; with the float64 rows held and with
        # them recomputed, the result must be the same at any worker count.
        series, params, num_snippets = case
        with mock.patch.object(mpdist, "PART_BYTES", 1):
            solo = select_snippets(series, params, num_snippets, workers=1)
            for workers in (2, 3):
                _assert_same_result(
                    select_snippets(series, params, num_snippets, workers=workers), solo
                )

    @given(_selection_case(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_batched_pass_worker_count_changes_no_bit(self, case, batch):
        # At the default part size no segment here splits, so at
        # k <= 2 one, two or three threads profile contiguous ranges, one
        # per thread, in the default batches and in batches of 1 to 3
        # segments.  Ranges and batches need not
        # divide the segment count, and the tiled flavors tie nearest
        # segments across range boundaries; the result must be the same
        # at any worker count, and the same as from the profiles.
        series, params, num_snippets = case
        solo = select_snippets(series, params, num_snippets, workers=1)
        for workers in (2, 3):
            _assert_same_result(select_snippets(series, params, num_snippets, workers=workers), solo)
        with mock.patch.object(mpdist, "_batch_size", lambda *_: batch):
            for workers in (1, 2, 3):
                _assert_same_result(
                    select_snippets(series, params, num_snippets, workers=workers), solo
                )
        profiles = segment_profiles(series, params)
        _assert_same_result(select_snippets(series, params, num_snippets, profiles=profiles), solo)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_batched_ranges_tie_to_lower_segment(self, monkeypatch, workers):
        # 710 noise-free periods of 8 samples: many segments' profiles
        # are the same bits, so many windows find their smallest entry
        # both in the first range and in a later one, and must take the
        # lower segment, as the stacked argmin does.  At k <= 2 the
        # ranges (355 or 236/237/237 segments) take unpatched batches of
        # 11 segments, which divide none of them.  At k = 3 each range's
        # profiler streams its segments, more than the width of 5; the
        # periods are small integers there, since the kernel's round-off
        # along its diagonals tells the sine's segments apart at k > 2,
        # and with exact arithmetic every profile is the same bits.
        t = np.arange(8)
        assert mpdist._batch_size(5677, 710) == 11
        cases = [
            (_tiled(np.sin(2 * np.pi * t / 8) + t / 8, 710), MPdistParams(snippet_size=8)),
            (_tiled([0, 2, 1, 3, 2, 0, 1, 2], 710), MPdistParams(snippet_size=8, k=3)),
        ]
        for series, params in cases:
            profiles = segment_profiles(series, params)
            matrix = np.vstack([p.values for p in profiles])
            lowest = matrix.min(axis=0)
            first_range = 710 // workers
            tied = (matrix[:first_range] == lowest).any(axis=0) & (
                matrix[first_range:] == lowest
            ).any(axis=0)
            assert tied.sum() > 1000, f"k = {params.k}"
            _, _, _, counts, _ = stacked_selection(matrix, 2)
            with monkeypatch.context() as patched:
                calls = _count_profiles(patched)
                result = select_snippets(series, params, 2, workers=workers)
            assert sorted(calls[:710]) == list(range(710))
            np.testing.assert_array_equal(result.segment_window_counts, counts)
            _assert_same_result(result, select_snippets(series, params, 2, profiles=profiles))

    def test_batched_pass_working_memory_bounded(self):
        # n = 8,000, m = 8 at two workers: 1,000 segments of 7,993 codes,
        # in two ranges profiled 8 segments a call.  Each thread holds its
        # batch's diagonals, scratch and column minima (24 float64 rows
        # of the 7,997 windows) and its nearest-segment partials (2 more);
        # with the statistics and the rounds' rows, the peak was 59.8
        # such rows beyond the codes when this bound was set.  Holding
        # each segment's 5 kernel rows would add 80 rows, and keeping each
        # thread's profiles 1,000.
        rng = np.random.default_rng(16)
        series = TimeSeries(random_series(rng, 8000))
        params = MPdistParams(snippet_size=8)
        codes = 1000 * (8000 - 8 + 1)
        row_bytes = 8 * (8000 - 4 + 1)
        tracemalloc.start()
        try:
            select_snippets(series, params, 2, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - codes <= 64 * row_bytes, f"{(peak - codes) / row_bytes:.1f} rows"

    @pytest.mark.parametrize("workers", [0, -5])
    def test_bad_count_rejected_before_any_work(self, monkeypatch, workers):
        # With profiles= no segment is profiled and the count is never
        # used, yet it is still an error, raised before any profiling.
        series = TimeSeries(random_series(np.random.default_rng(3), 200))
        params = MPdistParams(snippet_size=10)
        profiles = segment_profiles(series, params)
        calls = _count_profiles(monkeypatch)
        for given in (None, profiles):
            with pytest.raises(ValueError, match=f"need at least one worker, got {workers}"):
                select_snippets(series, params, 2, profiles=given, workers=workers)
        assert calls == []

    @pytest.mark.parametrize("workers", [2.5, 1.5, 2.0, "2", True])
    def test_non_integer_count_rejected(self, workers):
        # A count that is not an integer is an error, however close to
        # one, for a search and for a sweep alike.
        series = TimeSeries(random_series(np.random.default_rng(3), 200))
        params = MPdistParams(snippet_size=10)
        with pytest.raises(ValueError, match="worker count must be an integer"):
            select_snippets(series, params, 2, workers=workers)
        with pytest.raises(ValueError, match="worker count must be an integer"):
            run_schedule(series, [params], 2, workers=workers, training_log=False)

    def test_default_reads_env(self, monkeypatch):
        series = TimeSeries(random_series(np.random.default_rng(3), 200))
        monkeypatch.setenv("SNIPLAB_WORKERS", "two")
        with pytest.raises(ValueError, match="SNIPLAB_WORKERS"):
            select_snippets(series, MPdistParams(snippet_size=10), 2)


class TestSerialization:
    def _result(self):
        rng = np.random.default_rng(10)
        series = TimeSeries(random_series(rng, 120))
        return select_snippets(series, MPdistParams(snippet_size=12), 2), series

    def test_json_document(self):
        result, _ = self._result()
        doc = result.to_dict()
        assert doc["schema"] == 1
        assert doc["m"] == 12
        assert doc["l"] == 6
        assert doc["k"] == 2
        assert len(doc["snippets"]) == 2
        for entry in doc["snippets"]:
            assert set(entry) == {"index", "start", "frac", "neighbor_count"}
        json.dumps(doc)  # must be serializable as-is

    def test_curve_export_row_count(self, tmp_path):
        result, series = self._result()
        path = tmp_path / "curve.csv"
        export_curve_csv(result, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == series.n - 12 + 1

    def test_profiles_export(self, tmp_path):
        result, series = self._result()
        path = tmp_path / "profiles.csv"
        export_profiles_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("segment_")
        assert len(lines) == 1 + series.n - 12 + 1
