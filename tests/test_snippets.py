import json
import tracemalloc

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
    segment_count,
    segment_profiles,
    select_snippets,
)
from oracles import exhaustive_min_area, stacked_selection
from seriesgen import random_series, two_regime_series


def _tiled(pattern, reps):
    return TimeSeries(np.tile(np.asarray(pattern, dtype=np.float64), reps))


class TestSegment:
    def test_even_split(self):
        assert segment_count(TimeSeries(np.arange(8.0)), 2) == 4

    def test_remainder_excluded(self):
        assert segment_count(TimeSeries(np.arange(9.0)), 2) == 4

    def test_too_few_segments(self):
        with pytest.raises(ValueError, match="at least 2"):
            segment_count(TimeSeries(np.arange(9.0)), 5)

    def test_tiny_snippet_rejected(self):
        with pytest.raises(ValueError):
            segment_count(TimeSeries(np.arange(8.0)), 1)


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

    def test_profile_of_wrong_length_rejected(self):
        rng = np.random.default_rng(11)
        series = TimeSeries(random_series(rng, 60))
        params = MPdistParams(snippet_size=10)
        profiles = segment_profiles(series, params)
        profiles[2] = MPdistProfile(segment_index=2, values=profiles[2].values[:-1])
        with pytest.raises(ValueError, match="profile 2 has length 50, expected 51"):
            select_snippets(series, params, 2, profiles=profiles)

    def test_profiles_held_once(self):
        # 500 segments of 3,993 windows: 16 MB of profiles.  The greedy
        # step and the attribution must not stack a second copy.
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
        assert peak <= 1.25 * profile_bytes

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
    profiles tie bit for bit; values rounded to a coarse grid at a 1e3
    offset, so windows repeat exactly; noise with constant runs.
    """
    m = draw(st.integers(min_value=4, max_value=40))
    num_segments = draw(st.integers(min_value=2, max_value=12))
    n = m * num_segments + draw(st.integers(min_value=0, max_value=m - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    flavor = draw(st.sampled_from(["noise", "tiled", "rounded", "flat"]))
    if flavor == "tiled":
        period = draw(st.sampled_from([m, max(2, m // 2), 2 * m]))
        values = np.tile(np.round(rng.standard_normal(period) * 8) / 8, n // period + 1)[:n]
    elif flavor == "rounded":
        values = 1e3 + np.round(rng.standard_normal(n) * 2) / 2
    else:
        values = rng.standard_normal(n)
        if flavor == "flat":
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                start = int(rng.integers(0, n - 1))
                values[start : start + int(rng.integers(2, m + 2))] = values[start]
    params = MPdistParams(snippet_size=m, k=draw(st.sampled_from([None, 1, 3])))
    num_snippets = draw(st.integers(min_value=1, max_value=min(5, num_segments)))
    return TimeSeries(values), params, num_snippets


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

        labels = label_series(result).labels
        expected = np.argmin(np.vstack([p.values for p in result.profiles]), axis=0)
        np.testing.assert_array_equal(labels[:num_windows], expected)
        assert np.all(labels[num_windows:] == expected[-1])


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
