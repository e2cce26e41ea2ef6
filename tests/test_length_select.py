import math

import numpy as np
import pytest

from sniplab import (
    MPdistProfile,
    Snippet,
    SnippetResult,
    TimeSeries,
    criterion_score,
    default_window_size,
    make_grid,
    select_length,
)
from sniplab import length_select, scheduler
from seriesgen import two_regime_series


def _result_from_profiles(rows, profile_max):
    """A minimal SnippetResult carrying hand-picked snippet profiles."""
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    width = rows[0].size
    profiles = tuple(MPdistProfile(segment_index=i, values=r) for i, r in enumerate(rows))
    snippets = tuple(
        Snippet(index=i, start=0, length=4, frac=0.0, neighbors=np.array([], dtype=np.int64))
        for i in range(len(rows))
    )
    curve = np.min(np.vstack(rows), axis=0)
    return SnippetResult(
        snippet_size=4,
        window_size=2,
        k=1,
        series_length=width + 3,
        snippets=snippets,
        curve=curve,
        profile_area=float(curve.sum()),
        profiles=profiles,
        profile_max=profile_max,
        segment_window_counts=np.zeros(len(rows), dtype=np.int64),
        unassigned_windows=0,
    )


class TestCriterionScore:
    def test_two_profile_example(self):
        result = _result_from_profiles([[0.0, 2.0], [2.0, 0.0]], profile_max=2.0)
        assert criterion_score(result) == pytest.approx(2.0)

    def test_identical_profiles_score_zero(self):
        result = _result_from_profiles([[1.0, 3.0], [1.0, 3.0]], profile_max=3.0)
        assert criterion_score(result) == 0.0

    def test_three_profiles_sum_over_pairs(self):
        rows = [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]
        # pairs: |0-1|*2 + |0-3|*2 + |1-3|*2 = 2 + 6 + 4 = 12
        result = _result_from_profiles(rows, profile_max=4.0)
        assert criterion_score(result) == pytest.approx(3.0)

    def test_flat_series_scores_zero(self):
        result = _result_from_profiles([[0.0, 0.0], [0.0, 0.0]], profile_max=0.0)
        assert criterion_score(result) == 0.0

    def test_single_snippet_rejected(self):
        result = _result_from_profiles([[0.0, 2.0]], profile_max=2.0)
        with pytest.raises(ValueError, match="at least 2"):
            criterion_score(result)


class TestMakeGrid:
    def test_pow2(self):
        assert make_grid(8, 64) == [8, 16, 32, 64]

    def test_pow2_stops_inside_bound(self):
        assert make_grid(8, 63) == [8, 16, 32]

    def test_arith_default_step(self):
        assert make_grid(4, 7, rule="arith") == [4, 5, 6, 7]

    def test_arith_with_step(self):
        assert make_grid(10, 30, rule="arith", step=10) == [10, 20, 30]

    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="smaller than m_min"):
            make_grid(16, 8)
        with pytest.raises(ValueError, match="at least 2"):
            make_grid(1, 8)

    def test_bad_rule(self):
        with pytest.raises(ValueError, match="grid rule"):
            make_grid(4, 8, rule="geom")

    def test_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            make_grid(4, 8, rule="arith", step=0)

    @pytest.mark.parametrize(
        "args, kwargs, name",
        [
            ((2, 8, "arith"), {"step": True}, "step"),
            ((2, 8, "arith"), {"step": 1.5}, "step"),
            ((2.5, 10), {}, "m_min"),
            ((2, 10.0), {}, "m_max"),
        ],
        ids=["step-True", "step-1.5", "m_min-2.5", "m_max-10.0"],
    )
    def test_non_integer_argument_rejected(self, args, kwargs, name):
        # A bool step gave a step-1 grid, a float step raised TypeError
        # from range, and a float m_min gave [2.5, 5.0, 10.0].
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_grid(*args, **kwargs)

    def test_numpy_integer_arguments(self):
        assert make_grid(np.int64(4), np.int32(8), "arith", step=np.int64(2)) == [4, 6, 8]


class TestSelectLength:
    def test_two_regime_prefers_period(self):
        values, _ = two_regime_series(n=2048, period=32, block_len=32, noise=0.05, seed=3)
        report, results = select_length(TimeSeries(values), [16, 32, 64], 2)
        assert report.m_best == 32
        assert set(results) == {16, 32, 64}
        by_size = {c.snippet_size: c for c in report.candidates}
        assert by_size[32].score > by_size[64].score

    def test_report_follows_grid_order(self):
        values, _ = two_regime_series(n=512, period=16, block_len=64, noise=0.05, seed=4)
        report, _ = select_length(TimeSeries(values), [32, 8, 16], 2)
        assert [c.snippet_size for c in report.candidates] == [32, 8, 16]

    def test_singleton_grid(self):
        values, _ = two_regime_series(n=512, period=16, block_len=64, noise=0.05, seed=5)
        report, results = select_length(TimeSeries(values), [16], 2)
        assert report.m_best == 16
        assert list(results) == [16]

    def test_constant_series_ties_to_smallest(self):
        series = TimeSeries(np.full(256, 3.5))
        report, _ = select_length(series, [8, 16, 32], 2)
        assert all(c.score == 0.0 for c in report.candidates)
        assert report.m_best == 8

    def test_scale_invariance(self):
        values, _ = two_regime_series(n=512, period=16, block_len=64, noise=0.05, seed=6)
        base, _ = select_length(TimeSeries(values), [8, 16, 32], 2)
        scaled, _ = select_length(TimeSeries(values * 3.7), [8, 16, 32], 2)
        assert scaled.m_best == base.m_best
        for a, b in zip(base.candidates, scaled.candidates):
            assert b.score == pytest.approx(a.score, rel=1e-6)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="no jobs"):
            select_length(TimeSeries(np.arange(64.0)), [], 2)

    def test_duplicate_grid(self):
        with pytest.raises(ValueError, match="duplicate"):
            select_length(TimeSeries(np.arange(64.0)), [8, 8], 2)

    @pytest.mark.parametrize("grid", [[8.7, 16], [8, np.float64(16.0)]])
    def test_non_integer_length_rejected(self, monkeypatch, grid):
        calls = []
        monkeypatch.setattr(length_select, "run_schedule", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match="snippet_size must be an integer"):
            select_length(TimeSeries(np.arange(64.0)), grid, 2)
        assert calls == []

    def test_numpy_integer_grid_reports_int(self):
        values, _ = two_regime_series(n=512, period=16, block_len=64, noise=0.05, seed=7)
        report, results = select_length(TimeSeries(values), np.array([8, 16]), 2)
        doc = report.to_dict()
        assert [type(c["m"]) for c in doc["candidates"]] == [int, int]
        assert type(doc["m_best"]) is int and list(results) == [8, 16]

    def test_single_snippet_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            select_length(TimeSeries(np.arange(64.0)), [8], 1)

    @pytest.mark.parametrize("num_snippets", ["2", 2.5, True])
    def test_non_integer_snippet_count_rejected(self, num_snippets):
        with pytest.raises(ValueError, match="snippet count must be an integer"):
            select_length(TimeSeries(np.arange(64.0)), [8], num_snippets, training_log=False)

    def test_too_long_length_rejected_before_any_search(self, monkeypatch):
        calls = []
        search = scheduler.select_snippets

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(scheduler, "select_snippets", counted)
        values, _ = two_regime_series(n=300, period=16, block_len=60, noise=0.05, seed=8)
        # Too long for two segments, and too long for the snippet count.
        for grid, num_snippets, named in (([8, 16, 400], 2, "snippet size 400"),
                                          ([8, 16, 128], 3, "snippet size 128")):
            with pytest.raises(ValueError, match=named):
                select_length(
                    TimeSeries(values), grid, num_snippets, workers=1, training_log=False
                )
        assert calls == []

    @staticmethod
    def _windows(monkeypatch, **kwargs):
        # Capture the jobs select_length hands the scheduler; run none.
        jobs = []

        def captured(series, batch, num_snippets, **_):
            jobs.extend(batch)
            raise LookupError("captured")

        monkeypatch.setattr(length_select, "run_schedule", captured)
        grid = range(2, 4097)
        with pytest.raises(LookupError, match="captured"):
            select_length(TimeSeries(np.arange(8192.0)), grid, 2, **kwargs)
        assert [job.snippet_size for job in jobs] == list(grid)
        return {job.snippet_size: job.window_size for job in jobs}

    def test_default_window_rule(self, monkeypatch):
        windows = self._windows(monkeypatch)
        assert windows == {m: default_window_size(m) for m in windows}

    @pytest.mark.parametrize("l_frac", [0.25, 1 / 3, 0.75, 1.0])
    def test_window_fraction(self, monkeypatch, l_frac):
        windows = self._windows(monkeypatch, l_frac=l_frac)
        assert windows == {m: max(1, min(m, math.ceil(m * l_frac))) for m in windows}

    @pytest.mark.parametrize("l_frac", [0.0, float("nan"), 1.5])
    def test_bad_window_fraction_rejected_before_any_search(self, monkeypatch, l_frac):
        calls = []
        monkeypatch.setattr(length_select, "run_schedule", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match=r"l_frac must be in \(0, 1\]"):
            select_length(TimeSeries(np.arange(64.0)), [8, 16], 2, l_frac=l_frac)
        assert calls == []

    def test_json_document(self):
        values, _ = two_regime_series(n=512, period=16, block_len=64, noise=0.05, seed=7)
        report, _ = select_length(TimeSeries(values), [8, 16], 2)
        doc = report.to_dict()
        assert doc["schema"] == 1
        assert doc["m_best"] == report.m_best
        assert [c["m"] for c in doc["candidates"]] == [8, 16]
        assert all(set(c) == {"m", "score", "profile_area"} for c in doc["candidates"])
