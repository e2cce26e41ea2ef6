import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sniplab
from sniplab import (
    MPdistParams,
    TimeSeries,
    default_cost,
    kk_partition,
    load_training_samples,
    lpt_partition,
    run_schedule,
)
from sniplab import scheduler
from seriesgen import two_regime_series


class TestCostModel:
    def test_default_cost_formula(self):
        # 1000-point series, m=100, l=50: 51 rows by 951 cols, 10 segments
        assert default_cost(1000, 100, 50) == 51.0 * 951.0 * 10.0

    def test_default_cost_default_window(self):
        assert default_cost(1000, 100) == default_cost(1000, 100, 50)


class TestKKPartition:
    def test_classic_example(self):
        schedule = kk_partition([8, 7, 6, 5, 4], 2)
        parts = {frozenset(p) for p in schedule.assignments}
        assert parts == {frozenset({1, 3, 4}), frozenset({0, 2})}
        assert schedule.difference == 2
        assert sorted(schedule.predicted_loads) == [14.0, 16.0]

    def test_single_worker(self):
        schedule = kk_partition([3, 1, 2], 1)
        assert schedule.assignments == ((0, 1, 2),)
        assert schedule.difference == 0

    def test_three_workers(self):
        weights = [9, 8, 7, 6, 5, 4, 3]
        schedule = kk_partition(weights, 3)
        assert len(schedule.assignments) == 3
        assigned = sorted(i for part in schedule.assignments for i in part)
        assert assigned == list(range(len(weights)))
        loads = [sum(Fraction(weights[i]) for i in part) for part in schedule.assignments]
        assert max(loads) - min(loads) == schedule.difference

    def test_more_workers_than_jobs(self):
        schedule = kk_partition([5, 3], 4)
        assigned = sorted(i for part in schedule.assignments for i in part)
        assert assigned == [0, 1]
        assert schedule.makespan == 5.0

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            kk_partition([1.0, -0.5], 2)

    def test_no_weights(self):
        with pytest.raises(ValueError, match="no weights"):
            kk_partition([], 2)

    def test_inconsistent_difference_raises_under_optimize(self):
        # The invariant check must survive `python -O`, which strips asserts.
        child = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from sniplab import scheduler\n"
            "assert sys.flags.optimize\n"
            "scheduler._multiway_kk = lambda vals, parts: ([(0,), (1,)], Fraction(99))\n"
            "try:\n"
            "    scheduler.kk_partition([3, 1], 2)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        src = str(Path(sniplab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", child],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "differencing value 99" in proc.stdout

    def test_fractional_weights_stay_exact(self):
        weights = [0.1, 0.2, 0.3, 0.4]
        schedule = kk_partition(weights, 2)
        loads = [sum(Fraction(weights[i]) for i in part) for part in schedule.assignments]
        assert max(loads) - min(loads) == schedule.difference

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_matches_difference(self, weights, num_parts):
        schedule = kk_partition(weights, num_parts)
        assigned = sorted(i for part in schedule.assignments for i in part)
        assert assigned == list(range(len(weights)))
        loads = [sum(Fraction(weights[i]) for i in part) for part in schedule.assignments]
        assert max(loads) - min(loads) == schedule.difference
        assert schedule.makespan <= sum(weights)


class TestLPTBaseline:
    def test_classic_example_is_coarser(self):
        lpt = lpt_partition([8, 7, 6, 5, 4], 2)
        assert sorted(lpt.predicted_loads) == [13.0, 17.0]
        assert lpt.difference == 4
        assert kk_partition([8, 7, 6, 5, 4], 2).difference == 2

    def test_every_job_assigned(self):
        schedule = lpt_partition([5, 1, 1, 1, 1, 1], 3)
        assigned = sorted(i for part in schedule.assignments for i in part)
        assert assigned == list(range(6))


class TestRunSchedule:
    def _series(self):
        values, _ = two_regime_series(n=512, period=16, block_len=64, noise=0.05, seed=1)
        return TimeSeries(values)

    def test_results_keyed_by_length(self):
        series = self._series()
        jobs = [MPdistParams(snippet_size=m) for m in (16, 32)]
        results = run_schedule(series, jobs, 2, workers=1, training_log=False)
        assert list(results) == [16, 32]
        assert all(len(r.snippets) == 2 for r in results.values())

    def test_worker_count_does_not_change_results(self):
        series = self._series()
        jobs = [MPdistParams(snippet_size=m) for m in (8, 16, 32)]
        solo = run_schedule(series, jobs, 2, workers=1, training_log=False)
        duo = run_schedule(series, jobs, 2, workers=2, training_log=False)
        assert list(solo) == list(duo)
        for m in solo:
            assert solo[m].to_dict() == duo[m].to_dict()
            np.testing.assert_array_equal(solo[m].curve, duo[m].curve)

    def test_duplicate_lengths_rejected(self):
        series = self._series()
        jobs = [MPdistParams(snippet_size=16), MPdistParams(snippet_size=16)]
        with pytest.raises(ValueError, match="duplicate"):
            run_schedule(series, jobs, 2, workers=1, training_log=False)

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError, match="no jobs"):
            run_schedule(self._series(), [], 2, workers=1, training_log=False)

    def test_training_log_entries(self, tmp_path):
        series = self._series()
        log = tmp_path / "timings.jsonl"
        jobs = [MPdistParams(snippet_size=m) for m in (16, 32)]
        run_schedule(series, jobs, 2, workers=1, training_log=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted(entry["m"] for entry in lines) == [16, 32]
        for entry in lines:
            assert set(entry) == {"m", "n", "l", "seconds", "timestamp"}
            assert entry["n"] == series.n
            assert entry["seconds"] >= 0.0

    def test_training_log_env_and_disable(self, tmp_path, monkeypatch):
        from sniplab.scheduler import TRAINING_LOG_ENV

        series = self._series()
        log = tmp_path / "env.jsonl"
        monkeypatch.setenv(TRAINING_LOG_ENV, str(log))
        jobs = [MPdistParams(snippet_size=16)]
        run_schedule(series, jobs, 2, workers=1)
        assert log.exists()
        size_before = log.stat().st_size
        run_schedule(series, jobs, 2, workers=1, training_log=False)
        assert log.stat().st_size == size_before

    def test_load_training_samples_filters_length(self, tmp_path):
        log = tmp_path / "mixed.jsonl"
        rows = [
            {"m": 16, "n": 512, "l": 8, "seconds": 0.5, "timestamp": "t"},
            {"m": 32, "n": 1024, "l": 16, "seconds": 2.0, "timestamp": "t"},
            {"m": 64, "n": 512, "l": 32, "seconds": 1.5, "timestamp": "t"},
        ]
        log.write_text("".join(json.dumps(r) + "\n" for r in rows))
        sizes, seconds = load_training_samples(log, series_length=512)
        np.testing.assert_array_equal(sizes, [16.0, 64.0])
        np.testing.assert_array_equal(seconds, [0.5, 1.5])
        sizes_all, _ = load_training_samples(log)
        assert sizes_all.size == 3

    def test_worker_failure_names_length(self):
        # m=400 on n=512 leaves one segment, too few for two snippets.
        jobs = [MPdistParams(snippet_size=m) for m in (16, 400)]
        with pytest.raises(RuntimeError, match="m=400"):
            run_schedule(self._series(), jobs, 2, workers=2, training_log=False)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched search reaches the workers only through fork",
    )
    def test_failure_starts_no_further_jobs(self, tmp_path, monkeypatch):
        # Each started job leaves a file behind; the valid ones are slow.
        search = scheduler.select_snippets

        def recorded(series, params, num_snippets):
            (tmp_path / str(params.snippet_size)).touch()
            if params.snippet_size <= 256:
                time.sleep(0.3)
            return search(series, params, num_snippets)

        monkeypatch.setattr(scheduler, "select_snippets", recorded)
        sizes = [400] + list(range(8, 18))
        jobs = [MPdistParams(snippet_size=m) for m in sizes]
        with pytest.raises(RuntimeError, match="m=400"):
            run_schedule(self._series(), jobs, 2, workers=2, training_log=False)
        # Two workers start m=400 and m=8; one more may start if m=8
        # happened to finish first.  Nothing starts after the failure.
        started = {int(p.name) for p in tmp_path.iterdir()}
        assert 400 in started
        assert len(started) <= 3 < len(jobs)

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_workers_env_names_variable(self, monkeypatch, value):
        from sniplab.scheduler import WORKERS_ENV

        monkeypatch.setenv(WORKERS_ENV, value)
        jobs = [MPdistParams(snippet_size=16)]
        with pytest.raises(ValueError, match=WORKERS_ENV):
            run_schedule(self._series(), jobs, 2, training_log=False)

    @pytest.mark.parametrize(
        "bad_line", ['{"m": 8}', "[1, 2]", '{"m": 16, "n": 512, "seconds": NaN}']
    )
    def test_malformed_log_line(self, tmp_path, bad_line):
        log = tmp_path / "timings.jsonl"
        log.write_text('{"m": 8, "n": 512, "seconds": 0.1}\n' + bad_line + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_training_samples(log)
