import json
import multiprocessing
import os
import subprocess
import sys
import threading
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

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched search reaches the workers only through fork",
)


class TestCostModel:
    def test_default_cost_formula(self):
        # 1000-point series, m=100, l=50: 51 rows by 951 cols, 10 segments
        assert default_cost(1000, 100, 50) == 51.0 * 951.0 * 10.0


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

    @pytest.mark.parametrize("partition", [kk_partition, lpt_partition])
    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_negative_weight(self, partition, bad):
        with pytest.raises(ValueError, match="weight 1 is negative or not finite"):
            partition([1.0, bad], 2)

    @pytest.mark.parametrize("partition", [kk_partition, lpt_partition])
    @pytest.mark.parametrize("num_parts", [0, -1])
    def test_no_parts(self, partition, num_parts):
        with pytest.raises(ValueError, match=f"need at least one part, got {num_parts}"):
            partition([1.0, 2.0], num_parts)

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

    def test_job_profiles_segments_whole(self, monkeypatch):
        # A sweep spends its workers on lengths: with SNIPLAB_WORKERS=3
        # and every k > 2 segment (m = 32 has k = 4) streamed through
        # many parts, each job still profiles on one profiler, on the
        # thread that runs the job.
        from sniplab import mpdist, snippets
        from sniplab.snippets import WORKERS_ENV

        monkeypatch.setenv(WORKERS_ENV, "3")
        monkeypatch.setattr(mpdist, "PART_BYTES", 1)
        profilers, threads = [], set()

        class Recording(mpdist._KthProfiler):
            def __init__(self, *args):
                super().__init__(*args)
                profilers.append(self)

            def profiles(self, segments):
                threads.add(threading.get_ident())
                return super().profiles(segments)

        monkeypatch.setattr(snippets, "_KthProfiler", Recording)
        run_schedule(self._series(), [MPdistParams(snippet_size=32)], 2, training_log=False)
        assert len(profilers) == 1 and len(profilers[0].splits) > 1
        assert threads == {threading.get_ident()}

    def test_duplicate_lengths_rejected(self):
        series = self._series()
        jobs = [MPdistParams(snippet_size=16), MPdistParams(snippet_size=16)]
        with pytest.raises(ValueError, match="duplicate"):
            run_schedule(series, jobs, 2, workers=1, training_log=False)

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError, match="no jobs"):
            run_schedule(self._series(), [], 2, workers=1, training_log=False)

    def test_too_long_length_rejected_before_any_search(self, tmp_path, monkeypatch):
        # m=400 on n=512 leaves one segment, too few for two snippets.
        calls = []
        search = scheduler.select_snippets

        def counted(series, params, *args, **kwargs):
            calls.append(params.snippet_size)
            return search(series, params, *args, **kwargs)

        monkeypatch.setattr(scheduler, "select_snippets", counted)
        log = tmp_path / "timings.jsonl"
        jobs = [MPdistParams(snippet_size=m) for m in (16, 400)]
        with pytest.raises(ValueError, match="snippet size 400"):
            run_schedule(self._series(), jobs, 2, workers=1, training_log=log)
        assert calls == []
        assert not log.exists()

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

    @pytest.mark.parametrize("via_env", [False, True])
    def test_unwritable_log_fails_before_any_search(self, tmp_path, monkeypatch, via_env):
        # A directory cannot be opened for append: the error comes before
        # the first search, not after the whole batch has run.
        calls = []
        monkeypatch.setattr(scheduler, "select_snippets", lambda *args, **kwargs: calls.append(1))
        jobs = [MPdistParams(snippet_size=m) for m in (16, 32)]
        if via_env:
            monkeypatch.setenv(scheduler.TRAINING_LOG_ENV, str(tmp_path))
            log = None
        else:
            log = tmp_path
        with pytest.raises(OSError):
            run_schedule(self._series(), jobs, 2, workers=1, training_log=log)
        assert calls == []

    def test_training_log_parent_directories_created(self, tmp_path):
        log = tmp_path / "a" / "b" / "timings.jsonl"
        run_schedule(self._series(), [MPdistParams(snippet_size=16)], 2, workers=1, training_log=log)
        assert len(log.read_text().splitlines()) == 1

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

    @fork_only
    def test_worker_failure_names_length(self, monkeypatch):
        search = scheduler.select_snippets

        def failing(series, params, *args, **kwargs):
            if params.snippet_size == 32:
                raise FloatingPointError("planted failure")
            return search(series, params, *args, **kwargs)

        monkeypatch.setattr(scheduler, "select_snippets", failing)
        jobs = [MPdistParams(snippet_size=m) for m in (16, 32)]
        with pytest.raises(RuntimeError, match="m=32: planted failure"):
            run_schedule(self._series(), jobs, 2, workers=2, training_log=False)

    @fork_only
    def test_failure_starts_no_further_jobs(self, tmp_path, monkeypatch):
        # Each started job leaves a file behind; m=64 fails at once and
        # the others are slow.
        search = scheduler.select_snippets

        def recorded(series, params, *args, **kwargs):
            (tmp_path / str(params.snippet_size)).touch()
            if params.snippet_size == 64:
                raise FloatingPointError("planted failure")
            time.sleep(0.3)
            return search(series, params, *args, **kwargs)

        monkeypatch.setattr(scheduler, "select_snippets", recorded)
        sizes = [64] + list(range(8, 18))
        jobs = [MPdistParams(snippet_size=m) for m in sizes]
        with pytest.raises(RuntimeError, match="m=64"):
            run_schedule(self._series(), jobs, 2, workers=2, training_log=False)
        # Largest first, the two processes start m=64 and m=17; nothing
        # starts after the failure.
        assert {int(p.name) for p in tmp_path.iterdir()} == {64, 17}

    @fork_only
    def test_calling_process_failure_stops_dispatch(self, tmp_path, monkeypatch):
        # The worker takes m=64 and the calling process m=32, which fails
        # at once; the worker's job ends, and m=16 and m=8 never start.
        search = scheduler.select_snippets
        caller = os.getpid()

        def recorded(series, params, *args, **kwargs):
            size = params.snippet_size
            (tmp_path / f"start-{size}").touch()
            if os.getpid() == caller:
                raise FloatingPointError("planted failure")
            time.sleep(0.5)
            result = search(series, params, *args, **kwargs)
            (tmp_path / f"end-{size}").touch()
            return result

        monkeypatch.setattr(scheduler, "select_snippets", recorded)
        jobs = [MPdistParams(snippet_size=m) for m in (8, 16, 32, 64)]
        with pytest.raises(RuntimeError, match="m=32: planted failure"):
            run_schedule(self._series(), jobs, 2, workers=2, training_log=False)
        assert {p.name for p in tmp_path.iterdir()} == {"start-64", "start-32", "end-64"}

    @fork_only
    def test_training_log_keeps_job_order(self, tmp_path):
        log = tmp_path / "timings.jsonl"
        sizes = [16, 64, 8, 32]
        jobs = [MPdistParams(snippet_size=m) for m in sizes]
        run_schedule(self._series(), jobs, 2, workers=2, training_log=log)
        assert [json.loads(line)["m"] for line in log.read_text().splitlines()] == sizes

    @fork_only
    @pytest.mark.parametrize("workers", [2, 3])
    def test_calling_process_runs_searches(self, tmp_path, monkeypatch, workers):
        search = scheduler.select_snippets

        def recorded(series, params, *args, **kwargs):
            (tmp_path / f"{os.getpid()}-{params.snippet_size}").touch()
            time.sleep(0.05)
            return search(series, params, *args, **kwargs)

        monkeypatch.setattr(scheduler, "select_snippets", recorded)
        sizes = [8, 16, 24, 32, 40, 48]
        jobs = [MPdistParams(snippet_size=m) for m in sizes]
        results = run_schedule(self._series(), jobs, 2, workers=workers, training_log=False)
        assert list(results) == sizes
        runs = [name.split("-") for name in os.listdir(tmp_path)]
        assert sorted(int(size) for _, size in runs) == sizes
        pids = {int(pid) for pid, _ in runs}
        assert os.getpid() in pids
        assert len(pids - {os.getpid()}) <= workers - 1

    @fork_only
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_forked_before_any_thread_or_search(self, monkeypatch, workers):
        # Each fork records the Python thread count and the searches this
        # process has started; a hook cannot be unregistered, so it records
        # only during the call.
        search = scheduler.select_snippets
        started, forks, active = [], [], [True]

        def recorded(series, params, *args, **kwargs):
            started.append(params.snippet_size)
            return search(series, params, *args, **kwargs)

        def before_fork():
            if active[0]:
                forks.append((threading.active_count(), len(started)))

        monkeypatch.setattr(scheduler, "select_snippets", recorded)
        os.register_at_fork(before=before_fork)
        jobs = [MPdistParams(snippet_size=m) for m in (8, 16, 32, 64)]
        try:
            run_schedule(self._series(), jobs, 2, workers=workers, training_log=False)
        finally:
            active[0] = False
        assert forks == [(1, 0)] * (workers - 1)
        assert started

    @fork_only
    def test_each_job_runs_once_under_thread_switching(self, tmp_path, monkeypatch):
        # More processes than cores, and the helper threads of the calling
        # process switch every microsecond: every length still starts
        # exactly once and lands in the results and the log.
        search = scheduler.select_snippets
        starts = tmp_path / "starts"

        def recorded(series, params, *args, **kwargs):
            with open(starts, "a") as handle:
                handle.write(f"{params.snippet_size}\n")
            return search(series, params, *args, **kwargs)

        monkeypatch.setattr(scheduler, "select_snippets", recorded)
        sizes = list(range(8, 104, 8))
        jobs = [MPdistParams(snippet_size=m) for m in sizes]
        log = tmp_path / "timings.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_schedule(self._series(), jobs, 2, workers=4, training_log=log)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(int(line) for line in starts.read_text().split()) == sizes
        assert list(results) == sizes
        assert [json.loads(line)["m"] for line in log.read_text().splitlines()] == sizes

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=fork_only)])
    def test_searches_start_largest_first(self, tmp_path, monkeypatch, workers):
        # m=128 takes 0.15 s and every other length 0.3 s, so at two
        # processes the starts after the first two are 0.15 s apart.
        search = scheduler.select_snippets

        def recorded(series, params, *args, **kwargs):
            (tmp_path / str(params.snippet_size)).write_text(repr(time.time()))
            time.sleep(0.15 if params.snippet_size == 128 else 0.3)
            return search(series, params, *args, **kwargs)

        monkeypatch.setattr(scheduler, "select_snippets", recorded)
        jobs = [MPdistParams(snippet_size=m) for m in (8, 16, 32, 64, 128)]
        run_schedule(self._series(), jobs, 2, workers=workers, training_log=False)
        starts = sorted(tmp_path.iterdir(), key=lambda path: float(path.read_text()))
        order = [int(path.name) for path in starts]
        # The first `workers` jobs start together, one per process.
        assert sorted(order[:workers], reverse=True) == [128, 64][:workers]
        assert order[workers:] == [64, 32, 16, 8][workers - 1:]

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_workers_env_names_variable(self, monkeypatch, value):
        from sniplab.snippets import WORKERS_ENV

        monkeypatch.setenv(WORKERS_ENV, value)
        jobs = [MPdistParams(snippet_size=16)]
        with pytest.raises(ValueError, match=WORKERS_ENV):
            run_schedule(self._series(), jobs, 2, training_log=False)

    @pytest.mark.parametrize(
        "bad_line", ['{"m": 8}', "[1, 2]", '{"m": 16, "n": 512, "seconds": NaN}', "not json"]
    )
    def test_malformed_log_line(self, tmp_path, bad_line):
        log = tmp_path / "timings.jsonl"
        log.write_text('{"m": 8, "n": 512, "seconds": 0.1}\n' + bad_line + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_training_samples(log)

    def test_blank_log_lines_skipped(self, tmp_path):
        log = tmp_path / "timings.jsonl"
        lines = ["", '{"m": 8, "n": 512, "seconds": 0.1}', "  ", '{"m": 16, "n": 512, "seconds": 0.3}']
        log.write_text("\n".join(lines) + "\n")
        sizes, seconds = load_training_samples(log)
        np.testing.assert_array_equal(sizes, [8.0, 16.0])
        np.testing.assert_array_equal(seconds, [0.1, 0.3])
