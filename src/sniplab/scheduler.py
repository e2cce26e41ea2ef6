"""Running batches of snippet searches, and job partitioners.

A length sweep runs one search per candidate length.  The calling
process and its worker processes take the searches from one work queue,
largest length first, each the next job when it is idle, so the split
follows how long the searches really take and the cheap small lengths
fill the gaps at the end (longest-first list scheduling, Graham 1969).
Measured timings can be appended to a training log.  The Karmarkar-Karp
and longest-processing-time partitioners, which split priced jobs ahead
of time, are utilities off the sweep path.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from .mpdist import MPdistParams
from .series import TimeSeries
from .snippets import SnippetResult, _check_count, resolve_workers, select_snippets

TRAINING_LOG_ENV = "SNIPLAB_TRAINING_LOG"


def default_cost(series_length: int, snippet_size: int, window_size: int) -> float:
    """Operation-count estimate of one search.

    Counts one distance-matrix build per segment: each matrix has
    ``snippet_size - window_size + 1`` rows of
    ``series_length - window_size + 1`` columns.
    """
    rows = snippet_size - window_size + 1
    cols = series_length - window_size + 1
    segments = series_length // snippet_size
    return float(rows) * float(cols) * float(segments)


@dataclass(frozen=True)
class Schedule:
    """A partition of job indices across workers.

    ``difference`` is the exact gap between the heaviest and lightest
    predicted loads, as computed by the partitioner's own arithmetic.
    """

    assignments: tuple[tuple[int, ...], ...]
    predicted_loads: tuple[float, ...]
    difference: Fraction

    @property
    def makespan(self) -> float:
        return max(self.predicted_loads)


def _check_weights(weights, num_parts: int) -> list[Fraction]:
    vals = []
    for i, w in enumerate(weights):
        if not 0 <= w < math.inf:
            raise ValueError(f"weight {i} is negative or not finite: {w}")
        vals.append(Fraction(w))
    if not vals:
        raise ValueError("no weights given")
    if num_parts < 1:
        raise ValueError(f"need at least one part, got {num_parts}")
    return vals


def _schedule(vals: list[Fraction], parts) -> Schedule:
    """The Schedule of ``parts``, with each part's exact load summed from ``vals``."""
    loads = [sum((vals[i] for i in part), Fraction(0)) for part in parts]
    return Schedule(
        assignments=tuple(tuple(part) for part in parts),
        predicted_loads=tuple(float(load) for load in loads),
        difference=max(loads) - min(loads),
    )


def _multiway_kk(weights: list[Fraction], num_parts: int) -> tuple[list[tuple[int, ...]], Fraction]:
    # Tuple differencing: every heap entry is a partial partition held
    # as per-part sums (descending).  Merging two entries pairs the
    # heaviest parts of one with the lightest of the other.
    entries = []
    for i, w in enumerate(weights):
        sums = [w] + [Fraction(0)] * (num_parts - 1)
        parts = [(i,)] + [()] * (num_parts - 1)
        entries.append((sums, parts))
    heap = [(-(e[0][0] - e[0][-1]), i, e) for i, e in enumerate(entries)]
    heapq.heapify(heap)
    order = len(entries)
    while len(heap) > 1:
        _, _, (sums_a, parts_a) = heapq.heappop(heap)
        _, _, (sums_b, parts_b) = heapq.heappop(heap)
        merged = [
            (sums_a[j] + sums_b[num_parts - 1 - j], parts_a[j] + parts_b[num_parts - 1 - j])
            for j in range(num_parts)
        ]
        merged.sort(key=lambda pair: (-pair[0], pair[1]))
        sums = [pair[0] for pair in merged]
        parts = [pair[1] for pair in merged]
        heapq.heappush(heap, (-(sums[0] - sums[-1]), order, (sums, parts)))
        order += 1
    sums, parts = heap[0][2]
    return [tuple(sorted(p)) for p in parts], sums[0] - sums[-1]


def kk_partition(weights, num_parts: int) -> Schedule:
    """Split weighted jobs across ``num_parts`` workers, Karmarkar-Karp style.

    Any number of parts uses tuple differencing (Karmarkar & Karp 1982;
    Korf 2009), which at two parts is the classic largest-differencing
    method and at one part puts every job in that part with a difference
    of 0.  All arithmetic is exact rational, so the reported
    ``difference`` equals the reconstructed load gap exactly.

    Parameters
    ----------
    weights : sequence of numbers
        Non-negative predicted cost per job.
    num_parts : int

    Returns
    -------
    Schedule
    """
    vals = _check_weights(weights, num_parts)
    parts, difference = _multiway_kk(vals, num_parts)
    schedule = _schedule(vals, parts)
    # The differencing value must agree with the reconstruction; exact
    # arithmetic makes this an equality, not an approximation.
    if schedule.difference != difference:
        raise RuntimeError(
            f"partition reconstructs a load gap of {schedule.difference}, "
            f"not the differencing value {difference}"
        )
    return schedule


def lpt_partition(weights, num_parts: int) -> Schedule:
    """Longest-processing-time baseline: heaviest job to the lightest worker."""
    vals = _check_weights(weights, num_parts)
    loads = [(Fraction(0), w) for w in range(num_parts)]
    heapq.heapify(loads)
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    for i in sorted(range(len(vals)), key=lambda j: (-vals[j], j)):
        load, worker = heapq.heappop(loads)
        parts[worker].append(i)
        heapq.heappush(loads, (load + vals[i], worker))
    return _schedule(vals, parts)


def _run_job(series: TimeSeries, params: MPdistParams, num_snippets: int):
    """Run one snippet search on one thread, timing it.

    The sweep's workers go to lengths, so a search never starts threads
    of its own beside the other worker processes.
    """
    started = time.perf_counter()
    try:
        result = select_snippets(series, params, num_snippets, workers=1)
    except Exception as exc:
        raise RuntimeError(
            f"snippet search failed for m={params.snippet_size}: {exc}"
        ) from exc
    return params, result, time.perf_counter() - started


def _append_training_log(path, series_length: int, timings) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        for params, _, seconds in timings:
            handle.write(
                json.dumps(
                    {
                        "m": params.snippet_size,
                        "n": series_length,
                        "l": params.window_size,
                        "seconds": seconds,
                        "timestamp": datetime.now(timezone.utc).isoformat(),
                    }
                )
                + "\n"
            )


def _finite_number(value) -> bool:
    # type() rather than isinstance(): a JSON true is no number.
    return type(value) in (int, float) and math.isfinite(value)


def load_training_samples(path, series_length: int | None = None):
    """Read a training log back as paired arrays.

    Parameters
    ----------
    path : path-like
        JSON-lines file written by :func:`run_schedule`.
    series_length : int, optional
        Keep only entries measured on series of this length.

    Returns
    -------
    snippet_sizes, seconds : ndarray

    Raises
    ------
    ValueError
        If a line is not a JSON object with finite numeric ``m``, ``n``
        and ``seconds``; the message names the 1-based line.
    """
    sizes = []
    seconds = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not isinstance(entry, dict) or not all(
                _finite_number(entry.get(key)) for key in ("m", "n", "seconds")
            ):
                raise ValueError(
                    f"training log {path}, line {line_no}: expected a JSON object "
                    f"with finite numeric m, n and seconds"
                )
            if series_length is not None and entry["n"] != series_length:
                continue
            sizes.append(entry["m"])
            seconds.append(entry["seconds"])
    return np.asarray(sizes, dtype=np.float64), np.asarray(seconds, dtype=np.float64)


def run_schedule(
    series: TimeSeries,
    jobs,
    num_snippets: int,
    *,
    workers: int | None = None,
    training_log=None,
) -> dict[int, SnippetResult]:
    """Run a batch of snippet searches from a work queue, largest length first.

    Parameters
    ----------
    series : TimeSeries
    jobs : sequence of MPdistParams
        One search per entry; snippet lengths must be unique.  The
        processes take the jobs largest length first, each the next one
        when it is idle; the training log keeps the order given here.
    num_snippets : int
        Snippets per search.
    workers : int, optional
        Processes running searches, the calling one included; defaults
        to the ``SNIPLAB_WORKERS`` environment variable, else 1.  With
        ``W`` workers, ``W - 1`` worker processes (at most one per job
        beside the calling process) are forked before any search starts;
        a single worker starts no process.
    training_log : path-like, optional
        JSON-lines file receiving one ``{m, n, l, seconds, timestamp}``
        entry per search once all have finished; it is opened for append
        before the first starts.  Defaults to the ``SNIPLAB_TRAINING_LOG``
        environment variable; pass ``False`` to disable logging entirely.

    Returns
    -------
    dict
        Snippet length to its search result, in increasing length.  The
        content is independent of the worker count.

    Raises
    ------
    ValueError
        If there are no jobs, a repeated length, or a length leaving fewer than
        ``num_snippets`` segments; no search runs and no log is opened.
    RuntimeError
        If a search fails in any process, the calling one included; the
        message names its snippet length.  No job starts after the
        failure, and the ones already running finish.
    OSError
        If the training log cannot be opened for append; no search runs.
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("no jobs given")
    sizes = [params.snippet_size for params in jobs]
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"duplicate snippet lengths in job list: {sizes}")
    for size in sizes:
        _check_count(series, size, num_snippets)
    workers = resolve_workers(workers)
    if training_log is None:
        training_log = os.environ.get(TRAINING_LOG_ENV)
    if training_log:
        _append_training_log(training_log, series.n, [])  # fail before any search

    workers = min(workers, len(jobs))
    # Largest lengths first: the small lengths' cheap searches come last
    # and fill the gaps, so no process idles long at the end.
    queue = sorted(jobs, key=lambda params: params.snippet_size, reverse=True)
    done, errors = {}, []
    lock = threading.Lock()

    def take():
        with lock:
            return queue.pop(0) if queue else None

    def work(start, wait):
        # One process's job loop: ``wait()`` returns the timing of the job
        # in hand and ``start(params)`` starts the next.  A failure empties
        # the queue, so no process starts a job after it; the first one is
        # raised once every running job has ended.
        try:
            while wait is not None:
                timing = wait()
                with lock:
                    done[timing[0].snippet_size] = timing
                params = take()
                wait = None if params is None else start(params)
        except BaseException as exc:
            with lock:
                errors.append(exc)
                queue.clear()

    def here(params):
        return lambda: _run_job(series, params, num_snippets)

    def there(params):
        return pool.submit(_run_job, series, params, num_snippets).result

    pool, helpers = None, []
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers - 1)
        # The first submit forks every worker, so each gets its first job
        # from this thread while it is the only one and no search has run.
        # This process takes its own before any helper thread can fail and
        # empty the queue, so the largest ``workers`` jobs always start.
        waits = [there(take()) for _ in range(workers - 1)]
        mine = here(take())
        for wait in waits:
            helper = threading.Thread(target=work, args=(there, wait))
            helper.start()
            helpers.append(helper)
        work(here, mine)
    finally:
        with lock:
            queue.clear()
        for helper in helpers:
            helper.join()
        if pool is not None:
            pool.shutdown()
    if errors:
        raise errors[0]
    timings = [done[params.snippet_size] for params in jobs]

    if training_log:
        _append_training_log(training_log, series.n, timings)

    return {size: done[size][1] for size in sorted(done)}
