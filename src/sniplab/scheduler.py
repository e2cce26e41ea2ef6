"""Running batches of snippet searches, and job partitioners.

A length sweep runs one search per candidate length.  Several workers
take the searches from a work queue in the order given, each the next
job when it is idle, so the split follows how long the searches really
take (list scheduling, Graham 1969).  Measured timings can be appended
to a training log.  The Karmarkar-Karp and longest-processing-time
partitioners, which split priced jobs ahead of time, are utilities
off the sweep path.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from .mpdist import MPdistParams, default_window_size
from .series import TimeSeries
from .snippets import SnippetResult, select_snippets

TRAINING_LOG_ENV = "SNIPLAB_TRAINING_LOG"
WORKERS_ENV = "SNIPLAB_WORKERS"


def default_cost(series_length: int, snippet_size: int, window_size: int | None = None) -> float:
    """Operation-count estimate of one search.

    Counts one distance-matrix build per segment: each matrix has
    ``snippet_size - window_size + 1`` rows of
    ``series_length - window_size + 1`` columns.
    """
    if window_size is None:
        window_size = default_window_size(snippet_size)
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


def _check_weights(weights) -> list[Fraction]:
    vals = []
    for i, w in enumerate(weights):
        f = Fraction(w)
        if f < 0:
            raise ValueError(f"weight {i} is negative: {w}")
        vals.append(f)
    if not vals:
        raise ValueError("no weights given")
    return vals


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
    vals = _check_weights(weights)
    if num_parts < 1:
        raise ValueError(f"need at least one part, got {num_parts}")
    parts, difference = _multiway_kk(vals, num_parts)

    loads = [sum((vals[i] for i in part), Fraction(0)) for part in parts]
    # The differencing value must agree with the reconstruction; exact
    # arithmetic makes this an equality, not an approximation.
    if max(loads) - min(loads) != difference:
        raise RuntimeError(
            f"partition reconstructs a load gap of {max(loads) - min(loads)}, "
            f"not the differencing value {difference}"
        )
    return Schedule(
        assignments=tuple(tuple(part) for part in parts),
        predicted_loads=tuple(float(load) for load in loads),
        difference=difference,
    )


def lpt_partition(weights, num_parts: int) -> Schedule:
    """Longest-processing-time baseline: heaviest job to the lightest worker."""
    vals = _check_weights(weights)
    if num_parts < 1:
        raise ValueError(f"need at least one part, got {num_parts}")
    loads = [(Fraction(0), w) for w in range(num_parts)]
    heapq.heapify(loads)
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    for i in sorted(range(len(vals)), key=lambda j: (-vals[j], j)):
        load, worker = heapq.heappop(loads)
        parts[worker].append(i)
        heapq.heappush(loads, (load + vals[i], worker))
    totals = [sum((vals[i] for i in part), Fraction(0)) for part in parts]
    return Schedule(
        assignments=tuple(tuple(part) for part in parts),
        predicted_loads=tuple(float(t) for t in totals),
        difference=max(totals) - min(totals),
    )


def _run_job(series: TimeSeries, params: MPdistParams, num_snippets: int):
    """Run one snippet search, timing it."""
    started = time.perf_counter()
    try:
        result = select_snippets(series, params, num_snippets)
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


def env_workers() -> int:
    """Worker count from ``SNIPLAB_WORKERS``, 1 when unset.

    Raises ``ValueError`` naming the variable unless it is a positive
    integer.
    """
    raw = os.environ.get(WORKERS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def run_schedule(
    series: TimeSeries,
    jobs,
    num_snippets: int,
    *,
    workers: int | None = None,
    training_log=None,
) -> dict[int, SnippetResult]:
    """Run a batch of snippet searches from a work queue of worker processes.

    Parameters
    ----------
    series : TimeSeries
    jobs : sequence of MPdistParams
        One search per entry; snippet lengths must be unique.  Workers
        take the jobs in this order, each the next one when it is idle.
    num_snippets : int
        Snippets per search.
    workers : int, optional
        Worker process count; defaults to the ``SNIPLAB_WORKERS``
        environment variable, else 1.  At most one process per job is
        started, and a single worker runs the jobs inline.
    training_log : path-like, optional
        JSON-lines file receiving one ``{m, n, l, seconds, timestamp}``
        entry per finished search.  Defaults to the
        ``SNIPLAB_TRAINING_LOG`` environment variable; pass ``False``
        to disable logging entirely.

    Returns
    -------
    dict
        Snippet length to its search result, in increasing length.  The
        content is independent of the worker count.

    Raises
    ------
    RuntimeError
        If a search fails; the message names its snippet length.  No job
        starts after the failure, and the ones already running finish.
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("no jobs given")
    sizes = [params.snippet_size for params in jobs]
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"duplicate snippet lengths in job list: {sizes}")
    if workers is None:
        workers = env_workers()
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if training_log is None:
        training_log = os.environ.get(TRAINING_LOG_ENV)

    workers = min(workers, len(jobs))
    if workers == 1:
        timings = [_run_job(series, params, num_snippets) for params in jobs]
    else:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Hand each idle worker the next job and queue none, so that a
            # failure is raised once the jobs running beside it end.
            queue, futures, running = list(jobs), [], set()
            while queue or running:
                while queue and len(running) < workers:
                    futures.append(pool.submit(_run_job, series, queue.pop(0), num_snippets))
                    running.add(futures[-1])
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()
        timings = [future.result() for future in futures]

    if training_log:
        _append_training_log(training_log, series.n, timings)

    return {
        params.snippet_size: result
        for params, result, _ in sorted(timings, key=lambda t: t[0].snippet_size)
    }
