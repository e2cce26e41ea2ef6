"""Load balancing for batches of snippet searches.

A length sweep runs one search per candidate length, and the searches
differ wildly in cost.  Each search is priced either by a fitted
polynomial cost model or by an operation-count estimate, the priced
jobs are split across workers with the Karmarkar-Karp differencing
method, and each worker burns through its own job list in a separate
process.  Measured timings can be appended to a training log so later
runs fit a better model.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .mpdist import MPdistParams, default_window_size
from .series import TimeSeries
from .snippets import SnippetResult, select_snippets

TRAINING_LOG_ENV = "SNIPLAB_TRAINING_LOG"
WORKERS_ENV = "SNIPLAB_WORKERS"


@dataclass(frozen=True)
class CostModel:
    """Polynomial in the snippet length that predicts search seconds.

    Coefficients are in ascending order of power, so ``coefficients[i]``
    multiplies ``snippet_size ** i``.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return int(self.coefficients.size - 1)

    def predict(self, snippet_size: int) -> float:
        """Evaluate the polynomial at one snippet length."""
        return float(npoly.polyval(float(snippet_size), self.coefficients))


def fit_cost_model(snippet_sizes, seconds, degree: int = 2) -> CostModel:
    """Least-squares polynomial fit of measured timings.

    Parameters
    ----------
    snippet_sizes, seconds : array-like
        Paired observations, e.g. from :func:`load_training_samples`.
    degree : int, optional
        Polynomial degree; needs at least ``degree + 1`` distinct
        snippet lengths.
    """
    m = np.asarray(snippet_sizes, dtype=np.float64)
    t = np.asarray(seconds, dtype=np.float64)
    if m.shape != t.shape or m.ndim != 1:
        raise ValueError(
            f"snippet sizes and seconds must be matching 1-D arrays, got shapes "
            f"{m.shape} and {t.shape}"
        )
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    distinct = np.unique(m).size
    if distinct < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} distinct snippet lengths for a degree "
            f"{degree} fit, got {distinct}"
        )
    return CostModel(coefficients=npoly.polyfit(m, t, degree))


def default_cost(series_length: int, snippet_size: int, window_size: int | None = None) -> float:
    """Operation-count estimate of one search, for when no model is fit.

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
    def num_workers(self) -> int:
        return len(self.assignments)

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


def _two_way_kk(weights: list[Fraction]) -> tuple[list[tuple[int, ...]], Fraction]:
    # Largest differencing with a commitment forest: each differencing
    # step says "these two nodes land on opposite sides", and the final
    # survivor's value is the exact side difference.
    heap = [(-w, i, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    order = len(weights)
    values = {i: w for i, w in enumerate(weights)}
    opposite: dict[int, list[int]] = {i: [] for i in range(len(weights))}
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        opposite[a].append(b)
        opposite[b].append(a)
        values[a] = values[a] - values[b]
        heapq.heappush(heap, (-values[a], order, a))
        order += 1
    survivor = heap[0][2]
    difference = values[survivor]

    colors = {survivor: 0}
    stack = [survivor]
    while stack:
        node = stack.pop()
        for nxt in opposite[node]:
            if nxt not in colors:
                colors[nxt] = 1 - colors[node]
                stack.append(nxt)
    parts = (
        tuple(i for i in range(len(weights)) if colors[i] == 0),
        tuple(i for i in range(len(weights)) if colors[i] == 1),
    )
    return list(parts), difference


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

    Two parts use the classic largest-differencing method with exact
    rational arithmetic, so the reported ``difference`` equals the
    reconstructed load gap exactly.  More parts use the tuple
    generalization; one part is trivial.

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
    if num_parts == 1:
        parts = [tuple(range(len(vals)))]
        difference = Fraction(0)
    elif num_parts == 2:
        parts, difference = _two_way_kk(vals)
    else:
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


def _run_jobs(series: TimeSeries, jobs: list[MPdistParams], num_snippets: int):
    """Run one worker's job list, timing each search."""
    out = []
    for params in jobs:
        started = time.perf_counter()
        try:
            result = select_snippets(series, params, num_snippets)
        except Exception as exc:
            raise RuntimeError(
                f"snippet search failed for m={params.snippet_size}: {exc}"
            ) from exc
        out.append((params, result, time.perf_counter() - started))
    return out


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
    """
    sizes = []
    seconds = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
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
    cost_model: CostModel | None = None,
    training_log=None,
) -> dict[int, SnippetResult]:
    """Run a batch of snippet searches, balanced across worker processes.

    Parameters
    ----------
    series : TimeSeries
    jobs : sequence of MPdistParams
        One search per entry; snippet lengths must be unique.
    num_snippets : int
        Snippets per search.
    workers : int, optional
        Worker process count; defaults to the ``SNIPLAB_WORKERS``
        environment variable, else 1.  A single worker runs inline.
    cost_model : CostModel, optional
        Prices each job for the partitioner; without one, an
        operation-count estimate is used.
    training_log : path-like, optional
        JSON-lines file receiving one ``{m, n, l, seconds, timestamp}``
        entry per finished search.  Defaults to the
        ``SNIPLAB_TRAINING_LOG`` environment variable; pass ``False``
        to disable logging entirely.

    Returns
    -------
    dict
        Snippet length to its search result.  The content is
        independent of the worker count.
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("no jobs given")
    sizes = [params.snippet_size for params in jobs]
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"duplicate snippet lengths in job list: {sizes}")
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if training_log is None:
        training_log = os.environ.get(TRAINING_LOG_ENV)

    weights = []
    for params in jobs:
        if cost_model is not None:
            w = max(cost_model.predict(params.snippet_size), 0.0)
        else:
            w = default_cost(series.n, params.snippet_size, params.window_size)
        weights.append(w)
    schedule = kk_partition(weights, min(workers, len(jobs)) if workers > 1 else 1)

    timings = []
    if workers == 1:
        timings.extend(_run_jobs(series, jobs, num_snippets))
    else:
        from concurrent.futures import ProcessPoolExecutor

        job_lists = [
            [jobs[i] for i in part] for part in schedule.assignments if part
        ]
        with ProcessPoolExecutor(max_workers=len(job_lists)) as pool:
            futures = [
                pool.submit(_run_jobs, series, job_list, num_snippets)
                for job_list in job_lists
            ]
            for future in futures:
                timings.extend(future.result())

    if training_log:
        _append_training_log(training_log, series.n, timings)

    return {
        params.snippet_size: result
        for params, result, _ in sorted(timings, key=lambda t: t[0].snippet_size)
    }
