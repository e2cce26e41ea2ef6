"""Per-layer measurement from outside the library.

:class:`Tracer` replaces public functions on sniplab's modules with
timing wrappers for the length of one traced operation; nothing inside
``src/`` is instrumented.  A function is wrapped where its caller looks
it up, for example ``segment_distance_matrix`` on the ``mpdist`` module.
Sweep workers are forked from the traced process, inherit the wrappers,
and write their totals to a file the parent merges.

Memory peaks come from a second, untimed search under ``tracemalloc``,
and the profile error from a brute-force MPdist on a few sampled
windows, so neither distorts the timings.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import sniplab
from sniplab import length_select, mpdist, scheduler, snippets

import workloads
from specs import WORKERS

MB = float(1 << 20)


def _matrix_entries(args, kwargs, result):
    return result.size


def _select_entries(args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return 2 * params.profile_width * len(result)


# (module, public function, span name, work counter or None)
WRAPPED = (
    (snippets, "compute_sliding_stats", "series.stats", None),
    (mpdist, "compute_sliding_stats", "series.stats", None),
    (mpdist, "segment_distance_matrix", "zdist.matrix", _matrix_entries),
    (snippets, "mpdist_profile", "mpdist.profile", _select_entries),
    (snippets, "segment_profiles", "snippets.profiles", None),
    (sniplab, "select_snippets", "snippets.select", None),
    (scheduler, "select_snippets", "snippets.select", None),
    (length_select, "criterion_score", "length_select.score", None),
    (sniplab, "label_series", "labeling.label", None),
    (sniplab, "evaluate", "labeling.eval", None),
)


class Tracer:
    """Summed seconds and work counts per span, across this process and its workers."""

    def __init__(self, spans_dir):
        self.spans_dir = Path(spans_dir)
        self.parent = os.getpid()
        self.owner = self.parent
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, original, span, counter):
        def wrapper(*args, **kwargs):
            if os.getpid() != self.owner:  # first call in a forked worker
                self.owner = os.getpid()
                self.seconds.clear()
                self.counts.clear()
            started = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds[span] += time.perf_counter() - started
            if counter is not None:
                self.counts[span] += counter(args, kwargs, result)
            if span == "snippets.select" and self.owner != self.parent:
                self._dump()
            return result

        return wrapper

    def _dump(self):
        path = self.spans_dir / f"spans-{self.owner}.json"
        path.write_text(json.dumps({"seconds": self.seconds, "counts": self.counts}))

    @contextmanager
    def installed(self):
        originals = [(module, name, getattr(module, name)) for module, name, _, _ in WRAPPED]
        try:
            for (module, name, span, counter), (_, _, original) in zip(WRAPPED, originals):
                setattr(module, name, self._wrap(original, span, counter))
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)
        for path in sorted(self.spans_dir.glob("spans-*.json")):
            worker = json.loads(path.read_text())
            for span, value in worker["seconds"].items():
                self.seconds[span] += value
            for span, value in worker["counts"].items():
                self.counts[span] += value
            path.unlink()


def peak_search(series, doc):
    """Repeat the search behind result document ``doc`` in one process under tracemalloc.

    Returns the repeated result, the peak traced bytes of the whole
    ``select_snippets`` call, and the largest peak of a single
    ``mpdist_profile`` call within it.
    """
    original = snippets.mpdist_profile
    outer = per_call = 0

    def measured(*args, **kwargs):
        nonlocal outer, per_call
        current, peak = tracemalloc.get_traced_memory()
        outer = max(outer, peak)
        tracemalloc.reset_peak()
        profile = original(*args, **kwargs)
        per_call = max(per_call, tracemalloc.get_traced_memory()[1] - current)
        return profile

    tracemalloc.start()
    try:
        snippets.mpdist_profile = measured
        base = tracemalloc.get_traced_memory()[0]
        solo = workloads.solo_search(series, doc)
        outer = max(outer, tracemalloc.get_traced_memory()[1])
    finally:
        snippets.mpdist_profile = original
        tracemalloc.stop()
    return solo, outer - base, per_call


def _znorm_windows(x, window):
    windows = sliding_window_view(x, window)
    centered = windows - windows.mean(axis=1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=1, keepdims=True))
    flat = (windows.max(axis=1) == windows.min(axis=1))[:, None] | (std == 0.0)
    return np.where(flat, 0.0, centered / np.where(flat, 1.0, std))


def brute_mpdist(a, b, window, k):
    """MPdist of two equal-length sequences from explicit pairwise distances."""
    za, zb = _znorm_windows(a, window), _znorm_windows(b, window)
    dist = np.empty((za.shape[0], zb.shape[0]))
    for i, row in enumerate(za):
        diff = zb - row
        dist[i] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    merged = np.concatenate([dist.min(axis=1), dist.min(axis=0)])
    if merged.size > k:
        return float(np.partition(merged, k - 1)[k - 1])
    return float(merged.max())


def profile_error(series, result):
    """Largest gap between the chosen snippets' profiles and brute force at sampled windows."""
    windows_per_snippet = 3
    x = series.values
    m = result.snippet_size
    count = series.n - m + 1
    worst = 0.0
    for snippet, profile in zip(result.snippets, result.profiles):
        segment = x[snippet.start : snippet.start + m]
        for i in range(windows_per_snippet):
            j = int((i + 0.5) * count / windows_per_snippet)
            exact = brute_mpdist(segment, x[j : j + m], result.window_size, result.k)
            worst = max(worst, abs(float(profile.values[j]) - exact))
    return worst


def _job_seconds(spec, series, outcome, tracer, training_log):
    """(snippet_size, window_size, seconds) per snippet search, in grid order."""
    if spec.kind == "discover":
        r = outcome.result
        return [(r.snippet_size, r.window_size, tracer.seconds["snippets.select"])]
    sizes, seconds = sniplab.load_training_samples(training_log, series_length=series.n)
    by_size = dict(zip(sizes.astype(int).tolist(), seconds.tolist()))
    return [
        (m, sniplab.default_window_size(m), by_size[m]) for m in spec.lengths
    ]


def scheduler_metrics(series_length, jobs, op_wall, workers):
    """Busy, idle and balance figures of the operation's snippet searches.

    The partition is recomputed with ``kk_partition`` on ``default_cost``
    weights, as ``run_schedule`` does.  A discover operation is one
    search on one process, so its second worker shows as idle.
    """
    weights = [sniplab.default_cost(series_length, m, w) for m, w, _ in jobs]
    schedule = sniplab.kk_partition(weights, min(workers, len(jobs)))
    loads = [sum(jobs[i][2] for i in part) for part in schedule.assignments]
    loads += [0.0] * (workers - len(loads))
    predicted = list(schedule.predicted_loads) + [0.0] * (workers - len(schedule.predicted_loads))
    busy = sum(seconds for _, _, seconds in jobs)
    makespan = max(loads)
    return {
        "scheduler.busy_s": busy,
        "scheduler.makespan_s": makespan,
        "scheduler.idle_s": workers * makespan - busy,
        "scheduler.imbalance": makespan / (busy / workers),
        "scheduler.predicted_imbalance": max(predicted) / (sum(predicted) / workers),
        "scheduler.overhead_s": op_wall - makespan,
        "scheduler.speedup": busy / op_wall,
    }


def traced_run(spec, series, truth, workdir):
    """One traced operation plus its untimed memory and accuracy passes.

    Returns the per-layer metrics, the operation's wall time and the
    output problems found.  ``trace.coverage`` divides the summed layer
    self times by this traced operation's own wall time: on a machine
    where two untraced runs of the same operation differ by 10%, a
    ratio against another run's wall would mostly measure that noise.
    """
    workdir = Path(workdir)
    training_log = workdir / "training-traced.jsonl"
    tracer = Tracer(workdir)
    with tracer.installed():
        started = time.perf_counter()
        outcome = workloads.run_operation(spec, series, truth, training_log)
        op_wall = time.perf_counter() - started
    problems = workloads.check_output(spec, truth, outcome)
    s, c = tracer.seconds, tracer.counts

    if spec.kind == "discover":
        started = time.perf_counter()
        sniplab.criterion_score(outcome.result)
        score_s = time.perf_counter() - started
    else:
        score_s = s["length_select.score"]
    mpdist_self = s["mpdist.profile"] - s["zdist.matrix"]
    greedy = s["snippets.select"] - s["snippets.profiles"]
    layer_sum = (
        s["series.stats"] + s["zdist.matrix"] + mpdist_self + greedy
        + s["length_select.score"] + s["labeling.label"] + s["labeling.eval"]
    )

    result = outcome.result
    doc = workloads.document(result)
    solo, snippets_peak, mpdist_peak = peak_search(series, doc)
    problems += workloads.invariance_problems(doc, solo)
    num_windows = series.n - result.snippet_size + 1
    segments = series.n // result.snippet_size

    metrics = {
        "series.stats_s": s["series.stats"],
        "zdist.matrix_s": s["zdist.matrix"],
        "zdist.entries": c["zdist.matrix"],
        "zdist.ns_per_entry": 1e9 * s["zdist.matrix"] / max(c["zdist.matrix"], 1),
        "mpdist.self_s": mpdist_self,
        "mpdist.select_entries": c["mpdist.profile"],
        "mpdist.ns_per_entry": 1e9 * mpdist_self / max(c["mpdist.profile"], 1),
        "mpdist.peak_mb": mpdist_peak / MB,
        "mpdist.max_abs_err": profile_error(series, result),
        "snippets.greedy_s": greedy,
        "snippets.profiles_mb": segments * num_windows * 8 / MB,
        "snippets.peak_mb": snippets_peak / MB,
        "length_select.score_s": score_s,
        "labeling.label_s": s["labeling.label"],
        "labeling.eval_s": s["labeling.eval"],
        "trace.coverage": layer_sum / op_wall,
    }
    jobs = _job_seconds(spec, series, outcome, tracer, training_log)
    metrics.update(scheduler_metrics(series.n, jobs, op_wall, WORKERS))
    return {
        "layers": metrics,
        "wall_s": op_wall,
        "macro_f1": outcome.macro_f1,
        "problems": problems,
    }
