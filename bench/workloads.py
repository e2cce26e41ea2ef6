"""Benchmark workloads: seeded inputs, the timed operation and its output checks.

Every workload is a series of two planted regimes (a sine and a sawtooth
of the same period) that alternate in blocks, plus Gaussian noise and a
DC offset of 1e3, as a meter reading has.  The operation goes through
the public API the README shows: ``select_snippets`` (discover) or
``select_length`` (sweep), then ``label_series`` and ``evaluate``.

The sawtooth replaces the square wave of the test suite's generator:
at period 8 half of a square wave's 4-sample inner windows are flat,
z-normalise to pure noise, and discovery cannot tell the regimes apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import sniplab
from specs import NUM_SNIPPETS, Spec

OFFSET = 1e3
NOISE = 0.05


@dataclass(frozen=True)
class Outcome:
    """What one operation produced: the labeled result and, for a sweep, its report."""

    result: sniplab.SnippetResult
    macro_f1: float
    labels: sniplab.LabelSequence
    report: sniplab.LengthReport | None = None


def make_input(spec: Spec, seed: int):
    """The workload's series and its per-point regime ids, from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    phase = np.arange(spec.n) % spec.period / spec.period
    sine = np.sin(2 * np.pi * phase)
    saw = 2 * phase - 1
    regime = (np.arange(spec.n) // spec.block_len) % 2
    values = np.where(regime == 0, sine, saw) + NOISE * rng.standard_normal(spec.n) + OFFSET
    return sniplab.TimeSeries(values), sniplab.LabelSequence(regime)


def run_operation(spec: Spec, series, truth, training_log=None) -> Outcome:
    """The timed operation.  Calls go through ``sniplab.<name>`` so a tracer can wrap them."""
    report = None
    if spec.kind == "discover":
        params = sniplab.MPdistParams(snippet_size=spec.lengths[0])
        result = sniplab.select_snippets(series, params, NUM_SNIPPETS)
    else:
        report, results = sniplab.select_length(
            series, spec.lengths, NUM_SNIPPETS, training_log=training_log
        )
        result = results[report.m_best]
    labels = sniplab.label_series(result)
    macro_f1 = sniplab.evaluate(labels, truth).macro_f1
    return Outcome(result=result, macro_f1=macro_f1, labels=labels, report=report)


def check_output(spec: Spec, truth, outcome: Outcome) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    problems = []
    result = outcome.result
    if outcome.report is not None and outcome.report.m_best != spec.period:
        problems.append(f"sweep picked m={outcome.report.m_best}, planted period is {spec.period}")
    regimes = {
        int(np.bincount(truth.labels[s.start : s.start + s.length]).argmax())
        for s in result.snippets
    }
    if len(result.snippets) != NUM_SNIPPETS or len(regimes) != len(result.snippets):
        starts = [s.start for s in result.snippets]
        problems.append(f"snippets at {starts} do not fall in distinct regimes")
    num_windows = result.series_length - result.snippet_size + 1
    total = sum(s.frac for s in result.snippets) + result.unassigned_windows / num_windows
    if abs(total - 1.0) > 1e-9:
        problems.append(f"snippet fracs plus unassigned share sum to {total!r}, not 1")
    if outcome.labels.n != spec.n:
        problems.append(f"{outcome.labels.n} labels for {spec.n} points")
    return problems


def document(result) -> str:
    """A snippet result's JSON document, the bytes worker invariance is judged on."""
    return json.dumps(result.to_dict())


def solo_search(series, doc: str):
    """Repeat, in this one process, the snippet search that produced ``doc``."""
    fields = json.loads(doc)
    params = sniplab.MPdistParams(snippet_size=fields["m"], window_size=fields["l"])
    return sniplab.select_snippets(series, params, NUM_SNIPPETS)


def invariance_problems(doc: str, solo) -> list[str]:
    """Worker count must not change a byte of the winner's document."""
    if doc != document(solo):
        return [f"m={solo.snippet_size} output differs between worker processes and one process"]
    return []
