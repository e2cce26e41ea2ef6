"""Automatic choice of the snippet length.

A snippet search is run for every candidate length on a grid.  A length
is scored by how far apart the chosen snippets' profiles sit: the sum,
over unordered snippet pairs, of the L1 difference of their profiles,
normalized by the largest profile entry seen across all segments at
that length.  Well-separated profiles mean the snippets describe
genuinely different behaviors, so the highest score wins; ties go to
the smaller length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .mpdist import MPdistParams, _is_integer, default_window_size
from .scheduler import run_schedule
from .series import TimeSeries
from .snippets import SnippetResult


@dataclass(frozen=True)
class LengthCandidate:
    """One grid entry: the length, its separation score, and its area."""

    snippet_size: int
    score: float
    profile_area: float


@dataclass(frozen=True)
class LengthReport:
    """Outcome of a length sweep, ordered as the grid was."""

    m_best: int
    candidates: tuple[LengthCandidate, ...]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "m_best": self.m_best,
            "candidates": [
                {
                    "m": c.snippet_size,
                    "score": c.score,
                    "profile_area": c.profile_area,
                }
                for c in self.candidates
            ],
        }


def criterion_score(result: SnippetResult) -> float:
    """Inter-profile separation score of one snippet search.

    Parameters
    ----------
    result : SnippetResult
        Its ``profile_max``, the largest entry over all segments'
        profiles, is the normalizer.

    Returns
    -------
    float
        Sum over unordered snippet pairs of the L1 profile difference,
        divided by the largest entry over all segments' profiles.  Zero
        when the series is flat enough that every profile is
        identically zero.
    """
    if len(result.profiles) < 2:
        raise ValueError(
            f"separation needs at least 2 snippets, got {len(result.profiles)}"
        )
    normalizer = result.profile_max
    if normalizer == 0.0:
        return 0.0
    total = 0.0
    for a, b in combinations(result.profiles, 2):
        total += float(np.abs(a.values - b.values).sum())
    return total / normalizer


def make_grid(m_min: int, m_max: int, rule: str = "pow2", step: int | None = None) -> list[int]:
    """Candidate snippet lengths between ``m_min`` and ``m_max``.

    ``rule="pow2"`` doubles from ``m_min`` while staying within
    ``m_max``; ``rule="arith"`` steps by ``step`` (default 1).
    """
    if m_min < 2:
        raise ValueError(f"m_min must be at least 2, got {m_min}")
    if m_max < m_min:
        raise ValueError(f"m_max {m_max} smaller than m_min {m_min}")
    if rule == "pow2":
        grid = []
        m = m_min
        while m <= m_max:
            grid.append(m)
            m *= 2
        return grid
    if rule == "arith":
        if step is None:
            step = 1
        if step < 1:
            raise ValueError(f"step must be at least 1, got {step}")
        return list(range(m_min, m_max + 1, step))
    raise ValueError(f"unknown grid rule {rule!r}; expected 'pow2' or 'arith'")


def select_length(
    series: TimeSeries,
    grid,
    num_snippets: int,
    *,
    l_frac: float = 0.5,
    workers: int | None = None,
    training_log=None,
) -> tuple[LengthReport, dict[int, SnippetResult]]:
    """Run a snippet search per grid length and rank the lengths.

    Parameters
    ----------
    series : TimeSeries
    grid : sequence of int
        Candidate snippet lengths, checked by the scheduler (see
        :func:`~sniplab.scheduler.run_schedule`) before any search runs.
    num_snippets : int
        Snippets per search.
    l_frac : float, optional
        Inner window length as a fraction of each snippet length, in
        (0, 1]: length ``m`` gets ``default_window_size(m, l_frac)``.
    workers : int, optional
        Processes for the searches, the calling one included, which take
        the lengths from a work queue largest first; forwarded to the
        scheduler.
    training_log : path, optional
        Where the scheduler appends measured timings.

    Returns
    -------
    report : LengthReport
        Scores per length and the winner (ties toward the smaller one).
    results : dict
        The full search result per length, keyed by snippet length.
    """
    if _is_integer(num_snippets) and num_snippets < 2:  # run_schedule rejects non-integers
        raise ValueError(
            f"length selection needs at least 2 snippets per search, got {num_snippets}"
        )
    jobs = [MPdistParams(m, default_window_size(m, l_frac)) for m in grid]
    results = run_schedule(
        series, jobs, num_snippets, workers=workers, training_log=training_log
    )

    candidates = tuple(
        LengthCandidate(m, criterion_score(results[m]), results[m].profile_area)
        for m in (job.snippet_size for job in jobs)
    )
    best = max(candidates, key=lambda c: (c.score, -c.snippet_size))
    return LengthReport(m_best=best.snippet_size, candidates=candidates), results
