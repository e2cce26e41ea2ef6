"""Greedy snippet selection over a segmented series.

The series is cut into non-overlapping segments of the snippet length.
Each segment's MPdist profile says how well it represents every window
of the series; the pointwise minimum over a set of profiles is the
representativeness curve, and its sum (the profile area) is the greedy
objective.  Snippets are the segments that shrink the area fastest.
Every window is then attributed to its nearest segment, which gives
each snippet its neighbor set and coverage fraction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mpdist import MPdistParams, MPdistProfile, mpdist_profile
from .series import TimeSeries, compute_sliding_stats


@dataclass(frozen=True)
class Snippet:
    """A chosen segment with its coverage attribution.

    ``neighbors`` lists the zero-based starts of the windows whose
    nearest segment this snippet is; ``frac`` is their share of all
    windows.
    """

    index: int
    start: int
    length: int
    frac: float
    neighbors: np.ndarray


@dataclass(frozen=True)
class SnippetResult:
    """Output of one snippet search.

    ``snippets`` are ordered by descending ``frac`` (ties toward the
    lower segment index) and ``profiles`` is aligned with them.
    ``segment_window_counts`` records, for every segment (chosen or
    not), how many windows consider it nearest, so the counts always sum
    to the number of windows; ``unassigned_windows`` is the share of
    windows whose nearest segment was not picked as a snippet.
    ``profile_max`` is the largest entry across all segments' profiles,
    kept for the length-selection criterion's normalizer.
    """

    snippet_size: int
    window_size: int
    k: int
    series_length: int
    snippets: tuple[Snippet, ...]
    curve: np.ndarray
    profile_area: float
    profiles: tuple[MPdistProfile, ...]
    profile_max: float
    segment_window_counts: np.ndarray
    unassigned_windows: int

    def to_dict(self) -> dict:
        """Versioned JSON-ready document."""
        return {
            "schema": 1,
            "m": self.snippet_size,
            "l": self.window_size,
            "k": self.k,
            "snippets": [
                {
                    "index": s.index,
                    "start": s.start,
                    "frac": s.frac,
                    "neighbor_count": int(s.neighbors.size),
                }
                for s in self.snippets
            ],
            "profile_area": self.profile_area,
        }


def segment_count(series: TimeSeries, snippet_size: int) -> int:
    """Number of non-overlapping segments of ``snippet_size`` in the series.

    Segment ``i`` starts at ``i * snippet_size``.  A trailing remainder
    shorter than the snippet size is not segmented (it is still covered
    by sliding windows).  Requires at least two segments, so
    ``2 <= snippet_size <= n / 2``.
    """
    n = series.n
    if snippet_size < 2:
        raise ValueError(f"snippet size must be at least 2, got {snippet_size}")
    count = n // snippet_size
    if count < 2:
        raise ValueError(
            f"snippet size {snippet_size} leaves only {count} segment(s) of a "
            f"series of length {n}; need at least 2"
        )
    return count


def segment_profiles(series: TimeSeries, params: MPdistParams) -> list[MPdistProfile]:
    """MPdist profile of every segment, sharing one statistics pass."""
    num_segments = segment_count(series, params.snippet_size)
    stats = compute_sliding_stats(series, params.window_size)
    return [mpdist_profile(series, i, params, stats=stats) for i in range(num_segments)]


def _nearest_rows(rows) -> np.ndarray:
    """Per column, the position of the smallest of equal-length ``rows``.

    Ties go to the lower position, as with ``argmin`` over the stacked
    rows, but no stacked copy is made.
    """
    best = np.array(rows[0], dtype=np.float64)
    nearest = np.zeros(best.size, dtype=np.intp)
    for position in range(1, len(rows)):
        np.copyto(nearest, position, where=rows[position] < best)
        np.minimum(best, rows[position], out=best)
    return nearest


def select_snippets(
    series: TimeSeries,
    params: MPdistParams,
    num_snippets: int,
    *,
    profiles: list[MPdistProfile] | None = None,
) -> SnippetResult:
    """Pick the ``num_snippets`` most representative segments.

    Greedy minimization: at each step the segment whose profile most
    reduces the current curve's area joins the chosen set (ties toward
    the lower segment index).  Afterwards every window is attributed to
    its nearest segment over all segments, again breaking ties toward
    the lower index, and the chosen snippets are ordered by descending
    coverage fraction.  Both passes read the profiles in place; no
    stacked copy of them is made.

    Parameters
    ----------
    series : TimeSeries
    params : MPdistParams
    num_snippets : int
        Between 1 and the number of segments.
    profiles : list of MPdistProfile, optional
        Precomputed per-segment profiles, if the caller already has them.
        A wrong count, or a profile that is not ``n - snippet_size + 1``
        long, raises ``ValueError``.

    Returns
    -------
    SnippetResult
    """
    num_segments = segment_count(series, params.snippet_size)
    if not 1 <= num_snippets <= num_segments:
        raise ValueError(
            f"snippet count {num_snippets} out of range [1, {num_segments}]"
        )
    if profiles is None:
        profiles = segment_profiles(series, params)
    if len(profiles) != num_segments:
        raise ValueError(
            f"got {len(profiles)} profiles for {num_segments} segments"
        )
    num_windows = series.n - params.snippet_size + 1
    rows = [p.values for p in profiles]
    for i, row in enumerate(rows):
        if row.size != num_windows:
            raise ValueError(f"profile {i} has length {row.size}, expected {num_windows}")

    chosen: list[int] = []
    curve = np.full(num_windows, np.inf)
    scratch = np.empty(num_windows)
    areas = np.empty(num_segments)
    for _ in range(num_snippets):
        for i, row in enumerate(rows):
            areas[i] = np.minimum(row, curve, out=scratch).sum()
        areas[chosen] = np.inf
        best = int(np.argmin(areas))  # first occurrence: lowest index wins ties
        chosen.append(best)
        curve = np.minimum(curve, rows[best])

    nearest = _nearest_rows(rows)
    counts = np.bincount(nearest, minlength=num_segments)
    snippets = [
        Snippet(
            index=index,
            start=index * params.snippet_size,
            length=params.snippet_size,
            frac=counts[index] / num_windows,
            neighbors=np.flatnonzero(nearest == index),
        )
        for index in chosen
    ]
    snippets = tuple(sorted(snippets, key=lambda s: (-s.frac, s.index)))
    ordered_profiles = tuple(profiles[s.index] for s in snippets)

    return SnippetResult(
        snippet_size=params.snippet_size,
        window_size=params.window_size,
        k=params.k,
        series_length=series.n,
        snippets=snippets,
        curve=curve,
        profile_area=float(curve.sum()),
        profiles=ordered_profiles,
        profile_max=max(float(row.max()) for row in rows),
        segment_window_counts=counts,
        unassigned_windows=int(num_windows - counts[chosen].sum()),
    )


def export_curve_csv(result: SnippetResult, path) -> None:
    """Write the representativeness curve as one value per line."""
    np.savetxt(path, result.curve, fmt="%.17g")


def export_profiles_csv(result: SnippetResult, path) -> None:
    """Write the chosen snippets' profiles as columns, one header row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"segment_{p.segment_index}" for p in result.profiles])
        for row in np.column_stack([p.values for p in result.profiles]):
            writer.writerow([f"{v:.17g}" for v in row])
