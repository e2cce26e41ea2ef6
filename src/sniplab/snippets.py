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

# Entries per block of the greedy step's temporaries (8 MB of float64).
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SegmentSet:
    """The non-overlapping length-``snippet_size`` segments of a series.

    Starts are zero-based; a trailing remainder shorter than the snippet
    size is not segmented (it is still covered by sliding windows).
    """

    snippet_size: int
    starts: np.ndarray

    @property
    def count(self) -> int:
        return int(self.starts.size)


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


def segment(series: TimeSeries, snippet_size: int) -> SegmentSet:
    """Cut the series into non-overlapping segments of ``snippet_size``.

    Requires at least two segments, so ``2 <= snippet_size <= n / 2``.
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
    starts = np.arange(count, dtype=np.int64) * snippet_size
    return SegmentSet(snippet_size=snippet_size, starts=starts)


def segment_profiles(
    series: TimeSeries, params: MPdistParams, stats=None
) -> list[MPdistProfile]:
    """MPdist profile of every segment, sharing one statistics pass."""
    segments = segment(series, params.snippet_size)
    if stats is None:
        stats = compute_sliding_stats(series, params.window_size)
    return [
        mpdist_profile(series, i, params, stats=stats) for i in range(segments.count)
    ]


def representativeness_curve(profiles) -> np.ndarray:
    """Pointwise minimum over a non-empty set of equal-length profiles."""
    arrays = [
        np.asarray(p.values if isinstance(p, MPdistProfile) else p, dtype=np.float64)
        for p in profiles
    ]
    if not arrays:
        raise ValueError("profile subset must be non-empty")
    length = arrays[0].size
    for i, a in enumerate(arrays):
        if a.size != length:
            raise ValueError(f"profile {i} has length {a.size}, expected {length}")
    return np.minimum.reduce(arrays)


def profile_area(curve) -> float:
    """Sum of a representativeness curve; the greedy selection objective."""
    curve = np.asarray(curve, dtype=np.float64)
    if curve.size == 0:
        raise ValueError("curve must be non-empty")
    return float(curve.sum())


def select_snippets(
    series: TimeSeries,
    params: MPdistParams,
    num_snippets: int,
    *,
    profiles: list[MPdistProfile] | None = None,
    stats=None,
) -> SnippetResult:
    """Pick the ``num_snippets`` most representative segments.

    Greedy minimization: at each step the segment whose profile most
    reduces the current curve's area joins the chosen set (ties toward
    the lower segment index).  Afterwards every window is attributed to
    its nearest segment over all segments, again breaking ties toward
    the lower index, and the chosen snippets are ordered by descending
    coverage fraction.

    Parameters
    ----------
    series : TimeSeries
    params : MPdistParams
    num_snippets : int
        Between 1 and the number of segments.
    profiles : list of MPdistProfile, optional
        Precomputed per-segment profiles, if the caller already has them.
    stats : SlidingStats, optional
        Forwarded to the profile computation.

    Returns
    -------
    SnippetResult
    """
    segments = segment(series, params.snippet_size)
    if not 1 <= num_snippets <= segments.count:
        raise ValueError(
            f"snippet count {num_snippets} out of range [1, {segments.count}]"
        )
    if profiles is None:
        profiles = segment_profiles(series, params, stats=stats)
    if len(profiles) != segments.count:
        raise ValueError(
            f"got {len(profiles)} profiles for {segments.count} segments"
        )

    distances = np.vstack([p.values for p in profiles])
    num_windows = distances.shape[1]
    # Whole-matrix temporaries would double the peak memory, so the
    # greedy areas and the nearest-segment pass work in blocks.
    block_rows = max(1, _BLOCK_ENTRIES // num_windows)
    block_cols = max(1, _BLOCK_ENTRIES // segments.count)
    clipped = np.empty((min(block_rows, segments.count), num_windows))

    chosen: list[int] = []
    available = np.ones(segments.count, dtype=bool)
    curve = np.full(num_windows, np.inf)
    areas = np.empty(segments.count)
    for _ in range(num_snippets):
        for lo in range(0, segments.count, block_rows):
            block = distances[lo : lo + block_rows]
            buf = clipped[: block.shape[0]]
            np.minimum(block, curve, out=buf)
            buf.sum(axis=1, out=areas[lo : lo + block.shape[0]])
        areas[~available] = np.inf
        best = int(np.argmin(areas))  # first occurrence: lowest index wins ties
        chosen.append(best)
        available[best] = False
        curve = np.minimum(curve, distances[best])

    nearest = np.empty(num_windows, dtype=np.intp)
    for lo in range(0, num_windows, block_cols):
        # ties toward the lower segment index
        nearest[lo : lo + block_cols] = np.argmin(distances[:, lo : lo + block_cols], axis=0)
    counts = np.bincount(nearest, minlength=segments.count)
    window_starts = np.arange(num_windows, dtype=np.int64)

    snippets = []
    for index in chosen:
        neighbors = window_starts[nearest == index]
        snippets.append(
            Snippet(
                index=index,
                start=int(segments.starts[index]),
                length=params.snippet_size,
                frac=counts[index] / num_windows,
                neighbors=neighbors,
            )
        )
    order = sorted(range(len(snippets)), key=lambda i: (-snippets[i].frac, snippets[i].index))
    snippets = tuple(snippets[i] for i in order)
    ordered_profiles = tuple(profiles[s.index] for s in snippets)

    return SnippetResult(
        snippet_size=params.snippet_size,
        window_size=params.window_size,
        k=params.k,
        series_length=series.n,
        snippets=snippets,
        curve=curve,
        profile_area=profile_area(curve),
        profiles=ordered_profiles,
        profile_max=float(distances.max()),
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
