"""Greedy snippet selection over a segmented series.

The series is cut into non-overlapping segments of the snippet length.
Each segment's MPdist profile says how well it represents every window
of the series; the pointwise minimum over a set of profiles is the
representativeness curve, and its sum (the profile area) is the greedy
objective.  Snippets are the segments that shrink the area fastest.
Every window is then attributed to its nearest segment, which gives
each snippet its neighbor set and coverage fraction.

All profiles together are n²/m entries, too many to hold in float64
for small m on a long series.  They are held as 8-bit codes cut from
each entry's float64 bits.  Every greedy round bounds each area from
below (round 1 by its exact area, later rounds from the codes) and
takes exact areas, from float64 rows that are held or recomputed, in
increasing bound order until a bound passes the smallest area so far,
so the result is still bit for bit the float64 greedy's.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .mpdist import MPdistParams, MPdistProfile, _batch_size, _KthProfiler, _min_profiles
from .mpdist import mpdist_profile
from .series import TimeSeries
from .zdist import compute_sliding_stats, neg_correlation_to_distance

WORKERS_ENV = "SNIPLAB_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """``workers`` if given, else ``SNIPLAB_WORKERS``, 1 when unset.

    Raises ``ValueError`` for a given count that is not an integer or is
    below 1, or naming the variable unless it is a positive integer.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
        return int(raw)
    if not isinstance(workers, (int, np.integer)):
        raise ValueError(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    return int(workers)


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


def _check_count(series: TimeSeries, snippet_size: int, num_snippets: int) -> int:
    """Number of segments a search at ``snippet_size`` cuts the series into.

    Segment ``i`` starts at ``i * snippet_size``; a trailing remainder
    shorter than the snippet size is not segmented (sliding windows
    still cover it).  Raises ``ValueError`` unless there are at least 2
    segments and ``num_snippets`` is between 1 and their number.
    """
    count = series.n // snippet_size
    if count < 2:
        raise ValueError(
            f"snippet size {snippet_size} leaves only {count} segment(s) of a "
            f"series of length {series.n}; need at least 2"
        )
    if not 1 <= num_snippets <= count:
        raise ValueError(
            f"snippet count {num_snippets} out of range [1, {count}] "
            f"for snippet size {snippet_size}"
        )
    return count


def segment_profiles(series: TimeSeries, params: MPdistParams) -> list[MPdistProfile]:
    """MPdist profile of every segment, sharing one statistics pass."""
    num_segments = _check_count(series, params.snippet_size, 1)
    stats = compute_sliding_stats(series, params.window_size)
    return [mpdist_profile(series, i, params, stats=stats) for i in range(num_segments)]


def _nearest_rows(labelled_rows) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the smallest entry of equal-length rows and the label of its row.

    ``labelled_rows`` yields ``(label, row)`` pairs, in order; a label is
    an integer, or an integer array with one label per column.  It may
    be any iterable, a generator included: each row is read once and
    need not be kept.  Ties go to the earlier row, as with ``argmin``
    over the stacked rows, but no stacked copy is made.
    """
    pairs = iter(labelled_rows)
    label, row = next(pairs)
    best = np.array(row, dtype=np.float64)
    nearest = np.empty(best.size, dtype=np.intp)
    nearest[...] = label
    for label, row in pairs:
        np.copyto(nearest, label, where=row < best)
        np.minimum(best, row, out=best)
    return best, nearest


def _batched_rows(stats, params: MPdistParams, first: int, stop: int, batch: int):
    """Profiles of segments ``[first, stop)`` at ``k <= 2``, as ``(index, distances)``.

    Each ``batch`` of profiles is computed and converted to distances
    in one reused array, so the next batch overwrites every yielded
    row; read each before asking for the next.  The rows are bit for bit
    :func:`~sniplab.mpdist.mpdist_profile`'s.
    """
    num_columns = stats.sumsq.size
    work = np.empty((3, min(batch, stop - first), num_columns + params.profile_width - 1))
    for lo in range(first, stop, batch):
        profiles = _min_profiles(stats, params, range(lo, min(lo + batch, stop)), work=work)
        distances = neg_correlation_to_distance(profiles, params.window_size, out=profiles)
        yield from enumerate(distances, lo)


def _kth_rows(profiler: _KthProfiler, params: MPdistParams, first: int, stop: int):
    """Profiles of segments ``[first, stop)`` at ``k > 2``, as ``(index, distances)``.

    They come from ``profiler``, on the calling thread.  Each row is the
    caller's to keep, bit for bit :func:`~sniplab.mpdist.mpdist_profile`'s.
    """
    for index, row in enumerate(profiler.profiles(range(first, stop)), first):
        yield index, neg_correlation_to_distance(row, params.window_size, out=row)


class _ProfileStore:
    """Every profile held as 8-bit codes, one byte per entry.

    An entry's code is its float64 bit pattern shifted right by 52 - 5
    bits (the exponent and 5 mantissa bits remain), minus an offset that
    puts ``2 * sqrt(l)``, the largest MPdist, in code 254, clamped to
    [0, 255].  ``lo[c]`` is code ``c``'s pattern with all lower bits
    zero, so ``lo[code(v)] <= v`` exactly for every finite ``v >= 0``,
    and ``v < lo[code(v) + 1]`` below code 255: 32 codes per octave.
    Code 0 has edge 0 and takes every entry below about ``2 * sqrt(l) /
    240``; code 255 has no upper limit.  The store holds no float64 row;
    ``lower_bounds`` decodes one segment at a time, into one float64 row
    plus the intp copy of its codes that ``np.take`` indexes with.
    """

    SHIFT = 52 - 5

    def __init__(self, num_segments, num_windows, top):
        self.offset = int(np.float64(top).view(np.int64) >> self.SHIFT) - 254
        edges = (np.arange(256, dtype=np.int64) + self.offset) << self.SHIFT
        self.lo = edges.view(np.float64)
        self.lo[0] = 0.0
        self.codes = np.empty((num_segments, num_windows), dtype=np.uint8)

    def keep(self, index: int, values: np.ndarray) -> None:
        levels = values.view(np.int64) >> self.SHIFT
        levels -= self.offset
        self.codes[index] = np.clip(levels, 0, 255, out=levels)

    def lower_bounds(self, curve: np.ndarray) -> np.ndarray:
        """A lower bound on every segment's float64 area under ``curve``.

        Each term ``t_j = min(lo[c_j], curve_j)`` is at most the exact
        greedy's ``e_j = min(v_j, curve_j)``: ``lo`` is exact and a
        minimum rounds nothing, so the real sums obey ``T <= E``.  Any
        order of summing N non-negative float64 terms is off by at most
        a relative ``γ ≈ (N - 1) * eps / 2``, so the float64 sum here is
        at most ``(1 + γ) / (1 - γ) ≈ 1 + (N - 1) * eps`` times the
        float64 area the exact greedy computes, whatever orders the two
        sums take.  Shrinking it by a relative ``(N + 8) * eps``, itself
        rounded by a relative ``eps``, leaves it at or below that area.
        """
        num_segments, num_windows = self.codes.shape
        row = np.empty(num_windows)
        lower = np.empty(num_segments)
        for i, codes in enumerate(self.codes):
            # Every code indexes lo, so "clip" clips nothing; unlike
            # "raise", it writes straight into row.
            np.take(self.lo, codes, out=row, mode="clip")
            lower[i] = np.minimum(row, curve, out=row).sum()
        return lower - (num_windows + 8) * np.finfo(np.float64).eps * lower


def select_snippets(
    series: TimeSeries,
    params: MPdistParams,
    num_snippets: int,
    *,
    profiles: list[MPdistProfile] | None = None,
    workers: int | None = None,
) -> SnippetResult:
    """Pick the ``num_snippets`` most representative segments.

    Greedy minimization: at each step the segment whose profile most
    reduces the current curve's area joins the chosen set (ties toward
    the lower segment index).  Every window is attributed to its nearest
    segment over all segments, again breaking ties toward the lower
    index, and the chosen snippets are ordered by descending coverage
    fraction.

    One streaming pass reads each segment's profile, from ``profiles``
    when given and else computed, once: it takes its exact round-1
    area, its largest entry and its share of the attribution, and keeps
    it as 8-bit codes (1 byte per entry instead of 8).  Every round
    takes exact areas in increasing (lower bound, index) order until a
    bound passes the smallest (area, index) so far; later rounds bound
    the areas from the codes.  The float64 rows those areas read are
    ``profiles`` when given; else the pass keeps them all when there
    are no more segments than ``params.profile_width`` (they then cost
    no more than profiling a single segment), and otherwise each is
    recomputed.  The picks, curve and attribution are bit for bit the
    float64 greedy's.

    Parameters
    ----------
    series : TimeSeries
    params : MPdistParams
    num_snippets : int
        Between 1 and the number of segments.
    profiles : list of MPdistProfile, optional
        Precomputed per-segment profiles, if the caller already has them;
        they are read in place.  A wrong count, an entry at position
        ``i`` that is not segment ``i``'s, a profile that is not
        ``n - snippet_size + 1`` long, or an entry at or above
        ``(1 + 2**-16) * 2 * sqrt(window_size)`` (no MPdist exceeds
        ``2 * sqrt(window_size)``) raises ``ValueError``.
    workers : int, optional
        Profiling threads; defaults to the ``SNIPLAB_WORKERS``
        environment variable, else 1.  The segments are split into one
        contiguous range per thread, at most one per segment, for every
        k: at ``k <= 2`` a thread profiles its range a batch of segments
        per kernel call, and at ``k > 2`` one segment after another
        through parts of at most ``PART_BYTES`` in one part buffer of
        its own (see :mod:`sniplab.mpdist`).  This thread's buffer
        serves the greedy rounds' recomputes too, and goes once the pass
        ends when the search keeps its rows.  The result does not depend
        on it; a count that is not an integer of at least 1 raises
        ``ValueError``.

    Returns
    -------
    SnippetResult
    """
    num_segments = _check_count(series, params.snippet_size, num_snippets)
    count = min(resolve_workers(workers), num_segments)  # contiguous ranges, one per thread
    num_windows = series.n - params.snippet_size + 1
    top = 2.0 * math.sqrt(params.window_size)  # the largest MPdist entry
    held = None  # the pass's float64 rows, when it keeps them for the greedy
    if profiles is not None:
        if len(profiles) != num_segments:
            raise ValueError(
                f"got {len(profiles)} profiles for {num_segments} segments"
            )
        cap = (1 + 2**-16) * top  # spares a caller's last-bit rounding
        for i, profile in enumerate(profiles):
            if profile.segment_index != i:
                raise ValueError(
                    f"profile at position {i} is for segment {profile.segment_index}"
                )
            if len(profile) != num_windows:
                raise ValueError(
                    f"profile {i} has length {len(profile)}, expected {num_windows}"
                )
            if profile.values.max() >= cap:
                raise ValueError(
                    f"profile {i} has an entry of {profile.values.max()!r}, at or "
                    f"above {cap!r}, beyond any MPdist of window size {params.window_size}"
                )

        def rows(first: int, stop: int):
            return ((i, profiles[i].values) for i in range(first, stop))

        fetch = profiles.__getitem__
    else:
        stats = compute_sliding_stats(series, params.window_size)
        if params.k <= 2:
            batch = _batch_size(stats.sumsq.size, num_segments)

            def rows(first: int, stop: int):
                return _batched_rows(stats, params, first, stop, batch)

            def fetch(index: int) -> MPdistProfile:
                return mpdist_profile(series, index, params, stats=stats)

        else:
            # This thread's profiler takes the first range and every row
            # the greedy recomputes; every other range's thread makes its own.
            profiler = _KthProfiler(stats, params)

            def rows(first: int, stop: int):
                mine = profiler if first == 0 else _KthProfiler(stats, params)
                return _kth_rows(mine, params, first, stop)

            def fetch(index: int) -> MPdistProfile:
                ((_, values),) = _kth_rows(profiler, params, index, index + 1)
                return MPdistProfile(segment_index=index, values=values)

        if num_segments <= params.profile_width:
            held = [None] * num_segments
            fetch = held.__getitem__

    store = _ProfileStore(num_segments, num_windows, top)
    lower = np.empty(num_segments)  # round 1's bounds are its exact areas
    maxima = np.empty(num_segments)

    def take(index: int, values: np.ndarray) -> tuple[int, np.ndarray]:
        # The pass reads each segment's profile once: its round-1 area,
        # its largest entry and its codes, a copy when the rows are
        # held, then its share of the nearest segments.
        lower[index] = values.sum()
        maxima[index] = values.max()
        store.keep(index, values)
        if held is not None:
            held[index] = MPdistProfile(segment_index=index, values=values)
        return index, values

    def profile_range(first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        with closing(rows(first, stop)) as pairs:
            return _nearest_rows(take(i, values) for i, values in pairs)

    # Each range, the first on this thread, writes its own entries of
    # lower, maxima, the codes and the held rows, and the ranges'
    # nearest segments merge in range order, ties to the lower range.
    # A pool with nothing to map starts no thread.
    bounds = [num_segments * i // count for i in range(count + 1)]
    with ThreadPoolExecutor(max_workers=max(1, count - 1)) as pool:
        rest = pool.map(profile_range, bounds[1:-1], bounds[2:])
        parts = [profile_range(0, bounds[1]), *rest]
    _, nearest = _nearest_rows((labels, best) for best, labels in parts)
    if held is not None:
        profiler = None  # with its rows held, the search needs no k > 2 part buffer

    # Every round takes exact areas in (bound, index) order and stops at
    # the first bound past the smallest (area, index) so far.  An
    # unscanned segment has (area, index) >= (bound, index) > that, so
    # the smallest measured is the float64 argmin.
    chosen: dict[int, MPdistProfile] = {}  # segment index -> profile, in pick order
    curve = np.full(num_windows, np.inf)
    scratch = np.empty(num_windows)
    for _ in range(num_snippets):
        if chosen:
            lower = store.lower_bounds(curve)
            lower[list(chosen)] = np.inf
        best_area, best_index = np.inf, num_segments
        for index in np.argsort(lower, kind="stable"):
            if (lower[index], index) > (best_area, best_index):
                break
            profile = fetch(int(index))
            area = np.minimum(profile.values, curve, out=scratch).sum()
            if (area, index) < (best_area, best_index):
                best, best_area, best_index = profile, area, index
        chosen[best.segment_index] = best
        np.minimum(curve, best.values, out=curve)

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
    ordered_profiles = tuple(chosen[s.index] for s in snippets)

    return SnippetResult(
        snippet_size=params.snippet_size,
        window_size=params.window_size,
        k=params.k,
        series_length=series.n,
        snippets=snippets,
        curve=curve,
        profile_area=float(curve.sum()),
        profiles=ordered_profiles,
        profile_max=float(maxima.max()),
        segment_window_counts=counts,
        unassigned_windows=int(num_windows - counts[list(chosen)].sum()),
    )


def export_curve_csv(result: SnippetResult, path) -> None:
    """Write the representativeness curve as one value per line."""
    np.savetxt(path, result.curve, fmt="%.17g")


def export_profiles_csv(result: SnippetResult, path) -> None:
    """Write the chosen snippets' profiles as columns, one header row."""
    np.savetxt(
        path,
        np.column_stack([p.values for p in result.profiles]),
        fmt="%.17g",
        delimiter=",",
        header=",".join(f"segment_{p.segment_index}" for p in result.profiles),
        comments="",
    )
