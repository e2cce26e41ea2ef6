"""MPdist profiles of a segment against every window of the series.

MPdist between two equal-length sequences is the k-th smallest element
of the concatenated cross matrix-profile of their inner windows.  The
profile of a segment is assembled in one streaming pass over the
segment's rows: column minima give the series-side profile,
sliding-window minima along each row give the segment-side profiles of
every series window at once, and an order-statistic selection finishes
each position without sorting.

All of that selection runs on negated correlations (see
:mod:`sniplab.zdist`), not on distances.  The distance is a
non-increasing function of the correlation under IEEE rounding, so
minima and order statistics commute with it, and converting only the
``n - snippet_size + 1`` selected values gives the same bits as
converting every entry first.  For ``k = 1`` the k-th smallest is a
plain minimum: the smallest of each row's sliding minimum equals the
sliding minimum of the column minima, so the profile is that one
sliding window and the per-row filter, merge and partition are skipped.

A large segment can be split across threads by profile position, as
STUMPY's ``stumped`` splits a matrix profile (Law, JOSS 2019).  Each
part of the positions reads its columns plus the ``width - 1`` to their
right that its windows reach, and runs the row recurrence from
``width - 1`` columns to their left (clipped at column 0), starting
from the row-0 dot products the parts share.  Its ``-rho`` rows go
straight into the top half of its own merge buffer, its column minima
are taken there, and the row filter then runs in place.  Every entry
goes through the same float operations whatever the split, so the
profile does not change by a bit.  The column minima, the row filter
and the partition release the GIL for their whole call; the kernel is
a few short numpy calls per row, which take the GIL back between them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import minimum_filter1d

from .series import TimeSeries, _freeze, compute_sliding_stats
from .zdist import _sliding_dots, neg_correlation_to_distance, neg_correlations
from .zdist import segment_distance_matrix  # noqa: F401  bench/layers.py wraps it by this name

# Kernel entries (rows times columns) each thread's part of a segment
# must hold before the segment is split.  On two cores, two threads
# took 1.1 to 1.3 times as long as one at n = 5000 for m = 32 to 256
# (up to 629k entries a segment) and 1.6 times at n = 20000, m = 8
# (100k), but 0.65 to 0.9 times from 1.3M entries on (n = 10000,
# m = 256; n = 20000, m = 128 to 1024).
MIN_PART_ENTRIES = 1 << 19


def default_window_size(snippet_size: int) -> int:
    """Inner window length used when none is given: half the snippet, rounded up."""
    return max(1, math.ceil(snippet_size / 2))


def default_order_stat(snippet_size: int) -> int:
    """Order statistic used when none is given: 5% of twice the snippet size, at least 1."""
    return max(1, math.ceil(0.05 * 2 * snippet_size))


@dataclass(frozen=True)
class MPdistParams:
    """Parameters of the MPdist measure.

    Parameters
    ----------
    snippet_size : int
        Length of the compared sequences (segments and series windows).
    window_size : int, optional
        Inner window length; defaults to half the snippet size, rounded up.
    k : int, optional
        Which order statistic of the concatenated profile to report;
        defaults to 5% of ``2 * snippet_size``, at least 1.
    """

    snippet_size: int
    window_size: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.snippet_size < 2:
            raise ValueError(f"snippet size must be at least 2, got {self.snippet_size}")
        if self.window_size is None:
            object.__setattr__(self, "window_size", default_window_size(self.snippet_size))
        if self.k is None:
            object.__setattr__(self, "k", default_order_stat(self.snippet_size))
        if not 1 <= self.window_size <= self.snippet_size:
            raise ValueError(
                f"window size {self.window_size} out of range [1, {self.snippet_size}]"
            )
        if self.k < 1:
            raise ValueError(f"order statistic must be at least 1, got {self.k}")

    @property
    def profile_width(self) -> int:
        """Windows per side of the concatenated profile: snippet_size - window_size + 1."""
        return self.snippet_size - self.window_size + 1


@dataclass(frozen=True)
class MPdistProfile:
    """MPdist between one segment and every same-length window of the series."""

    segment_index: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"profile must be a non-empty vector, got shape {values.shape}")
        if values.min() < 0:
            raise ValueError(f"profile entries must be non-negative, min is {values.min()}")
        object.__setattr__(self, "values", _freeze(values))

    def __len__(self) -> int:
        return int(self.values.size)


def _sliding_min_rows(matrix: np.ndarray, window: int) -> np.ndarray:
    # Minimum of every length-``window`` span along the last axis.  The
    # filter centres its window; the offset realigns it to leading windows.
    filtered = minimum_filter1d(matrix, size=window, axis=-1, mode="nearest")
    start = window // 2
    return filtered[..., start : start + matrix.shape[-1] - window + 1]


def _column_parts(num_positions: int, entries: int, workers: int) -> list[tuple[int, int]]:
    # Contiguous ranges of profile positions, at most one per worker, each
    # with at least MIN_PART_ENTRIES of the segment's kernel entries.
    count = max(1, min(workers, num_positions, entries // MIN_PART_ENTRIES))
    bounds = [num_positions * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def mpdist_profile(
    series: TimeSeries,
    segment_index: int,
    params: MPdistParams,
    stats=None,
    workers: int = 1,
) -> MPdistProfile:
    """MPdist profile of one segment against every window of the series.

    Parameters
    ----------
    series : TimeSeries
    segment_index : int
        Zero-based index of the segment; segment ``i`` starts at
        ``i * params.snippet_size``.
    params : MPdistParams
    stats : SlidingStats, optional
        Sliding statistics for ``params.window_size``; computed on demand
        when omitted, passed in when profiling many segments.
    workers : int, optional
        Threads the profile positions are split across; a segment too
        small to split runs on the calling thread.  The values do not
        depend on it.

    Returns
    -------
    MPdistProfile
        ``n - snippet_size + 1`` values, all in [0, 2*sqrt(window_size)];
        the value at the segment's own window is exactly 0.
    """
    n = series.n
    m = params.snippet_size
    if m > n:
        raise ValueError(f"snippet size {m} exceeds series length {n}")
    num_segments = n // m
    if not 0 <= segment_index < num_segments:
        raise ValueError(
            f"segment index {segment_index} out of range [0, {num_segments})"
        )
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if stats is None:
        stats = compute_sliding_stats(series, params.window_size)
    elif stats.window_len != params.window_size:
        raise ValueError(
            f"stats were built for window length {stats.window_len}, "
            f"not {params.window_size}"
        )

    seg_start = segment_index * m
    width = params.profile_width
    k = params.k
    num_positions = n - m + 1
    parts = _column_parts(num_positions, width * (num_positions + width - 1), workers)
    # The buffers live until the profile is built.  Freed before the
    # profile's own arrays are allocated, they went back to the OS and
    # were faulted in again on the next segment: 916k minor page faults
    # against 14k, and 6.5 against 4.2 s, on discover-m8 (n = 20000).
    rows = width if k == 1 else 2 * width
    buffers = [np.empty((rows, hi - lo + width - 1)) for lo, hi in parts]
    row0_dots = _sliding_dots(series.values, seg_start, params.window_size)

    def profile_part(part: tuple[int, int], merged: np.ndarray) -> np.ndarray:
        # Positions [lo, hi) read the kernel columns [lo, hi + width - 1).
        # The -rho rows go into the top half of the buffer; the row filter
        # then runs in place there, and the sliding windows of the column
        # minima fill the bottom half, so each position's 2 * width
        # candidates share a column.
        lo, hi = part
        neg_rho = neg_correlations(
            series, stats, seg_start, width,
            columns=(lo, hi + width - 1), row0_dots=row0_dots, out=merged[:width],
        )
        series_side = neg_rho.min(axis=0)            # nearest segment window per column
        if k == 1:
            return _sliding_min_rows(series_side, width)
        # In place: the filter reads each batch of rows before writing it.
        minimum_filter1d(neg_rho, size=width, axis=-1, mode="nearest", output=neg_rho)
        # The filter centres its window (see _sliding_min_rows), so the
        # leading windows sit from column width // 2 on.
        start = width // 2
        merged = merged[:, start : start + hi - lo]
        merged[width:] = sliding_window_view(series_side, width).T
        if 2 * width > k:
            merged.partition(k - 1, axis=0)
            return merged[k - 1]
        return merged.max(axis=0)

    if len(parts) == 1:
        best = profile_part(parts[0], buffers[0])
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            best = np.concatenate(list(pool.map(profile_part, parts, buffers)))
    values = neg_correlation_to_distance(best, params.window_size)
    return MPdistProfile(segment_index=segment_index, values=values)
