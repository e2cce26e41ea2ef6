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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import minimum_filter1d

from .series import TimeSeries, _freeze, compute_sliding_stats
from .zdist import neg_correlation_to_distance, neg_correlations
from .zdist import segment_distance_matrix  # noqa: F401  bench/layers.py wraps it by this name


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


def mpdist_profile(
    series: TimeSeries,
    segment_index: int,
    params: MPdistParams,
    stats=None,
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
    neg_rho = neg_correlations(series, stats, seg_start, width)
    series_side = neg_rho.min(axis=0)                    # nearest segment window per column
    if k == 1:
        best = _sliding_min_rows(series_side, width)
    else:
        # Both halves of the concatenated profile go into one buffer as
        # wide as the rows, so the row filter writes its output in place.
        # The filter centres its window (see _sliding_min_rows), so the
        # leading windows sit from column width // 2 on.
        merged = np.empty((2 * width, neg_rho.shape[1]))
        minimum_filter1d(neg_rho, size=width, axis=-1, mode="nearest", output=merged[:width])
        start = width // 2
        merged = merged[:, start : start + series.n - m + 1]
        merged[width:] = sliding_window_view(series_side, width).T
        if 2 * width > k:
            merged.partition(k - 1, axis=0)
            best = merged[k - 1]
        else:
            best = merged.max(axis=0)
    values = neg_correlation_to_distance(best, params.window_size)
    return MPdistProfile(segment_index=segment_index, values=values)
