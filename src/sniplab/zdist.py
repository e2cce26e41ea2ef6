"""Z-normalized Euclidean distance rows between a segment and the series.

The kernel computes, for the i-th length-``subseq_len`` window of a
segment, its Pearson correlation ``rho`` with every length-``subseq_len``
window of the series, from the sliding dot products plus the
precomputed window statistics.  Distances follow from the correlation
identity

    dist = sqrt(2 * subseq_len * (1 - rho))

The kernel stores ``-rho``, so the nearest window holds the smallest
entry.  Every consumer of a segment's rows (column minima, sliding
minima, order statistics) is order-based, and ``dist`` is a
non-increasing function of ``rho`` even after IEEE rounding (each step
of it rounds monotonically, and ``1 + (-rho) == 1 - rho`` exactly).
Minima, maxima and order statistics therefore commute with the map:
selecting on ``-rho`` and converting only the selected values with
:func:`neg_correlation_to_distance` gives bit-for-bit the distances
that selecting on converted rows would.  A direct route (explicitly
z-normalize both windows, take the Euclidean distance) is kept
selectable for cross-checking.

Constant (zero-variance) windows z-normalize to the all-zero vector:
two constant windows are at distance 0 (``rho = 1``), and a constant
window is at ``sqrt(subseq_len)`` from any non-constant one
(``rho = 0.5``, which maps to exactly that distance).  This keeps flat
idle stretches of a recording mutually similar instead of erroring out.
A window's own column gets ``rho = 1``, distance exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import SlidingStats, TimeSeries


@dataclass(frozen=True)
class DistanceRow:
    """One row of the segment-vs-series distance matrix.

    ``entries[j]`` is the distance between the row's query window and the
    series window starting at ``j``; the entry at the query's own
    position is exactly 0.
    """

    row_index: int
    entries: np.ndarray


def znorm_distance(a, b) -> float:
    """Euclidean distance between population-z-normalized copies of two windows.

    Reference implementation: no shared state, no incremental updates.

    Raises
    ------
    ValueError
        If the windows are empty or of different lengths.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("windows must be one-dimensional")
    if a.size != b.size:
        raise ValueError(f"window length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("windows must be non-empty")
    return float(np.linalg.norm(_znorm(a) - _znorm(b)))


def _znorm(x: np.ndarray) -> np.ndarray:
    # Constant means all samples equal; testing std against 0 would miss
    # that, since even a two-pass std leaves round-off residue.  The std
    # check on top catches windows whose spread underflows to nothing.
    std = x.std()
    if std == 0.0 or x.max() == x.min():
        return np.zeros_like(x)
    return (x - x.mean()) / std


def _sliding_dots(values: np.ndarray, query_start: int, subseq_len: int) -> np.ndarray:
    """Dot product of the query window against every series window."""
    windows = sliding_window_view(values, subseq_len)
    return windows @ values[query_start : query_start + subseq_len]


def _shifted_dots(values, prev_dots, query_start, subseq_len):
    """Advance a dot-product vector by one query position.

    ``prev_dots`` belongs to the query starting at ``query_start - 1``;
    each output column except the first is an O(1) update along the
    diagonal of the cross-product matrix.
    """
    n = values.size
    out = np.empty_like(prev_dots)
    out[0] = values[query_start : query_start + subseq_len] @ values[:subseq_len]
    out[1:] = (
        prev_dots[:-1]
        - values[query_start - 1] * values[: n - subseq_len]
        + values[query_start + subseq_len - 1] * values[subseq_len:]
    )
    return out


def neg_correlations(
    series: TimeSeries, stats: SlidingStats, first_query: int, num_rows: int
) -> np.ndarray:
    """Negated correlations of consecutive query windows against every series window.

    Row ``i`` holds ``-rho`` between the window starting at
    ``first_query + i`` and each series window, so smaller is nearer.
    Row 0 starts from a full sliding-dot-product pass; every later row
    reuses the previous row's dot products with an O(1) update per
    column.  That recurrence accumulates round-off, so a later row can
    differ in its last bits from the same query computed on its own
    (``num_rows=1``), more so on series with a large offset.

    ``rho`` is ``cov / sqrt(var_a * var_b)`` rather than
    ``cov / (std_a * std_b)``: when two windows have bit-equal content
    and the intermediate sums are exact, ``sqrt(v * v)`` recovers ``v``
    exactly under IEEE rounding, so equal windows land at ``rho = 1``
    no matter where in the series they sit.  The std product would
    leave a residue of order ``sqrt(eps)`` there.  Negation is exact, so
    each entry is bit-for-bit the negation of that ``rho``.

    The caller checks that the query windows lie inside the series.

    Returns
    -------
    ndarray of shape (num_rows, n - subseq_len + 1), entries in [-1, 1]
    """
    subseq_len = stats.window_len
    values = series.values
    means = stats.means
    variances = stats.variances
    constant = np.flatnonzero(variances == 0.0)
    out = np.empty((num_rows, values.size - subseq_len + 1))
    dots = _sliding_dots(values, first_query, subseq_len)
    scratch = np.empty_like(dots)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(num_rows):
            query = first_query + i
            if i:
                dots = _shifted_dots(values, dots, query, subseq_len)
            row = out[i]
            q_var = variances[query]
            if q_var == 0.0:
                row.fill(-0.5)
                row[constant] = -1.0
            else:
                # -cov = q_mean * means - dots / l, the exact negation of
                # dots / l - q_mean * means under round-to-nearest.
                np.multiply(means, means[query], out=row)
                np.divide(dots, subseq_len, out=scratch)
                np.subtract(row, scratch, out=row)
                np.multiply(variances, q_var, out=scratch)
                np.sqrt(scratch, out=scratch)
                np.divide(row, scratch, out=row)
                np.clip(row, -1.0, 1.0, out=row)
                row[constant] = -0.5
            row[query] = -1.0
    return out


def neg_correlation_to_distance(neg_rho, subseq_len: int) -> np.ndarray:
    """Distances ``sqrt(2 * subseq_len * (1 - rho))`` from negated correlations."""
    return np.sqrt(2.0 * subseq_len * (1.0 + neg_rho))


def _direct_row(values: np.ndarray, query_start: int, subseq_len: int) -> np.ndarray:
    """Distance row by explicit z-normalization, O(subseq_len) per entry."""
    windows = sliding_window_view(values, subseq_len)
    means = windows.mean(axis=1, keepdims=True)
    stds = windows.std(axis=1, keepdims=True)
    flat = windows.max(axis=1, keepdims=True) == windows.min(axis=1, keepdims=True)
    safe = np.where(flat, 1.0, stds)
    normalized = np.where(flat, 0.0, (windows - means) / safe)
    query = _znorm(values[query_start : query_start + subseq_len])
    return np.linalg.norm(normalized - query, axis=1)


def distance_row(
    series: TimeSeries,
    stats: SlidingStats,
    seg_start: int,
    row_offset: int,
    subseq_len: int,
    method: str = "sliding",
) -> DistanceRow:
    """Distances from one segment window to every series window.

    Parameters
    ----------
    series : TimeSeries
    stats : SlidingStats
        Must have been built with the same ``subseq_len``.
    seg_start : int
        Zero-based start of the segment in the series.
    row_offset : int
        Offset of the query window inside the segment.
    subseq_len : int
        Window length.
    method : {"sliding", "direct"}
        "sliding" evaluates the correlation identity from dot products;
        "direct" z-normalizes both windows explicitly.  Both agree to
        within 1e-6 and exist so either can check the other.

    Returns
    -------
    DistanceRow
        ``n - subseq_len + 1`` entries, all in [0, 2*sqrt(subseq_len)].
    """
    if stats.window_len != subseq_len:
        raise ValueError(
            f"stats were built for window length {stats.window_len}, not {subseq_len}"
        )
    n = series.n
    query_start = seg_start + row_offset
    if seg_start < 0 or row_offset < 0 or query_start + subseq_len > n:
        raise ValueError(
            f"query window [{query_start}, {query_start + subseq_len}) is outside "
            f"a series of length {n}"
        )
    if method == "sliding":
        neg_rho = neg_correlations(series, stats, query_start, 1)[0]
        entries = neg_correlation_to_distance(neg_rho, subseq_len)
    elif method == "direct":
        entries = _direct_row(series.values, query_start, subseq_len)
        entries[query_start] = 0.0
    else:
        raise ValueError(f"unknown method {method!r}, expected 'sliding' or 'direct'")
    return DistanceRow(row_index=row_offset, entries=entries)


def segment_distance_matrix(
    series: TimeSeries, stats: SlidingStats, seg_start: int, snippet_size: int
) -> np.ndarray:
    """All distance rows of one segment, stacked.

    The :func:`neg_correlations` rows of the segment's windows, each
    entry mapped to its distance.

    Returns
    -------
    ndarray of shape (snippet_size - subseq_len + 1, n - subseq_len + 1)
    """
    subseq_len = stats.window_len
    n = series.n
    if snippet_size < subseq_len:
        raise ValueError(
            f"snippet size {snippet_size} is smaller than window length {subseq_len}"
        )
    if seg_start < 0 or seg_start + snippet_size > n:
        raise ValueError(
            f"segment [{seg_start}, {seg_start + snippet_size}) is outside "
            f"a series of length {n}"
        )
    num_rows = snippet_size - subseq_len + 1
    return neg_correlation_to_distance(
        neg_correlations(series, stats, seg_start, num_rows), subseq_len
    )
