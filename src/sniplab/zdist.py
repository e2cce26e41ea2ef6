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
that selecting on converted rows would.

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


def _sliding_dots(values: np.ndarray, query_start: int, subseq_len: int) -> np.ndarray:
    """Dot product of the query window against every series window."""
    windows = sliding_window_view(values, subseq_len)
    return windows @ values[query_start : query_start + subseq_len]


def _shifted_dots(values, prev_dots, query_start, subseq_len, stop):
    """Advance a dot-product vector by one query position.

    ``prev_dots`` belongs to the query starting at ``query_start - 1``
    and holds the columns up to ``stop``.  Each output column is an O(1)
    update along the diagonal of the cross-product matrix from the
    column before it in ``prev_dots``, except column 0, which is a
    direct dot product.  Past column 0 the first column has no
    predecessor, so the output starts one column later.
    """
    first_column = stop - prev_dots.size
    lead = int(first_column == 0)
    out = np.empty(prev_dots.size - 1 + lead)
    if lead:
        out[0] = values[query_start : query_start + subseq_len] @ values[:subseq_len]
    out[lead:] = (
        prev_dots[:-1]
        - values[query_start - 1] * values[first_column : stop - 1]
        + values[query_start + subseq_len - 1]
        * values[first_column + subseq_len : stop - 1 + subseq_len]
    )
    return out


def neg_correlations(
    series: TimeSeries,
    stats: SlidingStats,
    first_query: int,
    num_rows: int,
    *,
    columns: tuple[int, int] | None = None,
    row0_dots: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Negated correlations of consecutive query windows against series windows.

    Row ``i`` holds ``-rho`` between the window starting at
    ``first_query + i`` and each series window in ``columns``, so
    smaller is nearer.  Row 0 starts from a full sliding-dot-product
    pass; every later row reuses the previous row's dot products with an
    O(1) update per column.  That recurrence accumulates round-off, so a
    later row can differ in its last bits from the same query computed
    on its own (``num_rows=1``), more so on series with a large offset.

    A column range ``[start, stop)`` runs the recurrence from column
    ``start - (num_rows - 1)`` (at least 0), and each later row starts
    one column further right unless it starts at column 0, so the last
    row starts at ``start`` or 0.  Row ``i`` reaches column ``j`` along
    the diagonal from column ``j - i`` of row 0, so every entry in the
    range takes the same float operations as when all columns are
    computed, and the rows are the same bits as that matrix's columns
    ``start`` to ``stop``.

    ``rho`` is ``cov / sqrt(var_a * var_b)`` rather than
    ``cov / (std_a * std_b)``: when two windows have bit-equal content
    and the intermediate sums are exact, ``sqrt(v * v)`` recovers ``v``
    exactly under IEEE rounding, so equal windows land at ``rho = 1``
    no matter where in the series they sit.  The std product would
    leave a residue of order ``sqrt(eps)`` there.  Negation is exact, so
    each entry is bit-for-bit the negation of that ``rho``.

    The caller checks that the query windows lie inside the series.

    Parameters
    ----------
    columns : (start, stop), optional
        Series windows to correlate against; all of them by default.
    row0_dots : ndarray, optional
        Dot products of the first query window against every series
        window, as :func:`_sliding_dots` gives them; computed when
        omitted, passed in when several column ranges share them.
    out : ndarray of shape (num_rows, stop - start), optional
        Where to write the rows.

    Returns
    -------
    ndarray of shape (num_rows, stop - start), entries in [-1, 1]
    """
    subseq_len = stats.window_len
    values = series.values
    start, stop = (0, values.size - subseq_len + 1) if columns is None else columns
    halo = max(0, start - (num_rows - 1))
    means = stats.means[start:stop]
    variances = stats.variances[start:stop]
    constant = np.flatnonzero(variances == 0.0)
    if out is None:
        out = np.empty((num_rows, stop - start))
    if row0_dots is None:
        row0_dots = _sliding_dots(values, first_query, subseq_len)
    dots = row0_dots[halo:stop]
    scratch = np.empty(stop - start)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(num_rows):
            query = first_query + i
            if i:
                dots = _shifted_dots(values, dots, query, subseq_len, stop)
            row = out[i]
            q_var = stats.variances[query]
            if q_var == 0.0:
                row.fill(-0.5)
                row[constant] = -1.0
            else:
                # -cov = q_mean * means - dots / l, the exact negation of
                # dots / l - q_mean * means under round-to-nearest.
                np.multiply(means, stats.means[query], out=row)
                np.divide(dots[start - stop :], subseq_len, out=scratch)
                np.subtract(row, scratch, out=row)
                np.multiply(variances, q_var, out=scratch)
                np.sqrt(scratch, out=scratch)
                np.divide(row, scratch, out=row)
                np.clip(row, -1.0, 1.0, out=row)
                row[constant] = -0.5
            if start <= query < stop:
                row[query - start] = -1.0
    return out


def neg_correlation_to_distance(neg_rho, subseq_len: int) -> np.ndarray:
    """Distances ``sqrt(2 * subseq_len * (1 - rho))`` from negated correlations."""
    return np.sqrt(2.0 * subseq_len * (1.0 + neg_rho))


def distance_row(
    series: TimeSeries,
    stats: SlidingStats,
    seg_start: int,
    row_offset: int,
    subseq_len: int,
) -> DistanceRow:
    """Distances from one segment window to every series window.

    One :func:`neg_correlations` row, converted to distances.

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
    neg_rho = neg_correlations(series, stats, query_start, 1)[0]
    entries = neg_correlation_to_distance(neg_rho, subseq_len)
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
