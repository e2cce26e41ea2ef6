"""Z-normalized Euclidean distance rows between a segment and the series.

The kernel computes, for the i-th length-``subseq_len`` window of a
segment, its Pearson correlation ``rho`` with every length-``subseq_len``
window of the series, from mean-centred cross products: the first row
and column, where every diagonal starts, by elementwise passes, every
other entry by SCAMP's O(1) diagonal update (Zimmerman et al., "Matrix
Profile XIV", SoCC 2019), over a series centred on its own mean, so an
offset as large as the samples allow costs no precision.  No BLAS call,
whose kernel varies by CPU, is on the path.  The module owns the window
statistics it reads (:class:`SlidingStats`, built once per search by
:func:`compute_sliding_stats`).  A kernel call takes a batch of
segments, one or more, and can resume the diagonals where one over the
columns before it left them.
Distances follow from the correlation identity

    dist = sqrt(2 * subseq_len * (1 - rho))

The kernel stores ``-rho``, so the nearest window holds the smallest
entry.  Every consumer of a segment's rows (column minima, sliding
minima, order statistics) is order-based, and ``dist`` is a
non-increasing function of ``rho`` even after IEEE rounding (the clip
to [-1, 1] and each later step round monotonically, and
``1 + (-rho) == 1 - rho`` exactly).  Minima, maxima and order
statistics therefore commute with the map: selecting on ``-rho`` and
converting only the selected values with
:func:`neg_correlation_to_distance` gives bit-for-bit the distances
that selecting on converted rows would.

Constant windows (all centred samples equal) z-normalize to the all-zero
vector: two constant windows are at distance 0 (``rho = 1``), and a
constant window is at ``sqrt(subseq_len)`` from any non-constant one
(``rho = 0.5``, which maps to exactly that distance).  This keeps flat
idle stretches of a recording mutually similar instead of erroring out.
A window's own column gets ``rho = 1``, distance exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TimeSeries, _freeze


@dataclass(frozen=True)
class SlidingStats:
    """The window statistics the correlation kernel reads.

    All are in the units of ``centred``, the series minus its overall
    mean and scaled by a power of two.  ``centred_means[i]`` and
    ``sumsq[i]`` (the sum of squared deviations) describe the window of
    ``window_len`` samples starting at position ``i``; there are
    ``n - window_len + 1`` windows.  A ``sumsq`` of exactly 0 identifies
    a constant window.  ``df`` and ``dg`` are SCAMP's update arrays (see
    :func:`compute_sliding_stats`).
    """

    window_len: int
    centred: np.ndarray
    centred_means: np.ndarray
    sumsq: np.ndarray
    df: np.ndarray
    dg: np.ndarray

    def __post_init__(self):
        for name in ("centred", "centred_means", "sumsq", "df", "dg"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _freeze(values))



def compute_sliding_stats(series: TimeSeries, window_len: int) -> SlidingStats:
    """Mean and sum of squared deviations of every sliding window, plus SCAMP's arrays.

    The series is centred on its overall mean first, so a large offset
    costs no precision, and scaled by the power of two ``p`` that puts
    ``window_len * p * p`` in [1, 4): a window's sum of squared
    deviations then lies within a factor of four of its variance, and
    the kernel's product of two of them stays in range for every series
    :class:`TimeSeries` accepts.  Scaling by a power of two is exact, so
    it changes no rounding.  Each window's mean and sum of squared
    deviations take two passes over the window offsets, each with O(n)
    scratch: O(n * window_len) in all, once per search.  A window
    counts as constant when its centred samples are all equal (found
    from integer counts of sample changes, not from the sums, whose
    round-off could leave a tiny residue), and gets a ``sumsq`` of
    exactly 0, since downstream distance conventions key on that exact
    zero.  Equal samples stay equal when centred, so every window whose
    samples are equal is constant; as with ``==``, -0.0 and 0.0 count as
    equal.

    The update arrays are SCAMP's (Zimmerman et al., SoCC 2019), over
    the centred series ``c`` and window means ``mu``:
    ``df[i] = (c[i + l - 1] - c[i - 1]) / 2`` and
    ``dg[i] = (c[i + l - 1] - mu[i]) + (c[i - 1] - mu[i - 1])``, 0 at
    ``i = 0``.  With them the centred cross product of windows ``i`` and
    ``j`` follows from that of ``i - 1`` and ``j - 1`` in O(1).

    Parameters
    ----------
    series : TimeSeries
    window_len : int
        Window length, between 1 and ``series.n``.

    Returns
    -------
    SlidingStats
        With ``n - window_len + 1`` entries.
    """
    n = series.n
    if not 1 <= window_len <= n:
        raise ValueError(f"window length {window_len} out of range [1, {n}]")
    count = n - window_len + 1
    centre = series.values.mean()
    scale = 2.0 ** -((window_len.bit_length() - 1) // 2)
    centred = (series.values - centre) * scale
    sums = centred[:count].copy()
    for k in range(1, window_len):
        sums += centred[k : k + count]
    centred_means = sums / window_len
    sumsq = np.zeros(count)
    deviations = sums  # the sums are no longer needed
    for k in range(window_len):
        np.subtract(centred[k : k + count], centred_means, out=deviations)
        np.multiply(deviations, deviations, out=deviations)
        sumsq += deviations

    # changes[i] counts the samples before position i that differ from
    # their successor; a window is constant when none changes inside it.
    changes = np.concatenate(([0], np.cumsum(centred[1:] != centred[:-1])))
    sumsq[changes[window_len - 1 :] == changes[:count]] = 0.0

    df = np.zeros(count)
    dg = np.zeros(count)
    df[1:] = (centred[window_len:] - centred[: count - 1]) / 2
    dg[1:] = (centred[window_len:] - centred_means[1:]) + (
        centred[: count - 1] - centred_means[:-1]
    )
    return SlidingStats(
        window_len=window_len,
        centred=centred,
        centred_means=centred_means,
        sumsq=sumsq,
        df=df,
        dg=dg,
    )


@dataclass(frozen=True)
class DistanceRow:
    """One row of the segment-vs-series distance matrix.

    ``entries[j]`` is the distance between the row's query window and the
    series window starting at ``j``; the entry at the query's own
    position is exactly 0.
    """

    entries: np.ndarray


def _check_stats(series: TimeSeries, stats: SlidingStats, window_len: int) -> None:
    """Raise ``ValueError`` unless ``stats`` are ``series``' for ``window_len``."""
    if stats.window_len != window_len:
        raise ValueError(
            f"stats were built for window length {stats.window_len}, not {window_len}"
        )
    if stats.centred.size != series.n:
        raise ValueError(
            f"stats were built from a series of length {stats.centred.size}, "
            f"not {series.n}"
        )


def _sliding_dots(
    stats: SlidingStats, queries, start: int, stop: int, out=None, scratch=None
) -> np.ndarray:
    """Centred cross products of query windows with series windows [start, stop).

    ``queries`` is a 1-D sequence of window starts.  Entry ``j - start``
    of query ``q``'s row is ``sum_k (c[q + k] - mu[q]) *
    (c[j + k] - mu[j])`` on the centred series ``c``, in ``window_len``
    elementwise passes, one per query sample, so an entry is the same
    bits whatever the range and whatever the other queries.  Both
    windows are centred on their own means before the product, so the
    result is as precise as the windows' spread, however far their means
    lie from 0.  It serves the kernel's row 0 and, with window 0 as the
    query, its column 0.

    Returns an array of shape ``(len(queries), stop - start)``, ``out``
    when given; ``scratch`` of that shape, when given, holds the terms.
    """
    subseq_len = stats.window_len
    values = stats.centred
    means = stats.centred_means[start:stop]
    queries = np.asarray(queries)
    samples = values[queries[:, None] + np.arange(subseq_len)]
    samples -= stats.centred_means[queries][:, None]
    samples = samples.T[..., None]  # pass k's (B, 1) column of query samples
    shape = (queries.size, stop - start)
    dots = np.empty(shape) if out is None else out
    term = np.empty(shape) if scratch is None else scratch
    deviation = np.empty(stop - start)  # shared by the queries of a pass
    for k in range(subseq_len):
        np.subtract(values[start + k : stop + k], means, out=deviation)
        np.multiply(deviation, samples[k], out=term if k else dots)
        if k:
            dots += term
    return dots


def neg_correlations(
    stats: SlidingStats,
    first_queries,
    num_rows: int,
    *,
    columns: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
):
    """Negated correlations of B segments' query windows against series windows, row by row.

    Yields ``num_rows`` arrays of shape ``(B, stop - start)``, B being
    ``len(first_queries)``, one segment or more.  Row ``b`` of the
    ``i``-th holds ``-rho`` between the window starting at
    ``first_queries[b] + i`` and each series window in ``columns``, so
    smaller is nearer.  Without ``out`` every yielded array is one
    buffer, overwritten by the next row, so a caller that folds the rows
    (into column minima, say) never holds them all; with ``out`` of
    shape ``(B, num_rows, stop - start)`` row ``i`` is written to and
    yielded as ``out[:, i]``.

    Row 0 and column 0 come from :func:`_sliding_dots`; every other
    entry follows from the one before it on its diagonal by SCAMP's
    mean-centred update (Zimmerman et al., SoCC 2019)

        cov[q, j] = cov[q - 1, j - 1] + df[q] * dg[j] + df[j] * dg[q]

    held negated in one buffer indexed by segment and diagonal and
    updated in place.  Every term is centred, so a large offset costs no
    precision.  The B segments go through the same elementwise float
    operations as 2-D arrays, so each segment's rows are the same bits
    as when it is computed alone (B = 1).  The update accumulates
    round-off along a diagonal, so a later row can differ in its last
    bits from the same query computed on its own (``num_rows=1``).

    Every diagonal starts in row 0 or column 0.  Column ranges stream
    the rows: the call from column 0 seeds every diagonal in ``work[0]``
    and each call advances those that reach its columns, so calls over
    ``[0, b)``, ``[b, c)`` and on, in order on one ``work``, compute each
    entry once, by the float operations of one call over all columns.

    ``-rho`` is ``-cov / sqrt(sumsq[j] * sumsq[q])`` rather than a product
    of inverse norms.  In row 0, a window bit-equal to the query has
    the same centred samples, so its cross product sums the same squares
    in the same order as both ``sumsq`` and equals them; ``sqrt(v * v)``
    recovers ``v`` under IEEE rounding, so it lands at exactly
    ``rho = 1``, where two inverse norms would leave a residue of an ulp
    or so.  Later rows carry the update's round-off.  Negation is exact,
    so each entry is bit-for-bit the negation of that ``rho``.  Entries
    are not clipped: round-off can take them a few ulps past [-1, 1],
    and :func:`neg_correlation_to_distance` clips.

    The caller checks that the query windows lie inside the series.

    Parameters
    ----------
    first_queries : 1-D sequence of int
        First query window of each segment.
    columns : (start, stop), optional
        Series windows to correlate against; all of them by default.
    out : ndarray, optional
        Where to write every row instead of the reused buffer.
    work : ndarray, optional
        The diagonals and the scratch, shape ``(2, B, n - window_len +
        num_rows)``; a caller that profiles batch after batch passes the
        same one each time, so no call maps fresh pages, and a stream's
        calls must.
    """
    sumsq, df, dg = stats.sumsq, stats.df, stats.dg
    first_queries = np.asarray(first_queries, dtype=np.intp)
    start, stop = (0, sumsq.size) if columns is None else columns
    width = stop - start
    col_sumsq = sumsq[start:stop]
    constant = np.flatnonzero(col_sumsq == 0.0)
    # Row i's query windows and their terms, as columns against the rows.
    queries = first_queries[:, None] + np.arange(num_rows)
    q_df, q_dg, q_sumsq = (v[queries][..., None] for v in (df, dg, sumsq))
    by_row = queries.T
    flat = (sumsq[by_row] == 0.0).any(axis=1).tolist()
    # Each row's own windows in the range, as (segment, column) pairs in
    # row order; row i's are pairs cuts[i] to cuts[i + 1].
    own_row, own_segment = np.nonzero((start <= by_row) & (by_row < stop))
    own_column = by_row[own_row, own_segment] - start
    cuts = np.searchsorted(own_row, np.arange(num_rows + 1)).tolist()
    # Diagonal j - i of row i sits at buffer[:, j - i + lead]: row 0
    # seeds it from column 0 on, and column 0 of rows 1 to lead seeds the
    # diagonals that start there, reversed, in buffer[:, :lead].
    lead = num_rows - 1
    if work is None:
        work = np.empty((2, first_queries.size, sumsq.size + lead))
    buffer, scratch = work
    if start == 0:
        seeded = buffer[:, lead : lead + sumsq.size]
        _sliding_dots(stats, first_queries, 0, sumsq.size, out=seeded, scratch=scratch[:, : sumsq.size])
        # A product with -1 is the same bits as a negation; numpy 2.4.6's
        # np.negative (x86-64) misreads arrays strided 8 float64 apart.
        np.multiply(seeded, -1.0, out=seeded)
        if lead:  # window 0's products with every segment's rows 1 to lead
            base = int(first_queries.min()) + 1
            column0 = _sliding_dots(stats, [0], base, int(first_queries.max()) + lead + 1)[0]
            np.multiply(column0[queries[:, lead:0:-1] - base], -1.0, out=buffer[:, :lead])
    lo = max(1, start)  # column 0 is seeded
    dgs, dfs = dg[lo:stop], df[lo:stop]
    # With out, rows go in blocks of up to 128 kB, each taking its update
    # products and its denominators (where its rows go) in four calls:
    # fewer numpy calls wait less for the GIL beside other threads.
    # Without out a block is a row, taken in the scratch it ends in.
    step = 1 if out is None else min(num_rows, max(1, (1 << 14) // out[:, 0].size))
    terms = None if out is None else np.empty((2, *out[:, :step, lo - start :].shape))
    for top in range(0, num_rows, step):
        end = min(top + step, num_rows)
        if out is not None:
            block = out[:, top:end]
            np.multiply(q_df[:, top:end], dgs, out=terms[0, :, : end - top])
            np.multiply(q_dg[:, top:end], dfs, out=terms[1, :, : end - top])
            np.multiply(q_sumsq[:, top:end], col_sumsq, out=block)
            np.sqrt(block, out=block)
        # No yield runs under errstate, so none suspends the generator
        # with the caller's numpy warnings silenced.
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(top, end):
                cov = buffer[:, lo - i + lead : stop - i + lead]
                if out is not None:
                    rows = block[:, i - top]
                    if i:
                        np.subtract(cov, terms[0, :, i - top], out=cov)
                        np.subtract(cov, terms[1, :, i - top], out=cov)
                else:
                    rows = scratch[:, :width]
                    if i:
                        term = scratch[:, : cov.shape[1]]
                        np.multiply(dgs, q_df[:, i], out=term)
                        np.subtract(cov, term, out=cov)
                        np.multiply(dfs, q_dg[:, i], out=term)
                        np.subtract(cov, term, out=cov)
                    np.multiply(col_sumsq, q_sumsq[:, i], out=rows)
                    np.sqrt(rows, out=rows)
                np.divide(buffer[:, start - i + lead : stop - i + lead], rows, out=rows)
        for i in range(top, end):
            rows = scratch[:, :width] if out is None else out[:, i]
            if constant.size:
                rows[:, constant] = -0.5
            if flat[i]:
                flat_rows = np.flatnonzero(sumsq[by_row[i]] == 0.0)
                rows[flat_rows] = -0.5
                rows[np.ix_(flat_rows, constant)] = -1.0
            if cuts[i] < cuts[i + 1]:
                own = slice(cuts[i], cuts[i + 1])
                rows[own_segment[own], own_column[own]] = -1.0
            yield rows


def neg_correlation_matrix(
    stats: SlidingStats,
    first_query: int,
    num_rows: int,
) -> np.ndarray:
    """The :func:`neg_correlations` rows of one segment, stacked.

    Returns
    -------
    ndarray of shape (num_rows, n - window_len + 1)
    """
    out = np.empty((1, num_rows, stats.sumsq.size))
    for _ in neg_correlations(stats, [first_query], num_rows, out=out):
        pass
    return out[0]


def neg_correlation_to_distance(neg_rho, subseq_len: int, out=None) -> np.ndarray:
    """Distances ``sqrt(2 * subseq_len * (1 - rho))`` from negated correlations.

    ``-rho`` is clipped to [-1, 1] first.  The clip is monotone, so it
    commutes with the minima and order statistics taken before it.
    ``out``, which may be ``neg_rho`` itself, receives the distances.
    """
    distances = np.clip(np.asarray(neg_rho, dtype=np.float64), -1.0, 1.0, out=out)
    distances += 1.0
    distances *= 2.0 * subseq_len
    return np.sqrt(distances, out=distances)


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
        Must have been built from ``series`` with the same ``subseq_len``.
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
    _check_stats(series, stats, subseq_len)
    n = series.n
    query_start = seg_start + row_offset
    if seg_start < 0 or row_offset < 0 or query_start + subseq_len > n:
        raise ValueError(
            f"query window [{query_start}, {query_start + subseq_len}) is outside "
            f"a series of length {n}"
        )
    neg_rho = neg_correlation_matrix(stats, query_start, 1)[0]
    entries = neg_correlation_to_distance(neg_rho, subseq_len)
    return DistanceRow(entries=entries)


def segment_distance_matrix(
    series: TimeSeries, stats: SlidingStats, seg_start: int, snippet_size: int
) -> np.ndarray:
    """All distance rows of one segment, stacked.

    The :func:`neg_correlation_matrix` of the segment's windows, each
    entry mapped to its distance.

    Returns
    -------
    ndarray of shape (snippet_size - subseq_len + 1, n - subseq_len + 1)
    """
    subseq_len = stats.window_len
    _check_stats(series, stats, subseq_len)
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
        neg_correlation_matrix(stats, seg_start, num_rows), subseq_len
    )
