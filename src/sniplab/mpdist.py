"""MPdist profiles of a segment against every window of the series.

MPdist between two equal-length sequences is the k-th smallest element
of the concatenated cross matrix-profile of their inner windows.  The
profile of a segment is assembled in one streaming pass over the
segment's rows: column minima give the series-side profile,
sliding-window minima along each row give the segment-side profiles of
every series window at once, and an order-statistic selection finishes
each position without sorting.  The sliding minima take
``ceil(log2(width))`` passes of ``np.minimum`` by doubling (see
:func:`_sliding_min_rows`); the module needs nothing beyond numpy.

All of that selection runs on negated correlations (see
:mod:`sniplab.zdist`), not on distances, and unclipped: the clip to
[-1, 1] and the distance are both monotone in the correlation under
IEEE rounding, so minima and order statistics commute with them, and
converting only the ``n - snippet_size + 1`` selected values gives the
same bits as converting every entry first.  For ``k <= 2`` the k-th
smallest is a plain minimum: the smallest entry of a position's block
is the minimum of its row and of its column there, so it is both a
segment-side and a series-side candidate, and the two smallest
candidates are equal.  It is the sliding minimum of the column minima,
so the profile is that one sliding window and the per-row filter, merge
and partition are skipped.

A large segment can be split across threads by profile position, as
STUMPY's ``stumped`` splits a matrix profile (Law, JOSS 2019).  Each
part of the positions reads its columns plus the ``width - 1`` to their
right that its windows reach, and runs the diagonal update from
``width - 1`` columns to their left (clipped at column 0), from its
own row-0 cross products over just the columns it reads; the parts
share nothing but the window statistics.  Its ``-rho`` rows go
straight into its own ``width``-row buffer, its column minima are taken
there, and the row filter then runs in place.  Every entry goes through
the same float operations whatever the split, so the profile does not
change by a bit.

For ``k > 1`` each part selects in tiles of positions: it copies a
tile's columns of the filtered rows (transposed) and its sliding
windows of the column minima into the rows of one reused C-ordered
block, and partitions the block along its rows.  Each tile's
candidates are contiguous and the tile stays in cache.  An order
statistic is one of the candidates, so the tiling changes no value.

The column minima release the GIL for their whole call; the kernel,
the row filter and the selection are a few numpy calls per row, block
of rows or tile, which release it while they run and take it back
between them.

A segment too small to split is profiled on one thread.  At ``k <= 2``
a search profiles such segments several at a time instead
(:func:`_min_profiles`): the kernel runs over B segments' rows as 2-D
arrays, about ``_BLOCK_BYTES`` a row, and folds each row into the
column minima as it comes.  One segment's numpy calls last 7 to 15 µs
at n = 20,000, too short for threads to overlap between GIL hand-offs;
B segments' calls last B times as long, so threads that each take a
range of segments pay off (see :func:`~sniplab.snippets.select_snippets`),
and on one thread the batches cut the per-call overhead.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries, _freeze
from .zdist import _check_stats, compute_sliding_stats
from .zdist import neg_correlation_matrix, neg_correlation_to_distance, neg_correlations
from .zdist import segment_distance_matrix  # noqa: F401  bench/layers.py wraps it by this name

# Kernel entries (rows times columns) each thread's part of a segment
# must hold before the segment is split.  On two cores, two threads
# took 1.1 to 1.3 times as long as one at n = 5000 for m = 32 to 256
# (up to 629k entries a segment) and 1.6 times at n = 20000, m = 8
# (100k), but 0.65 to 0.9 times from 1.3M entries on (n = 10000,
# m = 256; n = 20000, m = 128 to 1024).  A smaller segment stays whole;
# at k <= 2 a search's threads take such segments by the range instead,
# a batch of them per kernel call, and one thread takes them all.
MIN_PART_ENTRIES = 1 << 19

# Bytes of rows the sliding minimum takes through all its passes at a
# time.  Two such blocks fit in a 2 MiB L2 cache; at 513 rows of 20000
# columns, 4-row blocks took 40 ms against 80 ms for 16-row blocks and
# 158 ms for scipy's minimum_filter1d.
_BLOCK_BYTES = 1 << 19


def default_window_size(snippet_size: int, l_frac: float = 0.5) -> int:
    """Inner window length: the snippet's ``l_frac``, in (0, 1], rounded up, at least 1."""
    if not 0.0 < l_frac <= 1.0:
        raise ValueError(f"l_frac must be in (0, 1], got {l_frac}")
    return max(1, min(snippet_size, math.ceil(snippet_size * l_frac)))


@dataclass(frozen=True)
class MPdistParams:
    """Parameters of the MPdist measure, each a Python or numpy integer kept as ``int``.

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
        for name in ("snippet_size", "window_size", "k"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer, type(None))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, None if value is None else int(value))
        if self.snippet_size < 2:
            raise ValueError(f"snippet size must be at least 2, got {self.snippet_size}")
        if self.window_size is None:
            object.__setattr__(self, "window_size", default_window_size(self.snippet_size))
        if self.k is None:
            object.__setattr__(self, "k", max(1, math.ceil(0.05 * 2 * self.snippet_size)))
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
        bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
        if bad.size:
            raise ValueError(f"profile entry {bad[0]} is {values[bad[0]]}, not finite and >= 0")
        object.__setattr__(self, "values", _freeze(values))

    def __len__(self) -> int:
        return int(self.values.size)


def _sliding_min_rows(matrix: np.ndarray, window: int, scratch=None) -> np.ndarray:
    """Minimum of every length-``window`` span along the last axis, in place.

    Doubling: after a pass each entry is the minimum of the ``span``
    entries from it on, and the next pass takes the minimum of two
    overlapping spans, so ``ceil(log2(window))`` passes of
    ``np.minimum`` over shifted views reach any width.  The rows go in
    blocks of about ``_BLOCK_BYTES`` through every pass, alternating
    between ``matrix`` and one scratch block, so each pass reads what
    the last one wrote while it is still in cache.  The minimum is
    exact, so the order of the comparisons changes no value.

    ``matrix`` is 1-D or 2-D and is overwritten.  Returns its leading
    ``matrix.shape[-1] - window + 1`` columns, which hold the minima.
    ``scratch``, when given, is a 2-D array at least as large as the
    scratch block.
    """
    length = matrix.shape[-1]
    rows = matrix.reshape(-1, length)
    block = max(1, _BLOCK_BYTES // (8 * length))
    if scratch is None:
        scratch = np.empty((min(block, rows.shape[0]), length))
    scratch = scratch[: min(block, rows.shape[0]), :length]
    for top in range(0, rows.shape[0], block):
        target = source = rows[top : top + block]
        dest = spare = scratch[: source.shape[0]]
        span = 1
        while span < window:
            step = min(span, window - span)
            size = length - span - step + 1
            np.minimum(source[:, :size], source[:, step : step + size], out=dest[:, :size])
            source, dest = dest, source
            span += step
        # An odd pass count leaves the minima in the scratch block.
        if source is spare:
            target[:, : length - window + 1] = source[:, : length - window + 1]
    return matrix[..., : length - window + 1]


def _column_parts(num_positions: int, entries: int, workers: int) -> list[tuple[int, int]]:
    # Contiguous ranges of profile positions, at most one per worker, each
    # with at least MIN_PART_ENTRIES of the segment's kernel entries.
    count = max(1, min(workers, num_positions, entries // MIN_PART_ENTRIES))
    bounds = [num_positions * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _batch_size(num_columns: int, num_segments: int) -> int:
    """Segments one :func:`_min_profiles` call profiles in a search's pass.

    Their kernel rows over ``num_columns`` columns fill about
    ``_BLOCK_BYTES`` (3 segments at n = 20,000), so each numpy call runs
    long enough for other threads to use the GIL meanwhile, and its
    call overhead is spread over more entries.  A batch takes at most a
    64th of the ``num_segments``: a thread's workspace of three float64
    rows a segment then stays within 3/8 of the one-byte codes the
    search keeps (at n = 4,000, 16 segments a batch would hold 1.5 MB
    beside 2 MB of codes).
    """
    return max(1, min(_BLOCK_BYTES // (8 * num_columns), num_segments // 64))


def _splits(n: int, params: MPdistParams, workers: int) -> list[tuple[int, int]]:
    """The position ranges a segment's profile is split into across ``workers`` threads."""
    num_positions = n - params.snippet_size + 1
    width = params.profile_width
    return _column_parts(num_positions, width * (num_positions + width - 1), workers)


def _min_profiles(stats, params: MPdistParams, segments, positions=None, work=None) -> np.ndarray:
    """Negated-correlation profiles at ``k <= 2`` of several segments, one row each.

    A position's profile is the sliding minimum of the column minima
    (see the module docstring).  The segments' kernel rows come from
    one :func:`~sniplab.zdist.neg_correlations` call, one row at a time,
    and are folded into the column minima as they come, so no segment's
    ``width`` rows are ever held.  ``positions`` is the range ``(lo,
    hi)`` of profile positions, all of them by default; positions
    ``[lo, hi)`` read the kernel columns ``[lo, hi + width - 1)``.

    ``work``, of shape ``(3, B, hi - lo + 2 * width - 2)`` for B
    segments or more, holds the kernel's diagonals and scratch (which
    the sliding minima reuse) and the column minima.  A caller that
    profiles batch after batch passes the same one each time: arrays of
    a few hundred kB allocated afresh are mapped afresh, and their page
    faults cost as much as the arithmetic.  Returns a view of it.
    """
    width = params.profile_width
    lo, hi = (0, stats.sumsq.size - width + 1) if positions is None else positions
    starts = np.asarray(segments, dtype=np.intp) * params.snippet_size
    if work is None:
        work = np.empty((3, starts.size, hi - lo + 2 * width - 2))
    work = work[:, : starts.size]
    minima = work[2, :, : hi - lo + width - 1]
    rows = neg_correlations(stats, starts, width, columns=(lo, hi + width - 1), work=work[:2])
    np.copyto(minima, next(rows))
    for row in rows:
        np.minimum(minima, row, out=minima)
    return _sliding_min_rows(minima, width, scratch=work[1])


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
        Sliding statistics of ``series`` for ``params.window_size``;
        computed on demand when omitted, passed in when profiling many
        segments.
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
    else:
        _check_stats(series, stats, params.window_size)

    seg_start = segment_index * m
    width = params.profile_width
    k = params.k
    parts = _splits(n, params, workers)
    # Positions per selection tile: a tile's 2 * width float64 candidates
    # per position take 16 * width bytes, so a tile fills _BLOCK_BYTES
    # (63 positions at width 513, 3,640 at width 9).
    tile = max(1, _BLOCK_BYTES // (16 * width))
    kth = min(k, 2 * width) - 1

    def profile_part(part: tuple[int, int]) -> np.ndarray:
        # Positions [lo, hi) read the kernel columns [lo, hi + width - 1).
        # The row filter runs in place on the -rho rows; then each row of
        # a tile's block holds one position's 2 * width candidates, and
        # kth = 2 * width - 1 (the largest) covers k >= 2 * width.
        if k <= 2:
            return _min_profiles(stats, params, [segment_index], part)[0]
        lo, hi = part
        neg_rho = neg_correlation_matrix(stats, seg_start, width, columns=(lo, hi + width - 1))
        series_side = neg_rho.min(axis=0)            # nearest segment window per column
        segment_side = _sliding_min_rows(neg_rho, width)
        series_windows = sliding_window_view(series_side, width)
        best = np.empty(hi - lo)
        block = np.empty((min(tile, hi - lo), 2 * width))
        for p0 in range(0, hi - lo, tile):
            p1 = min(p0 + tile, hi - lo)
            candidates = block[: p1 - p0]
            candidates[:, :width] = segment_side[:, p0:p1].T
            candidates[:, width:] = series_windows[p0:p1]
            candidates.partition(kth, axis=1)
            best[p0:p1] = candidates[:, kth]
        return best

    if len(parts) == 1:
        best = profile_part(parts[0])
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            best = np.concatenate(list(pool.map(profile_part, parts)))
    values = neg_correlation_to_distance(best, params.window_size)
    return MPdistProfile(segment_index=segment_index, values=values)
