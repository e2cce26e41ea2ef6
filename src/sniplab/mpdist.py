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

At ``k > 2`` each segment's positions stream in order through the
fewest equal parts whose kernel rows fit ``PART_BYTES``, whatever n or
the worker count.  Part ``[lo, hi)`` reads kernel columns ``[lo, hi +
width - 1)``; past the first part, the first ``width - 1`` are the last
part's, copied with their column minima into a tail before the filter
changed them, and the kernel resumes the diagonals where the last part
left them, so it computes each entry once.  A part runs three steps in
one part buffer: its kernel writes the ``-rho`` rows there and takes
their column minima; the sliding minima then filter the rows in place;
the selection then fills its positions, a tile at a time.  It copies
each tile's columns of the filtered rows (transposed) and its sliding
windows of the column minima into the rows of one reused C-ordered
block, and partitions the block along its rows, so each tile's
candidates are contiguous and stay in cache.  Every entry goes through
the same float operations whatever the parts or the thread, and an
order statistic is one of the candidates, so the profile does not
change by a bit.

Profiles reach every caller one way.  A profiler's
``profiles(segments)`` yields one MPdist profile per segment, in order,
on the calling thread, in memory it allocated once and reuses: read a
row before asking for the next.  It converts the selected ``-rho`` to
distances in that memory before it yields them, so no caller sees a
negated correlation.  :func:`_profiler` picks the class from k.  At
``k > 2`` a :class:`_KthProfiler` runs the steps above for one segment
after another in one part buffer.  At ``k <= 2`` a
:class:`_MinProfiler` holds no rows: one kernel call takes
a batch of B segments, about ``_BLOCK_BYTES`` a row, and folds each row
into the column minima as it comes.  One segment's numpy calls last 7
to 15 µs at n = 20,000, too short for threads to overlap between GIL
hand-offs; B segments' calls last B times as long, so threads that
each take a range of segments pay off, and on one thread the batches
cut the per-call overhead.  A search gives each thread that profiles a
range of segments a profiler of its own and recomputes the greedy
rounds' rows on the calling thread's (see
:func:`~sniplab.snippets.select_snippets`); :func:`mpdist_profile`
asks a fresh one for its one segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries, _freeze, _is_integer
from .zdist import _check_stats, compute_sliding_stats
from .zdist import neg_correlation_to_distance, neg_correlations
from .zdist import segment_distance_matrix  # noqa: F401  bench/layers.py wraps it by this name

# Bytes of a k > 2 part buffer, a part's column minima and width kernel
# rows; each profiling thread holds one, however long the series.  A segment
# takes the fewest equal parts that fit (six of 3,162-3,163 positions at
# m = 1024, n = 20,000), each of at least width positions, so the width
# - 1 columns a part shares with the next stay under half a buffer.
PART_BYTES = 1 << 24

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
            if value is not None and not _is_integer(value):
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
    ``scratch``, when given, is a contiguous array of at least as many
    entries as the scratch block.
    """
    length = matrix.shape[-1]
    rows = matrix.reshape(-1, length)
    block = max(1, _BLOCK_BYTES // (8 * length))
    size = min(block, rows.shape[0]) * length
    scratch = np.empty(size) if scratch is None else scratch.reshape(-1)[:size]
    scratch = scratch.reshape(-1, length)
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


def _batch_size(num_columns: int, num_segments: int) -> int:
    """Segments a :class:`_MinProfiler` profiles per kernel call.

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


def _parts(n: int, params: MPdistParams) -> list[tuple[int, int]]:
    """The position ranges a ``k > 2`` segment streams through, in order (see ``PART_BYTES``)."""
    num_positions = n - params.snippet_size + 1
    width = params.profile_width
    size = max(width, PART_BYTES // (8 * (width + 1)) - width + 1)
    count = max(1, min(-(-num_positions // size), num_positions // width))
    return [(num_positions * i // count, num_positions * (i + 1) // count) for i in range(count)]


class _MinProfiler:
    """``k <= 2`` profiles, a batch of B segments per kernel call, on the calling thread.

    A profile is the sliding minimum of the column minima (see the
    module docstring); a batch's kernel rows are folded into them as
    they come, so no segment's ``width`` rows are ever held.  One
    workspace of shape ``(3, B, num_columns + width - 1)`` holds the
    kernel's diagonals and scratch, which the sliding minima reuse, and
    the column minima, which one call converts to the batch's profiles
    in place.  It is allocated once: arrays of a few hundred kB
    allocated afresh are mapped afresh, and their page faults cost as
    much as the arithmetic.  The first request sizes it, B at most that
    request's length, so a profiler asked for one segment holds three
    rows, not a batch.
    """

    def __init__(self, stats, params: MPdistParams):
        self.stats, self.width, self.snippet_size = stats, params.profile_width, params.snippet_size
        self.window_size = params.window_size
        self.work = None

    def profiles(self, segments):
        """Each segment's MPdist profile, in order; read each before the next."""
        segments = np.asarray(segments, dtype=np.intp)
        num_columns = self.stats.sumsq.size
        if self.work is None:
            batch = _batch_size(num_columns, self.stats.centred.size // self.snippet_size)
            batch = max(1, min(batch, segments.size))
            self.work = np.empty((3, batch, num_columns + self.width - 1))
        batch = self.work.shape[1]
        for lo in range(0, segments.size, batch):
            starts = segments[lo : lo + batch] * self.snippet_size
            work = self.work[:, : starts.size]
            minima = work[2, :, :num_columns]
            rows = neg_correlations(self.stats, starts, self.width, work=work[:2])
            np.copyto(minima, next(rows))
            for row in rows:
                np.minimum(minima, row, out=minima)
            profiles = _sliding_min_rows(minima, self.width, scratch=work[1])
            yield from neg_correlation_to_distance(profiles, self.window_size, out=profiles)


class _KthProfiler:
    """``k > 2`` profiles, one segment after another, on the calling thread.

    It allocates once the one part buffer, the tail a part leaves the
    next, the kernel workspace, the sliding-minimum scratch, the
    selection block and the ``best`` row, converted in place once a
    segment's last part is selected, that all its profiles share; a
    thread that profiles a range of segments makes one of its own.
    """

    def __init__(self, stats, params: MPdistParams):
        width = params.profile_width
        self.splits = _parts(stats.centred.size, params)
        self.stats, self.width, self.snippet_size = stats, width, params.snippet_size
        self.window_size = params.window_size
        self.num_positions = self.splits[-1][1]
        columns = max(hi - lo for lo, hi in self.splits) + width - 1
        # Positions per selection tile: a tile's 2 * width float64
        # candidates per position take 16 * width bytes, so a tile fills
        # _BLOCK_BYTES (63 positions at width 513, 3,640 at width 9).
        self.tile = max(1, _BLOCK_BYTES // (16 * width))
        # kth = 2 * width - 1 (the largest candidate) covers k >= 2 * width.
        self.kth = min(params.k, 2 * width) - 1
        # The part buffer holds a part's column minima, then its width
        # kernel rows.  Its sliding windows of the minima are taken once,
        # over the longest part's columns.
        self.buffer = np.empty((width + 1) * columns)
        self.windows = sliding_window_view(self.buffer[:columns], width)
        self.tail = np.empty((width + 1, width - 1))
        # A segment's parts run in order, so one workspace carries its diagonals.
        self.work = np.empty((2, 1, stats.sumsq.size + width - 1))
        block = (min(self.tile, self.num_positions), 2 * width)
        self.scratch = np.empty(max(_BLOCK_BYTES // 8, columns, math.prod(block)))
        self.block = self.scratch[: math.prod(block)].reshape(block)
        self.best = np.empty(self.num_positions)

    def profiles(self, segments):
        """Each segment's MPdist profile, in order; read each before the next."""
        width, best = self.width, self.best
        for segment in segments:
            for lo, hi in self.splits:
                # Positions [lo, hi) read kernel columns [lo, hi + width - 1),
                # past the first part the first width - 1 from the last
                # part's tail.
                columns = hi - lo + width - 1
                rows = self.buffer[: (width + 1) * columns].reshape(width + 1, columns)
                done = 0 if lo == 0 else width - 1
                rows[:, :done] = self.tail[:, :done]
                new = rows[:, done:]
                span = (lo + done, hi + width - 1)
                start = [segment * self.snippet_size]
                for _ in neg_correlations(self.stats, start, width, columns=span, out=new[None, 1:], work=self.work):
                    pass
                np.min(new[1:], axis=0, out=new[0])  # nearest segment window per column
                self.tail[...] = rows[:, hi - lo :]  # the next part's, before the filter runs
                _sliding_min_rows(rows[1:], width, scratch=self.scratch)
                # Each row of a tile's block holds one position's 2 * width
                # candidates: its row-filtered column of the kernel rows,
                # then its window of the column minima.
                for a in range(0, hi - lo, self.tile):
                    b = min(a + self.tile, hi - lo)
                    candidates = self.block[: b - a]
                    candidates[:, :width] = rows[1:, a:b].T
                    candidates[:, width:] = self.windows[a:b]
                    candidates.partition(self.kth, axis=1)
                    best[lo + a : lo + b] = candidates[:, self.kth]
            yield neg_correlation_to_distance(best, self.window_size, out=best)


def _profiler(stats, params: MPdistParams):
    """A profiler of ``params``' k for one thread; ``profiles(segments)`` yields their profiles."""
    return (_MinProfiler if params.k <= 2 else _KthProfiler)(stats, params)


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
        Sliding statistics of ``series`` for ``params.window_size``;
        computed on demand when omitted, passed in when profiling many
        segments.

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
    else:
        _check_stats(series, stats, params.window_size)

    (values,) = _profiler(stats, params).profiles([segment_index])
    return MPdistProfile(segment_index=segment_index, values=values)
