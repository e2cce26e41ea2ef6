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
part's, copied with their column minima into a tail before any step
changed them, and the kernel resumes the diagonals where the last part
left them, so it computes each entry once.  A part takes three kinds of
step in one part buffer: its kernel writes the ``-rho`` rows there and
takes their column minima; filter steps then run the sliding minima in
place, a few blocks of rows each; selection steps then fill its
positions, a few tiles each.  A selection step copies each tile's
columns of the filtered rows (transposed) and its sliding windows of
the column minima into the rows of one reused C-ordered block, and
partitions the block along its rows, so each tile's candidates are
contiguous and stay in cache.  Every entry goes through the same float
operations whatever the parts, the step or the thread, and an order
statistic is one of the candidates, so the profile does not change by
a bit.

The parts are pipelined rather than run side by side, by an engine
(:class:`_KthEngine`) whose at most two part buffers and helper threads
serve every pass it runs until it is closed: a search runs its pass,
and every profile its greedy rounds compute again, on one engine, and
:func:`mpdist_profile` runs a one-worker pass of its own.  One thread
at a time runs a kernel, parts in order, into a free buffer; every
thread, the kernel's included whenever no kernel may start, takes the
filter and then the selection steps of the parts already built, oldest
first, and a part's buffer is free again once its last selection step
has run.  With one worker the calling thread takes every step in one
buffer and no thread starts.
Idle threads wait on a condition: a thread spinning in Python keeps the
GIL for whole switch intervals.

One kernel at a time is a measured rule, not a setting.  The kernel is
a few numpy calls per row, a few µs each; each releases the GIL only
while it runs and waits for it after, so the kernel slows beside any
thread that takes the GIL often.  On two cores (numpy 2.4) a kernel
over 10,000 columns of an m = 1024 segment took 0.036-0.048 s alone,
0.038 s beside a thread partitioning tiles (about 110 µs a call) and
0.09-0.11 s beside one taking sliding minima (about 26 µs a call), and
two such kernels took 0.12-0.13 s on two threads against 0.11 s one
after the other.  Batching B segments per kernel call would not make
the calls longer: a part buffer's bytes fix the entries a call covers.

At ``k <= 2`` a profile needs no rows held: :func:`mpdist_profile`
runs one kernel call on the calling thread, and a search profiles its
segments several at a time (:func:`_min_profiles`): the kernel runs
over B segments' rows as 2-D arrays, about ``_BLOCK_BYTES`` a row, and
folds each row into the column minima as it comes.  One segment's numpy
calls last 7 to 15 µs at n = 20,000, too short for threads to overlap
between GIL hand-offs; B segments' calls last B times as long, so
threads that each take a range of segments pay off (see
:func:`~sniplab.snippets.select_snippets`), and on one thread the
batches cut the per-call overhead.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries, _freeze
from .zdist import _check_stats, compute_sliding_stats
from .zdist import neg_correlation_to_distance, neg_correlations
from .zdist import segment_distance_matrix  # noqa: F401  bench/layers.py wraps it by this name

# Bytes of a k > 2 part buffer, a part's column minima and width kernel
# rows; a pass holds two at most, however long the series.  A segment
# takes the fewest equal parts that fit (six of 3,162-3,163 positions at
# m = 1024, n = 20,000), each of at least width positions, so the width
# - 1 columns a part shares with the next stay under half a buffer.
PART_BYTES = 1 << 24

# Bytes of rows the sliding minimum takes through all its passes at a
# time.  Two such blocks fit in a 2 MiB L2 cache; at 513 rows of 20000
# columns, 4-row blocks took 40 ms against 80 ms for 16-row blocks and
# 158 ms for scipy's minimum_filter1d.
_BLOCK_BYTES = 1 << 19

# Blocks a step of a k > 2 pass takes: a filter step runs the sliding
# minima over this many blocks of rows, a selection step over this many
# tiles.
_TASK_BLOCKS = 4


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


def _parts(n: int, params: MPdistParams) -> list[tuple[int, int]]:
    """The position ranges a ``k > 2`` segment streams through, in order (see ``PART_BYTES``)."""
    num_positions = n - params.snippet_size + 1
    width = params.profile_width
    size = max(width, PART_BYTES // (8 * (width + 1)) - width + 1)
    count = max(1, min(-(-num_positions // size), num_positions // width))
    return [(num_positions * i // count, num_positions * (i + 1) // count) for i in range(count)]


def _min_profiles(stats, params: MPdistParams, segments, work=None) -> np.ndarray:
    """Negated-correlation profiles at ``k <= 2`` of several segments, one row each.

    A position's profile is the sliding minimum of the column minima
    (see the module docstring).  The segments' kernel rows come from
    one :func:`~sniplab.zdist.neg_correlations` call, one row at a time,
    and are folded into the column minima as they come, so no segment's
    ``width`` rows are ever held.

    ``work``, of shape ``(3, B, num_columns + width - 1)`` for B
    segments or more and the series' ``num_columns`` windows, holds the
    kernel's diagonals and scratch (which the sliding minima reuse) and
    the column minima.  A caller that profiles batch after batch passes
    the same one each time: arrays of a few hundred kB allocated afresh
    are mapped afresh, and their page faults cost as much as the
    arithmetic.  Returns a view of it.
    """
    width = params.profile_width
    num_columns = stats.sumsq.size
    starts = np.asarray(segments, dtype=np.intp) * params.snippet_size
    if work is None:
        work = np.empty((3, starts.size, num_columns + width - 1))
    work = work[:, : starts.size]
    minima = work[2, :, :num_columns]
    rows = neg_correlations(stats, starts, width, work=work[:2])
    np.copyto(minima, next(rows))
    for row in rows:
        np.minimum(minima, row, out=minima)
    return _sliding_min_rows(minima, width, scratch=work[1])


@dataclass(eq=False)
class _Flight:
    """A part whose kernel has run: its buffer slot and the steps it has left."""

    part: tuple[int, int, int]
    slot: int
    steps: deque
    selects: list | None  # queued once every filter step has run
    running: int = 0


class _KthEngine:
    """``k > 2`` profiles on one set of part buffers and threads, a pass per :meth:`profiles` call.

    Its at most two part buffers, the tail a part leaves the next, its
    kernel workspace and its ``threads`` threads (at most ``workers``,
    and no more than the parts of ``num_segments`` segments), each with
    its scratch, serve every pass.  The buffers, the tail and the helper
    threads come with a pass, the threads wait on a condition between
    passes, and :meth:`close` joins them and drops the buffers and tail.
    """

    def __init__(self, stats, params: MPdistParams, workers: int, num_segments: int):
        width = params.profile_width
        self.splits = _parts(stats.centred.size, params)
        self.stats, self.width, self.snippet_size = stats, width, params.snippet_size
        self.threads = min(workers, num_segments * len(self.splits))
        self.num_positions = self.splits[-1][1]
        self.columns = max(hi - lo for lo, hi in self.splits) + width - 1
        # Positions per selection tile: a tile's 2 * width float64
        # candidates per position take 16 * width bytes, so a tile fills
        # _BLOCK_BYTES (63 positions at width 513, 3,640 at width 9).
        self.tile = max(1, _BLOCK_BYTES // (16 * width))
        # kth = 2 * width - 1 (the largest candidate) covers k >= 2 * width.
        self.kth = min(params.k, 2 * width) - 1
        self.slots = min(2, self.threads)  # part buffers, made by a pass
        self.buffers = self.windows = self.tail = []
        # Only one kernel runs at a time, and a segment's parts in order,
        # so one workspace serves all and carries each segment's diagonals.
        self.work = np.empty((2, stats.sumsq.size + width - 1))
        self.scratch = self._scratch()  # the calling thread's
        self.lock = threading.Condition()
        self.helpers = []
        self._begin([])
        self._reset()

    def _rows(self, slot: int, lo: int, hi: int):
        """Positions [lo, hi)'s column minima (row 0) and kernel rows in part buffer ``slot``."""
        columns = hi - lo + self.width - 1
        return self.buffers[slot][: (self.width + 1) * columns].reshape(self.width + 1, columns)

    def _scratch(self):
        """One thread's sliding-minimum scratch and its selection block, in one array."""
        block = (min(self.tile, self.num_positions), 2 * self.width)
        flat = np.empty(max(_BLOCK_BYTES // 8, self.columns, math.prod(block)))
        return flat, flat[: math.prod(block)].reshape(block)

    def _build(self, part, slot: int) -> None:
        # Positions [lo, hi) read kernel columns [lo, hi + width - 1), past
        # the first part the first width - 1 from the last part's tail.
        s, lo, hi = part
        rows = self._rows(slot, lo, hi)
        if lo == 0:
            self.best[s] = np.empty(self.num_positions)
        done = 0 if lo == 0 else self.width - 1
        rows[:, :done] = self.tail[:, :done]
        new = rows[:, done:]
        columns = (lo + done, hi + self.width - 1)
        for _ in neg_correlations(self.stats, self.starts[s], self.width, columns=columns, out=new[1:], work=self.work):
            pass
        np.min(new[1:], axis=0, out=new[0])  # nearest segment window per column
        self.tail[...] = rows[:, hi - lo :]  # the next part's, before a filter step runs

    def _steps(self, part):
        """A part's row-filter chunks of rows and its selection chunks of positions."""
        _, lo, hi = part
        rows = _TASK_BLOCKS * max(1, _BLOCK_BYTES // (8 * (hi - lo + self.width - 1)))
        positions = _TASK_BLOCKS * self.tile
        filters = [(self._filter, r, min(r + rows, self.width)) for r in range(0, self.width, rows)]
        selects = [(self._select, p, min(p + positions, hi - lo)) for p in range(0, hi - lo, positions)]
        return filters, selects

    def _filter(self, part, slot: int, r0: int, r1: int, scratch) -> None:
        rows = self._rows(slot, *part[1:])[1:]
        _sliding_min_rows(rows[r0:r1], self.width, scratch=scratch[0])

    def _select(self, part, slot: int, p0: int, p1: int, scratch) -> None:
        # Each row of a tile's block holds one position's 2 * width
        # candidates: its row-filtered column of the kernel rows, then its
        # window of the column minima.
        s, lo, hi = part
        rows = self._rows(slot, lo, hi)[1:]
        windows = self.windows[slot]
        best = self.best[s][lo:hi]
        for a in range(p0, p1, self.tile):
            b = min(a + self.tile, p1)
            candidates = scratch[1][: b - a]
            candidates[:, : self.width] = rows[:, a:b].T
            candidates[:, self.width :] = windows[a:b]
            candidates.partition(self.kth, axis=1)
            best[a:b] = candidates[:, self.kth]

    def _begin(self, segments) -> None:
        # A pass's parts, in order, and its progress.
        self.starts = [s * self.snippet_size for s in segments]
        self.parts = [(s, lo, hi) for s in range(len(self.starts)) for lo, hi in self.splits]
        self.started = 0  # parts whose kernel has started
        self.left = [len(self.splits)] * len(self.starts)  # parts not yet selected, per segment
        self.yielded = 0
        self.best = {}  # segment position -> its profile, from its first part's kernel on

    def _reset(self) -> None:
        # No thread runs a step: every buffer is free and nothing is in flight.
        self.free = list(range(self.slots))
        self.kernel_busy = False
        self.active = []  # in-flight parts, oldest first
        self.error = None
        self.stopped = False

    def profiles(self, segments):
        """One pass: the negated-correlation profile of each of ``segments``, in order.

        Every thread takes, in this order: (the calling thread only) the
        next segment's profile once all its parts are selected; the next
        part's kernel, when no kernel runs, a part buffer is free and the
        part's segment is fewer than three ahead of the last one taken;
        a step of the oldest part in flight with steps left.  A part's
        selection steps are queued once all its filter steps have run,
        and its buffer is freed once all its selection steps have.  A
        pass that fails, or is closed before its last profile, closes
        the engine, and the first exception in any thread is raised here.
        """
        if not self.buffers:
            # Each part buffer holds a part's column minima, then its width
            # kernel rows.  A buffer's sliding windows of the minima are
            # taken once, over its longest part's columns.
            self.buffers = [np.empty((self.width + 1) * self.columns) for _ in range(self.slots)]
            self.windows = [
                sliding_window_view(b[: self.columns], self.width) for b in self.buffers
            ]
            self.tail = np.empty((self.width + 1, self.width - 1))
        with self.lock:
            self._begin(segments)
            self.lock.notify_all()
        while len(self.helpers) < self.threads - 1:
            self.helpers.append(threading.Thread(target=self._help, daemon=True))
            self.helpers[-1].start()
        try:
            while (task := self._take(caller=True)) is not None:
                if isinstance(task, np.ndarray):
                    yield task
                    continue
                try:
                    self._run(task, self.scratch)
                except Exception as exc:
                    self._fail(exc)
            if self.error is not None:
                raise self.error
        finally:
            # Once the last profile is out, every step has run.
            if self.yielded < len(self.left) or self.error is not None:
                self.close()

    def close(self) -> None:
        """Join the helper threads and drop the part buffers; a later pass makes both again."""
        with self.lock:
            self.stopped = True
            self.lock.notify_all()
        for thread in self.helpers:
            thread.join()
        self.helpers = []
        self.buffers = self.windows = self.tail = []
        self._reset()

    def _help(self) -> None:
        scratch = self._scratch()
        try:
            while (task := self._take(caller=False)) is not None:
                self._run(task, scratch)
        except BaseException as exc:  # raised again on the calling thread
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        with self.lock:
            if self.error is None:
                self.error = exc
            self.lock.notify_all()

    def _take(self, caller: bool):
        """This thread's next task, a finished profile, or None once there is none left."""
        with self.lock:
            while not self.stopped and self.error is None:
                if caller and self.yielded < len(self.left) and self.left[self.yielded] == 0:
                    self.yielded += 1
                    self.lock.notify_all()
                    return self.best.pop(self.yielded - 1)
                # Profiles the consumer has not read yet cannot pile up.
                if (
                    not self.kernel_busy
                    and self.free
                    and self.started < len(self.parts)
                    and self.parts[self.started][0] < self.yielded + 3
                ):
                    self.kernel_busy = True
                    self.started += 1
                    return None, (self.parts[self.started - 1], self.free.pop())
                for flight in self.active:
                    if flight.steps:
                        flight.running += 1
                        return flight, flight.steps.popleft()
                if caller and self.yielded == len(self.left):
                    return None
                self.lock.wait()
            return None

    def _run(self, task, scratch) -> None:
        flight, step = task
        if flight is None:  # a kernel
            part, slot = step
            self._build(part, slot)
            filters, selects = self._steps(part)
            with self.lock:
                self.kernel_busy = False
                self.active.append(_Flight(part, slot, deque(filters), selects))
                self.lock.notify_all()
            return
        method, a, b = step
        method(flight.part, flight.slot, a, b, scratch)
        with self.lock:
            flight.running -= 1
            if flight.steps or flight.running:
                return
            if flight.selects:
                flight.steps.extend(flight.selects)
                flight.selects = None
            else:
                self.active.remove(flight)
                self.free.append(flight.slot)
                self.left[flight.part[0]] -= 1
            self.lock.notify_all()


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

    if params.k <= 2:
        best = _min_profiles(stats, params, [segment_index])[0]
    else:
        (best,) = _KthEngine(stats, params, 1, 1).profiles([segment_index])
    values = neg_correlation_to_distance(best, params.window_size, out=best)
    return MPdistProfile(segment_index=segment_index, values=values)
