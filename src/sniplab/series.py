"""Time-series ingestion and sliding-window statistics.

A :class:`TimeSeries` holds one coordinate of a (possibly multi-column)
recording.  Multi-coordinate inputs are handled by loading each column as
its own series and running the pipeline on it independently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _freeze(values: np.ndarray) -> np.ndarray:
    values = np.array(values)
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class TimeSeries:
    """One coordinate's real-valued samples.

    Parameters
    ----------
    values : array_like
        The samples, at least two, all finite.  Unless all are zero, the
        largest magnitude must lie in [1e-75, 1e75]: the correlation
        kernel multiplies two windows' sums of squared deviations, each
        scaled by a power of two to within a factor of four of the
        window's variance (see :func:`compute_sliding_stats`), and
        that product overflows or underflows beyond that range.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"series must be one-dimensional, got shape {values.shape}")
        if values.size < 2:
            raise ValueError(f"series needs at least 2 samples, got {values.size}")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(f"non-finite sample at position {bad}")
        peak = float(np.abs(values).max())
        if peak and not 1e-75 <= peak <= 1e75:
            raise ValueError(
                f"largest sample magnitude {peak:.6g} is outside [1e-75, 1e75]; "
                f"rescale the series"
            )
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        """Number of samples."""
        return int(self.values.size)


@dataclass(frozen=True)
class SlidingStats:
    """Per-window mean and population variance, plus the kernel's arrays.

    ``means[i]`` and ``variances[i]`` describe the window of
    ``window_len`` samples starting at position ``i``; there are
    ``n - window_len + 1`` windows.  A variance of exactly 0 identifies a
    constant window.

    The correlation kernel reads the rest, all in the units of
    ``centred``, the series minus its overall mean and scaled by a power
    of two: ``centred_means``, ``sumsq`` (each window's sum of squared
    deviations) and SCAMP's update arrays ``df`` and ``dg`` (see
    :func:`compute_sliding_stats`).
    """

    window_len: int
    means: np.ndarray
    variances: np.ndarray
    centred: np.ndarray
    centred_means: np.ndarray
    sumsq: np.ndarray
    df: np.ndarray
    dg: np.ndarray

    def __post_init__(self):
        for name in ("means", "variances", "centred", "centred_means", "sumsq", "df", "dg"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _freeze(values))


def load_series(path, column: int = 0) -> TimeSeries:
    """Read one column of a CSV file into a :class:`TimeSeries`.

    The file holds one record per line with a period decimal separator.
    A single header line is tolerated: if the selected cell of the first
    row does not parse as a number, that row is skipped.

    Parameters
    ----------
    path : str or Path
        CSV file to read.
    column : int
        Zero-based column to extract.

    Returns
    -------
    TimeSeries

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ValueError
        On a non-numeric or non-finite cell (the message names the
        offending 1-based row), a column out of range, or fewer than two
        usable rows.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such series file: {path}")
    if column < 0:
        raise ValueError(f"column index must be non-negative, got {column}")

    values: list[float] = []
    with open(path, newline="") as handle:
        for row_no, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if column >= len(row):
                raise ValueError(
                    f"column {column} out of range at row {row_no} ({len(row)} columns)"
                )
            cell = row[column].strip()
            try:
                value = float(cell)
            except ValueError:
                if row_no == 1:
                    continue  # header line
                raise ValueError(
                    f"non-numeric cell {cell!r} at row {row_no}, column {column}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {cell!r} at row {row_no}, column {column}")
            values.append(value)

    if len(values) < 2:
        raise ValueError(f"series in {path} has {len(values)} samples, need at least 2")
    return TimeSeries(np.asarray(values))


def save_series(series: TimeSeries, path) -> None:
    """Write a series as one sample per line, round-trippable bit-exactly."""
    np.savetxt(path, series.values, fmt="%.17g")


def compute_sliding_stats(series: TimeSeries, window_len: int) -> SlidingStats:
    """Mean and population variance of every sliding window, plus the kernel's arrays.

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
    round-off could leave a tiny residue), and gets a variance of
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
        means=centred_means / scale + centre,
        variances=sumsq / (window_len * scale * scale),
        centred=centred,
        centred_means=centred_means,
        sumsq=sumsq,
        df=df,
        dg=dg,
    )
