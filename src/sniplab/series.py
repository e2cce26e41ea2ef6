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
from scipy.ndimage import maximum_filter1d, minimum_filter1d

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
        kernel multiplies two window variances, which overflow or
        underflow beyond that.
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
    """Per-window mean and population variance.

    ``means[i]`` and ``variances[i]`` describe the window of
    ``window_len`` samples starting at position ``i``; there are
    ``n - window_len + 1`` windows.  A variance of exactly 0 identifies a
    constant window.  No std is kept: the correlation kernel divides by
    ``sqrt(var_a * var_b)``, which a product of stds would round once
    more per entry.
    """

    window_len: int
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _freeze(np.asarray(self.means, dtype=np.float64)))
        object.__setattr__(
            self, "variances", _freeze(np.asarray(self.variances, dtype=np.float64))
        )


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
    """Mean and population variance of every sliding window.

    Uses prefix sums of values and squares, so the whole sweep costs
    O(n); round-off can push a window's variance slightly negative, which
    is clamped to 0.  A window whose samples are all equal gets a variance
    of exactly 0 (checked by sliding max == sliding min, not by the prefix
    sums, whose round-off could leave a tiny residue), since downstream
    distance conventions key on that exact zero.

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
    x = series.values
    csum = np.concatenate(([0.0], np.cumsum(x)))
    csq = np.concatenate(([0.0], np.cumsum(x * x)))
    means = (csum[window_len:] - csum[:-window_len]) / window_len
    variances = (csq[window_len:] - csq[:-window_len]) / window_len - means * means
    np.maximum(variances, 0.0, out=variances)

    count = n - window_len + 1
    shift = window_len // 2
    lo = minimum_filter1d(x, window_len, mode="nearest")[shift : shift + count]
    hi = maximum_filter1d(x, window_len, mode="nearest")[shift : shift + count]
    variances[lo == hi] = 0.0
    return SlidingStats(window_len=window_len, means=means, variances=variances)
