"""Time-series ingestion: the validated series, CSV loading and saving.

A :class:`TimeSeries` holds one coordinate of a (possibly multi-column)
recording.  Multi-coordinate inputs are handled by loading each column as
its own series and running the pipeline on it independently.  The
window statistics the correlation kernel reads belong to the kernel, in
:mod:`sniplab.zdist`.
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
        window's variance (see :func:`sniplab.zdist.compute_sliding_stats`),
        and that product overflows or underflows beyond that range.
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


def load_series(path, column: int = 0) -> TimeSeries:
    """Read one column of a CSV file into a :class:`TimeSeries`.

    The file holds one record per line with a period decimal separator.
    Blank rows are skipped.  A single header line is tolerated: if the
    selected cell of the first non-blank row does not parse as a number,
    that row is skipped.

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
        On a non-numeric or non-finite cell or a row the CSV reader
        rejects, such as one with a cell over its field size limit (the
        message names the offending 1-based row), a column out of range,
        or fewer than two usable rows.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such series file: {path}")
    if column < 0:
        raise ValueError(f"column index must be non-negative, got {column}")

    values: list[float] = []
    row_no = 0
    first_row = 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            for row_no, row in enumerate(csv.reader(handle), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                first_row = first_row or row_no
                if column >= len(row):
                    raise ValueError(
                        f"column {column} out of range at row {row_no} ({len(row)} columns)"
                    )
                cell = row[column].strip()
                try:
                    value = float(cell)
                except ValueError:
                    if row_no == first_row:
                        continue  # header line
                    raise ValueError(
                        f"non-numeric cell {cell!r} at row {row_no}, column {column}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value {cell!r} at row {row_no}, column {column}")
                values.append(value)
        except csv.Error as exc:
            raise ValueError(f"row {row_no + 1} of {path} is not valid CSV: {exc}") from None

    if len(values) < 2:
        raise ValueError(f"series in {path} has {len(values)} samples, need at least 2")
    return TimeSeries(np.asarray(values))


def save_series(series: TimeSeries, path) -> None:
    """Write a series as one sample per line, round-trippable bit-exactly."""
    np.savetxt(path, series.values, fmt="%.17g")
