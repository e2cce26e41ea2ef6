"""Per-point labeling from snippets, and scoring against ground truth.

Each series window takes the id of the snippet whose profile value at
that window is smallest, points take the label of the window starting
at them, and the trailing points with no window of their own inherit
the last window's label.  Snippet ids are positions in the result's
ordering, so id 0 is the highest-coverage snippet.

Scoring first matches predicted classes to truth classes greedily by
confusion-matrix overlap (ids carry no inherent meaning), then reports
per-class precision, recall, and F1 with guarded divisions, plus the
macro average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import _freeze
from .snippets import SnippetResult, _nearest_rows


@dataclass(frozen=True)
class LabelSequence:
    """One integer label per series point."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size == 0:
            raise ValueError("labels must be non-empty")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        object.__setattr__(self, "labels", _freeze(labels.astype(np.int64)))

    @property
    def n(self) -> int:
        return int(self.labels.size)

    def classes(self) -> np.ndarray:
        return np.unique(self.labels)


@dataclass(frozen=True)
class ClassReport:
    """Counts and scores for one truth class after matching."""

    truth_class: int
    predicted_class: int | None
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    """Per-class scores and their macro average."""

    classes: tuple[ClassReport, ...]
    macro_f1: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "macro_f1": self.macro_f1,
            "classes": [
                {
                    "truth_class": c.truth_class,
                    "predicted_class": c.predicted_class,
                    "tp": c.tp,
                    "fp": c.fp,
                    "fn": c.fn,
                    "precision": c.precision,
                    "recall": c.recall,
                    "f1": c.f1,
                }
                for c in self.classes
            ],
        }


def label_series(result: SnippetResult, series_length: int | None = None) -> LabelSequence:
    """Label every point of the series a snippet result was built from.

    Parameters
    ----------
    result : SnippetResult
    series_length : int, optional
        Sanity check against the length recorded on the result.

    Returns
    -------
    LabelSequence
        Length matches the series.  Labels are snippet positions in
        ``result.snippets`` (0 is the highest-coverage snippet);
        profile ties go to the lower position.
    """
    if series_length is None:
        series_length = result.series_length
    elif series_length != result.series_length:
        raise ValueError(
            f"series length {series_length} does not match the result's "
            f"{result.series_length}"
        )
    window_labels = _nearest_rows([p.values for p in result.profiles])
    labels = np.empty(series_length, dtype=np.int64)
    labels[: window_labels.size] = window_labels
    labels[window_labels.size :] = window_labels[-1]
    return LabelSequence(labels=labels)


def _match_classes(truth: np.ndarray, pred: np.ndarray):
    """Greedy maximal-overlap assignment of predicted to truth classes."""
    truth_classes = np.unique(truth)
    pred_classes = np.unique(pred)
    # Per predicted class, its overlap with every truth class.  Ties in
    # a single cell are broken by this whole column rather than by the
    # predicted id: ids are arbitrary, and renaming them must not change
    # the report.  Two predicted classes with equal columns are fully
    # interchangeable, so the id tie-break after that is harmless.
    columns = {}
    for p in pred_classes:
        mask = pred == p
        columns[int(p)] = tuple(
            int(np.count_nonzero(truth[mask] == c)) for c in truth_classes
        )
    cells = []
    for ti, c in enumerate(truth_classes):
        for p in pred_classes:
            count = columns[int(p)][ti]
            if count > 0:
                cells.append((count, int(c), int(p)))
    cells.sort(
        key=lambda cell: (
            -cell[0],
            cell[1],
            tuple(-o for o in columns[cell[2]]),
            cell[2],
        )
    )
    matched: dict[int, int] = {}
    used_pred: set[int] = set()
    for count, c, p in cells:
        if c in matched or p in used_pred:
            continue
        matched[c] = p
        used_pred.add(p)
    return truth_classes, matched


def evaluate(pred: LabelSequence, truth: LabelSequence) -> EvalReport:
    """Score a predicted labeling against ground truth.

    Predicted classes are first matched to truth classes greedily by
    descending confusion-matrix overlap; a truth class left without a
    partner scores zero.  Divisions by zero are guarded to zero.

    Parameters
    ----------
    pred, truth : LabelSequence
        Equal lengths.

    Returns
    -------
    EvalReport
    """
    if pred.n != truth.n:
        raise ValueError(
            f"predicted labels have length {pred.n} but truth has length {truth.n}"
        )
    p_arr = pred.labels
    t_arr = truth.labels
    truth_classes, matched = _match_classes(t_arr, p_arr)

    reports = []
    for c in truth_classes:
        c = int(c)
        truth_mask = t_arr == c
        if c in matched:
            p = matched[c]
            pred_mask = p_arr == p
            tp = int(np.count_nonzero(truth_mask & pred_mask))
            fp = int(np.count_nonzero(pred_mask)) - tp
        else:
            p = None
            tp = 0
            fp = 0
        fn = int(np.count_nonzero(truth_mask)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
        reports.append(
            ClassReport(
                truth_class=c,
                predicted_class=p,
                tp=tp,
                fp=fp,
                fn=fn,
                precision=precision,
                recall=recall,
                f1=f1,
            )
        )
    macro = float(np.mean([r.f1 for r in reports]))
    return EvalReport(classes=tuple(reports), macro_f1=macro)


def read_labels(path) -> LabelSequence:
    """Read a labels file: one integer per line."""
    values = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(
                    f"line {lineno} of {path} is not an integer label: {line!r}"
                ) from None
    if not values:
        raise ValueError(f"no labels found in {path}")
    return LabelSequence(labels=np.asarray(values, dtype=np.int64))


def write_labels(labels: LabelSequence, path) -> None:
    """Write labels as one integer per line."""
    np.savetxt(path, labels.labels, fmt="%d")
