"""Per-point labeling from snippets, and scoring against ground truth.

Each series window takes the id of the snippet whose profile value at
that window is smallest, points take the label of the window starting
at them, and the trailing points with no window of their own inherit
the last window's label.  Snippet ids are positions in the result's
ordering, so id 0 is the highest-coverage snippet.

Scoring counts one truth-by-predicted confusion matrix, matches
predicted classes to truth classes greedily by its overlaps (ids carry
no inherent meaning), then reads per-class precision, recall, and F1
off the same matrix with guarded divisions, plus the macro average.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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


@dataclass(frozen=True)
class ClassReport:
    """Counts and scores for one truth class after matching.

    The field order is the key order of each class in the JSON report.
    """

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
            "classes": [asdict(c) for c in self.classes],
        }


def label_series(result: SnippetResult) -> LabelSequence:
    """Label every point of the series a snippet result was built from.

    Parameters
    ----------
    result : SnippetResult

    Returns
    -------
    LabelSequence
        Length matches the series.  Labels are snippet positions in
        ``result.snippets`` (0 is the highest-coverage snippet);
        profile ties go to the lower position.
    """
    window_labels = _nearest_rows([p.values for p in result.profiles])
    labels = np.empty(result.series_length, dtype=np.int64)
    labels[: window_labels.size] = window_labels
    labels[window_labels.size :] = window_labels[-1]
    return LabelSequence(labels=labels)


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
    truth_classes, t_idx = np.unique(truth.labels, return_inverse=True)
    pred_classes, p_idx = np.unique(pred.labels, return_inverse=True)
    width = pred_classes.size
    confusion = np.bincount(
        t_idx * width + p_idx, minlength=truth_classes.size * width
    ).reshape(truth_classes.size, width)
    cells = confusion.tolist()
    row_sums = confusion.sum(axis=1).tolist()
    col_sums = confusion.sum(axis=0).tolist()

    # Greedy matching on the nonzero cells by descending overlap.  Ties
    # in a cell go to the lower truth class, then are broken by the
    # predicted class's whole column rather than by its id: ids are
    # arbitrary, and renaming them must not change the report.  Two
    # predicted classes with equal columns are fully interchangeable, so
    # the id tie-break after that is harmless.
    columns = [tuple(-count for count in column) for column in confusion.T.tolist()]
    order = sorted(
        ((t, p) for t, row in enumerate(cells) for p, count in enumerate(row) if count),
        key=lambda tp: (-cells[tp[0]][tp[1]], tp[0], columns[tp[1]], tp[1]),
    )
    matched: dict[int, int] = {}
    used: set[int] = set()
    for t, p in order:
        if t not in matched and p not in used:
            matched[t] = p
            used.add(p)

    reports = []
    for t, c in enumerate(truth_classes.tolist()):
        p = matched.get(t)
        tp = cells[t][p] if p is not None else 0
        fp = col_sums[p] - tp if p is not None else 0
        fn = row_sums[t] - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
        reports.append(
            ClassReport(
                truth_class=c,
                predicted_class=None if p is None else pred_classes[p].item(),
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
