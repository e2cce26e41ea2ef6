"""Snippet-based summarization and labeling of long time series.

A series is cut into non-overlapping segments, each segment is scored
against every sliding window with the MPdist measure, and the segments
that together cover the series best become its snippets.  On top of
that sit automatic snippet-length selection, load-balanced batch runs,
and per-point labeling with precision/recall/F1 scoring.
"""

from .labeling import (
    ClassReport,
    EvalReport,
    LabelSequence,
    evaluate,
    label_series,
    read_labels,
    write_labels,
)
from .length_select import (
    LengthCandidate,
    LengthReport,
    criterion_score,
    make_grid,
    select_length,
)
from .mpdist import (
    MPdistParams,
    MPdistProfile,
    default_order_stat,
    default_window_size,
    mpdist_profile,
)
from .scheduler import (
    Schedule,
    default_cost,
    kk_partition,
    load_training_samples,
    lpt_partition,
    run_schedule,
)
from .series import (
    SlidingStats,
    TimeSeries,
    compute_sliding_stats,
    load_series,
    save_series,
)
from .snippets import (
    Snippet,
    SnippetResult,
    export_curve_csv,
    export_profiles_csv,
    segment_count,
    segment_profiles,
    select_snippets,
)
from .zdist import (
    DistanceRow,
    distance_row,
    segment_distance_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ClassReport",
    "DistanceRow",
    "EvalReport",
    "LabelSequence",
    "LengthCandidate",
    "LengthReport",
    "MPdistParams",
    "MPdistProfile",
    "Schedule",
    "SlidingStats",
    "Snippet",
    "SnippetResult",
    "TimeSeries",
    "compute_sliding_stats",
    "criterion_score",
    "default_cost",
    "default_order_stat",
    "default_window_size",
    "distance_row",
    "evaluate",
    "export_curve_csv",
    "export_profiles_csv",
    "kk_partition",
    "label_series",
    "load_series",
    "load_training_samples",
    "lpt_partition",
    "make_grid",
    "mpdist_profile",
    "read_labels",
    "run_schedule",
    "save_series",
    "segment_count",
    "segment_distance_matrix",
    "segment_profiles",
    "select_length",
    "select_snippets",
    "write_labels",
]
