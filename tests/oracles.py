"""Naive reference implementations the fast code is checked against.

Everything here favors clarity over speed: explicit z-normalization,
full pairwise distance matrices, per-window scans.
"""

from itertools import combinations

import numpy as np

from sniplab.zdist import segment_distance_matrix


def z_norm(values):
    """Population z-normalization; constant input maps to all zeros.

    Constant is "all samples equal", not "std rounds to zero": a
    two-pass std of equal samples can leave a 1e-15 residue that would
    otherwise get normalized into a garbage unit-variance vector.  A
    spread so small that the std underflows to 0 counts as constant
    too, as the library's zero variance does.
    """
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    if std == 0.0 or values.max() == values.min():
        return np.zeros_like(values)
    return (values - values.mean()) / std


def znorm_euclid(a, b):
    """Euclidean distance between z-normalized copies."""
    return float(np.linalg.norm(z_norm(a) - z_norm(b)))


def znorm_subsequences(values, subseq_len):
    """All z-normalized subsequences of one length, row per start."""
    values = np.asarray(values, dtype=np.float64)
    count = values.size - subseq_len + 1
    return np.vstack([z_norm(values[i : i + subseq_len]) for i in range(count)])


def naive_distance_row(values, query_start, subseq_len):
    """One distance-matrix row by explicit per-column z-normalization."""
    query = values[query_start : query_start + subseq_len]
    count = len(values) - subseq_len + 1
    return np.array(
        [znorm_euclid(query, values[j : j + subseq_len]) for j in range(count)]
    )


def naive_mpdist(a, b, subseq_len, k):
    """Pairwise MPdist of two equal-length sequences, the long way.

    Builds the full cross-distance matrix of z-normalized
    ``subseq_len``-windows, concatenates row and column minima, and
    takes the k-th smallest (1-based).  When the concatenation has no
    more than k entries the maximum is returned instead.
    """
    a_rows = znorm_subsequences(a, subseq_len)
    b_rows = znorm_subsequences(b, subseq_len)
    cross = np.linalg.norm(a_rows[:, None, :] - b_rows[None, :, :], axis=2)
    p_ab = cross.min(axis=1)
    p_ba = cross.min(axis=0)
    merged = np.concatenate([p_ab, p_ba])
    if merged.size > k:
        return float(np.sort(merged)[k - 1])
    return float(merged.max())


def naive_mpdist_profile(values, segment_index, snippet_size, subseq_len, k):
    """Profile of one segment against every window, window by window."""
    values = np.asarray(values, dtype=np.float64)
    seg = values[segment_index * snippet_size : (segment_index + 1) * snippet_size]
    count = values.size - snippet_size + 1
    return np.array(
        [naive_mpdist(seg, values[j : j + snippet_size], subseq_len, k) for j in range(count)]
    )


def brute_sliding_min(row, window):
    """Per-window minimum by direct scan."""
    row = np.asarray(row, dtype=np.float64)
    return np.array([row[j : j + window].min() for j in range(row.size - window + 1)])


def two_pass_stats(values, window_len):
    """Per-window mean and population std, one window at a time."""
    values = np.asarray(values, dtype=np.float64)
    count = values.size - window_len + 1
    means = np.array([values[i : i + window_len].mean() for i in range(count)])
    stds = np.array([values[i : i + window_len].std() for i in range(count)])
    return means, stds


def exhaustive_min_area(profile_matrix, num_snippets):
    """Smallest profile area over every segment subset of a given size."""
    profile_matrix = np.asarray(profile_matrix, dtype=np.float64)
    best = np.inf
    for subset in combinations(range(profile_matrix.shape[0]), num_snippets):
        best = min(best, float(profile_matrix[list(subset)].min(axis=0).sum()))
    return best


def distance_space_profile(series, segment_index, params, stats):
    """MPdist profile selected on distances rather than correlations.

    Every entry of the segment's distance matrix is converted first,
    then the column minima, per-row sliding minima and a full sort pick
    the k-th smallest of each window's concatenated profile.  The
    library selects on negated correlations instead; the two must agree
    bit for bit.
    """
    m = params.snippet_size
    width = params.profile_width
    rows = segment_distance_matrix(series, stats, segment_index * m, m)
    segment_side = np.vstack([brute_sliding_min(row, width) for row in rows])
    series_side = rows.min(axis=0)
    count = series.n - m + 1
    series_side_windows = np.vstack([series_side[j : j + width] for j in range(count)]).T
    merged = np.concatenate([segment_side, series_side_windows])
    if merged.shape[0] > params.k:
        return np.sort(merged, axis=0)[params.k - 1]
    return merged.max(axis=0)


def stacked_selection(profile_matrix, num_snippets):
    """Greedy selection and nearest-segment attribution on a stacked matrix.

    The plain algorithm on an explicit segments-by-windows array: each
    round adds the row with the smallest area under the running minimum
    (ties to the lower row), then every column goes to its ``argmin``
    row.  Returns the chosen rows in greedy order, the final curve, the
    per-window nearest row, the per-row window counts and the largest
    entry.
    """
    matrix = np.asarray(profile_matrix, dtype=np.float64)
    chosen = []
    curve = np.full(matrix.shape[1], np.inf)
    for _ in range(num_snippets):
        areas = np.minimum(matrix, curve).sum(axis=1)
        areas[chosen] = np.inf
        best = int(np.argmin(areas))
        chosen.append(best)
        curve = np.minimum(curve, matrix[best])
    nearest = np.argmin(matrix, axis=0)
    counts = np.bincount(nearest, minlength=matrix.shape[0])
    return chosen, curve, nearest, counts, float(matrix.max())


def covering_sums(profile_matrix, snippet_size):
    """Each row summed over the windows that cover each point, span by span.

    Of ``N`` windows of length ``snippet_size``, point ``t`` is covered
    by windows ``max(0, t - snippet_size + 1)`` to ``min(t, N - 1)``.
    Returns a rows-by-points array, one direct sum per entry.
    """
    matrix = np.asarray(profile_matrix, dtype=np.float64)
    num_windows = matrix.shape[1]
    sums = np.empty((matrix.shape[0], num_windows + snippet_size - 1))
    for t in range(sums.shape[1]):
        span = matrix[:, max(0, t - snippet_size + 1) : min(t, num_windows - 1) + 1]
        sums[:, t] = span.sum(axis=1)
    return sums


def _mask_loop_match(truth, pred):
    """Greedy maximal-overlap matching, one boolean mask per class pair."""
    truth_classes = np.unique(truth)
    pred_classes = np.unique(pred)
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
        key=lambda cell: (-cell[0], cell[1], tuple(-o for o in columns[cell[2]]), cell[2])
    )
    matched = {}
    used_pred = set()
    for count, c, p in cells:
        if c in matched or p in used_pred:
            continue
        matched[c] = p
        used_pred.add(p)
    return truth_classes, matched


def mask_loop_report(pred, truth):
    """Evaluation document of a predicted labeling, by per-class mask passes.

    ``pred`` and ``truth`` are equal-length integer arrays.  Classes are
    matched greedily by descending overlap (ties: lower truth class, then
    the larger predicted column, then the lower predicted id); each truth
    class then counts tp, fp and fn with full passes over the labels.
    Returns the same document as ``EvalReport.to_dict``.
    """
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    truth_classes, matched = _mask_loop_match(truth, pred)
    classes = []
    for c in truth_classes:
        c = int(c)
        truth_mask = truth == c
        p = matched.get(c)
        if p is None:
            tp = fp = 0
        else:
            pred_mask = pred == p
            tp = int(np.count_nonzero(truth_mask & pred_mask))
            fp = int(np.count_nonzero(pred_mask)) - tp
        fn = int(np.count_nonzero(truth_mask)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
        classes.append(
            {
                "truth_class": c,
                "predicted_class": p,
                "tp": tp,
                "fp": fp,
                "fn": fn,
                "precision": precision,
                "recall": recall,
                "f1": f1,
            }
        )
    macro = float(np.mean([entry["f1"] for entry in classes]))
    return {"schema": 1, "macro_f1": macro, "classes": classes}
