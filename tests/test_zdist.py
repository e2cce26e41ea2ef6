import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sniplab import MPdistParams, TimeSeries, compute_sliding_stats, distance_row, mpdist_profile
from sniplab import zdist
from sniplab.zdist import _sliding_dots, neg_correlation_matrix, neg_correlations
from sniplab.zdist import segment_distance_matrix
from oracles import naive_distance_row, znorm_euclid


def _finite_floats(min_size, max_size):
    return st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    )


class TestZnormDistance:
    def test_identical(self):
        assert znorm_euclid([1.0, 5.0, 2.0], [1.0, 5.0, 2.0]) == 0.0

    def test_spec_value(self):
        d = znorm_euclid([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert d == pytest.approx(2 * math.sqrt(3), abs=1e-12)

    def test_both_constant(self):
        assert znorm_euclid([4.0, 4.0], [9.0, 9.0]) == 0.0

    def test_constant_vs_nonconstant(self):
        d = znorm_euclid([7.0, 7.0, 7.0, 7.0], [0.0, 1.0, 2.0, 3.0])
        assert d == pytest.approx(2.0, abs=1e-12)

    @given(_finite_floats(2, 32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, data):
        b = data.draw(_finite_floats(len(a), len(a)))
        assert znorm_euclid(a, b) == znorm_euclid(b, a)

    @given(
        _finite_floats(2, 16),
        st.data(),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_scale_invariance(self, a, data, alpha, beta):
        b = np.array(data.draw(_finite_floats(len(a), len(a))))
        # A spread that collapses under the affine map (alpha*spread
        # rounding away against beta) is a different window entirely;
        # keep the map well-conditioned.
        assume(alpha * (b.max() - b.min()) > 1e-3 * (1 + abs(beta)))
        base = znorm_euclid(a, b)
        assert znorm_euclid(a, alpha * b + beta) == pytest.approx(base, abs=1e-6)


class TestDistanceRow:
    def _row(self, values, seg_start, offset, l):
        series = TimeSeries(values)
        stats = compute_sliding_stats(series, l)
        return distance_row(series, stats, seg_start, offset, l)

    def test_self_column_is_exact_zero(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(40)
        row = self._row(values, seg_start=8, offset=3, l=5)
        assert row.entries[11] == 0.0

    def test_affine_window_matches(self):
        values = np.array([0.0, 1.0, 2.0, 9.0, 5.0, 7.0, 9.0, 1.0])
        row = self._row(values, seg_start=0, offset=0, l=3)
        # (0,1,2) against (5,7,9): same shape after z-normalization.
        assert row.entries[4] == pytest.approx(0.0, abs=1e-7)

    def test_spec_value_reversed_window(self):
        values = np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
        row = self._row(values, seg_start=0, offset=0, l=3)
        assert row.entries[3] == pytest.approx(2 * math.sqrt(3), abs=1e-9)

    def test_methods_agree(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(200)
        fast = self._row(values, 20, 4, 16)
        direct = naive_distance_row(values, 24, 16)
        np.testing.assert_allclose(fast.entries, direct, atol=1e-9)

    def test_stats_window_mismatch(self):
        series = TimeSeries(np.arange(20.0))
        stats = compute_sliding_stats(series, 4)
        with pytest.raises(ValueError, match="window"):
            distance_row(series, stats, 0, 0, 5)

    def test_row_out_of_range(self):
        series = TimeSeries(np.arange(10.0))
        stats = compute_sliding_stats(series, 4)
        with pytest.raises(ValueError):
            distance_row(series, stats, 8, 0, 4)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 300))
        l = int(rng.integers(2, min(64, n // 2)))
        values = rng.standard_normal(n) * rng.uniform(0.5, 20)
        if seed % 3 == 0:
            values[5 : 5 + l] = values[5]  # flat stretch
        start = int(rng.integers(0, n - 2 * l))
        row = self._row(values, start, 0, l)
        np.testing.assert_allclose(
            row.entries, naive_distance_row(values, start, l), atol=1e-6
        )

    def test_entries_bounded(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(150)
        for offset in range(4):
            row = self._row(values, 30, offset, 8)
            assert np.all(row.entries >= 0)
            assert np.all(row.entries <= 2 * math.sqrt(8) + 1e-6)

    def test_largest_samples_and_long_windows_stay_in_range(self):
        # Samples of 1e75, the largest a series may hold, in windows of
        # 2**14: the kernel's product of two windows' sums of squares must
        # not overflow, or every correlation would read 0.
        l = 1 << 14
        a = np.where(np.arange(l) % 3 == 0, 1e75, -1e75)
        row = self._row(np.concatenate([a, -a]), 0, 0, l)
        assert row.entries[0] == 0.0
        assert row.entries[l] == 2 * math.sqrt(l)

    def test_anticorrelated_hits_upper_bound(self):
        ramp = np.arange(6.0)
        values = np.concatenate([ramp, ramp[::-1]])
        row = self._row(values, 0, 0, 6)
        assert row.entries[6] == pytest.approx(2 * math.sqrt(6), abs=1e-9)


class TestSegmentDistanceMatrix:
    def test_shape_and_rows(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(100)
        series = TimeSeries(values)
        l = 6
        stats = compute_sliding_stats(series, l)
        mat = segment_distance_matrix(series, stats, seg_start=12, snippet_size=24)
        assert mat.shape == (24 - l + 1, 100 - l + 1)
        for i in (0, 7, mat.shape[0] - 1):
            np.testing.assert_allclose(
                mat[i], naive_distance_row(values, 12 + i, l), atol=1e-6
            )

    def test_snippet_shorter_than_window(self):
        series = TimeSeries(np.random.default_rng(5).standard_normal(100))
        stats = compute_sliding_stats(series, 10)
        with pytest.raises(ValueError, match="snippet size 5 is smaller than window length 10"):
            segment_distance_matrix(series, stats, seg_start=0, snippet_size=5)

    @pytest.mark.parametrize("seg_start", [-1, 90])
    def test_segment_outside_series(self, seg_start):
        series = TimeSeries(np.random.default_rng(5).standard_normal(100))
        stats = compute_sliding_stats(series, 10)
        with pytest.raises(ValueError, match=r"segment \[.*\) is outside a series of length 100"):
            segment_distance_matrix(series, stats, seg_start=seg_start, snippet_size=20)



@pytest.mark.parametrize("source_length", [400, 100])
@pytest.mark.parametrize(
    "entry",
    [
        lambda series, stats: mpdist_profile(series, 3, MPdistParams(20), stats=stats),
        lambda series, stats: distance_row(series, stats, 0, 0, 10),
        lambda series, stats: segment_distance_matrix(series, stats, 0, 20),
    ],
    ids=["mpdist_profile", "distance_row", "segment_distance_matrix"],
)
def test_stats_from_another_series_rejected(entry, source_length):
    # Window length 10 matches; the statistics' series does not.
    rng = np.random.default_rng(8)
    series = TimeSeries(rng.standard_normal(200))
    stats = compute_sliding_stats(TimeSeries(rng.standard_normal(source_length)), 10)
    with pytest.raises(ValueError, match=f"series of length {source_length}, not 200"):
        entry(series, stats)


def _streamed(stats, first_queries, num_rows, cuts):
    """Rows over columns [cuts[0], cuts[1]), [cuts[1], cuts[2]) and on, side by side.

    One :func:`neg_correlations` call per block, in order, on one workspace.
    """
    shape = np.shape(first_queries)
    work = np.empty((2, *shape, stats.sumsq.size + num_rows - 1))
    blocks = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        out = np.empty((*shape, num_rows, stop - start))
        for _ in neg_correlations(stats, first_queries, num_rows, columns=(start, stop), out=out, work=work):
            pass
        blocks.append(out)
    return np.concatenate(blocks, axis=-1)


class TestNegCorrelationColumns:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_streamed_blocks_equal_full_matrix(self, data):
        # Rows streamed through blocks of columns must be the full matrix
        # bit for bit: blocks of one column on, of equal sizes or drawn
        # cuts, narrower or wider than the rows are many, with a flat run
        # across a block edge.  A 1e3 offset makes the recurrence's
        # round-off show in the last bits.
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        n = data.draw(st.integers(min_value=4, max_value=120))
        l = data.draw(st.integers(min_value=1, max_value=n // 2))
        num_columns = n - l + 1
        if data.draw(st.booleans()):
            size = data.draw(st.integers(min_value=1, max_value=num_columns))
            inner = list(range(size, num_columns, size))
        else:
            inner = data.draw(st.lists(st.integers(1, num_columns - 1), max_size=6, unique=True))
        cuts = [0, *sorted(inner), num_columns]
        edge = data.draw(st.sampled_from(cuts[:-1]))
        run = data.draw(st.integers(min_value=max(0, edge - l), max_value=edge))
        values = 1e3 + rng.standard_normal(n)
        values[run : run + data.draw(st.integers(min_value=1, max_value=2 * l))] = values[run]
        stats = compute_sliding_stats(TimeSeries(values), l)
        first_query = data.draw(st.integers(min_value=0, max_value=num_columns - 1))
        num_rows = data.draw(st.integers(min_value=1, max_value=num_columns - first_query))
        full = neg_correlation_matrix(stats, first_query, num_rows)
        streamed = _streamed(stats, first_query, num_rows, cuts)
        np.testing.assert_array_equal(streamed.view(np.int64), full.view(np.int64))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sliding_dots_range_equals_full_row(self, data):
        # Row 0 over a column range must be that slice of the full row bit
        # for bit, from column 0 and up to the last column included.
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        n = data.draw(st.integers(min_value=2, max_value=120))
        l = data.draw(st.integers(min_value=1, max_value=n))
        offset = data.draw(st.sampled_from([0.0, 1e3]))
        stats = compute_sliding_stats(TimeSeries(offset + rng.standard_normal(n)), l)
        num_columns = n - l + 1
        query = data.draw(st.integers(min_value=0, max_value=num_columns - 1))
        start = data.draw(st.sampled_from([0, num_columns - 1]) | st.integers(0, num_columns - 1))
        stop = data.draw(
            st.sampled_from([start + 1, num_columns]) | st.integers(start + 1, num_columns)
        )
        full = _sliding_dots(stats, [query], 0, num_columns)[0]
        part = _sliding_dots(stats, [query], start, stop)[0]
        assert part.shape == (stop - start,)
        assert np.all(part == full[start:stop])

    @pytest.mark.parametrize("l", [2, 4, 8, 16, 32, 64])
    def test_column_zero_equals_single_row(self, l):
        # Column 0 starts a diagonal and carries no update round-off, so
        # each row's entry must be the bits of its query computed alone.
        # On a random walk with a 1e3 offset, any other order of the sum
        # shows in the last bits.
        values = 1e3 + np.cumsum(np.random.default_rng(5).standard_normal(3000))
        stats = compute_sliding_stats(TimeSeries(values), l)
        first_query, num_rows = 700, 2 * l
        rows = neg_correlation_matrix(stats, first_query, num_rows)
        for i in range(num_rows):
            alone = neg_correlation_matrix(stats, first_query + i, 1)
            assert rows[i, 0] == alone[0, 0], f"row {i}"

    @pytest.mark.parametrize("stride", [7, 8, 9])
    def test_one_column_of_two_segments_equals_each_alone(self, stride):
        # Two rows of two segments over a series of stride - 1 windows
        # leave each segment's diagonals stride float64 long, so at 8 the
        # seeds of both segments sit 64 bytes apart, the stride numpy
        # 2.4.6's np.negative misreads (x86-64).  A work array filled with
        # 7.0 shows any seed that is not written.
        series = TimeSeries(np.random.default_rng(8).standard_normal(stride))
        stats = compute_sliding_stats(series, 2)
        queries = [0, stride - 3]
        work = np.full((2, 2, stride), 7.0)
        rows = np.stack(
            [r.copy() for r in neg_correlations(stats, queries, 2, columns=(0, 1), work=work)]
        )
        for b, first_query in enumerate(queries):
            alone = neg_correlation_matrix(stats, first_query, 2)[:, :1]
            assert rows[:, b].tobytes() == alone.tobytes(), f"segment at {first_query}"

    def test_column_zero_computed_only_where_a_diagonal_starts(self):
        # A stream's first block seeds every diagonal, row 0 over all the
        # columns and column 0 of the rows after it, and later blocks
        # compute no cross products; a single row takes only row 0's.
        series = TimeSeries(np.random.default_rng(6).standard_normal(60))
        stats = compute_sliding_stats(series, 8)
        first_query = 20

        def calls(run):
            with mock.patch.object(zdist, "_sliding_dots", wraps=zdist._sliding_dots) as dots:
                run()
            return [(np.ravel(call.args[1]).tolist(), *call.args[2:4]) for call in dots.call_args_list]

        assert calls(lambda: distance_row(series, stats, first_query, 0, 8)) == [([first_query], 0, 53)]
        assert calls(lambda: _streamed(stats, first_query, 5, [0, 4, 10, 53])) == [
            ([first_query], 0, 53),
            ([0], first_query + 1, first_query + 5),
        ]


@st.composite
def _shifted_series(draw):
    """Noise or a noisy sine, scaled, on a ramp, plus an offset kept apart."""
    n = draw(st.integers(min_value=8, max_value=120))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = np.arange(n)
    if draw(st.booleans()):
        shape = rng.standard_normal(n)
    else:
        period = draw(st.integers(min_value=3, max_value=20))
        shape = np.sin(2 * np.pi * t / period) + 0.1 * rng.standard_normal(n)
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    rise = draw(st.one_of(st.sampled_from([0.0, 1e7]), st.floats(min_value=0.0, max_value=1e7)))
    offset = draw(
        st.one_of(
            st.sampled_from([0.0, 1e3, -1e5, 1e7, 1e9, -1e9]),
            st.floats(min_value=-1e9, max_value=1e9),
        )
    )
    return scale * shape + rise * t / (n - 1), offset


class TestOffsets:
    @given(_shifted_series(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_distance_row_matches_oracle(self, case, data):
        # The oracle runs on the stored series minus the offset: exact
        # whenever the offset dominates the samples (Sterbenz), so it sees
        # the same shapes without the offset's cancellation.
        values, offset = case
        series = TimeSeries(values + offset)
        l = data.draw(st.integers(min_value=1, max_value=min(32, series.n // 2)))
        query = data.draw(st.integers(min_value=0, max_value=series.n - l))
        row = distance_row(series, compute_sliding_stats(series, l), query, 0, l)
        expected = naive_distance_row(series.values - offset, query, l)
        np.testing.assert_allclose(row.entries, expected, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("offset", [0.0, 100.0, 1e4])
    def test_affine_copy_reads_zero(self, offset):
        # A window and its copy 3a + offset, end to end.  Statistics from
        # prefix sums, with raw dot products, read 1.8e-6 here at offset 100.
        a = np.random.default_rng(7).standard_normal(16)
        pair = TimeSeries(np.concatenate([a, 3.0 * a + offset]))
        row = distance_row(pair, compute_sliding_stats(pair, 16), 0, 0, 16)
        assert row.entries[16] == 0.0

    def test_bit_equal_windows_read_zero(self):
        # Bit-equal windows have equal centred samples, so a row-0 cross
        # product sums the same squares in the same order as their sumsq,
        # and sqrt(sumsq * sumsq) gives back sumsq: rho is exactly 1.
        values = np.tile(np.sin(2 * np.pi * np.arange(8) / 8) + np.arange(8) / 8, 20) + 1e3
        series = TimeSeries(values)
        stats = compute_sliding_stats(series, 4)
        for query in (0, 3, 45):
            row = distance_row(series, stats, query, 0, 4)
            assert np.all(row.entries[query % 8 :: 8] == 0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="rows after row 0 carry the diagonal update's absolute round-off "
        "into low-variance windows (open defect, see CHANGES.md)",
    )
    def test_low_variance_segment_rows_match_oracle(self):
        # A noisy sine with 2-sample windows, some of variance about 1e-8:
        # row 0 of each 3-sample segment stays within 3e-8 of the oracle,
        # row 1 of the segments at 6 and 18 reads 1.7e-6 off.
        rng = np.random.default_rng(622)
        period = int(rng.integers(3, 21))
        values = np.sin(2 * np.pi * np.arange(25) / period) + 0.1 * rng.standard_normal(25)
        series = TimeSeries(values)
        stats = compute_sliding_stats(series, 2)
        for seg_start in range(0, 23, 3):
            matrix = segment_distance_matrix(series, stats, seg_start, 3)
            for i, row in enumerate(matrix):
                expected = naive_distance_row(values, seg_start + i, 2)
                np.testing.assert_allclose(row, expected, rtol=0, atol=1e-6)
