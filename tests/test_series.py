import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from sniplab import TimeSeries, compute_sliding_stats, load_series, save_series
from oracles import two_pass_stats


class TestTimeSeries:
    def test_basic_construction(self):
        s = TimeSeries([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.values.dtype == np.float64
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])

    def test_values_are_read_only(self):
        s = TimeSeries([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeSeries(np.ones((2, 2)))

    def test_rejects_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            TimeSeries([1.0])

    def test_rejects_non_finite_with_position(self):
        with pytest.raises(ValueError, match="position 2"):
            TimeSeries([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(ValueError, match="position 0"):
            TimeSeries([np.inf, 2.0])

    @pytest.mark.parametrize("peak", [1e76, 1e-76, -1e76])
    def test_rejects_magnitude_out_of_range(self, peak):
        with pytest.raises(ValueError, match=r"outside \[1e-75, 1e75\]") as err:
            TimeSeries([0.0, peak, peak / 2])
        assert f"{abs(peak):g}" in str(err.value)

    @pytest.mark.parametrize("peak", [1e75, 1e-75, 0.0])
    def test_accepts_bounds_and_all_zeros(self, peak):
        assert TimeSeries([0.0, peak, -peak]).n == 3


class TestLoadSeries:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        s = load_series(path)
        assert s.n == 3
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "nope.csv")

    def test_bad_cell_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.0\n3.0\n4.0\nabc\n6.0\n")
        with pytest.raises(ValueError, match="row 5"):
            load_series(path)

    def test_oversized_cell_names_row(self, tmp_path):
        # Past the csv module's field size limit (131,072 characters).
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.0\n" + "1" * 200_000 + "\n")
        with pytest.raises(ValueError, match="row 3 .* field larger than field limit"):
            load_series(path)

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n2.0\n")
        s = load_series(path)
        np.testing.assert_array_equal(s.values, [1.0, 2.0])

    @pytest.mark.parametrize(
        "text",
        ["\nvalue\n1\n2\n3\n", "  \n,\n\nvalue\n1\n2\n3\n"],
        ids=["blank-row", "whitespace-and-empty-cells"],
    )
    def test_header_after_blank_rows(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        np.testing.assert_array_equal(load_series(path).values, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "text, row, cell",
        [("\nvalue\nname\n1\n2\n", 3, "name"), ("\n1\nvalue\n2\n3\n", 3, "value")],
        ids=["second-text-row", "text-after-number"],
    )
    def test_only_first_non_blank_row_is_a_header(self, tmp_path, text, row, cell):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"non-numeric cell '{cell}' at row {row}, column 0"):
            load_series(path)

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # A UTF-8 BOM before a numeric first cell must not make it a header.
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        np.testing.assert_array_equal(load_series(path).values, [1.5, 2.5, 3.5])

    def test_second_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,10.0\n2.0,20.0\n3.0,30.0\n")
        s = load_series(path, column=1)
        np.testing.assert_array_equal(s.values, [10.0, 20.0, 30.0])

    def test_column_out_of_range(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="column"):
            load_series(path, column=4)

    def test_negative_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="column index must be non-negative, got -1"):
            load_series(path, column=-1)

    @pytest.mark.parametrize("column", [1.5, True], ids=["float", "bool"])
    def test_non_integer_column(self, tmp_path, column):
        # 1.5 raised TypeError from the row index, and True read column 1.
        path = tmp_path / "s.csv"
        path.write_text("1.0,10.0\n2.0,20.0\n")
        with pytest.raises(ValueError, match="column index must be an integer"):
            load_series(path, column=column)

    def test_numpy_integer_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,10.0\n2.0,20.0\n")
        np.testing.assert_array_equal(load_series(path, column=np.int64(1)).values, [10.0, 20.0])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        path = tmp_path / "s.csv"
        path.write_text(f"1.0\n2.0\n{cell}\n4.0\n")
        with pytest.raises(ValueError, match=f"non-finite value '{cell}' at row 3"):
            load_series(path)

    @pytest.mark.parametrize("text, count", [("1.0\n", 1), ("value\n\n", 0)])
    def test_fewer_than_two_samples(self, tmp_path, text, count):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"has {count} samples, need at least 2"):
            load_series(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n\n2.0\n\n")
        assert load_series(path).n == 2

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        s = TimeSeries(rng.standard_normal(50) * 1e3)
        path = tmp_path / "out.csv"
        save_series(s, path)
        back = load_series(path)
        np.testing.assert_array_equal(back.values, s.values)


class TestSlidingStats:
    # The statistics the correlation kernel reads, all in the units of
    # ``centred``: window means, sums of squared deviations, and a zero
    # ``sumsq`` marking a constant window.
    def test_small_example(self):
        # Window length 2 takes a scale of 1, so ``centred`` is x - 2.5.
        stats = compute_sliding_stats(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(stats.centred, [-1.5, -0.5, 0.5, 1.5])
        np.testing.assert_array_equal(stats.centred_means, [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(stats.sumsq, [0.5, 0.5, 0.5])

    def test_constant_series(self):
        stats = compute_sliding_stats(TimeSeries([5.0, 5.0, 5.0]), 2)
        np.testing.assert_array_equal(stats.sumsq, [0.0, 0.0])

    def test_full_window(self):
        values = np.array([1.0, 4.0, 2.0, 7.0])
        stats = compute_sliding_stats(TimeSeries(values), 4)
        assert stats.centred_means.size == stats.sumsq.size == 1
        means, stds = two_pass_stats(stats.centred, 4)
        np.testing.assert_allclose(stats.centred_means, means, atol=1e-15)
        np.testing.assert_allclose(stats.sumsq / 4, stds**2)

    def test_window_out_of_range(self):
        s = TimeSeries([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            compute_sliding_stats(s, 0)
        with pytest.raises(ValueError):
            compute_sliding_stats(s, 4)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_two_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 1000))
        window = int(rng.integers(1, n + 1))
        values = rng.standard_normal(n) * rng.uniform(0.1, 100)
        stats = compute_sliding_stats(TimeSeries(values), window)
        means, stds = two_pass_stats(stats.centred, window)
        np.testing.assert_allclose(stats.centred_means, means, atol=1e-9)
        np.testing.assert_allclose(stats.sumsq / window, stds**2, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 7, 16, 100, 255, 256])
    def test_centred_is_power_of_two_scaling(self, window):
        # ``centred`` is x - x.mean() times a power of two p, exactly, with
        # window * p * p in [1, 4).
        values = 1e3 + np.random.default_rng(window).standard_normal(300)
        stats = compute_sliding_stats(TimeSeries(values), window)
        deviations = values - values.mean()
        scale = stats.centred[0] / deviations[0]
        assert np.frexp(scale)[0] == 0.5
        assert 1 <= window * scale * scale < 4
        np.testing.assert_array_equal(stats.centred, deviations * scale)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_constant_windows_match_max_min_oracle(self, data):
        # Few distinct values, -0.0 and 0.0 among them, plus flat runs of
        # about one window on drawn starts: runs begin and end on window
        # edges and inside windows.  The window sums round, so a constant
        # window's ``sumsq`` is 0 only if it is found constant; distinct
        # values lie far enough apart that no other window's is.
        n = data.draw(st.integers(min_value=2, max_value=80))
        window = data.draw(st.integers(min_value=1, max_value=n))
        alphabet = st.sampled_from([0.0, -0.0, 0.1, -1 / 3, 7.3, 1e3 + 0.1])
        values = np.array(data.draw(st.lists(alphabet, min_size=n, max_size=n)))
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            start = data.draw(st.integers(min_value=0, max_value=n - 1))
            length = data.draw(st.sampled_from([window - 1, window, window + 1, 2 * window]))
            values[start : start + length] = data.draw(alphabet)
        stats = compute_sliding_stats(TimeSeries(values), window)
        windows = sliding_window_view(values, window)
        constant = windows.max(axis=1) == windows.min(axis=1)
        np.testing.assert_array_equal(stats.sumsq == 0.0, constant)

    @pytest.mark.parametrize("offset", [1e3, -1e7, 1e9])
    def test_offset_leaves_variances(self, offset):
        # Centred on the series mean first, the sums of squared deviations
        # of a shifted series match those of the unshifted one to the
        # input's own rounding.
        rng = np.random.default_rng(9)
        values = rng.standard_normal(300)
        shifted = compute_sliding_stats(TimeSeries(values + offset), 12)
        plain = compute_sliding_stats(TimeSeries(values), 12)
        np.testing.assert_allclose(shifted.sumsq, plain.sumsq, rtol=1e-6)

    def test_variance_roundoff_clamped(self):
        # A huge offset with tiny bumps: the scaled sums of squared
        # deviations must come out non-negative and finite.
        values = np.full(64, 1e9)
        values[::7] += 1e-3
        stats = compute_sliding_stats(TimeSeries(values), 8)
        assert np.all(stats.sumsq >= 0)
        assert np.all(np.isfinite(stats.sumsq))
