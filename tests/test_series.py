import numpy as np
import pytest

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

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n2.0\n")
        s = load_series(path)
        np.testing.assert_array_equal(s.values, [1.0, 2.0])

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
    def test_small_example(self):
        stats = compute_sliding_stats(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_allclose(stats.means, [1.5, 2.5, 3.5])
        np.testing.assert_allclose(np.sqrt(stats.variances), [0.5, 0.5, 0.5])

    def test_constant_series(self):
        stats = compute_sliding_stats(TimeSeries([5.0, 5.0, 5.0]), 2)
        np.testing.assert_array_equal(np.sqrt(stats.variances), [0.0, 0.0])

    def test_full_window(self):
        values = np.array([1.0, 4.0, 2.0, 7.0])
        stats = compute_sliding_stats(TimeSeries(values), 4)
        assert stats.means.size == 1
        np.testing.assert_allclose(stats.means[0], values.mean())
        np.testing.assert_allclose(np.sqrt(stats.variances)[0], values.std())

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
        means, stds = two_pass_stats(values, window)
        np.testing.assert_allclose(stats.means, means, atol=1e-9)
        np.testing.assert_allclose(np.sqrt(stats.variances), stds, atol=1e-9)

    def test_variance_roundoff_clamped(self):
        # A huge offset makes naive prefix-sum variance go slightly negative.
        values = np.full(64, 1e9)
        values[::7] += 1e-3
        stats = compute_sliding_stats(TimeSeries(values), 8)
        assert np.all(np.sqrt(stats.variances) >= 0)
        assert np.all(np.isfinite(np.sqrt(stats.variances)))
