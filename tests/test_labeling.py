import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sniplab import (
    LabelSequence,
    MPdistParams,
    TimeSeries,
    evaluate,
    label_series,
    read_labels,
    select_snippets,
    write_labels,
)
from oracles import mask_loop_report
from seriesgen import two_regime_series


class TestLabelSequence:
    def test_basic(self):
        seq = LabelSequence(np.array([0, 1, 1, 0]))
        assert seq.n == 4
        np.testing.assert_array_equal(np.unique(seq.labels), [0, 1])

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="integers"):
            LabelSequence(np.array([0.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            LabelSequence(np.array([], dtype=np.int64))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            LabelSequence(np.zeros((2, 2), dtype=np.int64))

    def test_read_only(self):
        seq = LabelSequence(np.array([0, 1]))
        with pytest.raises(ValueError):
            seq.labels[0] = 5


class TestLabelSeries:
    def _result(self, block_len, num_snippets, n=512, noise=0.05, seed=2):
        values, regime = two_regime_series(
            n=n, period=16, block_len=block_len, noise=noise, seed=seed
        )
        series = TimeSeries(values)
        result = select_snippets(series, MPdistParams(snippet_size=16), num_snippets)
        return result, series, regime

    def test_length_matches_series(self):
        result, series, _ = self._result(block_len=128, num_snippets=2)
        labels = label_series(result)
        assert labels.n == series.n

    def test_single_snippet_labels_everything_zero(self):
        result, _, _ = self._result(block_len=128, num_snippets=1)
        labels = label_series(result)
        assert set(np.unique(labels.labels)) == {0}

    def test_trailing_points_inherit_last_window(self):
        result, series, _ = self._result(block_len=128, num_snippets=2)
        labels = label_series(result)
        last_window = series.n - 16
        assert np.all(labels.labels[last_window:] == labels.labels[last_window])

    def test_boundaries_off_by_less_than_a_window(self):
        # Noise-free regimes give exact argmin margins, so every label
        # change must sit within one window of a true regime flip.
        result, _, regime = self._result(block_len=128, num_snippets=2, noise=0.0)
        labels = label_series(result).labels
        changes = np.flatnonzero(np.diff(labels)) + 1
        true_flips = np.flatnonzero(np.diff(regime)) + 1
        assert changes.size == true_flips.size
        assert np.all(np.abs(changes - true_flips) < 16)


class TestEvaluate:
    def test_perfect_prediction(self):
        truth = LabelSequence(np.array([0, 0, 1, 1, 2, 2]))
        report = evaluate(truth, truth)
        assert report.macro_f1 == 1.0
        for cls in report.classes:
            assert (cls.precision, cls.recall, cls.f1) == (1.0, 1.0, 1.0)

    def test_counts_example(self):
        truth = LabelSequence(np.array([0] * 10 + [1] * 4))
        pred = LabelSequence(np.array([0] * 8 + [1] * 2 + [0] * 2 + [1] * 2))
        report = evaluate(pred, truth)
        first = report.classes[0]
        assert (first.tp, first.fp, first.fn) == (8, 2, 2)
        assert first.precision == pytest.approx(0.8)
        assert first.recall == pytest.approx(0.8)
        assert first.f1 == pytest.approx(0.8)
        second = report.classes[1]
        assert (second.tp, second.fp, second.fn) == (2, 2, 2)
        assert report.macro_f1 == pytest.approx((0.8 + 0.5) / 2)

    def test_label_ids_carry_no_meaning(self):
        truth = LabelSequence(np.array([0] * 10 + [1] * 10))
        flipped = LabelSequence(np.array([7] * 10 + [3] * 10))
        report = evaluate(flipped, truth)
        assert report.macro_f1 == 1.0
        assert report.classes[0].predicted_class == 7
        assert report.classes[1].predicted_class == 3

    def test_one_class_prediction(self):
        truth = LabelSequence(np.array([0] * 6 + [1] * 2))
        pred = LabelSequence(np.zeros(8, dtype=np.int64))
        report = evaluate(pred, truth)
        first, second = report.classes
        assert first.recall == 1.0
        assert first.precision == pytest.approx(0.75)
        assert second.predicted_class is None
        assert second.f1 == 0.0

    def test_unmatched_truth_class_scores_zero(self):
        truth = LabelSequence(np.array([0, 0, 1, 1, 2, 2]))
        pred = LabelSequence(np.array([0, 0, 1, 1, 1, 1]))
        report = evaluate(pred, truth)
        assert report.classes[2].f1 == 0.0
        assert report.classes[2].predicted_class is None

    def test_length_mismatch_names_both(self):
        with pytest.raises(ValueError) as err:
            evaluate(
                LabelSequence(np.zeros(3, dtype=np.int64)),
                LabelSequence(np.zeros(5, dtype=np.int64)),
            )
        assert "3" in str(err.value) and "5" in str(err.value)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_mask_loop_reference(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        truth_ids = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
        # Up to seven predicted ids, far apart in int64: more predicted than
        # truth classes, or fewer, so that some truth class goes unmatched.
        pred_ids = data.draw(
            st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=7, unique=True)
        )
        truth = data.draw(st.lists(st.sampled_from(truth_ids), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            # The truth under renamed ids, with some points moved.
            rename = {c: pred_ids[i % len(pred_ids)] for i, c in enumerate(truth_ids)}
            pred = [rename[c] for c in truth]
            for position in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
                pred[position] = data.draw(st.sampled_from(pred_ids))
        else:
            pred = data.draw(st.lists(st.sampled_from(pred_ids), min_size=n, max_size=n))
        pred = np.asarray(pred, dtype=np.int64)
        truth = np.asarray(truth, dtype=np.int64)
        report = evaluate(LabelSequence(pred), LabelSequence(truth))
        assert report.to_dict() == mask_loop_report(pred, truth)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_renaming_predictions_changes_nothing(self, raw):
        truth = LabelSequence(np.asarray(raw, dtype=np.int64))
        rng = np.random.default_rng(len(raw))
        pred_arr = rng.integers(0, 3, size=len(raw))
        renamed = 10 + ((pred_arr + 1) % 3)
        base = evaluate(LabelSequence(pred_arr), truth)
        shuffled = evaluate(LabelSequence(renamed), truth)
        assert shuffled.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)
        for a, b in zip(base.classes, shuffled.classes):
            assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_f1_is_harmonic_mean(self, data):
        n = data.draw(st.integers(min_value=2, max_value=50))
        truth = data.draw(
            st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
                lambda v: np.asarray(v, dtype=np.int64)
            )
        )
        pred = data.draw(
            st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
                lambda v: np.asarray(v, dtype=np.int64)
            )
        )
        report = evaluate(LabelSequence(pred), LabelSequence(truth))
        assert 0.0 <= report.macro_f1 <= 1.0
        for cls in report.classes:
            lhs = cls.f1 * (cls.precision + cls.recall)
            assert lhs == pytest.approx(2 * cls.precision * cls.recall, abs=1e-12)


class TestLabelFiles:
    def test_roundtrip(self, tmp_path):
        labels = LabelSequence(np.array([0, 1, 2, 1, 0]))
        path = tmp_path / "labels.txt"
        write_labels(labels, path)
        back = read_labels(path)
        np.testing.assert_array_equal(back.labels, labels.labels)

    def test_bad_line_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\nbanana\n")
        with pytest.raises(ValueError, match="line 3"):
            read_labels(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no labels"):
            read_labels(path)
