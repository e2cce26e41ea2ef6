import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sniplab
from sniplab import cli, mpdist, scheduler
from sniplab.cli import main
from sniplab.length_select import select_length
from sniplab.series import load_series, save_series
from sniplab import TimeSeries
from seriesgen import two_regime_series


@pytest.fixture
def series_csv(tmp_path):
    values, regime = two_regime_series(n=512, period=16, block_len=128, noise=0.05, seed=9)
    path = tmp_path / "series.csv"
    save_series(TimeSeries(values), path)
    return path, regime


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDiscover:
    def test_json_to_stdout(self, series_csv, capsys):
        path, _ = series_csv
        code, out, _ = _run(
            ["discover", "--input", str(path), "--m", "16", "--k", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["m"] == 16
        assert len(doc["snippets"]) == 2

    def test_output_file_and_exports(self, series_csv, tmp_path, capsys):
        path, _ = series_csv
        out_json = tmp_path / "result.json"
        curve = tmp_path / "curve.csv"
        profiles = tmp_path / "profiles.csv"
        code, out, _ = _run(
            [
                "discover", "--input", str(path), "--m", "16",
                "--output", str(out_json),
                "--export-curve", str(curve),
                "--export-profiles", str(profiles),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_json.read_text())
        assert doc["k"] >= 1  # MPdist order statistic
        assert len(curve.read_text().strip().splitlines()) == 512 - 16 + 1
        assert profiles.read_text().startswith("segment_")

    def test_missing_m_is_usage_error(self, series_csv, capsys):
        path, _ = series_csv
        code, _, _ = _run(["discover", "--input", str(path)], capsys)
        assert code == 2

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code, _, err = _run(
            ["discover", "--input", str(tmp_path / "nope.csv"), "--m", "16"], capsys
        )
        assert code == 1
        assert "nope.csv" in err

    def test_bad_k_is_usage_error(self, series_csv, capsys):
        path, _ = series_csv
        code, _, err = _run(
            ["discover", "--input", str(path), "--m", "16", "--k", "0"], capsys
        )
        assert code == 2
        assert "--k" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--m", "16", "--l", "17"], "--l"),
            (["--m", "16", "--mpdist-k", "0"], "--mpdist-k"),
            (["--m", "1"], "--m"),
            (["--m", "abc"], "--m"),
            (["--m", "16", "--l", "0"], "--l"),
        ],
    )
    def test_bad_mpdist_flags_are_usage_errors(self, series_csv, capsys, flags, named):
        path, _ = series_csv
        code, _, err = _run(["discover", "--input", str(path)] + flags, capsys)
        assert code == 2
        assert named in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_negative_column_is_usage_error(self, series_csv, capsys):
        path, _ = series_csv
        code, _, err = _run(
            ["discover", "--input", str(path), "--m", "16", "--column", "-1"], capsys
        )
        assert code == 2
        assert "--column" in err.splitlines()[-1]

    def test_huge_magnitude_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        values, _ = two_regime_series(n=256, period=16, block_len=64, noise=0.05, seed=3)
        path.write_text("".join(f"{v * 1e200!r}\n" for v in values))
        code, out, err = _run(["discover", "--input", str(path), "--m", "16"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "RuntimeWarning" not in err

    def test_out_of_memory_is_runtime_error(self, series_csv, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "select_snippets", exhausted)
        path, _ = series_csv
        code, out, err = _run(["discover", "--input", str(path), "--m", "16"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err


class TestWorkers:
    """``--workers`` threads each segment profile of ``discover`` and ``label``."""

    @pytest.fixture(autouse=True)
    def split_every_segment(self, monkeypatch):
        # The reference series is too short to split at the default part
        # size; at one byte, every k > 2 segment streams through parts of
        # the profile width.  m = 16 defaults to k = 2, so the tests that
        # split pass --mpdist-k 3.
        monkeypatch.setattr(mpdist, "PART_BYTES", 1)

    def test_discover_outputs_identical_across_workers(self, series_csv, tmp_path, capsys):
        path, _ = series_csv
        outputs = []
        for workers in ("1", "2", "3"):
            files = [tmp_path / f"{workers}_{name}" for name in ("doc.json", "c.csv", "p.csv")]
            code, _, _ = _run(
                [
                    "discover", "--input", str(path), "--m", "16", "--k", "3",
                    "--mpdist-k", "3", "--workers", workers, "--output", str(files[0]),
                    "--export-curve", str(files[1]), "--export-profiles", str(files[2]),
                ],
                capsys,
            )
            assert code == 0
            outputs.append([f.read_bytes() for f in files])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_label_outputs_identical_across_workers(self, series_csv, capsys):
        path, _ = series_csv
        outputs = []
        for workers in ("1", "2", "3"):
            code, out, _ = _run(
                ["label", "--input", str(path), "--m", "16", "--mpdist-k", "3", "--workers", workers],
                capsys,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["discover", "label"])
    def test_unsplit_outputs_identical_across_workers(self, series_csv, capsys, monkeypatch, command):
        # Back at the default part size (undoing the class's fixture), and
        # at m = 16 (k = 2) the 32 segments are profiled in one range per
        # thread.
        monkeypatch.undo()
        path, _ = series_csv
        outputs = []
        for workers in ("1", "2", "3"):
            code, out, _ = _run(
                [command, "--input", str(path), "--m", "16", "--k", "3", "--workers", workers],
                capsys,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_env_sets_default(self, series_csv, capsys, monkeypatch):
        path, _ = series_csv
        argv = ["discover", "--input", str(path), "--m", "16"]
        _, solo, _ = _run(argv + ["--workers", "1"], capsys)
        monkeypatch.setenv("SNIPLAB_WORKERS", "3")
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert out == solo

    @pytest.mark.parametrize("command", ["discover", "label"])
    def test_bad_workers_flag_is_usage_error(self, series_csv, capsys, command):
        path, _ = series_csv
        code, out, err = _run(
            [command, "--input", str(path), "--m", "16", "--workers", "0"], capsys
        )
        assert code == 2
        assert out == ""
        assert "--workers" in err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["discover", "label"])
    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_workers_env_is_usage_error(self, series_csv, capsys, monkeypatch, command, value):
        path, _ = series_csv
        monkeypatch.setenv("SNIPLAB_WORKERS", value)
        code, out, err = _run([command, "--input", str(path), "--m", "16"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: SNIPLAB_WORKERS") and err.count("\n") == 1

    def test_flag_overrides_bad_env(self, series_csv, capsys, monkeypatch):
        path, _ = series_csv
        monkeypatch.setenv("SNIPLAB_WORKERS", "two")
        code, _, _ = _run(
            ["label", "--input", str(path), "--m", "16", "--workers", "2"], capsys
        )
        assert code == 0


class TestSweep:
    def test_picks_length_from_grid(self, series_csv, tmp_path, capsys):
        path, _ = series_csv
        code, out, _ = _run(
            [
                "sweep", "--input", str(path),
                "--m-min", "8", "--m-max", "32", "--k", "2", "--no-log",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["m_best"] in (8, 16, 32)
        assert [c["m"] for c in doc["candidates"]] == [8, 16, 32]

    def test_worker_count_never_changes_output(self, series_csv, tmp_path, capsys):
        path, _ = series_csv
        outputs = {}
        for workers in ("1", "2"):
            out_json = tmp_path / f"report_{workers}.json"
            snip_json = tmp_path / f"snippets_{workers}.json"
            code, _, _ = _run(
                [
                    "sweep", "--input", str(path),
                    "--m-min", "8", "--m-max", "32",
                    "--workers", workers, "--no-log",
                    "--output", str(out_json),
                    "--output-snippets", str(snip_json),
                ],
                capsys,
            )
            assert code == 0
            outputs[workers] = (out_json.read_bytes(), snip_json.read_bytes())
        assert outputs["1"] == outputs["2"]

    def test_winner_exports_equal_discover_exports(self, series_csv, tmp_path, capsys):
        path, _ = series_csv

        def run_with_exports(argv):
            files = [tmp_path / f"{argv[0]}-curve.csv", tmp_path / f"{argv[0]}-profiles.csv"]
            code, out, _ = _run(
                argv + [
                    "--input", str(path), "--k", "2", "--workers", "1",
                    "--export-curve", str(files[0]), "--export-profiles", str(files[1]),
                ],
                capsys,
            )
            assert code == 0
            return out, [f.read_bytes() for f in files]

        out, swept = run_with_exports(["sweep", "--m-min", "8", "--m-max", "64", "--no-log"])
        m_best = json.loads(out)["m_best"]
        assert m_best == 32
        _, discovered = run_with_exports(["discover", "--m", str(m_best)])
        assert swept == discovered

    def test_valid_l_frac(self, series_csv, capsys):
        path, _ = series_csv
        code, out, _ = _run(
            [
                "sweep", "--input", str(path), "--m-min", "8", "--m-max", "32", "--k", "2",
                "--l-frac", "0.75", "--no-log", "--workers", "1",
            ],
            capsys,
        )
        assert code == 0
        report, _ = select_length(
            load_series(path), [8, 16, 32], 2, l_frac=0.75, training_log=False
        )
        assert out == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_inverted_range_is_usage_error(self, series_csv, capsys):
        path, _ = series_csv
        code, _, err = _run(
            ["sweep", "--input", str(path), "--m-min", "64", "--m-max", "8"], capsys
        )
        assert code == 2
        assert "--m-min" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--m-min", "8", "--m-max", "32", "--k", "1"], "--k"),
            (["--m-min", "1", "--m-max", "8"], "--m-min"),
            (["--m-min", "abc", "--m-max", "8"], "--m-min"),
            (["--m-min", "8", "--m-max", "32", "--l-frac", "0"], "--l-frac"),
            (["--m-min", "8", "--m-max", "32", "--l-frac", "nan"], "--l-frac"),
            (["--m-min", "8", "--m-max", "32", "--l-frac", "1.5"], "--l-frac"),
            (["--m-min", "8", "--m-max", "32", "--workers", "0"], "--workers"),
        ],
    )
    def test_bad_length_flags_are_usage_errors(self, series_csv, capsys, flags, named):
        path, _ = series_csv
        code, _, err = _run(["sweep", "--input", str(path), "--no-log"] + flags, capsys)
        assert code == 2
        assert named in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--grid", "arith", "--step", "0"], ["--grid", "arith", "--step", "-3"], ["--step", "5"]],
    )
    def test_bad_step_is_usage_error(self, series_csv, capsys, flags):
        path, _ = series_csv
        code, out, err = _run(
            ["sweep", "--input", str(path), "--m-min", "8", "--m-max", "32", "--no-log"] + flags,
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--step" in err.splitlines()[-1]

    def test_arith_grid_with_step(self, series_csv, capsys):
        path, _ = series_csv
        code, out, _ = _run(
            [
                "sweep", "--input", str(path),
                "--m-min", "16", "--m-max", "32",
                "--grid", "arith", "--step", "16", "--no-log",
            ],
            capsys,
        )
        assert code == 0
        assert [c["m"] for c in json.loads(out)["candidates"]] == [16, 32]

    def test_training_log_written_and_reused(self, series_csv, tmp_path, capsys):
        path, _ = series_csv
        log = tmp_path / "timings.jsonl"
        argv = [
            "sweep", "--input", str(path),
            "--m-min", "8", "--m-max", "32",
            "--training-log", str(log),
        ]
        code, first, _ = _run(argv, capsys)
        assert code == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted(e["m"] for e in entries) == [8, 16, 32]
        # The second run appends to the same log; its report must not change.
        code, second, _ = _run(argv, capsys)
        assert code == 0
        assert second == first

    @pytest.mark.parametrize("via_env", [False, True])
    def test_directory_training_log_fails_before_search(
        self, series_csv, tmp_path, capsys, monkeypatch, via_env
    ):
        path, _ = series_csv
        calls = []
        monkeypatch.setattr(scheduler, "select_snippets", lambda *args, **kwargs: calls.append(1))
        argv = ["sweep", "--input", str(path), "--m-min", "8", "--m-max", "64", "--workers", "1"]
        if via_env:
            monkeypatch.setenv(scheduler.TRAINING_LOG_ENV, str(tmp_path))
        else:
            argv += ["--training-log", str(tmp_path)]
        code, out, err = _run(argv, capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert calls == []

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_workers_env_is_usage_error(self, series_csv, capsys, monkeypatch, value):
        path, _ = series_csv
        monkeypatch.setenv("SNIPLAB_WORKERS", value)
        code, out, err = _run(
            ["sweep", "--input", str(path), "--m-min", "8", "--m-max", "32", "--no-log"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: SNIPLAB_WORKERS") and err.count("\n") == 1


class TestLabel:
    def test_labels_whole_series(self, series_csv, tmp_path, capsys):
        path, _ = series_csv
        out_path = tmp_path / "labels.txt"
        code, _, _ = _run(
            [
                "label", "--input", str(path), "--m", "16", "--k", "2",
                "--output", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        labels = [int(line) for line in out_path.read_text().split()]
        assert len(labels) == 512
        assert set(labels) <= {0, 1}

    def test_labels_to_stdout(self, series_csv, capsys):
        path, _ = series_csv
        code, out, _ = _run(
            ["label", "--input", str(path), "--m", "16", "--k", "1"], capsys
        )
        assert code == 0
        assert out.split() == ["0"] * 512

    def test_stdout_bytes_equal_output_file(self, series_csv, tmp_path, capsysbinary):
        path, _ = series_csv
        out_path = tmp_path / "labels.csv"
        argv = ["label", "--input", str(path), "--m", "16", "--k", "2", "--workers", "1"]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        assert main(argv + ["--output", str(out_path)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert stdout == out_path.read_bytes()

    def test_l_above_m_is_usage_error(self, series_csv, capsys):
        path, _ = series_csv
        code, _, err = _run(
            ["label", "--input", str(path), "--m", "16", "--l", "32"], capsys
        )
        assert code == 2
        assert "--l" in err.splitlines()[-1]


class TestEval:
    def _write_labels(self, path, labels):
        path.write_text("".join(f"{v}\n" for v in labels))

    def test_identity_scores_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        self._write_labels(pred, [0] * 5 + [1] * 5)
        self._write_labels(truth, [0] * 5 + [1] * 5)
        code, out, _ = _run(["eval", "--pred", str(pred), "--truth", str(truth)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["macro_f1"] == 1.0
        for cls in doc["classes"]:
            assert {"truth_class", "predicted_class", "tp", "fp", "fn",
                    "precision", "recall", "f1"} <= set(cls)

    def test_length_mismatch_names_both(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        self._write_labels(pred, [0, 1, 0])
        self._write_labels(truth, [0, 1])
        code, _, err = _run(["eval", "--pred", str(pred), "--truth", str(truth)], capsys)
        assert code == 1
        assert "3" in err and "2" in err

    def test_roundtrip_from_label_command(self, series_csv, tmp_path, capsys):
        path, regime = series_csv
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        code, _, _ = _run(
            ["label", "--input", str(path), "--m", "16", "--k", "2",
             "--output", str(pred)],
            capsys,
        )
        assert code == 0
        self._write_labels(truth, regime.tolist())
        report_path = tmp_path / "report.json"
        code, _, _ = _run(
            ["eval", "--pred", str(pred), "--truth", str(truth),
             "--output", str(report_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["macro_f1"] > 0.8


class TestEntryPoint:
    def test_installed_script_runs(self, series_csv, tmp_path):
        path, _ = series_csv
        exe = shutil.which("sniplab")
        if exe is None:
            cmd = [sys.executable, "-m", "sniplab"]
        else:
            cmd = [exe]
        proc = subprocess.run(
            cmd + ["discover", "--input", str(path), "--m", "16"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == 1

    def test_runs_on_numpy_alone(self, series_csv, tmp_path):
        # README promises Python and numpy only: the commands must not
        # import a test-only package, which the test install would hide.
        path, _ = series_csv
        script = (
            "import json, sys\n"
            "import sniplab\n"
            "from sniplab import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(json.dumps([name for name in ('scipy', 'hypothesis') if name in sys.modules]))\n"
        )
        commands = [
            ["discover", "--input", str(path), "--m", "16", "--output", str(tmp_path / "d.json")],
            ["label", "--input", str(path), "--m", "16", "--output", str(tmp_path / "l.csv")],
            [
                "sweep", "--input", str(path), "--m-min", "8", "--m-max", "32",
                "--workers", "1", "--no-log", "--output", str(tmp_path / "s.json"),
            ],
        ]
        package_root = str(Path(sniplab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=package_root)
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize(
        "command, data",
        [("discover", "1" * 200_000 + "\n1\n2\n"), ("eval", "0\n99999999999999999999\n")],
        ids=["oversized-csv-cell", "out-of-range-label"],
    )
    def test_bad_data_exits_without_traceback(self, tmp_path, command, data):
        path = tmp_path / "data.csv"
        path.write_text(data)
        if command == "discover":
            argv = ["discover", "--input", str(path), "--m", "2"]
        else:
            argv = ["eval", "--pred", str(path), "--truth", str(path)]
        package_root = str(Path(sniplab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "sniplab"] + argv,
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
